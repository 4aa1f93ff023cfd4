(* serve: a closed loop over loopback TCP to a Server with the default
   configuration and 1 worker, running in the benchmark process. The
   load comes from one client process (forked before the server starts)
   with one thread and one connection: it cycles a hot working set that
   fits the 64-entry LRU, and every third request is a cold small
   single-workload fig6 scenario, a miss that forces an LRU insert and
   eviction while the hot entries stay resident. One unit is one request.
   The only workload that exercises server (Json, Protocol, Lru,
   scheduler, Client) and Scenario.hash.

   The client runs in its own process because a client thread in the
   server's process shares the domain lock with the server's connection
   thread: whether the server thread woke before or after the client let
   go of the lock split hot requests into two modes, and the median
   request moved between them from run to run. *)

open Bx
module Sc = Ptg_sim.Scenario
module Srv = Ptg_server.Server
module Cl = Ptg_server.Client
module P = Ptg_server.Protocol

(* 32 hot entries plus the 16 cold inserts between two uses of one of
   them stay under the 64-entry LRU; 96 cold scenarios, cycled, are each
   evicted long before they recur, so every cold request misses. *)
let hot_n = 32
let cold_n = 96
let pass_requests = 30
let is_cold r = r mod 3 = 2

let scenario ctx ~seed i =
  let specs = Ptg_workloads.Workload.all in
  let spec = List.nth specs (i mod List.length specs) in
  let instrs, warmup = if ctx.tiny then (5_000, 1_000) else (50_000, 10_000) in
  Sc.make ~seed ~reduced:true ~workloads:[ spec.Ptg_workloads.Workload.name ] ~instrs ~warmup
    Sc.Fig6

let stat server key = Option.value ~default:0.0 (List.assoc_opt key (Srv.stats server))

let start ?obs () = Srv.start { (Srv.default_config (Srv.Tcp 0)) with workers = 1; obs }

let port server =
  match Srv.listen_addr server with Srv.Tcp p -> p | Srv.Unix_socket _ -> assert false

(* Connect and negotiate, as a client does before its first request. *)
let connect port =
  let conn = Cl.connect ~timeout_s:5.0 (Srv.Tcp port) in
  (match Cl.hello ~timeout_s:5.0 conn with
  | Ok _ -> ()
  | Error e -> failwith ("serve: hello failed: " ^ e));
  conn

(* The p50 of an obs latency histogram, interpolated within its bucket. *)
let histogram_p50 snap name =
  let rows = Ptg_obs.Registry.rows snap in
  let total = obs_value snap (name ^ "_count") in
  let prefix = name ^ "_le_" in
  let bounds =
    List.filter_map
      (fun (k, v) ->
        let n = String.length prefix in
        if String.length k > n && String.sub k 0 n = prefix then
          match float_of_string_opt (String.sub k n (String.length k - n)) with
          | Some b -> Some (b, v)
          | None -> None
        else None)
      rows
    |> List.sort compare
  in
  let half = total /. 2.0 in
  let rec find lo below = function
    | [] -> lo
    | (b, cum) :: rest ->
        if cum >= half && cum > below then lo +. ((b -. lo) *. (half -. below) /. (cum -. below))
        else find b cum rest
  in
  find 0.0 0.0 bounds

(* What the client process sends back when its budget is spent. *)
type client_result = {
  units : float list;
  cold_times : float list;
  busy : float list;  (* per pass: the sum of its request times *)
  c_attempted : int;
  c_failed : int;
  client_spans : span list;
}

type client = { pid : int; go : out_channel; result : in_channel }

(* The client's closed loop: warm the hot set, then whole passes of
   2 hot requests to 1 cold one until the budget is spent. *)
let client_loop ctx conn ~budget ~hot ~hot_ref ~cold ~cold_ref =
  let request ~unit_id sc ~expected ~want =
    let t, reply = time (fun () -> with_span ~unit_id "Client.run" (fun () -> Cl.run conn sc)) in
    check ctx
      ("serve: reply is a " ^ P.cache_disposition_name want ^ " equal to the in-process run")
      (match reply with
      | Ok (P.Result { cache; result; _ }) -> cache = want && result = expected
      | _ -> false);
    t
  in
  Array.iteri (fun i sc -> ignore (request ~unit_id:(-1) sc ~expected:hot_ref.(i) ~want:P.Miss)) hot;
  let units = ref [] and cold_times = ref [] and busy = ref [] in
  let next_hot = ref 0 and next_cold = ref 0 in
  ignore
    (run_passes ~budget (fun i ->
         let total = ref 0.0 in
         for r = 0 to pass_requests - 1 do
           let unit_id = (i * pass_requests) + r in
           let t =
             if is_cold r then begin
               let j = !next_cold mod cold_n in
               incr next_cold;
               let t = request ~unit_id cold.(j) ~expected:(snd cold_ref.(j)) ~want:P.Miss in
               cold_times := t :: !cold_times;
               t
             end
             else begin
               let j = !next_hot mod hot_n in
               incr next_hot;
               request ~unit_id hot.(j) ~expected:hot_ref.(j) ~want:P.Hit
             end
           in
           units := t :: !units;
           total := !total +. t
         done;
         busy := !total :: !busy;
         pass_requests));
  (!units, !cold_times, !busy)

(* Fork a client process that waits for a port, a budget and the tracing
   flag on [go], runs the closed loop against that port and sends a
   [client_result] back. Forked before any domain or server thread
   exists. *)
let fork_client ctx ~hot ~hot_ref ~cold ~cold_ref =
  let go_r, go_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close go_w;
      Unix.close res_r;
      let code =
        try
          let port, budget, traced =
            (Marshal.from_channel (Unix.in_channel_of_descr go_r) : int * float * bool)
          in
          let before_a = ctx.attempted and before_f = ctx.failed in
          spans := [];
          tracing := traced;
          let conn = connect port in
          let units, cold_times, busy =
            client_loop ctx conn ~budget ~hot ~hot_ref ~cold ~cold_ref
          in
          Cl.close conn;
          let oc = Unix.out_channel_of_descr res_w in
          Marshal.to_channel oc
            { units; cold_times; busy; c_attempted = ctx.attempted - before_a;
              c_failed = ctx.failed - before_f; client_spans = !spans }
            [];
          close_out oc;
          0
        with e ->
          Printf.eprintf "serve client: %s\n%!" (Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid ->
      Unix.close go_r;
      Unix.close res_w;
      { pid; go = Unix.out_channel_of_descr go_w; result = Unix.in_channel_of_descr res_r }

(* Hand the client a running server and wait for its result. *)
let drive ctx client ~port ~budget ~traced =
  Marshal.to_channel client.go (port, budget, traced) [];
  close_out client.go;
  let r =
    match (Marshal.from_channel client.result : client_result) with
    | r -> Some r
    | exception End_of_file -> None
  in
  close_in client.result;
  match (r, snd (Unix.waitpid [] client.pid)) with
  | Some r, Unix.WEXITED 0 ->
      ctx.attempted <- ctx.attempted + r.c_attempted;
      ctx.failed <- ctx.failed + r.c_failed;
      spans := r.client_spans @ !spans;
      r
  | _ -> failwith "serve: the client process failed"

let run ctx =
  let base = Int64.of_int (ctx.seed * 100_000) in
  let hot = Array.init hot_n (fun i -> scenario ctx ~seed:(Int64.add base (Int64.of_int i)) i) in
  let cold =
    Array.init cold_n (fun i -> scenario ctx ~seed:(Int64.add base (Int64.of_int (1000 + i))) i)
  in
  (* In-process references: every reply must equal these bytes. The cold
     ones are timed for the cold overhead. *)
  let hot_ref = Array.map Sc.run_to_string hot in
  let cold_ref = Array.map (fun sc -> time (fun () -> Sc.run_to_string sc)) cold in
  ctx.digest <-
    digest (String.concat "" (Array.to_list hot_ref @ Array.to_list (Array.map snd cold_ref)));
  info "load: closed loop, 1 client process with 1 thread and 1 connection; \
        server in the benchmark process with 1 worker; %d hot scenarios, \
        1 request in 3 cold from a pool of %d" hot_n cold_n;
  let clients =
    List.init (if ctx.traced then 2 else 1) (fun _ -> fork_client ctx ~hot ~hot_ref ~cold ~cold_ref)
  in
  let setup =
    List.init 40 (fun _ ->
        let s = ref None in
        let t =
          setup_sample (fun () ->
              let server = start () in
              s := Some (server, connect (port server)))
        in
        Option.iter
          (fun (server, conn) ->
            Cl.close conn;
            Srv.stop server)
          !s;
        t)
  in
  (* One half: a fresh server and one client process against it.
     Allocation and GC counts are the server process's, per request. *)
  let measure ?obs client budget =
    let server = start ?obs () in
    let r = ref None in
    let pass =
      measure_pass (fun () ->
          let c = drive ctx client ~port:(port server) ~budget ~traced:(obs <> None) in
          r := Some c;
          List.length c.units)
    in
    let r = Option.get !r in
    check ctx "serve: nothing shed" (stat server "shed" = 0.0);
    check ctx "serve: no error replies" (stat server "errors" = 0.0);
    let e =
      {
        setup;
        units = r.units;
        passes = [ pass ];
        throughput = float_of_int pass_requests /. steady_mean (List.rev r.busy);
        heap_peak_mb = heap_mb ();
      }
    in
    (e, r, server)
  in
  let budget = if ctx.traced then ctx.seconds /. 2.0 else ctx.seconds in
  let untraced, _, server = measure (List.hd clients) budget in
  Srv.stop server;
  if ctx.traced then begin
    let sink = Ptg_obs.Sink.create () in
    let depth = Ptg_obs.Registry.gauge (Ptg_obs.Sink.registry sink) "server_queue_depth" in
    let depth_max = ref 0.0 and sampling = ref true in
    let sampler =
      Thread.create
        (fun () ->
          while !sampling do
            depth_max := Float.max !depth_max (Ptg_obs.Registry.gauge_value depth);
            Thread.delay 0.005
          done)
        ()
    in
    let traced, r, server = measure ~obs:sink (List.nth clients 1) budget in
    sampling := false;
    Thread.join sampler;
    trace_overhead ctx ~untraced ~traced;
    gc_layer ctx untraced;
    let st = stat server in
    layer ctx "lru.hits" (st "cache_hits");
    layer ctx "lru.misses" (st "cache_misses");
    layer ctx "lru.evictions" (st "cache_evictions");
    layer ctx "lru.hit_ratio" (st "cache_hits" /. Float.max 1.0 (st "cache_hits" +. st "cache_misses"));
    layer ctx "server.coalesced" (st "coalesced");
    layer ctx "server.shed" (st "shed");
    layer ctx "server.errors" (st "errors");
    layer ctx "server.queue_depth_max" !depth_max;
    layer ctx "server.request_p50_us"
      (histogram_p50 (Ptg_obs.Sink.metrics sink) "server_request_latency_us");
    (* Cold latency minus the in-process compute of the same scenarios. *)
    layer ctx "server.cold_overhead_ms"
      (1e3 *. (median r.cold_times -. median (Array.to_list (Array.map fst cold_ref))));
    let addr = Srv.listen_addr server in
    layer ctx "client.connect_ms"
      (1e3 *. median_call ~reps:20 (fun _ -> Cl.close (Cl.connect ~timeout_s:5.0 addr)));
    (* Router hop, from this process: hot requests straight to the shard,
       then through a Router with a 1-entry cache in front of it, so each
       routed request is forwarded and hits the shard's cache. *)
    let router =
      Ptg_server.Router.start
        { (Ptg_server.Router.default_config (Srv.Tcp 0) ~shards:[ addr ]) with cache_capacity = 1 }
    in
    let hot_via conn =
      List.init (2 * hot_n) (fun i ->
          let j = i mod hot_n in
          fst
            (time (fun () ->
                 check ctx "serve: hot reply equals the in-process run"
                   (match Cl.run conn hot.(j) with
                   | Ok (P.Result { result; _ }) -> result = hot_ref.(j)
                   | _ -> false))))
    in
    let direct = connect (port server) in
    let direct_s = hot_via direct in
    Cl.close direct;
    let rconn = Cl.connect ~timeout_s:5.0 (Ptg_server.Router.listen_addr router) in
    let routed_s = hot_via rconn in
    Cl.close rconn;
    Ptg_server.Router.stop router;
    layer ctx "router.hop_us" (1e6 *. (median routed_s -. median direct_s));
    Srv.stop server;
    (* Codec replays on this run's frames. *)
    let frames =
      Array.to_list
        (Array.mapi
           (fun i sc ->
             let reply = P.Result { cache = P.Hit; hash = Sc.hash sc; result = hot_ref.(i) } in
             (sc, reply, P.encode_request (P.Run sc), P.encode_response reply))
           hot)
    in
    let us f =
      1e6
      *. median
           (List.concat_map (fun x -> List.init 20 (fun _ -> fst (time (fun () -> f x)))) frames)
    in
    layer ctx "json.us_per_parse" (us (fun (_, _, _, resp) -> Ptg_server.Json.parse resp));
    (* One round trip's framing: the request and the reply, encoded and
       decoded. *)
    layer ctx "protocol.us_per_encode"
      (us (fun (sc, reply, _, _) ->
           ignore (P.encode_request (P.Run sc));
           ignore (P.encode_response reply)));
    layer ctx "protocol.us_per_decode"
      (us (fun (_, _, req, resp) ->
           ignore (P.decode_request req);
           ignore (P.decode_response resp)));
    layer ctx "scenario.us_per_hash" (us (fun (sc, _, _, _) -> Sc.hash sc))
  end;
  untraced
