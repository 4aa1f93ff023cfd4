(* "stats and metrics cannot disagree": every counter row of the [stats]
   payload must equal the registry row of the same event, for the
   server ([server_*_total]) and the router ([router_*_total]). Each
   test drives every counted outcome it can reach without timers it
   does not control — miss, hit, coalesced duplicate, shed, malformed
   frame, v2 cancel, deadline timeout, orphaned stop, warm start and a
   crashing handler for the server; hit, forward, re-route off a dead
   shard, no live shard, cancel error and malformed frame for the
   router — then compares the two views. The same traffic against an
   instance without a sink must produce the same [stats] rows. *)

module Server = Ptg_server.Server
module Router = Ptg_server.Router
module Ring = Ptg_server.Ring
module Client = Ptg_server.Client
module Protocol = Ptg_server.Protocol
module Scenario = Ptg_sim.Scenario
module Registry = Ptg_obs.Registry
module Clock = Ptg_util.Clock

let scenario_seed seed = Scenario.make ~seed Scenario.Fig8

let wait_until what f =
  let deadline = Clock.ns_after (Clock.now_ns ()) 10.0 in
  while not (f ()) do
    if Clock.now_ns () >= deadline then Alcotest.failf "timed out waiting for %s" what;
    Thread.delay 0.01
  done

let row rows key =
  match List.assoc_opt key rows with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "stats row %s missing" key

let metric sink key =
  match Registry.find (Ptg_obs.Sink.metrics sink) key with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "metric %s missing" key

(* One raw line-JSON exchange: the malformed-frame path needs bytes the
   client would never encode. *)
let raw_exchange addr line =
  let port = match addr with Server.Tcp p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc (line ^ "\n");
  flush oc;
  let reply = input_line ic in
  close_out_noerr oc;
  reply

let expect_status what want = function
  | Ok r when r = want -> ()
  | Ok r -> Alcotest.failf "%s: unexpected frame %s" what (Protocol.encode_response r)
  | Error e -> Alcotest.failf "%s: %s" what e

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

let server_pairs =
  [
    ("accept_errors", "server_accept_errors_total");
    ("cache_evictions", "server_cache_evictions_total");
    ("cache_hits", "server_cache_hits_total");
    ("cache_misses", "server_cache_misses_total");
    ("cancelled", "server_cancelled_total");
    ("coalesced", "server_coalesced_total");
    ("conn_shed", "server_conns_shed_total");
    ("errors", "server_errors_total");
    ("faults_injected", "server_faults_injected_total");
    ("idle_closed", "server_conns_idle_closed_total");
    ("orphaned_stops", "server_orphaned_stops_total");
    ("pool_dropped", "server_pool_dropped_exceptions_total");
    ("served", "server_served_total");
    ("shed", "server_shed_total");
    ("sliced", "server_sliced_total");
    ("timeouts", "server_timeouts_total");
    ("warm_starts", "server_warm_starts_total");
  ]

(* Seed 1 is quick and reports a warm start; seed 2 runs until
   [release] (or until nobody waits); seed 4 runs until nobody waits,
   so its waiter times out and the worker stops as an orphan; seed 5
   raises. *)
let drive_server ?obs () =
  let release = Atomic.make false in
  let handler_ext ~progress ~should_stop (s : Scenario.t) =
    let stopped () =
      { Ptg_sim.Checkpoint.text = None; completed = false; resumed_from = None }
    in
    match s.Scenario.seed with
    | 1L ->
        { Ptg_sim.Checkpoint.text = Some "one"; completed = true;
          resumed_from = Some 1 }
    | 2L ->
        let i = ref 0 in
        while (not (Atomic.get release)) && not (should_stop ()) do
          incr i;
          progress ~done_count:!i ~total:1_000_000;
          Thread.delay 0.01
        done;
        if Atomic.get release then
          { Ptg_sim.Checkpoint.text = Some "two"; completed = true;
            resumed_from = None }
        else stopped ()
    | 4L ->
        while not (should_stop ()) do
          Thread.delay 0.01
        done;
        stopped ()
    | 5L -> failwith "handler crashed"
    | _ -> { Ptg_sim.Checkpoint.text = Some "other"; completed = true;
             resumed_from = None }
  in
  let config =
    {
      (Server.default_config (Server.Tcp 0)) with
      Server.workers = 2;
      high_water = 1;
      cache_capacity = 1;
      deadline_s = 1.5;
      obs;
      handler_ext = Some handler_ext;
    }
  in
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let addr = Server.listen_addr server in
      let stat key = row (Server.stats server) key in
      let c = Client.connect addr in
      (* Miss, then hit. *)
      (match Client.run c (scenario_seed 1L) with
      | Ok (Protocol.Result { cache = Protocol.Miss; _ }) -> ()
      | _ -> Alcotest.fail "expected a miss");
      (match Client.run c (scenario_seed 1L) with
      | Ok (Protocol.Result { cache = Protocol.Hit; _ }) -> ()
      | _ -> Alcotest.fail "expected a hit");
      (* A cancellable v2 stream holds the only in-flight slot... *)
      let started = Atomic.make false in
      let victim_reply = ref (Error "unset") in
      let victim_conn = Client.connect addr in
      let victim =
        Thread.create
          (fun () ->
            victim_reply :=
              Client.run_stream ~id:"victim"
                ~on_progress:(fun ~done_count:_ ~total:_ -> Atomic.set started true)
                victim_conn (scenario_seed 2L))
          ()
      in
      wait_until "the victim to start" (fun () -> Atomic.get started);
      (* ...a duplicate coalesces onto it... *)
      let dup_reply = ref (Error "unset") in
      let dup_conn = Client.connect addr in
      let dup =
        Thread.create
          (fun () -> dup_reply := Client.run dup_conn (scenario_seed 2L))
          ()
      in
      wait_until "the duplicate to coalesce" (fun () -> stat "coalesced" = 1);
      (* ...a different scenario is shed at high water... *)
      expect_status "shed" Protocol.Overloaded (Client.run c (scenario_seed 3L));
      (* ...the victim is cancelled (the duplicate keeps the run alive)... *)
      (match Client.cancel c ~target:"victim" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "cancel rejected: %s" e);
      Thread.join victim;
      Client.close victim_conn;
      expect_status "victim" Protocol.Cancelled !victim_reply;
      (* ...and the duplicate gets the result once it is released. *)
      Atomic.set release true;
      Thread.join dup;
      Client.close dup_conn;
      (match !dup_reply with
      | Ok (Protocol.Result { cache = Protocol.Coalesced; result = "two"; _ }) -> ()
      | _ -> Alcotest.fail "expected a coalesced result");
      wait_until "the slot to free" (fun () -> stat "inflight" = 0);
      (* A malformed frame. *)
      let reply = raw_exchange addr "this is not json" in
      Alcotest.(check bool) "malformed frame answered with an error" true
        (String.length reply > 0);
      (* A deadline timeout; its worker then stops as an orphan. *)
      expect_status "timeout" Protocol.Timeout (Client.run c (scenario_seed 4L));
      wait_until "the orphan to stop" (fun () -> stat "orphaned_stops" = 1);
      wait_until "the slot to free" (fun () -> stat "inflight" = 0);
      (* A crashing computation. *)
      (match Client.run c (scenario_seed 5L) with
      | Ok (Protocol.Error_reply _) -> ()
      | _ -> Alcotest.fail "expected an error frame");
      Client.close c;
      Server.stats server)

let test_server_stats_match_metrics () =
  let sink = Ptg_obs.Sink.create () in
  let rows = drive_server ~obs:sink () in
  List.iter
    (fun (key, name) ->
      Alcotest.(check int) (key ^ " = " ^ name) (metric sink name) (row rows key))
    server_pairs;
  List.iter
    (fun (key, want) -> Alcotest.(check int) key want (row rows key))
    [
      ("served", 3);
      ("cache_hits", 1);
      ("coalesced", 1);
      ("shed", 1);
      ("cancelled", 1);
      ("timeouts", 1);
      ("orphaned_stops", 1);
      ("warm_starts", 1);
      (* the malformed frame and the crashing handler *)
      ("errors", 2);
    ];
  Alcotest.(check bool) "an eviction happened" true (row rows "cache_evictions" > 0);
  (* Without a sink the same traffic counts the same events. *)
  let bare = drive_server () in
  List.iter
    (fun (key, _) ->
      Alcotest.(check int) (key ^ " without a sink") (row rows key) (row bare key))
    server_pairs

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

let router_pairs =
  [
    ("accept_errors", "router_accept_errors_total");
    ("adoptions", "router_adoptions_total");
    ("cache_hits", "router_cache_hits_total");
    ("cache_misses", "router_cache_misses_total");
    ("conn_shed", "router_conns_shed_total");
    ("errors", "router_errors_total");
    ("forwarded", "router_forwarded_total");
    ("idle_closed", "router_conns_idle_closed_total");
    ("no_live", "router_no_live_shard_total");
    ("overloaded", "router_overloaded_total");
    ("reroutes", "router_reroutes_total");
    ("served", "router_served_total");
    ("timeouts", "router_timeouts_total");
  ]

let shard_label name i = Printf.sprintf "%s{shard=\"%d\"}" name i

let fast_policy =
  { Client.attempts = 2; base_backoff_s = 0.01; max_backoff_s = 0.05; jitter = 0.5 }

let dead_addr () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  Unix.close fd;
  Server.Tcp port

(* The first seeds at or after [from] whose scenario the ring gives to
   [shard] with both shards live. *)
let owned_by ring shard ~from =
  let rec go seed =
    let s = scenario_seed seed in
    if Ring.route ring ~live:[| true; true |] (Scenario.hash64 s) = Some shard then s
    else go (Int64.succ seed)
  in
  go from

let drive_router ?obs () =
  let shard =
    Server.start
      {
        (Server.default_config (Server.Tcp 0)) with
        Server.workers = 1;
        handler = Some (fun s -> "res-" ^ Scenario.hash s);
      }
  in
  let shard_stopped = ref false in
  let dead = dead_addr () in
  let config =
    {
      (Router.default_config (Server.Tcp 0) ~shards:[ Server.listen_addr shard; dead ])
      with
      Router.retry = fast_policy;
      connect_timeout_s = 0.5;
      request_timeout_s = 5.;
      health_interval_s = 60.;
      strike_limit = 1;
      obs;
    }
  in
  let router = Router.start config in
  let ring = Ring.create ~vnodes:config.Router.vnodes 2 in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      if not !shard_stopped then Server.stop shard)
    (fun () ->
      let addr = Router.listen_addr router in
      let c = Client.connect addr in
      let live_one = owned_by ring 0 ~from:1L in
      let dead_one = owned_by ring 1 ~from:1L in
      (* Forward, then hit. *)
      (match Client.run c live_one with
      | Ok (Protocol.Result { cache = Protocol.Miss; _ }) -> ()
      | _ -> Alcotest.fail "expected a forwarded miss");
      (match Client.run c live_one with
      | Ok (Protocol.Result { cache = Protocol.Hit; _ }) -> ()
      | _ -> Alcotest.fail "expected a router hit");
      (* Re-route off the dead shard: ejected, then adopted by shard 0. *)
      (match Client.run c dead_one with
      | Ok (Protocol.Result _) -> ()
      | _ -> Alcotest.fail "expected a re-routed result");
      (* A cancel names nothing the router could stop. *)
      (match Client.cancel c ~target:"nobody" with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "router accepted a cancel");
      (* A malformed frame. *)
      ignore (raw_exchange addr "{\"v\":1,\"op\":");
      (* No live shard: the last one goes away. *)
      Server.stop shard;
      shard_stopped := true;
      let other = owned_by ring 0 ~from:(Int64.succ live_one.Scenario.seed) in
      expect_status "no live shard" Protocol.Overloaded (Client.run c other);
      Client.close c;
      Router.stats router)

let test_router_stats_match_metrics () =
  let sink = Ptg_obs.Sink.create () in
  let rows = drive_router ~obs:sink () in
  List.iter
    (fun (key, name) ->
      Alcotest.(check int) (key ^ " = " ^ name) (metric sink name) (row rows key))
    router_pairs;
  let sum name = metric sink (shard_label name 0) + metric sink (shard_label name 1) in
  Alcotest.(check int) "ejections = sum of router_shard_ejections_total"
    (sum "router_shard_ejections_total") (row rows "ejections");
  Alcotest.(check int) "readmissions = sum of router_shard_readmissions_total"
    (sum "router_shard_readmissions_total") (row rows "readmissions");
  for i = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "shard%d_requests" i)
      (metric sink (shard_label "router_shard_requests_total" i))
      (row rows (Printf.sprintf "shard%d_requests" i));
    Alcotest.(check int)
      (Printf.sprintf "shard%d_ejections" i)
      (metric sink (shard_label "router_shard_ejections_total" i))
      (row rows (Printf.sprintf "shard%d_ejections" i))
  done;
  List.iter
    (fun (key, want) -> Alcotest.(check int) key want (row rows key))
    [
      ("served", 3);
      ("forwarded", 2);
      ("cache_hits", 1);
      ("reroutes", 2);
      ("adoptions", 1);
      ("ejections", 2);
      ("no_live", 1);
      (* the cancel and the malformed frame *)
      ("errors", 2);
    ];
  let bare = drive_router () in
  List.iter
    (fun key ->
      Alcotest.(check int) (key ^ " without a sink") (row rows key) (row bare key))
    (List.map fst router_pairs
    @ [ "ejections"; "readmissions"; "shard0_requests"; "shard1_requests";
        "shard0_ejections"; "shard1_ejections" ])

(* ------------------------------------------------------------------ *)
(* Front-end counters and shared sinks                                 *)
(* ------------------------------------------------------------------ *)

(* A connection over the cap is shed and a silent one is closed idle;
   both land in the tier's own [stats] row and registry series. [start]
   brings a tier up on [sink] with a cap of one connection and a short
   idle timeout, and returns its address, its [stats] and its [stop]. *)
let check_front_end ~prefix start =
  let sink = Ptg_obs.Sink.create () in
  let addr, stats, stop = start sink in
  Fun.protect ~finally:stop (fun () ->
      let held = Client.connect addr in
      wait_until "the held connection" (fun () -> row (stats ()) "conns" = 1);
      (* Over the cap: told [overloaded] and hung up. *)
      let port = match addr with Server.Tcp p -> p | _ -> assert false in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr fd in
      Alcotest.(check bool) "shed connection told why" true
        (String.length (input_line ic) > 0);
      close_in_noerr ic;
      (* The held connection says nothing and is closed idle. *)
      wait_until "the idle close" (fun () -> row (stats ()) "idle_closed" = 1);
      Client.close held;
      let rows = stats () in
      List.iter
        (fun (key, name) ->
          Alcotest.(check int) (key ^ " = " ^ prefix ^ name)
            (metric sink (prefix ^ name)) (row rows key))
        [
          ("conn_shed", "_conns_shed_total");
          ("idle_closed", "_conns_idle_closed_total");
          ("accept_errors", "_accept_errors_total");
        ];
      Alcotest.(check int) "one connection shed" 1 (row rows "conn_shed"))

let test_front_end_counters () =
  let quiet_server ?obs ?(max_conns = 256) ?(idle_timeout_s = 60.) () =
    Server.start
      {
        (Server.default_config (Server.Tcp 0)) with
        Server.workers = 1;
        max_conns;
        idle_timeout_s;
        obs;
        handler = Some (fun _ -> "x");
      }
  in
  check_front_end ~prefix:"server" (fun sink ->
      let server = quiet_server ~obs:sink ~max_conns:1 ~idle_timeout_s:0.3 () in
      ( Server.listen_addr server,
        (fun () -> Server.stats server),
        fun () -> Server.stop server ));
  let shard = quiet_server () in
  Fun.protect
    ~finally:(fun () -> Server.stop shard)
    (fun () ->
      check_front_end ~prefix:"router" (fun sink ->
          let router =
            Router.start
              {
                (Router.default_config (Server.Tcp 0)
                   ~shards:[ Server.listen_addr shard ])
                with
                Router.max_conns = 1;
                idle_timeout_s = 0.3;
                health_interval_s = 60.;
                obs = Some sink;
              }
          in
          ( Router.listen_addr router,
            (fun () -> Router.stats router),
            fun () -> Router.stop router )))

(* One sink shared by two servers: each counter is the sum of both, and
   so is each server's [stats] row — they read the same counters. *)
let test_shared_sink_sums () =
  let sink = Ptg_obs.Sink.create () in
  let start () =
    Server.start
      {
        (Server.default_config (Server.Tcp 0)) with
        Server.workers = 1;
        obs = Some sink;
        handler = Some (fun _ -> "x");
      }
  in
  let a = start () and b = start () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop a;
      Server.stop b)
    (fun () ->
      List.iter
        (fun (server, seed) ->
          let c = Client.connect (Server.listen_addr server) in
          (match Client.run c (scenario_seed seed) with
          | Ok (Protocol.Result _) -> ()
          | _ -> Alcotest.fail "run");
          Client.close c)
        [ (a, 1L); (b, 2L); (b, 3L) ];
      Alcotest.(check int) "registry sums both servers" 3
        (metric sink "server_served_total");
      Alcotest.(check int) "server a's stats read the shared counter" 3
        (row (Server.stats a) "served");
      Alcotest.(check int) "server b's too" 3 (row (Server.stats b) "served"))

let suite =
  [
    Alcotest.test_case "server stats rows equal their metrics" `Slow
      test_server_stats_match_metrics;
    Alcotest.test_case "router stats rows equal their metrics" `Slow
      test_router_stats_match_metrics;
    Alcotest.test_case "front-end counters equal their metrics" `Slow
      test_front_end_counters;
    Alcotest.test_case "servers sharing a sink sum their counts" `Quick
      test_shared_sink_sums;
  ]
