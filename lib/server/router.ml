(* Sharding front tier for the scenario service.

   The router accepts the same line-JSON protocol the shards speak and
   forwards each [run] to the backend shard owning the scenario's
   canonical hash on a consistent-hash ring ([Ring]). In front of the
   shards it keeps its own hot-set LRU over the union of the per-shard
   caches, so repeat requests for the hottest scenarios are answered
   without a network hop at all.

   Failure handling follows the client's fault taxonomy:

   - transport failures (connect refused, torn/closed connection,
     request timeout at the socket) are first retried by the inter-tier
     [Client.session]; when its retries are exhausted the shard is
     ejected and the request re-routed to the next live shard on the
     ring — a non-shed request is never lost to a shard crash;
   - server-decided [Timeout] and [Overloaded] replies pass through to
     the caller (that policy belongs to the edge client) but count as
     health strikes against the shard;
   - a health thread pings every shard each interval: failures add
     strikes until the shard is ejected, a successful ping resets the
     strikes and re-admits an ejected shard, restoring its original
     keyspace.

   Connections are [Frontend]'s, as for [Server]; this module answers
   [run] and [cancel] and owns the ring, health checks and forwarding.
   Forwarding is I/O-bound, so requests run inline on the connection
   thread — no worker pool. Event counters live in the obs sink's
   registry (a private one without a sink) and [stats] reads the same
   counters; [router_request] trace events need a sink. *)

module Scenario = Ptg_sim.Scenario
module Registry = Ptg_obs.Registry
module Trace = Ptg_obs.Trace

type config = {
  addr : Server.addr;
  shards : Server.addr list;
  cache_capacity : int;
  cache_bytes : int option;
  vnodes : int;
  retry : Client.retry_policy;
  connect_timeout_s : float;
  request_timeout_s : float;
  health_interval_s : float;
  strike_limit : int;
  idle_timeout_s : float;
  max_conns : int;
  drain_deadline_s : float;
  obs : Ptg_obs.Sink.t option;
}

let default_config addr ~shards =
  {
    addr;
    shards;
    cache_capacity = 64;
    cache_bytes = None;
    vnodes = 64;
    retry = Client.default_retry;
    connect_timeout_s = 1.0;
    request_timeout_s = 30.;
    health_interval_s = 0.5;
    strike_limit = 3;
    idle_timeout_s = 60.;
    max_conns = 256;
    drain_deadline_s = 5.;
    obs = None;
  }

(* Handles resolved once at startup; per-shard series are labelled with
   the shard index so one registry serves any topology. Every update
   happens under the router mutex. *)
type metrics = {
  c_served : Registry.counter;
  c_hits : Registry.counter;
  c_misses : Registry.counter;
  c_forwarded : Registry.counter;
  c_reroutes : Registry.counter;
  c_adoptions : Registry.counter;
  c_no_live : Registry.counter;
  c_errors : Registry.counter;
  c_timeouts : Registry.counter;
  c_overloaded : Registry.counter;
  shard_requests : Registry.counter array;
  shard_ejections : Registry.counter array;
  shard_readmissions : Registry.counter array;
  g_ring : Registry.gauge array;
  g_hit_ratio : Registry.gauge;
  g_live : Registry.gauge;
}

let make_metrics reg ~shards =
  let per name =
    Array.init shards (fun i ->
        Registry.counter reg ~labels:[ ("shard", string_of_int i) ] name)
  in
  {
    c_served = Registry.counter reg "router_served_total";
    c_hits = Registry.counter reg "router_cache_hits_total";
    c_misses = Registry.counter reg "router_cache_misses_total";
    c_forwarded = Registry.counter reg "router_forwarded_total";
    c_reroutes = Registry.counter reg "router_reroutes_total";
    c_adoptions = Registry.counter reg "router_adoptions_total";
    c_no_live = Registry.counter reg "router_no_live_shard_total";
    c_errors = Registry.counter reg "router_errors_total";
    c_timeouts = Registry.counter reg "router_timeouts_total";
    c_overloaded = Registry.counter reg "router_overloaded_total";
    shard_requests = per "router_shard_requests_total";
    shard_ejections = per "router_shard_ejections_total";
    shard_readmissions = per "router_shard_readmissions_total";
    g_ring =
      Array.init shards (fun i ->
          Registry.gauge reg
            ~labels:[ ("shard", string_of_int i) ]
            "router_ring_share");
    g_hit_ratio = Registry.gauge reg "router_cache_hit_ratio";
    g_live = Registry.gauge reg "router_live_shards";
  }

type shard_state = {
  s_addr : Server.addr;
  mutable live : bool;
  mutable strikes : int;
}

type state = {
  config : config;
  ring : Ring.t;
  states : shard_state array;
  mutex : Mutex.t;
  cache : Lru.t;
  mutable conn_seq : int;
  mutable health_stop : bool;
  mutable health_thread : Thread.t option;
  m : metrics;
  trace : Trace.t option;
}

type t = { state : state; front : Frontend.t }

let listen_addr t = Frontend.addr t.front
let stats t = Frontend.stats t.front
let stop t = Frontend.stop t.front
let wait t = Frontend.wait t.front

(* ------------------------------------------------------------------ *)
(* Shard health (all _locked helpers require the router mutex)         *)
(* ------------------------------------------------------------------ *)

let live_mask_locked t = Array.map (fun s -> s.live) t.states

let live_count_locked t =
  Array.fold_left (fun a s -> if s.live then a + 1 else a) 0 t.states

let sync_topology_gauges_locked t =
  let shares = Ring.ownership t.ring ~live:(live_mask_locked t) in
  Array.iteri (fun i g -> Registry.set_gauge g shares.(i)) t.m.g_ring;
  Registry.set_gauge t.m.g_live (float_of_int (live_count_locked t))

let eject_locked t i =
  let st = t.states.(i) in
  if st.live then begin
    st.live <- false;
    Registry.incr t.m.shard_ejections.(i);
    sync_topology_gauges_locked t
  end

let strike_locked t i =
  let st = t.states.(i) in
  st.strikes <- st.strikes + 1;
  if st.strikes >= t.config.strike_limit then eject_locked t i

let mark_healthy_locked t i =
  let st = t.states.(i) in
  st.strikes <- 0;
  if not st.live then begin
    st.live <- true;
    Registry.incr t.m.shard_readmissions.(i);
    sync_topology_gauges_locked t
  end

let sync_hit_ratio_locked t =
  let lookups = Lru.hits t.cache + Lru.misses t.cache in
  if lookups > 0 then
    Registry.set_gauge t.m.g_hit_ratio
      (float_of_int (Lru.hits t.cache) /. float_of_int lookups)

(* ------------------------------------------------------------------ *)
(* Stats (also the [stats] op payload, with the front end's rows).     *)
(* ------------------------------------------------------------------ *)

let own_stats t =
  let count c = float_of_int (Registry.counter_value c) in
  let sum cs =
    float_of_int (Array.fold_left (fun a c -> a + Registry.counter_value c) 0 cs)
  in
  let m = t.m in
  Mutex.lock t.mutex;
  let base =
    [
      ("adoptions", count m.c_adoptions);
      ("cache_bytes", float_of_int (Lru.bytes t.cache));
      ("cache_entries", float_of_int (Lru.length t.cache));
      ("cache_evictions", float_of_int (Lru.evictions t.cache));
      ("cache_hits", count m.c_hits);
      ("cache_misses", count m.c_misses);
      ("ejections", sum m.shard_ejections);
      ("errors", count m.c_errors);
      ("forwarded", count m.c_forwarded);
      ("no_live", count m.c_no_live);
      ("overloaded", count m.c_overloaded);
      ("readmissions", sum m.shard_readmissions);
      ("reroutes", count m.c_reroutes);
      ("served", count m.c_served);
      ("shards", float_of_int (Array.length t.states));
      ("shards_live", float_of_int (live_count_locked t));
      ("timeouts", count m.c_timeouts);
    ]
  in
  let per_shard =
    List.concat
      (List.init (Array.length t.states) (fun i ->
           [
             (Printf.sprintf "shard%d_ejections" i, count m.shard_ejections.(i));
             (Printf.sprintf "shard%d_live" i, if t.states.(i).live then 1. else 0.);
             (Printf.sprintf "shard%d_requests" i, count m.shard_requests.(i));
           ]))
  in
  Mutex.unlock t.mutex;
  base @ per_shard

let live_shards { state = t; _ } =
  Mutex.lock t.mutex;
  let mask = live_mask_locked t in
  Mutex.unlock t.mutex;
  mask

(* ------------------------------------------------------------------ *)
(* Request routing                                                     *)
(* ------------------------------------------------------------------ *)

let record_trace_locked t ~hash64 ~status ~shard =
  match t.trace with
  | Some trace ->
      Trace.record trace (Trace.Router_request { hash = hash64; status; shard })
  | None -> ()

let record_error t =
  Mutex.lock t.mutex;
  Registry.incr t.m.c_errors;
  Mutex.unlock t.mutex

(* The response for one [run] frame. [get_session] hands out this
   connection's lazily-built session for a shard index; the blocking
   forward happens outside the mutex. Forwards always travel as a v2
   stream so a shard slicing a long run keeps the inter-tier hop alive
   with progress frames. [on_progress] is present only when the edge
   asked for [stream:true]: the shard's frames are then re-emitted to
   it (duplicate-tolerant — an inter-tier retry may replay pairs,
   matching what Server itself sends on a re-coalesced waiter);
   otherwise they are consumed here and only the terminal frame goes
   back, at the edge's version. *)
let handle_run ?on_progress t get_session scenario =
  let hash = Scenario.hash scenario in
  let hash64 = Scenario.hash64 scenario in
  let m = t.m in
  Mutex.lock t.mutex;
  let cached = Lru.find t.cache hash in
  Registry.incr (if cached = None then m.c_misses else m.c_hits);
  sync_hit_ratio_locked t;
  match cached with
  | Some result ->
      Registry.incr m.c_served;
      record_trace_locked t ~hash64 ~status:"hit" ~shard:"";
      Mutex.unlock t.mutex;
      Protocol.Result { cache = Protocol.Hit; hash; result }
  | None ->
      Mutex.unlock t.mutex;
      let n = Array.length t.states in
      let no_live_reply () =
        Mutex.lock t.mutex;
        Registry.incr m.c_no_live;
        record_trace_locked t ~hash64 ~status:"overloaded" ~shard:"";
        Mutex.unlock t.mutex;
        Protocol.Overloaded
      in
      (* Each transport failure ejects its shard, so successive attempts
         see a strictly smaller live set; [n + 1] tries bounds the walk
         even if health pings re-admit a flapping shard mid-request. *)
      let rec attempt tried =
        if tried > n then no_live_reply ()
        else begin
          Mutex.lock t.mutex;
          let target = Ring.route t.ring ~live:(live_mask_locked t) hash64 in
          (match target with
          | Some i -> Registry.incr m.shard_requests.(i)
          | None -> ());
          Mutex.unlock t.mutex;
          match target with
          | None -> no_live_reply ()
          | Some i -> (
              let shard = string_of_int i in
              let finish ?(strike = false) ?(adopted = false) ~status
                  response =
                Mutex.lock t.mutex;
                if strike then strike_locked t i
                else t.states.(i).strikes <- 0;
                (match response with
                | Protocol.Result { hash = h; result; _ } ->
                    Lru.put t.cache h result;
                    Registry.incr m.c_served;
                    Registry.incr m.c_forwarded;
                    if adopted then Registry.incr m.c_adoptions
                | Protocol.Overloaded -> Registry.incr m.c_overloaded
                | Protocol.Timeout -> Registry.incr m.c_timeouts
                | _ -> Registry.incr m.c_errors);
                record_trace_locked t ~hash64 ~status ~shard;
                Mutex.unlock t.mutex;
                response
              in
              match
                Client.session_run_stream ?on_progress (get_session i)
                  scenario
              with
              | Ok (Protocol.Result _ as r) ->
                  (* A result reached after ≥1 re-route means the ring
                     successor adopted the victim's request — and, when
                     the shards share a warm-start store, its deepest
                     checkpoint. *)
                  finish ~adopted:(tried > 1) ~status:"ok" r
              | Ok Protocol.Overloaded ->
                  (* Server-decided: pass through (re-routing would
                     defeat the keyspace partition) but strike — a shard
                     shedding load is part of the health signal. *)
                  finish ~strike:true ~status:"overloaded" Protocol.Overloaded
              | Ok Protocol.Timeout ->
                  finish ~strike:true ~status:"timeout" Protocol.Timeout
              | Ok (Protocol.Error_reply _ as r) -> finish ~status:"error" r
              | Ok
                  ( Protocol.Pong | Protocol.Stats_reply _ | Protocol.Cancelled
                  | Protocol.Progress _ | Protocol.Hello_reply _ ) ->
                  finish ~status:"error"
                    (Protocol.Error_reply "unexpected response from shard")
              | Error _ ->
                  (* Transport crash after the session's own retries:
                     eject and re-route — the request is not lost. *)
                  Mutex.lock t.mutex;
                  eject_locked t i;
                  Registry.incr m.c_reroutes;
                  Mutex.unlock t.mutex;
                  attempt (tried + 1))
        end
      in
      attempt 1

(* One session per shard per connection, built on first use: sessions
   are single-threaded, and per-connection ownership keeps the
   inter-tier connection count proportional to the edge's. *)
let connect t () =
  Mutex.lock t.mutex;
  let conn_id = t.conn_seq in
  t.conn_seq <- conn_id + 1;
  Mutex.unlock t.mutex;
  let n = Array.length t.states in
  let sessions = Array.make n None in
  let get_session i =
    match sessions.(i) with
    | Some s -> s
    | None ->
        let s =
          Client.session ~policy:t.config.retry
            ~connect_timeout_s:t.config.connect_timeout_s
            ~request_timeout_s:t.config.request_timeout_s
            ~seed:(Int64.of_int (0x5eed + (conn_id * n) + i))
            t.states.(i).s_addr
        in
        sessions.(i) <- Some s;
        s
  in
  {
    Frontend.run =
      (fun ?on_progress ?cancel_id:_ scenario ->
        handle_run ?on_progress t get_session scenario);
    close = (fun () -> Array.iter (Option.iter Client.session_close) sessions);
  }

(* The router holds no in-flight registry of its own — forwarded runs
   block their connection thread — so a cancel can never name anything
   it could stop. *)
let handle_cancel t target =
  record_error t;
  Protocol.Error_reply
    (Printf.sprintf "cancel: no in-flight request with id \"%s\"" target)

(* ------------------------------------------------------------------ *)
(* Health checks                                                       *)
(* ------------------------------------------------------------------ *)

let check_shard t i =
  let ok =
    match Client.connect ~timeout_s:t.config.connect_timeout_s t.states.(i).s_addr with
    | exception _ -> false
    | c ->
        let r = Client.request ~timeout_s:t.config.request_timeout_s c Protocol.Ping in
        Client.close c;
        (match r with Ok Protocol.Pong -> true | _ -> false)
  in
  Mutex.lock t.mutex;
  if ok then mark_healthy_locked t i else strike_locked t i;
  Mutex.unlock t.mutex

(* Sleeps in small slices so shutdown is never blocked behind a full
   health interval. *)
let health_loop t =
  let stopping () =
    Mutex.lock t.mutex;
    let s = t.health_stop in
    Mutex.unlock t.mutex;
    s
  in
  let rec sleep remaining =
    if (not (stopping ())) && remaining > 0. then begin
      let slice = Float.min 0.05 remaining in
      Thread.delay slice;
      sleep (remaining -. slice)
    end
  in
  let rec loop () =
    if not (stopping ()) then begin
      sleep t.config.health_interval_s;
      if not (stopping ()) then begin
        Array.iteri (fun i _ -> if not (stopping ()) then check_shard t i) t.states;
        loop ()
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start config =
  if config.shards = [] then invalid_arg "Router.start: shards";
  if config.cache_capacity < 1 then invalid_arg "Router.start: cache_capacity";
  (match config.cache_bytes with
  | Some b when b < 1 -> invalid_arg "Router.start: cache_bytes"
  | _ -> ());
  if config.vnodes < 1 then invalid_arg "Router.start: vnodes";
  if not (config.connect_timeout_s > 0.) then
    invalid_arg "Router.start: connect_timeout_s";
  if not (config.request_timeout_s > 0.) then
    invalid_arg "Router.start: request_timeout_s";
  if not (config.health_interval_s > 0.) then
    invalid_arg "Router.start: health_interval_s";
  if config.strike_limit < 1 then invalid_arg "Router.start: strike_limit";
  let listener =
    Frontend.listen ~idle_timeout_s:config.idle_timeout_s
      ~max_conns:config.max_conns ~drain_deadline_s:config.drain_deadline_s
      config.addr
  in
  let registry =
    match config.obs with
    | Some sink -> Ptg_obs.Sink.registry sink
    | None -> Registry.create ()
  in
  let shards = Array.of_list config.shards in
  let t =
    {
      config;
      ring = Ring.create ~vnodes:config.vnodes (Array.length shards);
      states = Array.map (fun a -> { s_addr = a; live = true; strikes = 0 }) shards;
      mutex = Mutex.create ();
      cache =
        Lru.create ?max_bytes:config.cache_bytes
          ~capacity:config.cache_capacity ();
      conn_seq = 0;
      health_stop = false;
      health_thread = None;
      m = make_metrics registry ~shards:(Array.length shards);
      trace = Option.map Ptg_obs.Sink.trace config.obs;
    }
  in
  Mutex.lock t.mutex;
  sync_topology_gauges_locked t;
  Mutex.unlock t.mutex;
  t.health_thread <- Some (Thread.create health_loop t);
  let front =
    Frontend.serve ~registry ~prefix:"router" listener
      ~on_drained:(fun ~drain_us:_ ->
        Mutex.lock t.mutex;
        t.health_stop <- true;
        let health = t.health_thread in
        t.health_thread <- None;
        Mutex.unlock t.mutex;
        Option.iter Thread.join health)
      {
        Frontend.connect = connect t;
        cancel = handle_cancel t;
        stats = (fun () -> own_stats t);
        on_error = (fun () -> record_error t);
      }
  in
  { state = t; front }
