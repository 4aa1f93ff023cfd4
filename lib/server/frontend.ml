module Registry = Ptg_obs.Registry
module Clock = Ptg_util.Clock

type addr = Unix_socket of string | Tcp of int

type session = {
  run :
    ?on_progress:(done_count:int -> total:int -> unit) ->
    ?cancel_id:string ->
    Ptg_sim.Scenario.t ->
    Protocol.response;
  close : unit -> unit;
}

type handler = {
  connect : unit -> session;
  cancel : string -> Protocol.response;
  stats : unit -> (string * float) list;
  on_error : unit -> unit;
}

type listener = {
  idle_timeout_s : float;
  max_conns : int;
  drain_deadline_s : float;
  listen_fd : Unix.file_descr;
  bound : addr;
}

let listen ~idle_timeout_s ~max_conns ~drain_deadline_s addr =
  if not (idle_timeout_s >= 0.) then invalid_arg "Frontend.listen: idle_timeout_s";
  if max_conns < 1 then invalid_arg "Frontend.listen: max_conns";
  if not (drain_deadline_s >= 0.) then
    invalid_arg "Frontend.listen: drain_deadline_s";
  (* A peer hanging up mid-response must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd, bound =
    match addr with
    | Unix_socket path ->
        if Sys.file_exists path then Sys.remove path;
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        (fd, Unix_socket path)
    | Tcp port ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen fd 64;
        let actual =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        (fd, Tcp actual)
  in
  { idle_timeout_s; max_conns; drain_deadline_s; listen_fd; bound }

type t = {
  l : listener;
  handler : handler;
  pipe_r : Unix.file_descr;  (* self-pipe: wakes the accept loop on stop *)
  pipe_w : Unix.file_descr;
  mutex : Mutex.t;
  drained : Condition.t;  (* connection-count / stopping transitions *)
  conn_fds : (Unix.file_descr, unit) Hashtbl.t;
  mutable conns : int;
  mutable stopping : bool;
  mutable finalized : bool;
  mutable ticker_stop : bool;
  mutable accept_thread : Thread.t option;
  mutable ticker_thread : Thread.t option;
  c_conn_shed : Registry.counter;
  c_accept_errors : Registry.counter;
  c_idle_closed : Registry.counter;
  on_tick : unit -> unit;
  on_force : unit -> unit;
  on_drained : drain_us:float -> unit;
  take_fault : (Faults.kind -> Faults.kind option) -> Faults.kind option;
}

let addr t = t.l.bound

let count t c =
  Mutex.lock t.mutex;
  Registry.incr c;
  Mutex.unlock t.mutex

let stats t =
  let own = t.handler.stats () in
  Mutex.lock t.mutex;
  let value c = float_of_int (Registry.counter_value c) in
  let rows =
    [
      ("accept_errors", value t.c_accept_errors);
      ("conn_shed", value t.c_conn_shed);
      ("conns", float_of_int t.conns);
      ("idle_closed", value t.c_idle_closed);
    ]
  in
  Mutex.unlock t.mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) (rows @ own)

let initiate_stop t =
  Mutex.lock t.mutex;
  if not t.stopping then begin
    t.stopping <- true;
    (try ignore (Unix.write t.pipe_w (Bytes.make 1 'x') 0 1)
     with Unix.Unix_error _ -> ());
    Condition.broadcast t.drained
  end;
  Mutex.unlock t.mutex

(* ------------------------------------------------------------------ *)
(* Connection handling                                                 *)
(* ------------------------------------------------------------------ *)

(* The injection points this module owns; static, so an unarmed check
   allocates nothing. *)
let delay_fault = function Faults.Delay_handler _ as k -> Some k | _ -> None
let drop_fault = function Faults.Drop_connection as k -> Some k | _ -> None
let torn_fault = function Faults.Torn_frame as k -> Some k | _ -> None

let handle_conn t fd =
  let idle_timeout_s = t.l.idle_timeout_s in
  (* Read/write timeouts bound how long a slow or hung peer can hold
     this thread: an idle socket times the blocked read out, and a peer
     that stops reading times our blocked write out. 0 disables. *)
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO idle_timeout_s;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO idle_timeout_s
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send frame =
    output_string oc frame;
    output_char oc '\n';
    flush oc
  in
  let session = t.handler.connect () in
  let read_t0 = ref (Clock.now_ns ()) in
  let rec loop () =
    read_t0 := Clock.now_ns ();
    match input_line ic with
    | exception End_of_file -> ()
    | exception (Sys_error _ | Sys_blocked_io) ->
        (* SO_RCVTIMEO expiry surfaces as [Sys_blocked_io] through the
           buffered channel (or a read error); classify by how long the
           read actually blocked so idle closes are counted apart from
           peer resets. *)
        if idle_timeout_s > 0. && Clock.elapsed_s !read_t0 >= 0.9 *. idle_timeout_s
        then count t t.c_idle_closed
    | line -> (
        let continue =
          match Protocol.decode_request line with
          | Error msg ->
              t.handler.on_error ();
              send (Protocol.encode_response (Protocol.Error_reply msg));
              true
          | Ok ({ Protocol.id; v }, req) -> (
              (match t.take_fault delay_fault with
              | Some (Faults.Delay_handler d) -> Thread.delay d
              | _ -> ());
              if t.take_fault drop_fault <> None then false
              else
                match req with
                | Protocol.Ping ->
                    send (Protocol.encode_response ?id ~v Protocol.Pong);
                    true
                | Protocol.Stats ->
                    send
                      (Protocol.encode_response ?id ~v (Protocol.Stats_reply (stats t)));
                    true
                | Protocol.Shutdown ->
                    initiate_stop t;
                    send (Protocol.encode_response ?id ~v Protocol.Pong);
                    false
                | Protocol.Hello client_max ->
                    send
                      (Protocol.encode_response ?id ~v
                         (Protocol.Hello_reply (min client_max Protocol.max_version)));
                    true
                | Protocol.Cancel target ->
                    send (Protocol.encode_response ?id ~v (t.handler.cancel target));
                    true
                | Protocol.Run scenario | Protocol.Run_stream scenario ->
                    (* Only v2 requests with an id are cancellable: a v1
                       waiter could not be answered with the [cancelled]
                       status its cancellation produces. [Run_stream]
                       only decodes at v2, so its progress frames are
                       always legal. *)
                    let cancel_id = if v >= 2 then id else None in
                    let on_progress =
                      match req with
                      | Protocol.Run_stream _ ->
                          Some
                            (fun ~done_count ~total ->
                              send
                                (Protocol.encode_response ?id ~v
                                   (Protocol.Progress { done_count; total })))
                      | _ -> None
                    in
                    let frame =
                      Protocol.encode_response ?id ~v
                        (session.run ?on_progress ?cancel_id scenario)
                    in
                    if t.take_fault torn_fault <> None then begin
                      (* Half a frame, then hang up. *)
                      output_string oc (String.sub frame 0 (String.length frame / 2));
                      flush oc;
                      false
                    end
                    else begin
                      send frame;
                      true
                    end)
        in
        if continue then loop ())
  in
  (try loop () with
  | End_of_file | Sys_error _ | Sys_blocked_io | Unix.Unix_error _ -> ()
  | _ -> t.handler.on_error ());
  session.close ();
  Mutex.lock t.mutex;
  Hashtbl.remove t.conn_fds fd;
  t.conns <- t.conns - 1;
  Condition.broadcast t.drained;
  Mutex.unlock t.mutex;
  (* Flushes and closes the shared fd; the input channel must not be
     closed too (double close could hit a reused descriptor). *)
  close_out_noerr oc

(* Accepted but over the connection cap: tell the peer why (best effort,
   non-blocking — a hostile peer must not stall the accept loop) and
   hang up. *)
let shed_conn fd =
  (try
     Unix.set_nonblock fd;
     let frame = Protocol.encode_response Protocol.Overloaded ^ "\n" in
     ignore (Unix.write_substring fd frame 0 (String.length frame))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Transient fd exhaustion leaves listen_fd readable, so without a pause
   select+accept would busy-loop at 100% CPU until an fd frees up. *)
let accept_backoff_s = 0.05

let accept_loop t =
  let rec loop () =
    match Unix.select [ t.l.listen_fd; t.pipe_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | readable, _, _ ->
        if List.mem t.pipe_r readable then ()
        else begin
          (match Unix.accept ~cloexec:true t.l.listen_fd with
          | exception
              Unix.Unix_error
                ((Unix.EMFILE | Unix.ENFILE | Unix.ENOBUFS | Unix.ENOMEM), _, _)
            ->
              count t t.c_accept_errors;
              Thread.delay accept_backoff_s
          | exception Unix.Unix_error _ ->
              (* e.g. ECONNABORTED: the event was consumed, no spin. *)
              count t t.c_accept_errors
          | fd, _ ->
              Mutex.lock t.mutex;
              let over = t.conns >= t.l.max_conns in
              if over then Registry.incr t.c_conn_shed
              else begin
                t.conns <- t.conns + 1;
                Hashtbl.replace t.conn_fds fd ()
              end;
              Mutex.unlock t.mutex;
              if over then shed_conn fd
              else ignore (Thread.create (handle_conn t) fd));
          loop ()
        end
  in
  loop ()

(* Periodic wakeups bound how late deadline-style waits (the owner's
   request deadlines through [on_tick], the drain deadline in
   [finalize]) notice that their clock ran out; completion events still
   wake them at once. *)
let tick_interval_s = 0.05

let ticker t =
  let rec loop () =
    Thread.delay tick_interval_s;
    Mutex.lock t.mutex;
    let stop = t.ticker_stop in
    if not stop then Condition.broadcast t.drained;
    Mutex.unlock t.mutex;
    if not stop then begin
      t.on_tick ();
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let serve ?(on_tick = ignore) ?(on_force = ignore)
    ?(on_drained = fun ~drain_us:_ -> ()) ?(take_fault = fun _ -> None)
    ~registry ~prefix l handler =
  let counter name = Registry.counter registry (prefix ^ name) in
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      l;
      handler;
      pipe_r;
      pipe_w;
      mutex = Mutex.create ();
      drained = Condition.create ();
      conn_fds = Hashtbl.create 64;
      conns = 0;
      stopping = false;
      finalized = false;
      ticker_stop = false;
      accept_thread = None;
      ticker_thread = None;
      c_conn_shed = counter "_conns_shed_total";
      c_accept_errors = counter "_accept_errors_total";
      c_idle_closed = counter "_conns_idle_closed_total";
      on_tick;
      on_force;
      on_drained;
      take_fault;
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t.ticker_thread <- Some (Thread.create ticker t);
  t

let finalize t =
  (* Join the accept loop (woken by the self-pipe byte). *)
  Mutex.lock t.mutex;
  let acceptor = t.accept_thread in
  t.accept_thread <- None;
  Mutex.unlock t.mutex;
  Option.iter Thread.join acceptor;
  (* Nudge idle connections: half-close their read side so blocked
     [input_line]s see EOF. Done under the mutex so a connection thread
     cannot concurrently remove-and-close the same descriptor. In-flight
     requests get [drain_deadline_s] to finish; the owner is then told
     ([on_force]) and stragglers are force-closed. *)
  Mutex.lock t.mutex;
  let drain_t0 = Clock.now_ns () in
  let force_at = Clock.ns_after drain_t0 t.l.drain_deadline_s in
  Hashtbl.iter
    (fun fd () ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    t.conn_fds;
  let forced = ref false in
  while t.conns > 0 do
    if (not !forced) && Clock.now_ns () >= force_at then begin
      forced := true;
      Mutex.unlock t.mutex;
      t.on_force ();
      Mutex.lock t.mutex;
      Hashtbl.iter
        (fun fd () ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        t.conn_fds
    end;
    Condition.wait t.drained t.mutex
  done;
  let drain_us = Clock.elapsed_us drain_t0 in
  let first = not t.finalized in
  t.finalized <- true;
  t.ticker_stop <- true;
  let tick = t.ticker_thread in
  t.ticker_thread <- None;
  Mutex.unlock t.mutex;
  Option.iter Thread.join tick;
  if first then begin
    t.on_drained ~drain_us;
    (try Unix.close t.l.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
    (try Unix.close t.pipe_w with Unix.Unix_error _ -> ());
    match t.l.bound with
    | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
    | Tcp _ -> ()
  end

let stop t =
  initiate_stop t;
  finalize t

let wait t =
  Mutex.lock t.mutex;
  while not t.stopping do
    Condition.wait t.drained t.mutex
  done;
  Mutex.unlock t.mutex;
  finalize t
