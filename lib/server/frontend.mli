(** The network front end of the serving stack, shared by {!Server} and
    {!Router}: everything between a listening socket and a decoded
    request.

    It binds (a stale Unix-domain socket file is replaced; SIGPIPE is
    ignored so a vanished peer surfaces as [EPIPE]) and runs one accept
    thread, woken on stop by a self-pipe. EMFILE/ENFILE back off
    briefly instead of busy-looping; accepts beyond [max_conns] are shed
    with a best-effort [overloaded] frame. Each connection gets a thread
    with socket read/write timeouts (an idle close is counted apart from
    a peer reset), line framing and the decode-error frame. [ping],
    [stats], [shutdown] and [hello] are answered here; [run],
    [run_stream] and [cancel] go to the owner's {!handler}. A ticker
    wakes deadline waits every 50 ms. Shutdown half-closes every
    connection, waits up to [drain_deadline_s], then force-closes.

    Its own events are counted in the owner's registry under the owner's
    prefix — [<prefix>_conns_shed_total], [<prefix>_accept_errors_total],
    [<prefix>_conns_idle_closed_total] — and reported in [stats] as
    [conn_shed], [accept_errors] and [idle_closed], next to [conns]. *)

type addr =
  | Unix_socket of string
  | Tcp of int  (** 127.0.0.1; port 0 binds an ephemeral port *)

(** What one connection runs requests through; built when the
    connection is accepted and closed when it ends. *)
type session = {
  run :
    ?on_progress:(done_count:int -> total:int -> unit) ->
    ?cancel_id:string ->
    Ptg_sim.Scenario.t ->
    Protocol.response;
      (** answer a [run] frame. [on_progress] (present for [run_stream]
          only) writes a [progress] frame to the peer; [cancel_id] is
          the request's id when it is cancellable (v2 with an id). *)
  close : unit -> unit;
}

type handler = {
  connect : unit -> session;
  cancel : string -> Protocol.response;  (** answer a [cancel] frame *)
  stats : unit -> (string * float) list;
      (** the owner's [stats] rows; the front end adds its own *)
  on_error : unit -> unit;
      (** a malformed frame, or a connection that raised something a
          socket does not *)
}

type listener

val listen :
  idle_timeout_s:float -> max_conns:int -> drain_deadline_s:float -> addr -> listener
(** Validate the limits and bind: [idle_timeout_s] is the socket
    read/write timeout ([0.] disables), [max_conns] the concurrent
    connections before accept-time shedding, [drain_deadline_s] the
    shutdown budget before stragglers are force-closed. Raises
    [Invalid_argument] on a negative (or NaN) timeout or deadline or
    [max_conns < 1], [Unix.Unix_error] when binding fails. *)

type t

val serve :
  ?on_tick:(unit -> unit) ->
  ?on_force:(unit -> unit) ->
  ?on_drained:(drain_us:float -> unit) ->
  ?take_fault:((Faults.kind -> Faults.kind option) -> Faults.kind option) ->
  registry:Ptg_obs.Registry.t ->
  prefix:string ->
  listener ->
  handler ->
  t
(** Start the accept and ticker threads. The hooks, all no-ops by
    default: [on_tick] runs on every tick; [on_force] once when the
    drain deadline passes with connections still open; [on_drained]
    once, on the first finalization, after every connection has closed,
    with the drain's duration; [take_fault] consumes an armed fault the
    selector returns — checked before dispatching a decoded frame
    ([Delay_handler], [Drop_connection]) and before writing a run's
    reply ([Torn_frame]). No hook is called with the front end's lock
    held. *)

val addr : t -> addr
(** The bound address — for [Tcp 0], the actual ephemeral port. *)

val stats : t -> (string * float) list
(** The owner's rows plus [accept_errors], [conn_shed], [conns] and
    [idle_closed], sorted by key. Also the [stats] op payload. *)

val stop : t -> unit
(** Stop accepting, drain, join the threads and release the socket.
    Idempotent; also what a [shutdown] frame starts. *)

val wait : t -> unit
(** Block until a [shutdown] frame or a concurrent {!stop}, then
    finalize as {!stop}. *)
