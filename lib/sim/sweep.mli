(** A batched experiment as an ordered list of independent units.

    Every batched figure (Fig. 6 rows, Fig. 7 points, Fig. 9 campaigns,
    the Section VII-C SAME/MIX rows) is the same shape: optional work
    shared by every unit, a per-unit computation that depends only on
    its unit and the shared value, and a deterministic merge of the
    completed units, in unit order, into the figure. {!run} computes all
    units in one fan-out; {!Checkpoint} runs the same sweep in ordered,
    persisted batches. Either way the result is byte-identical. *)

type ('p, 'u, 'o, 'r) t = {
  shared : ?jobs:int -> unit -> 'p;
      (** Work every unit reads (Fig. 7's unprotected baselines);
          {!no_shared} elsewhere. *)
  units : 'u list;
  run_unit : 'p -> ?obs:Ptg_obs.Sink.t -> 'u -> 'o;
  merge : 'o list -> 'r;  (** completed units, in unit order *)
}

val no_shared : ?jobs:int -> unit -> unit

val map :
  ?jobs:int ->
  ?obs:Ptg_obs.Sink.t ->
  (?obs:Ptg_obs.Sink.t -> 'u -> 'o) ->
  'u list ->
  'o list
(** The fan-out: [f] over [units] across [jobs] domains
    ({!Ptg_util.Pool.parallel_map}), results in unit order. With [obs],
    each unit reports into its own child sink and the children merge
    into [obs] in unit order after the join, so metrics and traces are
    byte-identical for any job count. *)

val run : ?jobs:int -> ?obs:Ptg_obs.Sink.t -> ('p, 'u, 'o, 'r) t -> 'r
(** [shared], then every unit in one {!map}, then [merge]. *)
