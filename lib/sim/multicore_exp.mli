(** Section VII-C: PT-Guard slowdown on a 4-core system.

    Paper result being reproduced: with 4 cores sharing the LLC and memory
    channels, PT-Guard (baseline design, MAC latency on all DRAM reads)
    averages 0.5% slowdown with a 1.6% worst case — lower than single-core
    because channel contention inflates the base memory latency relative
    to the constant MAC delay. *)

type row = {
  label : string;          (** "SAME xalancbmk" or "MIX3" *)
  workloads : string list;
  base_ipc : float;        (** aggregate IPC, unprotected *)
  norm_ipc : float;
  slowdown_pct : float;
  avg_queue_delay : float;
}

type result = {
  rows : row list;
  avg_slowdown_pct : float;
  max_slowdown_pct : float;
  max_label : string;
}

val plan :
  instrs_per_core:int ->
  seed:int64 ->
  same:Ptg_workloads.Workload.spec list ->
  mixes:int ->
  config:Ptguard.Config.t ->
  (unit, string * Ptg_workloads.Workload.spec array, row, result) Sweep.t
(** The sweep {!run} computes. Units are the labelled SAME and MIX core
    compositions in presentation order; MIXes are drawn serially from a
    seed-derived stream, so the list is deterministic and cheap to
    re-derive (a checkpoint-resumed slice recomputes it rather than
    storing it). Each unit is one unprotected-vs-guarded 4-core
    comparison, independent of every other; the merge is the section's
    average/worst summary. *)

val run :
  ?jobs:int ->
  ?instrs_per_core:int ->
  ?seed:int64 ->
  ?same:Ptg_workloads.Workload.spec list ->
  ?mixes:int ->
  ?config:Ptguard.Config.t ->
  ?obs:Ptg_obs.Sink.t ->
  unit ->
  result
(** Defaults: every workload as a SAME configuration (the paper runs 18)
    plus 16 random MIXes, 400K instructions per core, baseline design.
    {!Sweep.run} over {!plan}: [jobs] fans the SAME/MIX cases across
    domains; results are independent of the job count. With [obs], each
    case's guard reports into a child sink merged back in case order. *)

val to_string : result -> string
(** Exactly the bytes {!print} writes to stdout. *)

val print : result -> unit
val to_csv : result -> path:string -> unit
