(** Figure 7: average and worst-case slowdown of PT-Guard vs Optimized
    PT-Guard as the MAC computation latency sweeps 5..20 cycles.

    Paper result being reproduced: PT-Guard's average slowdown scales
    0.7% -> 2.6% across the sweep while Optimized PT-Guard stays below
    0.3% (its MAC computations cover < 2% of DRAM reads); at the default
    10 cycles, Optimized averages 0.2% with a 0.4% worst case. *)

type point = {
  design : Ptguard.Config.design;
  mac_latency : int;
  avg_slowdown_pct : float;
  max_slowdown_pct : float;
  max_workload : string;
  mac_reads_fraction : float;
      (** fraction of DRAM reads that paid the MAC latency *)
}

type result = { points : point list }

val default_latencies : int list
(** [[5; 10; 15; 20]], the paper's sweep. *)

val plan :
  instrs:int ->
  warmup:int ->
  seed:int64 ->
  latencies:int list ->
  Ptg_workloads.Workload.spec list ->
  ( (Ptg_workloads.Workload.spec * Ptg_cpu.Core.result) list,
    Ptguard.Config.design * int,
    point,
    result )
  Sweep.t
(** The sweep {!run} computes. The shared value is the unprotected
    per-workload baselines every point is normalized against; the units
    are the (design, MAC latency) points in presentation order (Baseline
    across [latencies], then Optimized), each a guarded run over every
    workload, averaged and worst-cased. *)

val run :
  ?jobs:int ->
  ?instrs:int ->
  ?warmup:int ->
  ?seed:int64 ->
  ?latencies:int list ->
  ?workloads:Ptg_workloads.Workload.spec list ->
  ?obs:Ptg_obs.Sink.t ->
  unit ->
  result
(** Defaults: latencies [5; 10; 15; 20], both designs, all workloads.
    {!Sweep.run} over {!plan}: [jobs] fans the shared baseline runs and
    the sweep points across domains; results are independent of the job
    count. With [obs], each point's guard reports into a child sink
    merged back in point order (deterministic for any job count). *)

val to_string : result -> string
(** Exactly the bytes {!print} writes to stdout. *)

val print : result -> unit
val to_csv : result -> path:string -> unit
