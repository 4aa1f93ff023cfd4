(** Checkpoint/restore drivers over {!Ptg_snapshot}.

    Every sliceable experiment runs through one chunk loop that polls a
    stop request before each chunk and checkpoints the prefix it has
    completed. Two kinds of prefix exist:

    - {b Unit prefix} — the batched experiments (Fig. 6 rows, Fig. 7
      (design, MAC latency) points, Fig. 9 per-workload campaigns, the
      Section VII-C SAME/MIX rows). Each is a {!Sweep.t}: ordered,
      independent units, a codec per unit, an optional shared value
      stored with every checkpoint (Fig. 7's unprotected baselines, so a
      resumed slice never recomputes them; a baselines-only count-0
      checkpoint is legal) and a deterministic merge. One driver adopts
      the deepest intact stored prefix whose units match this run's,
      computes the missing units in ordered batches of [every] through
      the same fan-out as {!Sweep.run}, and saves each new prefix.
      Without a store or a stop it is exactly {!Sweep.run}, which is
      each figure's [run].
    - {b Instruction prefix} — {b fullsys}: the machine's complete
      mutable state ({!Fullsys.state}) every [every] instructions.
      Because the hammer schedule, RNG streams and all counters are
      absolute, a run resumed from any checkpoint is byte-identical to
      one that never stopped.

    Checkpoints live in a {e warm-start store}: a directory of
    [<key>.<count>.ptgs] snapshot files, where [key] hashes everything
    the run depends on {e except} how far it goes
    ({!Scenario.prefix_hash} for fullsys scenarios, {!Scenario.hash} for
    the batched ones; without [~key], every run parameter including each
    field of the PT-Guard configuration) and [count] is the instruction
    (or unit) prefix covered. A longer run warm-starts from the deepest
    stored prefix at or below its budget; damaged or mismatched files
    are skipped, never fatal — explicit restores ({!fullsys_restore})
    raise instead. After each successful save the drivers prune the
    store to the deepest [keep] files per key
    ({!Ptg_snapshot.Snapshot.prune}), so a long multi-chunk run leaves a
    bounded number of files behind. The store directory, and any missing
    parent, is created on the first save.

    Checkpointing excludes observability: drivers never pass [obs]. *)

(** {1 Warm-start store} *)

val path : dir:string -> key:string -> int -> string

val stored_counts : dir:string -> key:string -> int list
(** Prefix depths present for [key], deepest first; [] when [dir] is
    missing. *)

val default_keep : int
(** Files retained per key by the drivers' post-save prune (2: the
    deepest plus one fallback for damaged-file recovery). *)

(** {1 Fullsys} *)

val fullsys_key :
  ?config:Fullsys.config -> ?pages:int -> seed:int64 -> unit -> string
(** Store key for a machine built outside the scenario layer: FNV-1a
    over the canonicalized creation parameters. Scenario-driven runs
    use {!Scenario.prefix_hash} instead. *)

val fullsys_sections : key:string -> Fullsys.t -> Ptg_snapshot.Snapshot.section list
(** Snapshot sections for the machine's current state: a meta header
    (kind, key, instruction count) plus one section per subsystem
    (rng, dram, fault, engine, memctrl, vm, tlb, translations,
    counters). *)

val fullsys_state_of_sections :
  what:string -> Ptg_snapshot.Snapshot.section list -> Fullsys.state
(** Decode the subsystem sections back into a state record. Raises
    [Invalid_argument] naming [what] on any missing or malformed
    section. *)

val fullsys_save : path:string -> key:string -> Fullsys.t -> unit

val fullsys_restore : path:string -> key:string -> Fullsys.t -> int
(** Load, validate the meta header against [key], and overwrite the
    machine's state; returns the checkpoint's instruction count.
    Raises [Invalid_argument] on a corrupt file or a kind/key
    mismatch. *)

type fullsys_outcome = {
  f_result : Fullsys.result;  (** lifetime totals, partial when stopped *)
  f_completed : bool;
  f_done : int;               (** absolute instructions executed *)
  f_resumed_from : int option;
}

val run_fullsys :
  ?config:Fullsys.config ->
  ?pages:int ->
  ?key:string ->
  ?keep:int ->
  ?every:int ->
  ?dir:string ->
  ?adopt:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  seed:int64 ->
  instrs:int ->
  unit ->
  fullsys_outcome
(** Build the machine, warm-start it from [dir] when possible, and run
    the remaining budget in chunks of [every] (one chunk when absent),
    checkpointing after each chunk and at completion. [should_stop] is
    polled between chunks; stopping checkpoints the current position
    and returns with [f_completed = false]. [adopt:false] still writes
    checkpoints but starts cold, ignoring stored ones (the CLI's
    checkpoint-without-[--resume] mode). The final result is
    byte-identical for any [every], any kill/resume schedule, and any
    warm-start depth. *)

(** {1 Fig6} *)

type fig6_outcome = {
  g_result : Fig6.result option;  (** [None] when stopped early *)
  g_rows : Fig6.row list;
  g_completed : bool;
  g_resumed_from : int option;    (** rows adopted from the store *)
}

val run_fig6 :
  ?jobs:int ->
  ?key:string ->
  ?keep:int ->
  ?every:int ->
  ?dir:string ->
  ?adopt:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  instrs:int ->
  warmup:int ->
  seed:int64 ->
  config:Ptguard.Config.t ->
  workloads:Ptg_workloads.Workload.spec list ->
  unit ->
  fig6_outcome
(** The unit-prefix driver over {!Fig6.plan}: missing rows run in
    ordered batches of [every] (all at once when absent), checkpointing
    the completed prefix. A stored prefix is only adopted when its
    workload names match this run's list in order. *)

(** {1 Fig7} *)

type fig7_outcome = {
  p_result : Fig7.result option;  (** [None] when stopped early *)
  p_points : Fig7.point list;
  p_completed : bool;
  p_resumed_from : int option;    (** points adopted from the store *)
}

val run_fig7 :
  ?jobs:int ->
  ?key:string ->
  ?keep:int ->
  ?every:int ->
  ?dir:string ->
  ?adopt:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  ?latencies:int list ->
  ?workloads:Ptg_workloads.Workload.spec list ->
  instrs:int ->
  warmup:int ->
  seed:int64 ->
  unit ->
  fig7_outcome
(** The unit-prefix driver over {!Fig7.plan}: the shared baselines are
    the first chunk, then the missing sweep points run in ordered
    batches of [every]. A stored prefix is only adopted when its
    baseline workload names and its (design, latency) points match this
    run's in order. *)

(** {1 Fig9} *)

type fig9_outcome = {
  q_result : Fig9.result option;  (** [None] when stopped early *)
  q_parts : (Fig9.workload_result * (string * int) list) list;
  q_completed : bool;
  q_resumed_from : int option;    (** workloads adopted from the store *)
}

val run_fig9 :
  ?jobs:int ->
  ?key:string ->
  ?keep:int ->
  ?every:int ->
  ?dir:string ->
  ?adopt:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  ?p_flips:float list ->
  ?config:Ptguard.Config.t ->
  ?workloads:Ptg_workloads.Workload.spec list ->
  lines_per_point:int ->
  seed:int64 ->
  unit ->
  fig9_outcome
(** The unit-prefix driver over {!Fig9.plan}, which re-derives every
    generator state from [seed] each slice (cheap); missing campaigns
    run in ordered batches of [every]. A stored prefix is only adopted
    when its [p_flips] and workload-name prefix match. *)

(** {1 Multicore} *)

type multicore_outcome = {
  r_result : Multicore_exp.result option;  (** [None] when stopped early *)
  r_rows : Multicore_exp.row list;
  r_completed : bool;
  r_resumed_from : int option;    (** rows adopted from the store *)
}

val run_multicore :
  ?jobs:int ->
  ?key:string ->
  ?keep:int ->
  ?every:int ->
  ?dir:string ->
  ?adopt:bool ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  ?same:Ptg_workloads.Workload.spec list ->
  ?config:Ptguard.Config.t ->
  instrs_per_core:int ->
  mixes:int ->
  seed:int64 ->
  unit ->
  multicore_outcome
(** The unit-prefix driver over {!Multicore_exp.plan}, whose case list
    is re-derived from [seed] each slice. A stored prefix is only
    adopted when its labels match this run's case labels in order. *)

(** {1 Scenario entry point} *)

val sliceable : Scenario.t -> bool
(** Whether {!run_scenario} can execute this scenario in
    kill-and-resume slices: fullsys, fig7 and multicore always;
    fig6/fig9 when single-seed; fig8 and trace never. The server only
    requeues deadline-expired requests for sliceable scenarios. *)

type served = {
  text : string option;  (** the {!Scenario.render}ing; [None] if stopped *)
  completed : bool;
  resumed_from : int option;
}

val run_scenario :
  ?dir:string ->
  ?every:int ->
  ?should_stop:(unit -> bool) ->
  ?progress:(done_count:int -> total:int -> unit) ->
  Scenario.t ->
  served
(** The server's warm-start-aware execution path. With [dir], fullsys
    scenarios warm-start by instruction prefix (key
    {!Scenario.prefix_hash}) and the other sliceable kinds by unit
    prefix (key {!Scenario.hash}); the rendering is byte-identical to
    {!Scenario.run_to_string}. Sliceable scenarios run chunked even
    without [dir] (default [every]: a tenth of the fullsys budget, one
    unit otherwise), so [should_stop] and [progress] stay live
    mid-scenario; other kinds run in one piece. *)
