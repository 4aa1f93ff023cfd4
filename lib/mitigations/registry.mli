(** Named mitigation plugins with typed parameter schemas.

    The registry is the extensibility point ramulator2 gets from its
    [IControllerPlugin] implementations: a defense registers once, by
    name, with a schema of typed parameters (ints, floats, booleans,
    each with a default), and every front-end — the CLI's
    [trace replay --mitigation], the server's [kind:"trace"] scenarios,
    and the experiments that attach a mitigation in code — instantiates
    it through the same validated path ({!instantiate}). Unknown plugin
    names, unknown parameter keys, type mismatches and out-of-range
    values are rejected with messages that name the problem.

    Built-ins registered at load time, the baseline Rowhammer
    mitigations that breakthrough attacks defeat (paper Sections II-B
    and VIII-B). Each subscribes to a DRAM's activation stream and
    issues victim refreshes through {!Ptg_dram.Dram.refresh_row}; those
    refreshes disturb their own neighbours in the fault model, which is
    the lever Half-Double exploits.

    - [trr] ([sampler_size] 4, [ref_interval_acts] 166,
      [sample_window] 8): an in-DRAM sampler that observes only the
      first [sample_window] activations of each REF interval and, at
      every REF, refreshes both neighbours of its hottest entry; a full
      sampler evicts its oldest entry and that count is lost. The
      bounded sampler and predictable window are what TRRespass/SMASH
      exploit.
    - [para] ([p] 0.001): stateless; refreshes each neighbour with
      probability [p] on every activation. Needs [ctx.rng].
    - [soft-trr] ([threshold] 2500): SoftTRR (Zhang et al., ATC 2022),
      paper Section II-E.3. The OS counts activations of rows adjacent
      to page-table rows ([ctx.pt_row]) and refreshes the PT row at
      [threshold]. Distance-2 hammering and the in-DRAM mitigation's
      own refreshes are invisible to it — the Half-Double blind spot.
    - [graphene] ([counters] 128, [threshold] 2500): Misra-Gries
      counters per bank; refreshes a row's neighbours when its
      estimated count reaches [threshold], then resets it. It never
      misses a row over the threshold, but the threshold is fixed at
      design time. *)

type instance
(** A live mitigation subscribed to a DRAM device. *)

val instance_name : instance -> string
(** ["TRR"], ["PARA"], ["SoftTRR"] or ["Graphene"]. *)

val refreshes_issued : instance -> int
(** Victim refreshes this mitigation has issued. *)

val detach : instance -> unit
(** Stop reacting to DRAM events (the subscription is silenced). *)

val save_state : instance -> (string * int64) list
(** The plugin's mutable state as a flat, canonically-ordered key/value
    image (always includes a ["refreshes"] entry; plugin-internal tables
    follow under plugin-chosen keys). Snapshots embed this image so a
    restored simulation resumes with identical mitigation behaviour. *)

val restore_state : instance -> (string * int64) list -> unit
(** Overwrite the plugin's state with a previously captured image. The
    instance must come from the same plugin with the same parameters.
    Raises [Invalid_argument] on a malformed image. *)

(** {1 Typed parameters} *)

type value = Int of int | Float of float | Bool of bool

val value_to_string : value -> string
(** Canonical rendering: decimal ints, [%.17g] floats, [true]/[false]. *)

val value_of_string : like:value -> string -> (value, string) result
(** Parse a CLI token with the type carried by [like] (a parameter's
    default). Rejects non-finite floats. *)

type param = {
  key : string;
  doc : string;
  default : value;  (** also fixes the parameter's type *)
}

(** {1 Instantiation context}

    What a plugin may need beyond the DRAM device itself. Plugins state
    their requirements by failing instantiation with a descriptive
    error when a needed capability is absent. *)

type ctx = {
  dram : Ptg_dram.Dram.t;
  rng : Ptg_util.Rng.t option;
      (** randomized defenses (PARA) refuse to instantiate without one *)
  pt_row : (channel:int -> bank:int -> row:int -> bool) option;
      (** page-table-row oracle; required by [soft-trr] *)
}

val ctx :
  ?rng:Ptg_util.Rng.t ->
  ?pt_row:(channel:int -> bank:int -> row:int -> bool) ->
  Ptg_dram.Dram.t ->
  ctx

(** {1 Registration and lookup} *)

val register :
  name:string ->
  doc:string ->
  params:param list ->
  ((string -> value) -> ctx -> instance) ->
  unit
(** [register ~name ~doc ~params build] adds a plugin. [build get ctx]
    receives a resolver [get] that returns the validated value of each
    declared parameter (override or default). Raises [Invalid_argument]
    on a duplicate name or a duplicate parameter key. *)

val names : unit -> string list
(** Registered plugin names, in registration order (built-ins first). *)

val doc : string -> string option
val params : string -> param list option

val resolved_params : string -> (string * value) list -> (string * value) list option
(** [resolved_params name overrides] is the full parameter set of
    [name] — defaults overlaid with [overrides], sorted by key — or
    [None] for an unknown plugin. Unknown override keys are ignored
    here; use {!check_params} first. *)

val check_params : string -> (string * value) list -> (unit, string) result
(** Validate override keys and types against [name]'s schema without
    instantiating (the server does this during scenario validation). *)

val instantiate :
  ?params:(string * value) list -> string -> ctx -> (instance, string) result
(** Look up by name, validate the overrides, and build. All failure
    modes — unknown plugin, unknown key, type mismatch, out-of-range
    value, missing context capability — come back as [Error msg]. *)

(** {1 CLI spec syntax}

    [NAME] or [NAME:key=value,key=value] — e.g. [para:p=0.002]. *)

val parse_spec : string -> (string * (string * value) list, string) result
(** Split and type-check a spec string against the named plugin's
    schema. *)

val of_spec : string -> ctx -> (instance, string) result
(** [parse_spec] followed by {!instantiate}. *)

val spec_help : unit -> string
(** One line per plugin: name, parameters with defaults, and doc — for
    CLI error messages and [--help] text. *)
