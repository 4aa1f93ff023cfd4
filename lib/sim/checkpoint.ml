open Ptg_snapshot

(* The section [name] holding what [fill] writes, and the value [get]
   reads from the whole of section [name]. *)
let section name fill =
  let b = Codec.writer () in
  fill b;
  Snapshot.section ~name (Codec.contents b)

let decode ~what sections name get =
  let r = Snapshot.reader ~what sections name in
  let v = get r in
  Codec.expect_end r;
  v

(* ------------------------------------------------------------------ *)
(* Meta section                                                        *)
(* ------------------------------------------------------------------ *)

(* Every checkpoint opens with a meta section naming what produced it:
   the driver kind, the warm-start store key, and how far the run had
   got. Restoring validates all three — a snapshot from a different
   scenario (or a stale key collision) is rejected before any state is
   touched. *)
type meta = { m_kind : string; m_key : string; m_count : int }

let meta_section m =
  section "meta" (fun b ->
      Codec.put_string b m.m_kind;
      Codec.put_string b m.m_key;
      Codec.put_varint b m.m_count)

(* Load [path] and validate its meta section against [kind] and [key];
   returns the checkpoint's count and all its sections. *)
let load_checked ~kind ~key path =
  let sections = Snapshot.load ~path in
  let m =
    decode ~what:path sections "meta" (fun r ->
        let m_kind = Codec.get_string r in
        let m_key = Codec.get_string r in
        let m_count = Codec.get_varint r in
        { m_kind; m_key; m_count })
  in
  if m.m_kind <> kind then
    invalid_arg
      (Printf.sprintf "Snapshot.load: %s: checkpoint kind %S, want %S" path
         m.m_kind kind);
  if m.m_key <> key then
    invalid_arg
      (Printf.sprintf "Snapshot.load: %s: checkpoint key %s, want %s" path
         m.m_key key);
  (m.m_count, sections)

(* ------------------------------------------------------------------ *)
(* Warm-start store: <dir>/<key>.<count>.ptgs                          *)
(* ------------------------------------------------------------------ *)

let path = Snapshot.store_path

(* Counts present in the store for [key], newest first. *)
let stored_counts = Snapshot.store_counts

(* Deepest-N retention applied after every successful save: the deepest
   checkpoint plus one fallback. Without this every chunk leaks a file
   and a long served run grows the store without bound. *)
let default_keep = 2

(* Missing parents are created too; a peer creating the same directory
   concurrently (two shards on one fresh store) is not an error. *)
let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* Warm start: the deepest stored count in [lo, hi] that [load] accepts.
   A damaged or mismatched file is skipped (the store is an
   optimization), and so is one a sharing peer pruned between our
   readdir and the open; shallower candidates are tried in order. *)
let adopt_deepest ?dir ~adopt ~key ~lo ~hi load =
  match dir with
  | Some dir when adopt ->
      stored_counts ~dir ~key
      |> List.filter (fun n -> n >= lo && n <= hi)
      |> List.find_map (fun n ->
             try load (path ~dir ~key n) n
             with Invalid_argument _ | Sys_error _ -> None)
  | _ -> None

(* Save the checkpoint of depth [n] unless the store already has it
   (a completed prefix is immutable), then prune to the deepest [keep]. *)
let save_if_absent ~keep ~dir ~key n sections =
  ensure_dir dir;
  let p = path ~dir ~key n in
  if not (Sys.file_exists p) then begin
    Snapshot.save ~path:p (sections ());
    ignore (Snapshot.prune ~keep ~dir ~key ())
  end

let never_stop () = false
let no_progress ~done_count:_ ~total:_ = ()

(* The one chunk loop every driver runs: advance the run to [total]
   (instructions or units) in chunks of [every] — one chunk when absent
   — polling [should_stop] before each chunk. A checkpoint follows every
   chunk when [every] is given, else only completion, and a stop always
   checkpoints the position reached. Returns whether the run completed. *)
let chunked ~every ~total ~should_stop ~progress ~done_count ~advance
    ~checkpoint =
  let chunk = match every with Some e when e > 0 -> e | _ -> total in
  let stopped = ref false in
  while (not !stopped) && done_count () < total do
    if should_stop () then stopped := true
    else begin
      advance (min chunk (total - done_count ()));
      if every <> None || done_count () >= total then checkpoint ();
      progress ~done_count:(done_count ()) ~total
    end
  done;
  if !stopped then checkpoint ();
  not !stopped

(* ------------------------------------------------------------------ *)
(* Fullsys checkpoints                                                 *)
(* ------------------------------------------------------------------ *)

(* Keying a fullsys machine outside the scenario layer: everything
   [Fullsys.create] consumed, rendered canonically (alphabetical keys)
   and hashed — the same recipe as [Scenario.prefix_hash], over the
   creation parameters instead of the scenario fields. *)
let fullsys_key ?(config = Fullsys.default_config) ?(pages = 2048) ~seed () =
  let f = config.Fullsys.fault in
  let orientation =
    match f.Ptg_rowhammer.Fault_model.orientation with
    | Ptg_rowhammer.Fault_model.All_true -> "true"
    | Ptg_rowhammer.Fault_model.All_anti -> "anti"
    | Ptg_rowhammer.Fault_model.Per_row_hash -> "hash"
  in
  let canonical =
    Printf.sprintf
      "{\"attack\":%b,\"burst\":%d,\"fault\":{\"d2\":%.17g,\"orient\":%S,\"pflip\":%.17g,\"refresh\":%.17g,\"rth\":%d},\"guarded\":%b,\"pages\":%d,\"period\":%d,\"seed\":%Ld}"
      config.Fullsys.attack config.Fullsys.hammer_burst
      f.Ptg_rowhammer.Fault_model.distance2_weight orientation
      f.Ptg_rowhammer.Fault_model.p_flip
      f.Ptg_rowhammer.Fault_model.refresh_disturb_weight
      f.Ptg_rowhammer.Fault_model.rth config.Fullsys.guarded pages
      config.Fullsys.hammer_period seed
  in
  Snapshot.hash_hex (Codec.fnv1a64 canonical)

let fullsys_sections ~key (m : Fullsys.t) =
  let s = Fullsys.state m in
  let sec = section in
  [
    meta_section { m_kind = "fullsys"; m_key = key; m_count = s.Fullsys.s_instr };
    sec "rng" (fun b -> Sections.put_words b s.Fullsys.s_rng);
    sec "dram" (fun b -> Sections.put_dram b s.Fullsys.s_dram);
    sec "fault" (fun b -> Sections.put_fault b s.Fullsys.s_fault);
    sec "engine" (fun b -> Codec.put_option b Sections.put_engine s.Fullsys.s_engine);
    sec "memctrl" (fun b -> Codec.put_int b s.Fullsys.s_mc_now);
    sec "vm" (fun b ->
        Sections.put_page_table b s.Fullsys.s_table;
        Sections.put_frame_allocator b s.Fullsys.s_alloc);
    sec "tlb" (fun b -> Sections.put_tlb b s.Fullsys.s_tlb);
    sec "translations" (fun b ->
        Codec.put_list b
          (fun b (vpn, paddr) ->
            Codec.put_i64 b vpn;
            Codec.put_i64 b paddr)
          s.Fullsys.s_translations);
    sec "counters" (fun b ->
        Codec.put_varint b s.Fullsys.s_instr;
        Codec.put_varint b s.Fullsys.s_now;
        Codec.put_varint b s.Fullsys.s_walks;
        Codec.put_varint b s.Fullsys.s_walk_corrections;
        Codec.put_varint b s.Fullsys.s_walk_exceptions;
        Codec.put_varint b s.Fullsys.s_refaults;
        Codec.put_varint b s.Fullsys.s_wrong_translations);
  ]

let fullsys_state_of_sections ~what sections : Fullsys.state =
  let get name f = decode ~what sections name f in
  let s_rng = get "rng" Sections.get_words in
  let s_dram = get "dram" Sections.get_dram in
  let s_fault = get "fault" Sections.get_fault in
  let s_engine = get "engine" (fun r -> Codec.get_option r Sections.get_engine) in
  let s_mc_now = get "memctrl" Codec.get_int in
  let s_table, s_alloc =
    get "vm" (fun r ->
        let table = Sections.get_page_table r in
        (table, Sections.get_frame_allocator r))
  in
  let s_tlb = get "tlb" Sections.get_tlb in
  let s_translations =
    get "translations" (fun r ->
        Codec.get_list r (fun r ->
            let vpn = Codec.get_i64 r in
            let paddr = Codec.get_i64 r in
            (vpn, paddr)))
  in
  let r = Snapshot.reader ~what sections "counters" in
  let s_instr = Codec.get_varint r in
  let s_now = Codec.get_varint r in
  let s_walks = Codec.get_varint r in
  let s_walk_corrections = Codec.get_varint r in
  let s_walk_exceptions = Codec.get_varint r in
  let s_refaults = Codec.get_varint r in
  let s_wrong_translations = Codec.get_varint r in
  Codec.expect_end r;
  {
    Fullsys.s_rng;
    s_dram;
    s_fault;
    s_engine;
    s_mc_now;
    s_table;
    s_alloc;
    s_tlb;
    s_translations;
    s_instr;
    s_now;
    s_walks;
    s_walk_corrections;
    s_walk_exceptions;
    s_refaults;
    s_wrong_translations;
  }

let fullsys_save ~path ~key m = Snapshot.save ~path (fullsys_sections ~key m)

let fullsys_restore ~path ~key m =
  let count, sections = load_checked ~kind:"fullsys" ~key path in
  Fullsys.set_state m (fullsys_state_of_sections ~what:path sections);
  count

(* ------------------------------------------------------------------ *)
(* Chunked fullsys driver: the instruction-prefix case                 *)
(* ------------------------------------------------------------------ *)

type fullsys_outcome = {
  f_result : Fullsys.result;
  f_completed : bool;
  f_done : int;
  f_resumed_from : int option;
}

let run_fullsys ?config ?pages ?key ?(keep = default_keep) ?every ?dir
    ?(adopt = true) ?(should_stop = never_stop) ?(progress = no_progress) ~seed
    ~instrs () =
  let key =
    match key with Some k -> k | None -> fullsys_key ?config ?pages ~seed ()
  in
  let m = Fullsys.create ?config ?pages ~seed () in
  let resumed_from =
    adopt_deepest ?dir ~adopt ~key ~lo:1 ~hi:instrs (fun p _ ->
        Some (fullsys_restore ~path:p ~key m))
  in
  (* Make the adopted depth visible to progress streams before any new
     work happens (also the only progress a full-depth adoption emits). *)
  Option.iter (fun n -> progress ~done_count:n ~total:instrs) resumed_from;
  let completed =
    chunked ~every ~total:instrs ~should_stop ~progress
      ~done_count:(fun () -> Fullsys.instrs_done m)
      ~advance:(fun step -> ignore (Fullsys.run m ~instrs:step))
      ~checkpoint:(fun () ->
        (* A stop before the first chunk stores nothing: a depth-0 file
           would hold the whole fresh machine, and adoption starts at 1. *)
        let n = Fullsys.instrs_done m in
        if n > 0 then
          Option.iter
            (fun dir ->
              save_if_absent ~keep ~dir ~key n (fun () -> fullsys_sections ~key m))
            dir)
  in
  {
    f_result = Fullsys.totals m;
    f_completed = completed;
    f_done = Fullsys.instrs_done m;
    f_resumed_from = resumed_from;
  }

(* ------------------------------------------------------------------ *)
(* Unit-prefix driver: the batched experiments                         *)
(* ------------------------------------------------------------------ *)

(* How one batched experiment persists. A checkpoint holds the meta
   section, then the sweep's shared value when it is stored (Fig. 7's
   baselines), then the units section: the unit total, the run
   constants [head] writes and checks (Fig. 9's flip probabilities), and
   the completed-unit prefix. [belongs u o] says a stored output is unit
   [u]'s, so a prefix stored for another unit list is never adopted. *)
type ('p, 'u, 'o) codec = {
  kind : string;
  section : string;
  head : (Codec.writer -> unit) * (Codec.reader -> bool);
  put : Codec.writer -> 'o -> unit;
  get : Codec.reader -> 'o;
  belongs : 'u -> 'o -> bool;
  shared : 'p shared_codec option;
}

(* [s_get] answers [None] for a shared value stored by another run. *)
and 'p shared_codec = {
  s_section : string;
  s_put : Codec.writer -> 'p -> unit;
  s_get : Codec.reader -> 'p option;
}

let no_head = (ignore, fun _ -> true)

type ('o, 'r) units_outcome = {
  u_result : 'r option;
  u_done : 'o list;
  u_completed : bool;
  u_resumed_from : int option;
}

(* Without [~key]: hash the kind and every run parameter, so runs that
   differ in anything but depth never share a store key. *)
let fallback_key key ~kind params =
  match key with
  | Some k -> k
  | None ->
      ("kind", Printf.sprintf "%S" kind) :: params
      |> List.sort compare
      |> List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v)
      |> String.concat ","
      |> Printf.sprintf "{%s}" |> Codec.fnv1a64 |> Snapshot.hash_hex

let int_list l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let names_list specs =
  "["
  ^ String.concat ","
      (List.map (fun s -> Printf.sprintf "%S" s.Ptg_workloads.Workload.name) specs)
  ^ "]"

(* Every field of the PT-Guard configuration; the layout by name. *)
let config_param (c : Ptguard.Config.t) =
  let { Ptguard.Config.design; mac_latency_cycles; mac_bits; soft_match_k;
        correction_enabled; zero_pte_max_bits; layout = _; ctb_entries;
        qarma_rounds } = c in
  ( "config",
    Printf.sprintf
      "{\"correction\":%b,\"ctb\":%d,\"design\":%S,\"layout\":%S,\"mac_bits\":%d,\"mac_latency\":%d,\"rounds\":%d,\"soft_k\":%d,\"zero_bits\":%d}"
      correction_enabled ctb_entries
      (Ptguard.Config.design_name design)
      (Ptguard.Config.layout_name c)
      mac_bits mac_latency_cycles qarma_rounds soft_match_k zero_pte_max_bits )

(* Adopt the deepest intact stored prefix, then compute the missing units
   in ordered batches of [every] through the same fan-out as
   [Sweep.run], checkpointing the completed prefix. A stored shared value
   is the first chunk, and a count-0 (shared-only) checkpoint is legal. *)
let run_units ?jobs ?key ?(keep = default_keep) ?every ?dir ?(adopt = true)
    ?(should_stop = never_stop) ?(progress = no_progress) ~params codec
    (sweep : _ Sweep.t) =
  let key = fallback_key key ~kind:codec.kind params in
  let units = sweep.Sweep.units in
  let total = List.length units in
  let sections shared outs =
    let units_section =
      section codec.section (fun b ->
          Codec.put_varint b total;
          fst codec.head b;
          Codec.put_list b codec.put outs)
    in
    meta_section { m_kind = codec.kind; m_key = key; m_count = List.length outs }
    :: (match codec.shared with
       | None -> [ units_section ]
       | Some s ->
           [ section s.s_section (fun b -> s.s_put b shared); units_section ])
  in
  let load p n =
    let _, stored = load_checked ~kind:codec.kind ~key p in
    let shared =
      Option.map (fun s -> decode ~what:p stored s.s_section s.s_get) codec.shared
    in
    let stored_total, head_ok, outs =
      decode ~what:p stored codec.section (fun r ->
          let stored_total = Codec.get_varint r in
          let head_ok = snd codec.head r in
          (stored_total, head_ok, Codec.get_list r codec.get))
    in
    if
      stored_total = total && head_ok
      && List.length outs = n
      && List.for_all2 codec.belongs (List.filteri (fun i _ -> i < n) units) outs
    then
      match shared with
      | None -> Some (None, outs)
      | Some (Some v) -> Some (Some v, outs)
      | Some None -> None
    else None
  in
  let floor = if Option.is_none codec.shared then 1 else 0 in
  let resumed = adopt_deepest ?dir ~adopt ~key ~lo:floor ~hi:total load in
  let shared =
    ref
      (match (codec.shared, resumed) with
      | None, _ -> Some (sweep.Sweep.shared ?jobs ())
      | Some _, Some (v, _) -> v
      | Some _, None -> None)
  in
  let outs = ref (match resumed with Some (_, o) -> o | None -> []) in
  let checkpoint () =
    match (dir, !shared) with
    | Some dir, Some v when List.length !outs >= floor ->
        save_if_absent ~keep ~dir ~key (List.length !outs) (fun () ->
            sections v !outs)
    | _ -> ()
  in
  Option.iter (fun (_, o) -> progress ~done_count:(List.length o) ~total) resumed;
  (* A stored shared value is the first chunk. *)
  let stopped_early =
    if Option.is_some !shared then false
    else if should_stop () then true
    else begin
      shared := Some (sweep.Sweep.shared ?jobs ());
      if every <> None then checkpoint ();
      progress ~done_count:0 ~total;
      false
    end
  in
  let completed =
    (not stopped_early)
    && chunked ~every ~total ~should_stop ~progress
         ~done_count:(fun () -> List.length !outs)
         ~advance:(fun step ->
           let n = List.length !outs in
           let batch = List.filteri (fun i _ -> i >= n && i < n + step) units in
           outs :=
             !outs
             @ Sweep.map ?jobs (sweep.Sweep.run_unit (Option.get !shared)) batch)
         ~checkpoint
  in
  {
    u_result = (if completed then Some (sweep.Sweep.merge !outs) else None);
    u_done = !outs;
    u_completed = completed;
    u_resumed_from = Option.map (fun (_, o) -> List.length o) resumed;
  }

(* ------------------------------------------------------------------ *)
(* The batched experiments as unit-prefix instances                    *)
(* ------------------------------------------------------------------ *)

let fig6_codec =
  {
    kind = "fig6";
    section = "fig6.rows";
    head = no_head;
    shared = None;
    put = (fun b (r : Fig6.row) ->
      Codec.put_string b r.Fig6.workload;
      Codec.put_float b r.mpki;
      Codec.put_float b r.base_ipc;
      Codec.put_float b r.norm_ipc;
      Codec.put_float b r.slowdown_pct;
      Codec.put_varint b r.pte_dram_reads;
      Codec.put_varint b r.dram_reads);
    get = (fun r ->
      let workload = Codec.get_string r in
      let mpki = Codec.get_float r in
      let base_ipc = Codec.get_float r in
      let norm_ipc = Codec.get_float r in
      let slowdown_pct = Codec.get_float r in
      let pte_dram_reads = Codec.get_varint r in
      let dram_reads = Codec.get_varint r in
      { Fig6.workload; mpki; base_ipc; norm_ipc; slowdown_pct; pte_dram_reads;
        dram_reads });
    belongs =
      (fun spec (r : Fig6.row) -> r.Fig6.workload = spec.Ptg_workloads.Workload.name);
  }

type fig6_outcome = {
  g_result : Fig6.result option; (* None when stopped before the last row *)
  g_rows : Fig6.row list;
  g_completed : bool;
  g_resumed_from : int option;
}

let run_fig6 ?jobs ?key ?keep ?every ?dir ?adopt ?should_stop ?progress ~instrs
    ~warmup ~seed ~config ~workloads () =
  let o =
    run_units ?jobs ?key ?keep ?every ?dir ?adopt ?should_stop ?progress
      ~params:
        [
          config_param config; ("instrs", string_of_int instrs);
          ("seed", Int64.to_string seed); ("warmup", string_of_int warmup);
          ("workloads", names_list workloads);
        ]
      fig6_codec
      (Fig6.plan ~instrs ~warmup ~seed ~config workloads)
  in
  { g_result = o.u_result; g_rows = o.u_done; g_completed = o.u_completed;
    g_resumed_from = o.u_resumed_from }

let put_core_result b (r : Ptg_cpu.Core.result) =
  Codec.put_varint b r.Ptg_cpu.Core.instrs;
  Codec.put_varint b r.Ptg_cpu.Core.cycles;
  Codec.put_float b r.Ptg_cpu.Core.ipc;
  Codec.put_float b r.Ptg_cpu.Core.llc_mpki;
  Codec.put_varint b r.Ptg_cpu.Core.dram_reads;
  Codec.put_varint b r.Ptg_cpu.Core.pte_dram_reads;
  Codec.put_varint b r.Ptg_cpu.Core.walks;
  Codec.put_float b r.Ptg_cpu.Core.tlb_miss_rate;
  Codec.put_varint b r.Ptg_cpu.Core.guard_mac_computations;
  Codec.put_varint b r.Ptg_cpu.Core.cache_writebacks

let get_core_result r : Ptg_cpu.Core.result =
  let instrs = Codec.get_varint r in
  let cycles = Codec.get_varint r in
  let ipc = Codec.get_float r in
  let llc_mpki = Codec.get_float r in
  let dram_reads = Codec.get_varint r in
  let pte_dram_reads = Codec.get_varint r in
  let walks = Codec.get_varint r in
  let tlb_miss_rate = Codec.get_float r in
  let guard_mac_computations = Codec.get_varint r in
  let cache_writebacks = Codec.get_varint r in
  { Ptg_cpu.Core.instrs; cycles; ipc; llc_mpki; dram_reads; pte_dram_reads;
    walks; tlb_miss_rate; guard_mac_computations; cache_writebacks }

(* The shared baselines are stored by workload name; a stored set only
   serves a run over the same workloads, in order. *)
let fig7_codec workloads =
  let names = List.map (fun s -> s.Ptg_workloads.Workload.name) workloads in
  {
    kind = "fig7";
    section = "fig7.points";
    head = no_head;
    shared =
      Some
        {
          s_section = "fig7.base";
          s_put =
            (fun b base ->
              Codec.put_list b
                (fun b (spec, r) ->
                  Codec.put_string b spec.Ptg_workloads.Workload.name;
                  put_core_result b r)
                base);
          s_get =
            (fun r ->
              let base =
                Codec.get_list r (fun r ->
                    let name = Codec.get_string r in
                    let core = get_core_result r in
                    (name, core))
              in
              if List.map fst base = names then
                Some (List.map2 (fun spec (_, core) -> (spec, core)) workloads base)
              else None);
        };
    put = (fun b (pt : Fig7.point) ->
      Codec.put_bool b (pt.Fig7.design = Ptguard.Config.Optimized);
      Codec.put_varint b pt.Fig7.mac_latency;
      Codec.put_float b pt.Fig7.avg_slowdown_pct;
      Codec.put_float b pt.Fig7.max_slowdown_pct;
      Codec.put_string b pt.Fig7.max_workload;
      Codec.put_float b pt.Fig7.mac_reads_fraction);
    get = (fun r ->
      let design =
        if Codec.get_bool r then Ptguard.Config.Optimized
        else Ptguard.Config.Baseline
      in
      let mac_latency = Codec.get_varint r in
      let avg_slowdown_pct = Codec.get_float r in
      let max_slowdown_pct = Codec.get_float r in
      let max_workload = Codec.get_string r in
      let mac_reads_fraction = Codec.get_float r in
      { Fig7.design; mac_latency; avg_slowdown_pct; max_slowdown_pct;
        max_workload; mac_reads_fraction });
    belongs =
      (fun (d, l) (pt : Fig7.point) -> pt.Fig7.design = d && pt.Fig7.mac_latency = l);
  }

type fig7_outcome = {
  p_result : Fig7.result option; (* None when stopped before the last point *)
  p_points : Fig7.point list;
  p_completed : bool;
  p_resumed_from : int option;
}

let run_fig7 ?jobs ?key ?keep ?every ?dir ?adopt ?should_stop ?progress
    ?(latencies = Fig7.default_latencies)
    ?(workloads = Ptg_workloads.Workload.all) ~instrs ~warmup ~seed () =
  let o =
    run_units ?jobs ?key ?keep ?every ?dir ?adopt ?should_stop ?progress
      ~params:
        [
          ("instrs", string_of_int instrs); ("latencies", int_list latencies);
          ("seed", Int64.to_string seed); ("warmup", string_of_int warmup);
          ("workloads", names_list workloads);
        ]
      (fig7_codec workloads)
      (Fig7.plan ~instrs ~warmup ~seed ~latencies workloads)
  in
  { p_result = o.u_result; p_points = o.u_done; p_completed = o.u_completed;
    p_resumed_from = o.u_resumed_from }

(* Fig. 9 stores its flip probabilities ahead of the campaigns: a prefix
   only serves a run over the same x-axis. *)
let fig9_codec p_flips =
  {
    kind = "fig9";
    section = "fig9.parts";
    head =
      ( (fun b -> Codec.put_list b Codec.put_float p_flips),
        fun r -> Codec.get_list r Codec.get_float = p_flips );
    shared = None;
    put = (fun b ((w : Fig9.workload_result), steps) ->
      Codec.put_string b w.Fig9.workload;
      Codec.put_list b
        (fun b (c : Fig9.cell) ->
          Codec.put_float b c.Fig9.p_flip;
          Codec.put_varint b c.Fig9.sampled;
          Codec.put_varint b c.Fig9.corrected;
          Codec.put_varint b c.Fig9.uncorrectable;
          Codec.put_varint b c.Fig9.benign;
          Codec.put_varint b c.Fig9.miscorrections;
          Codec.put_varint b c.Fig9.escapes;
          Codec.put_float b c.Fig9.corrected_pct)
        w.Fig9.cells;
      Codec.put_list b
        (fun b (k, v) ->
          Codec.put_string b k;
          Codec.put_varint b v)
        steps);
    get = (fun r ->
      let workload = Codec.get_string r in
      let cells =
        Codec.get_list r (fun r ->
            let p_flip = Codec.get_float r in
            let sampled = Codec.get_varint r in
            let corrected = Codec.get_varint r in
            let uncorrectable = Codec.get_varint r in
            let benign = Codec.get_varint r in
            let miscorrections = Codec.get_varint r in
            let escapes = Codec.get_varint r in
            let corrected_pct = Codec.get_float r in
            { Fig9.p_flip; sampled; corrected; uncorrectable; benign;
              miscorrections; escapes; corrected_pct })
      in
      let steps =
        Codec.get_list r (fun r ->
            let k = Codec.get_string r in
            let v = Codec.get_varint r in
            (k, v))
      in
      ({ Fig9.workload; cells }, steps));
    belongs =
      (fun (p : Fig9.prepared) ((w : Fig9.workload_result), _) ->
        w.Fig9.workload = p.Fig9.pr_spec.Ptg_workloads.Workload.name);
  }

type fig9_outcome = {
  q_result : Fig9.result option; (* None when stopped before the last workload *)
  q_parts : (Fig9.workload_result * (string * int) list) list;
  q_completed : bool;
  q_resumed_from : int option;
}

let run_fig9 ?jobs ?key ?keep ?every ?dir ?adopt ?should_stop ?progress
    ?(p_flips = Fig9.default_p_flips) ?(config = Ptguard.Config.optimized)
    ?(workloads = Ptg_workloads.Workload.fig9_subset) ~lines_per_point ~seed ()
    =
  let o =
    run_units ?jobs ?key ?keep ?every ?dir ?adopt ?should_stop ?progress
      ~params:
        [
          config_param config; ("lines", string_of_int lines_per_point);
          ( "p_flips",
            "[" ^ String.concat "," (List.map (Printf.sprintf "%.17g") p_flips)
            ^ "]" );
          ("seed", Int64.to_string seed); ("workloads", names_list workloads);
        ]
      (fig9_codec p_flips)
      (Fig9.plan ~lines_per_point ~seed ~p_flips ~config workloads)
  in
  { q_result = o.u_result; q_parts = o.u_done; q_completed = o.u_completed;
    q_resumed_from = o.u_resumed_from }

let multicore_codec =
  {
    kind = "multicore";
    section = "multicore.rows";
    head = no_head;
    shared = None;
    put = (fun b (r : Multicore_exp.row) ->
      Codec.put_string b r.Multicore_exp.label;
      Codec.put_list b Codec.put_string r.Multicore_exp.workloads;
      Codec.put_float b r.Multicore_exp.base_ipc;
      Codec.put_float b r.Multicore_exp.norm_ipc;
      Codec.put_float b r.Multicore_exp.slowdown_pct;
      Codec.put_float b r.Multicore_exp.avg_queue_delay);
    get = (fun r ->
      let label = Codec.get_string r in
      let workloads = Codec.get_list r Codec.get_string in
      let base_ipc = Codec.get_float r in
      let norm_ipc = Codec.get_float r in
      let slowdown_pct = Codec.get_float r in
      let avg_queue_delay = Codec.get_float r in
      { Multicore_exp.label; workloads; base_ipc; norm_ipc; slowdown_pct;
        avg_queue_delay });
    belongs = (fun (label, _) (r : Multicore_exp.row) -> r.Multicore_exp.label = label);
  }

type multicore_outcome = {
  r_result : Multicore_exp.result option; (* None when stopped early *)
  r_rows : Multicore_exp.row list;
  r_completed : bool;
  r_resumed_from : int option;
}

let run_multicore ?jobs ?key ?keep ?every ?dir ?adopt ?should_stop ?progress
    ?(same = Ptg_workloads.Workload.all) ?(config = Ptguard.Config.baseline)
    ~instrs_per_core ~mixes ~seed () =
  let o =
    run_units ?jobs ?key ?keep ?every ?dir ?adopt ?should_stop ?progress
      ~params:
        [
          config_param config; ("instrs", string_of_int instrs_per_core);
          ("mixes", string_of_int mixes); ("same", names_list same);
          ("seed", Int64.to_string seed);
        ]
      multicore_codec
      (Multicore_exp.plan ~instrs_per_core ~seed ~same ~mixes ~config)
  in
  { r_result = o.u_result; r_rows = o.u_done; r_completed = o.u_completed;
    r_resumed_from = o.u_resumed_from }

(* ------------------------------------------------------------------ *)
(* Scenario entry point (server warm-start path)                       *)
(* ------------------------------------------------------------------ *)

type served = {
  text : string option; (* None when stopped before completion *)
  completed : bool;
  resumed_from : int option;
}

(* Scenario kinds the chunked drivers can slice: kill, persist, resume,
   byte-identically. Multi-seed sweeps aggregate across seeds at the end
   and are served in one piece. *)
let sliceable (t : Scenario.t) =
  match t.Scenario.kind with
  | Scenario.Fullsys | Scenario.Fig7 | Scenario.Multicore -> true
  | Scenario.Fig6 | Scenario.Fig9 -> t.Scenario.seeds = 1
  | Scenario.Fig8 | Scenario.Trace -> false

(* Without an explicit granularity, slice fullsys into ~10 instruction
   chunks and batched experiments one unit (row/point/workload) at a
   time, so [should_stop] gets a timely look even when the caller never
   tuned [every]. *)
let default_every (t : Scenario.t) =
  match t.Scenario.kind with
  | Scenario.Fullsys -> max 1 (Scenario.resolve_instrs t / 10)
  | _ -> 1

(* Scenarios the snapshot store can serve incrementally: fullsys by
   instruction prefix (keyed by [Scenario.prefix_hash]) and the batched
   experiments by unit prefix (keyed by the full [Scenario.hash] — units
   are only reusable for identical sizing). Even without [dir] the
   sliceable kinds run chunked, so [should_stop]/[progress] stay live;
   everything else runs in one piece. Inputs resolve through the same
   [Scenario.resolve_*] calls as [Scenario.run]. *)
let run_scenario ?dir ?every ?should_stop ?progress (t : Scenario.t) =
  Scenario.check t;
  let every =
    match every with
    | Some _ -> every
    | None -> if sliceable t then Some (default_every t) else None
  in
  let served out result completed resumed_from =
    {
      text = Option.map (fun r -> Scenario.render (out r)) result;
      completed;
      resumed_from;
    }
  in
  let jobs = t.Scenario.jobs and seed = t.Scenario.seed and key = Scenario.hash t in
  match t.Scenario.kind with
  | Scenario.Fullsys ->
      let o =
        run_fullsys ?every ?dir ?should_stop ?progress
          ~key:(Scenario.prefix_hash t) ~seed ~instrs:(Scenario.resolve_instrs t)
          ()
      in
      served
        (fun r -> Scenario.Fullsys_out r)
        (if o.f_completed then Some o.f_result else None)
        o.f_completed o.f_resumed_from
  | Scenario.Fig6 when t.Scenario.seeds = 1 ->
      let o =
        run_fig6 ~jobs ?every ?dir ?should_stop ?progress ~key
          ~instrs:(Scenario.resolve_instrs t) ~warmup:(Scenario.resolve_warmup t)
          ~seed ~config:(Scenario.resolve_config t)
          ~workloads:(Scenario.resolve_workloads t) ()
      in
      served (fun r -> Scenario.Fig6_out r) o.g_result o.g_completed o.g_resumed_from
  | Scenario.Fig7 ->
      let o =
        run_fig7 ~jobs ?every ?dir ?should_stop ?progress ~key
          ~instrs:(Scenario.resolve_instrs t) ~warmup:(Scenario.resolve_warmup t)
          ~seed ()
      in
      served (fun r -> Scenario.Fig7_out r) o.p_result o.p_completed o.p_resumed_from
  | Scenario.Fig9 when t.Scenario.seeds = 1 ->
      let o =
        run_fig9 ~jobs ?every ?dir ?should_stop ?progress ~key
          ~lines_per_point:(Scenario.resolve_lines t) ~seed ()
      in
      served (fun r -> Scenario.Fig9_out r) o.q_result o.q_completed o.q_resumed_from
  | Scenario.Multicore ->
      let o =
        run_multicore ~jobs ?every ?dir ?should_stop ?progress ~key
          ~instrs_per_core:(Scenario.resolve_instrs t)
          ~mixes:(Scenario.resolve_mixes t) ~seed ()
      in
      served
        (fun r -> Scenario.Multicore_out r)
        o.r_result o.r_completed o.r_resumed_from
  | _ -> (
      match should_stop with
      | Some stop when stop () ->
          { text = None; completed = false; resumed_from = None }
      | _ ->
          {
            text = Some (Scenario.run_to_string t);
            completed = true;
            resumed_from = None;
          })
