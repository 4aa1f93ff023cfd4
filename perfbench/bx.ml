(* Shared machinery of the repository benchmark: the metric catalogue,
   clocks and order statistics, whole-pass measurement with allocation
   counters, the span recorder and the run context. *)

(* ------------------------------------------------------------------ *)
(* Metric catalogue (mirrors BENCHMARK.json; --self-check compares)    *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("unit_p90_ms", "ms");
    ("alloc_kb_per_unit", "KB");
    ("heap_peak_mb", "MB");
  ]

let per_layer =
  [
    (* workloads *)
    ("workload.ns_per_op", "ns");
    (* cpu *)
    ("core.ns_per_instr", "ns");
    ("cache.l1.accesses", "count");
    ("cache.l1.misses", "count");
    ("cache.l2.misses", "count");
    ("cache.l3.misses", "count");
    ("cache.mmu.accesses", "count");
    ("cache.mmu.misses", "count");
    ("cache.writebacks", "count");
    ("tlb.lookups", "count");
    ("tlb.misses", "count");
    ("guard_timing.mac_charges", "count");
    (* dram *)
    ("dram.accesses", "count");
    ("dram.row_hits", "count");
    ("dram.row_conflicts", "count");
    ("dram.activations", "count");
    ("dram.ns_per_access", "ns");
    (* crypto *)
    ("qarma.ns_per_block", "ns");
    ("mac.calls", "count");
    ("mac.ns_per_mac", "ns");
    ("mac.batch_ns_per_mac", "ns");
    (* core (the integrity engine) *)
    ("engine.reads", "count");
    ("engine.reads_pte", "count");
    ("engine.writes_protected", "count");
    ("engine.mac_computations", "count");
    ("engine.integrity_failures", "count");
    ("engine.ns_per_verify", "ns");
    ("engine.ns_per_write", "ns");
    ("correction.calls", "count");
    ("correction.succeeded", "count");
    ("correction.success_ratio", "ratio");
    ("correction.guesses_per_call", "count");
    ("correction.ms_per_call", "ms");
    (* memctrl *)
    ("memctrl.reads", "count");
    ("memctrl.reads_pte", "count");
    ("memctrl.reads_failed", "count");
    ("memctrl.read_latency_cycles", "cycles");
    ("mmu.walks", "count");
    ("mmu.ns_per_walk", "ns");
    (* rowhammer *)
    ("attack.bursts", "count");
    ("attack.ms_per_burst", "ms");
    ("fault_model.flips", "count");
    (* os *)
    ("os.journal_entries", "count");
    ("os.refaults", "count");
    (* sim *)
    ("fig6.attributed_frac", "ratio");
    ("fullsys.attributed_frac", "ratio");
    ("checkpoint.build_ms", "ms");
    ("checkpoint.restore_ms", "ms");
    ("checkpoint.run_ms", "ms");
    ("checkpoint.save_ms", "ms");
    ("checkpoint.prune_ms", "ms");
    (* snapshot *)
    ("snapshot.encode_ms", "ms");
    ("snapshot.decode_ms", "ms");
    ("snapshot.bytes", "bytes");
    ("snapshot.files_pruned", "count");
    (* server *)
    ("json.us_per_parse", "us");
    ("protocol.us_per_encode", "us");
    ("protocol.us_per_decode", "us");
    ("scenario.us_per_hash", "us");
    ("lru.hits", "count");
    ("lru.misses", "count");
    ("lru.evictions", "count");
    ("lru.hit_ratio", "ratio");
    ("server.queue_depth_max", "count");
    ("server.request_p50_us", "us");
    ("server.cold_overhead_ms", "ms");
    ("server.coalesced", "count");
    ("server.shed", "count");
    ("server.errors", "count");
    ("client.connect_ms", "ms");
    ("router.hop_us", "us");
    (* obs *)
    ("obs.sink_overhead_pct", "%");
    ("trace.overhead_pct", "%");
    (* gc (the OCaml runtime) *)
    ("gc.minor_collections_per_unit", "count");
    ("gc.major_collections_per_unit", "count");
    ("gc.promoted_kb_per_unit", "KB");
  ]

(* ------------------------------------------------------------------ *)
(* Clock and order statistics                                          *)
(* ------------------------------------------------------------------ *)

let now_ns = Ptg_util.Clock.now_ns
let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (since_s t0, r)

let percentile xs p =
  match xs with [] -> 0.0 | _ -> Ptg_util.Stats.percentile (Array.of_list xs) p

let median xs = percentile xs 50.0
let mean xs = match xs with [] -> 0.0 | _ -> Ptg_util.Stats.mean (Array.of_list xs)

(* One set-up sample: timed from a collected heap, so it does not depend
   on how much garbage the work before it left. *)
let setup_sample f =
  Gc.full_major ();
  fst (time f)

(* Median seconds per call of [f], over [reps] separately timed calls. *)
let median_call ~reps f =
  let xs = List.init reps (fun i -> fst (time (fun () -> f i))) in
  median xs

let digest s = Digest.to_hex (Digest.string s)

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* One span per call into a layer, recorded from the benchmark's side of
   the call. Kept in memory while the run measures; written out and
   reduced to self time per name when it ends. *)
type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;  (* -1 for a root span *)
  sp_unit : int;    (* unit id, -1 when the span is not one unit *)
  sp_start : int64;
  mutable sp_stop : int64;
}

let spans : span list ref = ref []
let span_stack : span list ref = ref []
let span_count = ref 0
let tracing = ref false

let with_span ?(unit_id = -1) name f =
  if not !tracing then f ()
  else begin
    let parent = match !span_stack with s :: _ -> s.sp_id | [] -> -1 in
    let s =
      { sp_id = !span_count; sp_name = name; sp_parent = parent; sp_unit = unit_id;
        sp_start = now_ns (); sp_stop = 0L }
    in
    incr span_count;
    span_stack := s :: !span_stack;
    Fun.protect
      ~finally:(fun () ->
        s.sp_stop <- now_ns ();
        span_stack := List.tl !span_stack;
        spans := s :: !spans)
      f
  end

(* Self time per span name: a span's duration minus the part of it its
   children cover. Returns (name, count, self seconds), by name. *)
let span_self_times () =
  let child_ns = Hashtbl.create 64 in
  let dur s = Int64.to_float (Int64.sub s.sp_stop s.sp_start) in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace child_ns s.sp_parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.sp_parent)))
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.sp_id) in
      let n, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt by_name s.sp_name) in
      Hashtbl.replace by_name s.sp_name (n + 1, t +. (self *. 1e-9)))
    !spans;
  Hashtbl.fold (fun name (n, t) acc -> (name, n, t) :: acc) by_name []
  |> List.sort compare

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"unit\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.sp_id s.sp_name s.sp_parent s.sp_unit s.sp_start s.sp_stop)
    (List.rev !spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Run context                                                         *)
(* ------------------------------------------------------------------ *)

type ctx = {
  seed : int;
  seconds : float;   (* measuring budget of this run *)
  traced : bool;
  tiny : bool;       (* self-check sizes *)
  work_dir : string; (* scratch space inside the checkout *)
  mutable attempted : int;
  mutable failed : int;
  layer : (string, float) Hashtbl.t;
  mutable digest : string;
}

let info fmt = Printf.ksprintf print_endline fmt

let check ctx what ok =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then begin
    ctx.failed <- ctx.failed + 1;
    Printf.eprintf "check failed: %s\n%!" what
  end

let layer ctx name v =
  if not (List.mem_assoc name per_layer) then invalid_arg ("unknown layer metric " ^ name);
  Hashtbl.replace ctx.layer name v

let layer_int ctx name v = layer ctx name (float_of_int v)

(* Registry rows of an obs sink, by exact key (0 when absent). *)
let obs_value snap key =
  Option.value ~default:0.0 (Ptg_obs.Registry.find snap key)

let obs_sum snap prefix =
  List.fold_left
    (fun acc (k, v) ->
      if String.length k >= String.length prefix
         && String.sub k 0 (String.length prefix) = prefix
      then acc +. v
      else acc)
    0.0 (Ptg_obs.Registry.rows snap)

(* ------------------------------------------------------------------ *)
(* Whole-pass measurement                                              *)
(* ------------------------------------------------------------------ *)

(* One pass: a fixed list of units, so every pass does the same work and
   allocation per pass repeats exactly on the single-domain workloads. *)
type pass = {
  p_time : float;     (* seconds *)
  p_units : int;
  p_alloc : float;    (* bytes allocated *)
  p_minor : int;
  p_major : int;
  p_promoted : float; (* bytes *)
}

let word_bytes = float_of_int (Sys.word_size / 8)

(* Each pass starts from a collected heap and an empty minor heap, so the
   promotion pattern, and with it the allocation counters, repeats from
   pass to pass instead of depending on where the previous pass left the
   minor heap. *)
let measure_pass f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let t, units = time f in
  let a1 = Gc.allocated_bytes () in
  let s1 = Gc.quick_stat () in
  {
    p_time = t;
    p_units = units;
    p_alloc = a1 -. a0;
    p_minor = s1.Gc.minor_collections - s0.Gc.minor_collections;
    p_major = s1.Gc.major_collections - s0.Gc.major_collections;
    p_promoted = (s1.Gc.promoted_words -. s0.Gc.promoted_words) *. word_bytes;
  }

(* The peak major heap is read after this many passes, not at the end of
   the run, so it does not depend on how many passes the budget allowed. *)
let heap_pass = 3

let heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1048576.0

(* Run whole passes until [budget] seconds are spent: a pass does not
   start when the median pass so far would overrun the budget, but at
   least [min_passes] run. [f i] runs pass [i] and returns its unit
   count. Returns the passes and the heap peak after {!heap_pass}. *)
let run_passes ?(min_passes = 2) ~budget f =
  let t0 = now_ns () in
  let rec go i acc heap =
    let elapsed = since_s t0 in
    let est = median (List.map (fun p -> p.p_time) acc) in
    if i >= min_passes && elapsed +. est > budget then (List.rev acc, heap)
    else begin
      let p = measure_pass (fun () -> f i) in
      let heap = if i + 1 = heap_pass then Some (heap_mb ()) else heap in
      go (i + 1) (p :: acc) heap
    end
  in
  let passes, heap = go 0 [] None in
  (passes, match heap with Some h -> h | None -> heap_mb ())

(* The end-to-end figures of one run. [throughput] is work (simulated
   instructions or requests) per host second over the steady passes
   ({!steady_mean}). *)
type e2e = {
  setup : float list;      (* seconds per set-up *)
  units : float list;      (* seconds per unit *)
  passes : pass list;
  throughput : float;
  heap_peak_mb : float;
}

(* Mean of the steady samples: every one after the first, which may
   differ from the rest (first use of a store or a cache). A mean, not a
   median: the host alternates between a fast and a slow mode that last
   seconds each, and a run's median pass falls into whichever mode held
   more than half the run, while the mean moves only with the share of
   each (see NOTES.md, Host drift). *)
let steady_mean = function _ :: (_ :: _ as rest) -> mean rest | xs -> mean xs

let mean_pass_time passes = steady_mean (List.map (fun p -> p.p_time) passes)

(* Per-unit medians over the passes after the first, which may differ
   from the rest (first use of a store or a cache). *)
let per_unit r f =
  let ps = match r.passes with _ :: (_ :: _ as rest) -> rest | ps -> ps in
  median (List.map (fun p -> f p /. float_of_int (max 1 p.p_units)) ps)

let e2e_metrics r =
  let per_unit = per_unit r in
  [
    ("setup_s", median r.setup);
    ("throughput_per_s", r.throughput);
    ("unit_p90_ms", 1e3 *. percentile r.units 90.0);
    ("alloc_kb_per_unit", per_unit (fun p -> p.p_alloc /. 1024.0));
    ("heap_peak_mb", r.heap_peak_mb);
  ]

let gc_layer ctx r =
  let per_unit = per_unit r in
  layer ctx "gc.minor_collections_per_unit" (per_unit (fun p -> float_of_int p.p_minor));
  layer ctx "gc.major_collections_per_unit" (per_unit (fun p -> float_of_int p.p_major));
  layer ctx "gc.promoted_kb_per_unit" (per_unit (fun p -> p.p_promoted /. 1024.0))

let sample_line r =
  info "samples: %d units over %d passes, %d set-ups (p90 over the units)"
    (List.length r.units) (List.length r.passes) (List.length r.setup)

(* A traced run measures half its budget untraced and half traced; the
   unit medians of the two halves give the tracing overhead. *)
let trace_overhead ctx ~untraced ~traced =
  let a = median untraced.units and b = median traced.units in
  layer ctx "trace.overhead_pct" (100.0 *. ((b /. a) -. 1.0))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir path =
  rm_rf path;
  Sys.mkdir path 0o755
