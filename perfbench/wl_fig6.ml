(* fig6: the reduced Figure 6 sweep, single job. One unit is one
   workload row, run unprotected and under PT-Guard. Its time is all in
   the workloads, cpu (Core, Cache, Tlb, Guard_timing) and dram layers;
   it uses no cipher, server or snapshot code. Its traced run also
   carries the layer probes of the checkpointed resume chain (Wl_resume)
   and of the attacked co-simulation (Wl_fullsys). *)

open Bx
module W = Ptg_workloads.Workload
module Fig6 = Ptg_sim.Fig6

let paper_amean_pct = 1.3
let paper_xalancbmk_pct = 3.6

let sizes ctx =
  if ctx.tiny then (20_000, 5_000, List.filteri (fun i _ -> i < 3) W.all)
  else (600_000, 200_000, W.all)

(* What Fig6 builds before a row's first instruction: the guard, the core
   and the workload's op stream. *)
let setup_row ~config ~seed spec =
  let guard = Ptg_cpu.Guard_timing.of_config config ~rng:(Ptg_util.Rng.create (Int64.add seed 1L)) in
  let core = Ptg_cpu.Core.create ~guard () in
  let stream = W.stream (Ptg_util.Rng.create seed) spec in
  ignore (Sys.opaque_identity (core, stream))

let run ctx =
  let instrs, warmup, specs = sizes ctx in
  let seed = Int64.of_int ctx.seed in
  let config = Ptguard.Config.baseline in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  (* Set-ups come first: the process's heap is then in the same state on
     every run, and so is what a set-up pays for fresh memory. *)
  let setup_round () =
    Array.to_list (Array.map (fun spec -> setup_sample (fun () -> setup_row ~config ~seed spec)) specs)
  in
  (* The first round only grows the heap to its working size; the two
     after it are the samples. *)
  ignore (setup_round ());
  let setup = setup_round () @ setup_round () in
  (* The reference: the whole sweep through Fig6.run with an obs sink
     attached. Every row of every pass must equal its row. *)
  let sink = Ptg_obs.Sink.create () in
  let t_obs, reference =
    time (fun () ->
        Fig6.run ~jobs:1 ~instrs ~warmup ~seed ~config ~workloads:(Array.to_list specs)
          ~obs:sink ())
  in
  let ref_rows = Array.of_list reference.Fig6.rows in
  ctx.digest <- digest (Fig6.to_string reference);
  let xalan =
    match List.find_opt (fun r -> r.Fig6.workload = "xalancbmk") reference.Fig6.rows with
    | Some r -> Printf.sprintf "%.2f%%" r.Fig6.slowdown_pct
    | None -> "n/a"
  in
  info "fidelity: amean slowdown %.2f%% (paper %.1f%%), xalancbmk %s (paper %.1f%%)"
    reference.Fig6.amean_slowdown_pct paper_amean_pct xalan paper_xalancbmk_pct;
  info "load: 1 thread, 0 connections (single-job simulation in the benchmark process)";
  let row_times = Array.make n [] in
  let measure budget =
    let units = ref [] in
    let passes, heap =
      run_passes ~budget (fun i ->
          with_span "fig6.pass" (fun () ->
              Array.iteri
                (fun k spec ->
                  let t, rows =
                    time (fun () ->
                        with_span ~unit_id:((i * n) + k) "Fig6.run_rows" (fun () ->
                            Fig6.run_rows ~jobs:1 ~instrs ~warmup ~seed ~config [ spec ]))
                  in
                  units := t :: !units;
                  row_times.(k) <- t :: row_times.(k);
                  check ctx ("fig6 row " ^ spec.W.name) (rows = [ ref_rows.(k) ]))
                specs);
          n)
    in
    {
      setup;
      units = !units;
      passes;
      throughput = float_of_int (n * 2 * (instrs + warmup)) /. mean_pass_time passes;
      heap_peak_mb = heap;
    }
  in
  let budget = if ctx.traced then ctx.seconds /. 2.0 else ctx.seconds in
  let untraced = measure budget in
  if ctx.traced then begin
    tracing := true;
    let traced = measure budget in
    tracing := false;
    trace_overhead ctx ~untraced ~traced;
    gc_layer ctx untraced;
    layer ctx "obs.sink_overhead_pct" (100.0 *. ((t_obs /. mean_pass_time untraced.passes) -. 1.0));
    (* Counts: one sweep's guarded runs, from the obs sink. *)
    let snap = Ptg_obs.Sink.metrics sink in
    let v = obs_value snap in
    let cache what c = v (Printf.sprintf "cache_%s{cache=\"%s\"}" what c) in
    layer ctx "cache.l1.accesses" (cache "accesses" "l1");
    layer ctx "cache.l1.misses" (cache "misses" "l1");
    layer ctx "cache.l2.misses" (cache "misses" "l2");
    layer ctx "cache.l3.misses" (cache "misses" "l3");
    layer ctx "cache.mmu.accesses" (cache "accesses" "mmu");
    layer ctx "cache.mmu.misses" (cache "misses" "mmu");
    layer ctx "cache.writebacks" (v "core_cache_writebacks");
    layer ctx "tlb.lookups" (v "tlb_hits" +. v "tlb_misses");
    layer ctx "tlb.misses" (v "tlb_misses");
    layer ctx "guard_timing.mac_charges" (v "guard_mac_computations");
    layer ctx "dram.accesses" (v "dram_row_hits" +. v "dram_row_conflicts" +. v "dram_row_closed");
    layer ctx "dram.row_hits" (v "dram_row_hits");
    layer ctx "dram.row_conflicts" (v "dram_row_conflicts");
    layer ctx "dram.activations" (v "dram_activations");
    (* Layer replays, per workload: the op stream alone, then the row's
       guarded run again (warm-up and timed instructions through Core.run
       on a live stream); the core's self time is the second minus the
       first. A shorter replay over-counts: a fresh core's first
       instructions miss more in its caches than the average. *)
    let m = warmup + instrs in
    let leaf_lines = ref [] and n_leaf = ref 0 in
    let replay spec =
      let stream = W.stream (Ptg_util.Rng.create seed) spec in
      let t_ops = fst (time (fun () -> for _ = 1 to m do ignore (Sys.opaque_identity (stream ())) done)) in
      let guard = Ptg_cpu.Guard_timing.of_config config ~rng:(Ptg_util.Rng.create (Int64.add seed 1L)) in
      let core = Ptg_cpu.Core.create ~guard () in
      Ptg_cpu.Core.on_walk core (fun ~vpn:_ ~leaf_line_addr ->
          if !n_leaf < 4096 then begin
            incr n_leaf;
            leaf_lines := leaf_line_addr :: !leaf_lines
          end);
      let stream = W.stream (Ptg_util.Rng.create seed) spec in
      let t_run =
        fst
          (time (fun () ->
               ignore (Ptg_cpu.Core.run core ~instrs:warmup ~stream);
               ignore (Ptg_cpu.Core.run core ~instrs ~stream)))
      in
      let ops = t_ops /. float_of_int m in
      (ops, (t_run /. float_of_int m) -. ops)
    in
    let per_spec = Array.map replay specs in
    let ops_total = Array.fold_left (fun a (o, _) -> a +. o) 0.0 per_spec in
    let core_total = Array.fold_left (fun a (_, c) -> a +. c) 0.0 per_spec in
    layer ctx "workload.ns_per_op" (1e9 *. ops_total /. float_of_int n);
    layer ctx "core.ns_per_instr" (1e9 *. core_total /. float_of_int n);
    (* A row runs 2 x (warmup + instrs) instructions, each one stream op
       and one core step (the core's self time). *)
    let instrs_per_row = float_of_int (2 * (instrs + warmup)) in
    let attributed =
      Array.fold_left (fun a (o, c) -> a +. (instrs_per_row *. (o +. c))) 0.0 per_spec
    in
    let measured = Array.fold_left (fun a ts -> a +. median ts) 0.0 row_times in
    layer ctx "fig6.attributed_frac" (attributed /. measured);
    (* DRAM accesses on the leaf lines the core's walks read. *)
    let dram = Ptg_dram.Dram.create () in
    let addrs = Array.of_list (match !leaf_lines with [] -> [ 0L ] | l -> l) in
    let k = 200_000 in
    let t_dram =
      fst
        (time (fun () ->
             let now = ref 0 in
             for i = 0 to k - 1 do
               now :=
                 !now
                 + Ptg_dram.Dram.access_fast dram ~now:!now
                     ~addr:addrs.(i mod Array.length addrs) ~is_write:false
             done))
    in
    layer ctx "dram.ns_per_access" (1e9 *. t_dram /. float_of_int k);
    tracing := true;
    Wl_resume.probe ctx;
    Wl_fullsys.probe ctx;
    tracing := false
  end;
  untraced
