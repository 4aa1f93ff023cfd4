(* The fullsys layer probe: the guarded co-simulation under live
   double-sided Rowhammer, measured at layer level in the fig6
   workload's traced run. It is the only code here that exercises
   correction, rowhammer and os, and it times crypto, the integrity
   engine and memctrl on the attacked machine.

   The co-simulation is not an end-to-end workload: its chunk times
   follow this host's speed drift more than any other workload's (the
   spread of ten runs reached 0.30-0.35 in two of three sets, above the
   0.25 bound; see NOTES.md).

   The fault model is pinned to anti cells: page-table lines are mostly
   zero bits, so every seed lands in the flip-heavy, correction-heavy
   mode and the seed varies only the generated inputs. *)

open Bx
module F = Ptg_sim.Fullsys
module E = Ptguard.Engine

let config =
  { F.default_config with
    fault = { Ptg_rowhammer.Fault_model.lpddr4 with orientation = Ptg_rowhammer.Fault_model.All_anti } }

let chunk = config.F.hammer_period

(* The first two chunks of a machine run unprobed: the first burst lands
   at the end of the first, and the second still sees few flips (13-28 ms
   against 66-276 ms for the chunks after it). *)
let warmup_chunks = 2
let chunks = 2

(* Fullsys maps its pages at this base, [pages] (its default) of them. *)
let vaddr_base = 0x1000_0000L
let pages = 2048

(* What the probed machine showed through the public hooks. *)
type capture = {
  reads : (int64 * bool * Ptg_pte.Line.t) list;  (* addr, is_pte, stored line; in order *)
  activations : (int * int * int, int) Hashtbl.t; (* channel, bank, row *)
  states : F.state list;                          (* before each probed chunk *)
  run_delta : Ptg_obs.Registry.snapshot;          (* counts of the probed chunks *)
  corrections : int list;                         (* guesses per call *)
  run_s : float;                                  (* time of the probed chunks *)
  totals : F.result;                              (* sums over the probed chunks *)
}

let max_captured = 6000

(* Per-layer figures: counts of the probed machine's timed chunks, from
   its obs sink, and layer timings from example replays on a twin machine
   built from the same seed, fed the inputs the hooks captured. *)
let replays ctx ~seed cap =
  let snap = cap.run_delta and totals = cap.totals in
  let v = obs_value snap in
  List.iter
    (fun (name, key) -> layer ctx name (v key))
    [
      ("engine.reads", "engine_reads_total");
      ("engine.reads_pte", "engine_reads_pte");
      ("engine.writes_protected", "engine_writes_protected");
      ("engine.mac_computations", "engine_mac_computations");
      ("engine.integrity_failures", "engine_integrity_failures");
      ("correction.calls", "engine_corrections_attempted");
      ("correction.succeeded", "engine_corrections_succeeded");
      ("memctrl.reads", "memctrl_reads_total");
      ("memctrl.reads_pte", "memctrl_reads_pte");
      ("memctrl.reads_failed", "memctrl_reads_failed");
      ("tlb.misses", "tlb_misses");
      ("dram.row_hits", "dram_row_hits");
      ("dram.row_conflicts", "dram_row_conflicts");
      ("dram.activations", "dram_activations");
    ];
  let calls = v "engine_corrections_attempted" in
  layer ctx "correction.success_ratio"
    (if calls > 0.0 then v "engine_corrections_succeeded" /. calls else 0.0);
  layer ctx "correction.guesses_per_call" (mean (List.map float_of_int cap.corrections));
  (* MACs computed on reads, plus protected writes not served by the
     precomputed MAC-zero; correction guesses are not included. *)
  layer ctx "mac.calls"
    (v "engine_mac_computations" +. v "engine_writes_protected" -. v "engine_writes_mac_zero");
  layer ctx "memctrl.read_latency_cycles"
    (v "memctrl_read_latency_sum" /. Float.max 1.0 (v "memctrl_read_latency_count"));
  layer ctx "tlb.lookups" (v "tlb_hits" +. v "tlb_misses");
  layer ctx "dram.accesses" (v "dram_row_hits" +. v "dram_row_conflicts" +. v "dram_row_closed");
  layer ctx "os.journal_entries" (obs_sum snap "os_journal_entries");
  let bursts = totals.F.instrs / config.F.hammer_period in
  layer_int ctx "attack.bursts" bursts;
  layer_int ctx "mmu.walks" totals.F.walks;
  layer_int ctx "fault_model.flips" totals.F.flips_landed;
  layer_int ctx "os.refaults" totals.F.refaults;
  (* Engine replays: verify, correct and write on the captured lines. *)
  let twin = F.create ~config ~pages ~seed () in
  let eng = Option.get (F.engine twin) in
  let key = E.key eng in
  let verify = ref [] and correct = ref [] and data = ref [] and forwarded = ref [] in
  List.iter
    (fun (addr, is_pte, line) ->
      let t, r = time (fun () -> E.process_read eng ~addr ~is_pte line) in
      match (is_pte, r.E.integrity, r.E.line) with
      | true, E.Passed, Some l ->
          verify := t :: !verify;
          forwarded := (addr, l) :: !forwarded
      | true, (E.Corrected _ | E.Failed), _ -> correct := t :: !correct
      | false, _, _ -> data := t :: !data
      | _ -> ())
    cap.reads;
  let forwarded = Array.of_list (List.rev !forwarded) in
  let nf = Array.length forwarded in
  layer ctx "engine.ns_per_verify" (1e9 *. median !verify);
  layer ctx "correction.ms_per_call" (1e3 *. median !correct);
  layer ctx "engine.ns_per_write"
    (1e9
    *. median
         (Array.to_list
            (Array.map (fun (addr, l) -> fst (time (fun () -> E.process_write eng ~addr l))) forwarded)));
  (* Crypto replays on the forwarded lines, under the machine's key. *)
  let mctx = Ptg_crypto.Mac.ctx () in
  layer ctx "mac.ns_per_mac"
    (1e9
    *. median
         (Array.to_list
            (Array.map
               (fun (addr, l) -> fst (time (fun () -> Ptg_crypto.Mac.compute_with mctx key ~addr l)))
               forwarded)));
  let bctx = Ptg_crypto.Mac.batch_ctx () in
  let width = Ptg_crypto.Mac.batch_capacity bctx in
  let groups = max 1 (nf / width) in
  let batch_s =
    List.init groups (fun g ->
        let n = min width nf in
        let addrs = Array.init n (fun j -> fst forwarded.(((g * width) + j) mod nf)) in
        let lines = Array.init n (fun j -> snd forwarded.(((g * width) + j) mod nf)) in
        fst (time (fun () -> Ptg_crypto.Mac.compute_batch bctx key ~n ~addrs ~lines))
        /. float_of_int n)
  in
  layer ctx "mac.batch_ns_per_mac" (1e9 *. median batch_s);
  let scratch = Ptg_crypto.Qarma.scratch () in
  let blocks = 20_000 in
  let t_qarma =
    fst
      (time (fun () ->
           for j = 0 to blocks - 1 do
             let addr, l = forwarded.(j mod nf) in
             ignore
               (Sys.opaque_identity
                  (Ptg_crypto.Qarma.encrypt_with scratch key
                     ~tweak:(Ptg_crypto.Block128.of_int64 addr)
                     (Ptg_crypto.Block128.make ~hi:l.(0) ~lo:l.(1))))
           done))
  in
  layer ctx "qarma.ns_per_block" (1e9 *. t_qarma /. float_of_int blocks);
  (* Attack replays: one burst on the twin restored to each captured
     chunk boundary, aimed at the rows the hooks saw hammered. *)
  let hottest =
    Hashtbl.fold (fun key n acc -> (n, key) :: acc) cap.activations []
    |> List.sort (fun a b -> compare b a)
  in
  let channel, bank, victim =
    match hottest with
    | (_, (c, b, r1)) :: (_, (_, _, r2)) :: _ -> (c, b, (r1 + r2) / 2)
    | _ -> (0, 0, 1)
  in
  let states = cap.states in
  let burst_s =
    List.map
      (fun s ->
        F.set_state twin s;
        let dram = Ptg_memctrl.Memctrl.dram (F.memctrl twin) in
        fst
          (time (fun () ->
               Ptg_rowhammer.Attack.run dram ~channel ~bank
                 (Ptg_rowhammer.Attack.Double_sided { victim })
                 ~iterations:config.F.hammer_burst ~start_time:s.F.s_now)))
      states
  in
  layer ctx "attack.ms_per_burst" (1e3 *. median burst_s);
  (* Page walks through the twin's controller from the first boundary. *)
  let first = List.hd states in
  F.set_state twin first;
  let root =
    match List.rev first.F.s_table.Ptg_vm.Page_table.s_all_frames with r :: _ -> r | [] -> 0L
  in
  let rng = Ptg_util.Rng.create seed in
  let mc = F.memctrl twin in
  let walk_s =
    List.init 2000 (fun _ ->
        let vaddr = Int64.add vaddr_base (Int64.of_int (4096 * Ptg_util.Rng.int rng pages)) in
        fst (time (fun () -> Ptg_memctrl.Mmu.walk mc ~root ~vaddr)))
  in
  layer ctx "mmu.ns_per_walk" (1e9 *. median walk_s);
  (* DRAM accesses at the captured line addresses. *)
  let dram = Ptg_memctrl.Memctrl.dram mc in
  let addrs = Array.of_list (List.map (fun (a, _, _) -> a) cap.reads) in
  let na = max 1 (Array.length addrs) in
  let accesses = 100_000 in
  let t_dram =
    fst
      (time (fun () ->
           let now = ref first.F.s_now in
           for j = 0 to accesses - 1 do
             now := !now + Ptg_dram.Dram.access_fast dram ~now:!now ~addr:addrs.(j mod na) ~is_write:false
           done))
  in
  let dram_s = t_dram /. float_of_int accesses in
  layer ctx "dram.ns_per_access" (1e9 *. dram_s);
  (* Attribution of the timed chunks' time to the replayed layers: bursts,
     walks (their PTE reads, verified), the extra of a correction over a
     plain verify, and data reads through the engine and DRAM. *)
  let data_reads = v "memctrl_reads_total" -. v "memctrl_reads_pte" in
  let attributed =
    (float_of_int bursts *. median burst_s)
    +. (float_of_int totals.F.walks *. median walk_s)
    +. (calls *. (median !correct -. median !verify))
    +. (data_reads *. (median !data +. dram_s))
  in
  layer ctx "fullsys.attributed_frac" (attributed /. cap.run_s)

(* The probe: one attacked machine, built with an obs sink and watched
   through the hooks, runs its warm-up chunks and then [chunks] chunks,
   each checked for wrong translations; the replays then time the layers
   on what it showed. *)
let probe ctx =
  let seed = Int64.of_int ((ctx.seed * 1000) + 1) in
  let sink = Ptg_obs.Sink.create ~trace_capacity:400_000 () in
  let m = with_span "Fullsys.create" (fun () -> F.create ~config ~pages ~obs:sink ~seed ()) in
  ignore (F.run m ~instrs:(warmup_chunks * chunk));
  let s0 = F.state m in
  let mc = F.memctrl m in
  let dram = Ptg_memctrl.Memctrl.dram mc in
  let reads = ref [] and n_reads = ref 0 and activations = Hashtbl.create 64 in
  Ptg_memctrl.Memctrl.on_line_read mc (fun ~addr ~is_pte ->
      if !n_reads < max_captured then begin
        incr n_reads;
        reads := (addr, is_pte, Ptg_dram.Dram.read_line dram addr) :: !reads
      end);
  Ptg_memctrl.Memctrl.on_activate mc (fun c ->
      let key = (c.Ptg_dram.Geometry.channel, c.Ptg_dram.Geometry.bank, c.Ptg_dram.Geometry.row) in
      Hashtbl.replace activations key (1 + Option.value ~default:0 (Hashtbl.find_opt activations key)));
  (* Counts and correction events of the probed chunks only. *)
  Ptg_obs.Trace.clear (Ptg_obs.Sink.trace sink);
  let before = Ptg_obs.Sink.metrics sink in
  let probed =
    List.init chunks (fun c ->
        let state = F.state m in
        let t, r =
          time (fun () -> with_span ~unit_id:c "Fullsys.run" (fun () -> F.run m ~instrs:chunk))
        in
        check ctx "fullsys probe: zero wrong translations" (r.F.wrong_translations = 0);
        (state, t, r))
  in
  let results = List.map (fun (_, _, r) -> r) probed in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let last = List.nth results (chunks - 1) in
  let trace = Ptg_obs.Sink.trace sink in
  if Ptg_obs.Trace.dropped trace > 0 then
    info "note: the obs trace ring dropped %d events" (Ptg_obs.Trace.dropped trace);
  replays ctx ~seed
    {
      reads = List.rev !reads;
      activations;
      states = List.map (fun (s, _, _) -> s) probed;
      run_delta = Ptg_obs.Registry.diff (Ptg_obs.Sink.metrics sink) before;
      corrections =
        List.filter_map
          (function Ptg_obs.Trace.Correction { guesses; _ } -> Some guesses | _ -> None)
          (Ptg_obs.Trace.events trace);
      run_s = List.fold_left (fun a (_, t, _) -> a +. t) 0.0 probed;
      totals =
        { last with
          F.instrs = sum (fun r -> r.F.instrs);
          walks = sum (fun r -> r.F.walks);
          refaults = sum (fun r -> r.F.refaults);
          flips_landed =
            last.F.flips_landed - s0.F.s_fault.Ptg_rowhammer.Fault_model.s_flip_count };
    }
