open Ptg_util

type point = {
  design : Ptguard.Config.design;
  mac_latency : int;
  avg_slowdown_pct : float;
  max_slowdown_pct : float;
  max_workload : string;
  mac_reads_fraction : float;
}

type result = { points : point list }

let default_latencies = [ 5; 10; 15; 20 ]

let cases ?(latencies = default_latencies) () =
  List.concat_map
    (fun design -> List.map (fun lat -> (design, lat)) latencies)
    [ Ptguard.Config.Baseline; Ptguard.Config.Optimized ]

(* Baseline (unprotected) runs are shared across the sweep; each one
   seeds its own Rng, so both this fan-out and the per-point fan-out are
   bit-identical to serial execution. *)
let base_runs ?jobs ~instrs ~warmup ~seed workloads =
  Sweep.map ?jobs
    (fun ?obs:_ spec ->
      ( spec,
        Fig6.run_workload ~instrs ~warmup ~seed
          ~guard:Ptg_cpu.Guard_timing.unprotected spec ))
    workloads

let point ?obs ~instrs ~warmup ~seed ~base_results (design, mac_latency) =
  let cfg =
    Ptguard.Config.with_mac_latency
      (match design with
      | Ptguard.Config.Baseline -> Ptguard.Config.baseline
      | Ptguard.Config.Optimized -> Ptguard.Config.optimized)
      mac_latency
  in
  let slowdowns, max_w, mac_fracs =
    List.fold_left
      (fun (acc, (mx_v, mx_n), fr) (spec, base) ->
        let guard =
          Ptg_cpu.Guard_timing.of_config cfg ?obs
            ~rng:(Rng.create (Int64.add seed 1L))
        in
        let r = Fig6.run_workload ~instrs ~warmup ~seed ~guard spec in
        let slow =
          100.0 *. (1.0 -. (r.Ptg_cpu.Core.ipc /. base.Ptg_cpu.Core.ipc))
        in
        let frac =
          let reads = r.Ptg_cpu.Core.dram_reads + r.Ptg_cpu.Core.pte_dram_reads in
          if reads = 0 then 0.0
          else
            float_of_int r.Ptg_cpu.Core.guard_mac_computations
            /. float_of_int reads
        in
        ( slow :: acc,
          (if slow > mx_v then (slow, spec.Ptg_workloads.Workload.name)
           else (mx_v, mx_n)),
          frac :: fr ))
      ([], (neg_infinity, ""), [])
      base_results
  in
  let max_v, max_n = max_w in
  {
    design;
    mac_latency;
    avg_slowdown_pct = Stats.mean (Array.of_list slowdowns);
    max_slowdown_pct = max_v;
    max_workload = max_n;
    mac_reads_fraction = Stats.mean (Array.of_list mac_fracs);
  }

(* One unit per (design, latency) point, all normalized against the
   shared baselines; a point is independent of every other point, so any
   batching (the checkpoint driver's slices included) is bit-identical. *)
let plan ~instrs ~warmup ~seed ~latencies workloads =
  {
    Sweep.shared = (fun ?jobs () -> base_runs ?jobs ~instrs ~warmup ~seed workloads);
    units = cases ~latencies ();
    run_unit = (fun base_results -> point ~instrs ~warmup ~seed ~base_results);
    merge = (fun points -> { points });
  }

let run ?jobs ?(instrs = 1_000_000) ?(warmup = 300_000) ?(seed = 42L)
    ?(latencies = default_latencies) ?(workloads = Ptg_workloads.Workload.all)
    ?obs () =
  Sweep.run ?jobs ?obs (plan ~instrs ~warmup ~seed ~latencies workloads)

let header =
  [ "design"; "MAC latency"; "avg slowdown"; "worst slowdown"; "worst workload"; "MAC-read frac" ]

let to_rows result =
  List.map
    (fun p ->
      [
        Ptguard.Config.design_name p.design;
        string_of_int p.mac_latency;
        Table.fpct p.avg_slowdown_pct;
        Table.fpct p.max_slowdown_pct;
        p.max_workload;
        Table.f3 p.mac_reads_fraction;
      ])
    result.points

let to_string result =
  "Figure 7: slowdown vs MAC latency, PT-Guard vs Optimized PT-Guard\n"
  ^ Table.render
      ~align:[ Table.Left; Right; Right; Right; Left; Right ]
      ~header (to_rows result)
  ^ "Paper: PT-Guard average 0.7%-2.6% across 5-20 cycles; Optimized stays\n\
     below 0.3% average (MAC computed on <2% of DRAM reads).\n"

let print result = print_string (to_string result)

let to_csv result ~path = Table.save_csv ~path ~header (to_rows result)
