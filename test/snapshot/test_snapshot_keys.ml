(* Store keys of the batched drivers called without [~key]: the fallback
   key must cover every field of the PT-Guard configuration, so a run
   with one design never adopts units another design stored in the same
   directory (the two designs' rows share workload names and counts, so
   only the key can tell them apart). *)

module Checkpoint = Ptg_sim.Checkpoint
module Fig6 = Ptg_sim.Fig6
module Fig9 = Ptg_sim.Fig9
module Multicore_exp = Ptg_sim.Multicore_exp

let seed = 42L
let first n l = List.filteri (fun i _ -> i < n) l

let with_dir f =
  let dir = Filename.temp_file "ptgkey" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let test_fig6_designs_do_not_collide () =
  let workloads = first 2 Ptg_workloads.Workload.all in
  let run ?dir config =
    Checkpoint.run_fig6 ~jobs:1 ~every:1 ?dir ~instrs:600 ~warmup:200 ~seed
      ~config ~workloads ()
  in
  with_dir (fun dir ->
      ignore (run ~dir Ptguard.Config.baseline);
      let o = run ~dir Ptguard.Config.optimized in
      Alcotest.(check (option int))
        "baseline rows not adopted" None o.Checkpoint.g_resumed_from;
      Alcotest.(check bool)
        "optimized rows computed" true
        (o.Checkpoint.g_rows
        = Fig6.run_rows ~jobs:1 ~instrs:600 ~warmup:200 ~seed
            ~config:Ptguard.Config.optimized workloads))

let test_multicore_designs_do_not_collide () =
  let same = first 1 Ptg_workloads.Workload.all in
  let run ?dir config =
    Checkpoint.run_multicore ~jobs:1 ~every:1 ?dir ~same ~config
      ~instrs_per_core:500 ~mixes:1 ~seed ()
  in
  with_dir (fun dir ->
      ignore (run ~dir Ptguard.Config.baseline);
      let o = run ~dir Ptguard.Config.optimized in
      Alcotest.(check (option int))
        "baseline rows not adopted" None o.Checkpoint.r_resumed_from;
      Alcotest.(check bool)
        "optimized rows computed" true
        (o.Checkpoint.r_result
        = Some
            (Multicore_exp.run ~jobs:1 ~same ~config:Ptguard.Config.optimized
               ~instrs_per_core:500 ~mixes:1 ~seed ())))

let test_fig9_designs_do_not_collide () =
  let workloads = first 2 Ptg_workloads.Workload.fig9_subset in
  let run ?dir config =
    Checkpoint.run_fig9 ~jobs:1 ~every:1 ?dir ~config ~workloads
      ~lines_per_point:10 ~seed ()
  in
  with_dir (fun dir ->
      (* Fig9's default design is Optimized; store a Baseline run first. *)
      ignore (run ~dir Ptguard.Config.baseline);
      let o = run ~dir Ptguard.Config.optimized in
      Alcotest.(check (option int))
        "baseline campaigns not adopted" None o.Checkpoint.q_resumed_from;
      Alcotest.(check bool)
        "optimized campaigns computed" true
        (o.Checkpoint.q_result
        = Some
            (Fig9.run ~jobs:1 ~config:Ptguard.Config.optimized ~workloads
               ~lines_per_point:10 ~seed ())))

let suite =
  [
    Alcotest.test_case "fig6: designs keep separate store keys" `Quick
      test_fig6_designs_do_not_collide;
    Alcotest.test_case "multicore: designs keep separate store keys" `Quick
      test_multicore_designs_do_not_collide;
    Alcotest.test_case "fig9: designs keep separate store keys" `Quick
      test_fig9_designs_do_not_collide;
  ]
