(* The on-disk checkpoint format of the batched experiments, pinned.
   Each kind writes a tiny run into a fresh store with an explicit key
   and every file kept; the FNV-1a-64 digest of every file's bytes must
   match the golden table below, so a store written by an earlier build
   keeps warm-starting this one. Fig7 includes its count-0
   (baselines-only) file. A second run over the same store must adopt
   the full depth and reproduce the uninterrupted result. *)

module Checkpoint = Ptg_sim.Checkpoint
module Fig6 = Ptg_sim.Fig6
module Fig7 = Ptg_sim.Fig7
module Fig9 = Ptg_sim.Fig9
module Multicore_exp = Ptg_sim.Multicore_exp
module Snapshot = Ptg_snapshot.Snapshot
module Codec = Ptg_snapshot.Codec

let seed = 42L
let keep = 100
let first n l = List.filteri (fun i _ -> i < n) l
let wl2 = first 2 Ptg_workloads.Workload.all

let with_dir f =
  let dir = Filename.temp_file "ptgfmt" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

(* (file name, digest of its bytes), sorted by name. *)
let store_digests dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun name ->
         let bytes =
           In_channel.with_open_bin (Filename.concat dir name)
             In_channel.input_all
         in
         (name, Snapshot.hash_hex (Codec.fnv1a64 bytes)))

let check_store ~expected dir =
  Alcotest.(check (list (pair string string)))
    "store files and digests" expected (store_digests dir)

let fig6_run ?dir () =
  Checkpoint.run_fig6 ~jobs:1 ~key:"golden-fig6" ~keep ~every:1 ?dir
    ~instrs:600 ~warmup:200 ~seed ~config:Ptguard.Config.baseline
    ~workloads:wl2 ()

let test_fig6 () =
  with_dir (fun dir ->
      let cold = fig6_run ~dir () in
      check_store dir
        ~expected:
          [
            ("golden-fig6.1.ptgs", "5142df0abdbca99d");
            ("golden-fig6.2.ptgs", "6989a701be802dbe");
          ];
      let warm = fig6_run ~dir () in
      Alcotest.(check (option int))
        "full depth adopted" (Some 2) warm.Checkpoint.g_resumed_from;
      Alcotest.(check bool)
        "same result" true
        (warm.Checkpoint.g_result = cold.Checkpoint.g_result))

let fig7_run ?dir () =
  Checkpoint.run_fig7 ~jobs:1 ~key:"golden-fig7" ~keep ~every:1 ?dir
    ~latencies:[ 5 ] ~workloads:wl2 ~instrs:600 ~warmup:200 ~seed ()

let test_fig7 () =
  with_dir (fun dir ->
      let cold = fig7_run ~dir () in
      check_store dir
        ~expected:
          [
            ("golden-fig7.0.ptgs", "31327e62fe9bab56");
            ("golden-fig7.1.ptgs", "4b95bbbcc137ecad");
            ("golden-fig7.2.ptgs", "6c393bdbfc491284");
          ];
      let warm = fig7_run ~dir () in
      Alcotest.(check (option int))
        "full depth adopted" (Some 2) warm.Checkpoint.p_resumed_from;
      Alcotest.(check bool)
        "same result" true
        (warm.Checkpoint.p_result = cold.Checkpoint.p_result))

let fig9_run ?dir () =
  Checkpoint.run_fig9 ~jobs:1 ~key:"golden-fig9" ~keep ~every:1 ?dir
    ~p_flips:[ 1.0 /. 512.0; 1.0 /. 128.0 ]
    ~workloads:(first 2 Ptg_workloads.Workload.fig9_subset)
    ~lines_per_point:10 ~seed ()

let test_fig9 () =
  with_dir (fun dir ->
      let cold = fig9_run ~dir () in
      check_store dir
        ~expected:
          [
            ("golden-fig9.1.ptgs", "e027c701eebf5ba2");
            ("golden-fig9.2.ptgs", "85d7f51727164471");
          ];
      let warm = fig9_run ~dir () in
      Alcotest.(check (option int))
        "full depth adopted" (Some 2) warm.Checkpoint.q_resumed_from;
      Alcotest.(check bool)
        "same result" true
        (warm.Checkpoint.q_result = cold.Checkpoint.q_result))

let multicore_run ?dir () =
  Checkpoint.run_multicore ~jobs:1 ~key:"golden-multicore" ~keep ~every:1 ?dir
    ~same:(first 1 Ptg_workloads.Workload.all)
    ~instrs_per_core:500 ~mixes:1 ~seed ()

let test_multicore () =
  with_dir (fun dir ->
      let cold = multicore_run ~dir () in
      check_store dir
        ~expected:
          [
            ("golden-multicore.1.ptgs", "64374740e7854999");
            ("golden-multicore.2.ptgs", "72e1ac520a0cfb93");
          ];
      let warm = multicore_run ~dir () in
      Alcotest.(check (option int))
        "full depth adopted" (Some 2) warm.Checkpoint.r_resumed_from;
      Alcotest.(check bool)
        "same result" true
        (warm.Checkpoint.r_result = cold.Checkpoint.r_result))

let suite =
  [
    Alcotest.test_case "fig6: pinned store bytes" `Quick test_fig6;
    Alcotest.test_case "fig7: pinned store bytes (count-0 included)" `Quick
      test_fig7;
    Alcotest.test_case "fig9: pinned store bytes" `Quick test_fig9;
    Alcotest.test_case "multicore: pinned store bytes" `Quick test_multicore;
  ]
