(* The resume probe: a guarded machine with no attacker, run as
   checkpointed slices through Checkpoint.run_fullsys, measured at layer
   level in the fig6 workload's traced run. Each slice adopts the
   previous slice's checkpoint, runs a chunk, saves and prunes; the
   chain starts from an empty store and its final result must equal an
   uninterrupted Fullsys.run byte for byte. It is the only code here
   that exercises snapshot and sim.Checkpoint, both the save and the
   restore side.

   The chain is not an end-to-end workload: most of a slice is building
   and restoring the machine, memory-bound work whose time follows this
   host's cache contention (its throughput spread 0.17-0.26 over sets of
   ten runs, against a bound of 0.25; see NOTES.md). *)

open Bx
module F = Ptg_sim.Fullsys
module C = Ptg_sim.Checkpoint
module S = Ptg_snapshot.Snapshot

let config = { F.default_config with attack = false }

(* A quarter of Fullsys's default 2048 pages: machine construction is
   most of a slice either way. *)
let pages = 512
let slice = 2000
let slices ctx = if ctx.tiny then 3 else 8
let text r = Format.asprintf "%a@." F.pp_result r

let probe ctx =
  let k = slices ctx in
  let seed = Int64.of_int ctx.seed in
  let key = C.fullsys_key ~config ~pages ~seed () in
  let dir = Filename.concat ctx.work_dir "store" in
  info "model unvalidated: the co-simulation has no paper figure to match";
  let reference =
    let m = F.create ~config ~pages ~seed () in
    text (F.run m ~instrs:(k * slice))
  in
  fresh_dir dir;
  let last = ref None in
  for j = 1 to k do
    let o =
      with_span ~unit_id:(j - 1) "Checkpoint.run_fullsys" (fun () ->
          C.run_fullsys ~config ~pages ~key ~every:slice ~dir ~seed ~instrs:(j * slice) ())
    in
    let expected = if j = 1 then None else Some ((j - 1) * slice) in
    check ctx "resume: slice adopts the previous checkpoint"
      (o.C.f_completed && o.C.f_done = j * slice && o.C.f_resumed_from = expected);
    last := Some o
  done;
  (match !last with
  | Some o -> check ctx "resume: equals the uninterrupted run" (text o.C.f_result = reference)
  | None -> ());
  (* The chain left the deepest default_keep checkpoints; the rest were
     pruned after each save. *)
  layer_int ctx "snapshot.files_pruned" (k - List.length (C.stored_counts ~dir ~key));
  (* One slice replayed through the public pieces run_fullsys is made
     of, continuing from the chain's deepest checkpoint. *)
  let reps = if ctx.tiny then 2 else 8 in
  let samples =
    List.init reps (fun r ->
        let count = (k + r) * slice in
        let tb, m = time (fun () -> F.create ~config ~pages ~seed ()) in
        let tr, restored = time (fun () -> C.fullsys_restore ~path:(C.path ~dir ~key count) ~key m) in
        check ctx "resume: restore lands at the saved count" (restored = count);
        let tu, _ = time (fun () -> F.run m ~instrs:slice) in
        let ts, () =
          time (fun () -> C.fullsys_save ~path:(C.path ~dir ~key (count + slice)) ~key m)
        in
        let tp, _ = time (fun () -> S.prune ~keep:C.default_keep ~dir ~key ()) in
        let sections = C.fullsys_sections ~key m in
        let te, bytes = time (fun () -> S.to_string sections) in
        let td, decoded = time (fun () -> S.of_string ~what:"replay" bytes) in
        check ctx "resume: snapshot codec round-trips" (decoded = sections);
        (tb, tr, tu, ts, tp, te, td, String.length bytes))
  in
  let med f = 1e3 *. median (List.map f samples) in
  layer ctx "checkpoint.build_ms" (med (fun (x, _, _, _, _, _, _, _) -> x));
  layer ctx "checkpoint.restore_ms" (med (fun (_, x, _, _, _, _, _, _) -> x));
  layer ctx "checkpoint.run_ms" (med (fun (_, _, x, _, _, _, _, _) -> x));
  layer ctx "checkpoint.save_ms" (med (fun (_, _, _, x, _, _, _, _) -> x));
  layer ctx "checkpoint.prune_ms" (med (fun (_, _, _, _, x, _, _, _) -> x));
  layer ctx "snapshot.encode_ms" (med (fun (_, _, _, _, _, x, _, _) -> x));
  layer ctx "snapshot.decode_ms" (med (fun (_, _, _, _, _, _, x, _) -> x));
  layer ctx "snapshot.bytes"
    (median (List.map (fun (_, _, _, _, _, _, _, b) -> float_of_int b) samples))
