(* The repository benchmark. One run measures one workload for a fixed
   budget, checks its outputs, prints a run record and, as the last line
   of stdout, one JSON object with every metric by name and unit:

     perfbench --workload fig6|serve --seed N --seconds S --trace 0|1
     perfbench --self-check

   --trace 0 reports the end-to-end metrics; --trace 1 is a separate run
   that reports the per-layer metrics. --self-check runs every workload
   at tiny size, traced and untraced, and checks the printed catalogue
   against BENCHMARK.json. See perfbench/NOTES.md. *)

let workloads = [ ("fig6", Wl_fig6.run); ("serve", Wl_serve.run) ]

let work_root = ".perfbench"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> String.trim (read_file (Filename.concat ".git" r))
    | _ -> head
  with Sys_error _ -> "n/a (not a git checkout)"

let run_one ~name ~seed ~seconds ~traced ~tiny =
  let f = List.assoc name workloads in
  if not (Sys.file_exists work_root) then Sys.mkdir work_root 0o755;
  (* A fixed name: paths built under it allocate the same on every run. *)
  let work_dir = Filename.concat work_root ("work-" ^ name) in
  Bx.fresh_dir work_dir;
  let ctx =
    { Bx.seed; seconds; traced; tiny; work_dir; attempted = 0; failed = 0;
      layer = Hashtbl.create 64; digest = "" }
  in
  Bx.spans := [];
  Bx.span_stack := [];
  Bx.info "workload: %s  seed: %d  seconds: %g  trace: %d%s" name seed seconds
    (if traced then 1 else 0) (if tiny then "  (self-check size)" else "");
  let r = Fun.protect ~finally:(fun () -> Bx.rm_rf work_dir) (fun () -> f ctx) in
  Bx.sample_line r;
  Bx.info "digest: %s" ctx.Bx.digest;
  let measured = Hashtbl.fold (fun k _ acc -> k :: acc) ctx.Bx.layer [] in
  let metrics =
    if traced then begin
      List.iter
        (fun (n, c, t) -> Bx.info "span %-24s n=%-6d self=%.3f s" n c t)
        (Bx.span_self_times ());
      let path =
        Filename.concat work_root (Printf.sprintf "spans-%s-seed%d.jsonl" name seed)
      in
      Bx.write_spans path;
      Bx.info "spans: %d written to %s" (List.length !Bx.spans) path;
      let bypassed =
        List.filter (fun (n, _) -> not (List.mem n measured)) Bx.per_layer
      in
      Bx.info "not exercised by this workload (reported as 0): %s"
        (String.concat " " (List.map fst bypassed));
      List.map
        (fun (n, u) ->
          (n, u, Option.value ~default:0.0 (Hashtbl.find_opt ctx.Bx.layer n)))
        Bx.per_layer
    end
    else
      List.map (fun (n, v) -> (n, List.assoc n Bx.end_to_end, v)) (Bx.e2e_metrics r)
  in
  (ctx, metrics)

let json_result (ctx, metrics) =
  let correct =
    ctx.Bx.failed = 0 && ctx.Bx.attempted > 0
    && List.for_all (fun (_, _, v) -> Float.is_finite v) metrics
  in
  let metrics =
    List.map
      (fun (n, u, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n
          (if Float.is_finite v then v else 0.0) u)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct ctx.Bx.attempted ctx.Bx.failed (String.concat ", " metrics)

(* ------------------------------------------------------------------ *)
(* Self-check                                                          *)
(* ------------------------------------------------------------------ *)

let catalogue_of_json key =
  let module J = Ptg_server.Json in
  match J.parse (read_file "BENCHMARK.json") with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok doc -> (
      match J.member key doc with
      | Some (J.List items) ->
          List.map
            (fun item ->
              match (J.member "name" item, J.member "unit" item) with
              | Some (J.String n), Some (J.String u) -> (n, u)
              | _ -> failwith ("BENCHMARK.json: malformed " ^ key))
            items
      | _ -> failwith ("BENCHMARK.json: missing " ^ key))

(* Each workload runs in a child process of this executable, as the
   command line runs it, and the check reads what the child printed. *)
let run_child ~name ~traced =
  let args =
    [ Sys.executable_name; "--workload"; name; "--seed"; "1"; "--seconds"; "0.5"; "--trace";
      (if traced then "1" else "0"); "--tiny" ]
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  print_string out;
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  let field prefix =
    List.find_map
      (fun l ->
        let n = String.length prefix in
        if String.length l >= n && String.sub l 0 n = prefix then
          Some (String.sub l n (String.length l - n))
        else None)
      lines
  in
  let module J = Ptg_server.Json in
  let result =
    match (status, List.rev lines) with
    | Unix.WEXITED 0, last :: _ -> ( match J.parse last with Ok j -> Some j | Error _ -> None)
    | _ -> None
  in
  (result, field "digest: ", field "not exercised by this workload (reported as 0): ")

let self_check () =
  let module J = Ptg_server.Json in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let e2e_json = catalogue_of_json "end_to_end" in
  let layer_json = catalogue_of_json "per_layer" in
  let printed result =
    match J.member "metrics" result with
    | Some (J.Obj ms) ->
        List.map
          (fun (n, m) ->
            (n, match J.member "unit" m with Some (J.String u) -> u | _ -> "?"))
          ms
    | _ -> []
  in
  let measured = ref [] in
  List.iter
    (fun (name, _) ->
      let plain, d_plain, _ = run_child ~name ~traced:false in
      let traced, d_traced, bypassed = run_child ~name ~traced:true in
      (match (plain, traced) with
      | Some plain, Some traced ->
          if printed plain <> e2e_json then
            problem "%s: end-to-end names/units differ from BENCHMARK.json" name;
          if printed traced <> layer_json then
            problem "%s: per-layer names/units differ from BENCHMARK.json" name;
          List.iter
            (fun r ->
              match (J.member "correct" r, J.member "failed" r) with
              | Some (J.Bool true), Some (J.Int 0L) -> ()
              | _ -> problem "%s: a run is not correct or has failed checks" name)
            [ plain; traced ]
      | _ -> problem "%s: a run did not finish with a result line" name);
      if d_plain <> d_traced then problem "%s: traced and untraced digests differ" name;
      let bypassed = String.split_on_char ' ' (Option.value ~default:"" bypassed) in
      measured :=
        List.filter (fun (n, _) -> not (List.mem n bypassed)) Bx.per_layer @ !measured)
    workloads;
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n !measured) then problem "no workload produces %s" n)
    Bx.per_layer;
  match List.rev !problems with
  | [] ->
      print_endline "self-check: ok";
      exit 0
  | ps ->
      List.iter (fun p -> print_endline ("self-check: " ^ p)) ps;
      exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let self = ref false and tiny = ref false in
  let usage =
    "perfbench --workload fig6|serve --seed N --seconds S --trace 0|1 [--tiny]\n\
     perfbench --self-check"
  in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--self-check", Arg.Set self, " tiny traced and untraced runs of every workload");
      ("--tiny", Arg.Set tiny, " self-check sizes");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !self then self_check ();
  if not (List.mem_assoc !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  Bx.info "host: nproc %d, OCaml %s, commit %s" (Domain.recommended_domain_count ())
    Sys.ocaml_version (commit ());
  print_endline
    (json_result
       (run_one ~name:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~tiny:!tiny))
