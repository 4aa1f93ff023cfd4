(* Registry conformance: a CLI spec string must build a plugin
   behaviorally identical to the same typed parameters, and the schema
   layer must reject every malformed spec with an error naming the valid
   alternatives. Plugin behaviour itself is checked in
   test_mitigation.ml. *)

open Ptg_dram
open Ptg_rowhammer
module Registry = Ptg_mitigations.Registry

let contains sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let setup () =
  let rng = Ptg_util.Rng.create 31L in
  let dram = Dram.create () in
  let fault = Fault_model.attach ~config:Fault_model.ddr4 ~rng dram in
  let g = Dram.geometry dram in
  let c = Geometry.decode g 0L in
  let victim = 800 in
  Dram.write_line dram
    (Geometry.encode g { c with Geometry.row = victim })
    (Array.make 8 (-1L));
  (dram, fault, victim)

let attack dram victim iterations =
  ignore
    (Attack.run dram ~channel:0 ~bank:0
       (Attack.Double_sided { victim })
       ~iterations ~start_time:0)

(* Drive two fresh DRAM devices with the same attack, one mitigation per
   spelling of the parameters, and require identical refresh and flip
   counts. *)
let differential name oracle registry_path =
  let run build =
    let dram, fault, victim = setup () in
    let m = build dram victim in
    attack dram victim 30_000;
    (Registry.refreshes_issued m, Fault_model.flip_count fault)
  in
  let oracle_refreshes, oracle_flips = run oracle in
  let reg_refreshes, reg_flips = run registry_path in
  Alcotest.(check int)
    (name ^ ": refreshes identical to typed parameters")
    oracle_refreshes reg_refreshes;
  Alcotest.(check int)
    (name ^ ": flips identical to typed parameters")
    oracle_flips reg_flips

let instantiate_exn ?params name ctx =
  match Registry.instantiate ?params name ctx with
  | Ok m -> m
  | Error e -> Alcotest.failf "instantiate %s: %s" name e

let of_spec_exn spec ctx =
  match Registry.of_spec spec ctx with
  | Ok m -> m
  | Error e -> Alcotest.failf "of_spec %s: %s" spec e

let test_names () =
  Alcotest.(check (list string))
    "built-ins in registration order"
    [ "trr"; "para"; "soft-trr"; "graphene" ]
    (Registry.names ())

let test_of_spec_differential () =
  (* The CLI's spec string parses to the typed overrides. *)
  differential "para via spec string"
    (fun dram _ ->
      instantiate_exn
        ~params:[ ("p", Registry.Float 0.002) ]
        "para"
        (Registry.ctx ~rng:(Ptg_util.Rng.create 8L) dram))
    (fun dram _ ->
      of_spec_exn "para:p=0.002" (Registry.ctx ~rng:(Ptg_util.Rng.create 8L) dram))

let expect_error what result check =
  match result with
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: message is descriptive (got %S)" what msg)
        true (check msg)

let test_unknown_plugin () =
  expect_error "unknown name"
    (Registry.instantiate "bogus" (Registry.ctx (Dram.create ())))
    (fun m -> contains "bogus" m && contains "trr" m && contains "graphene" m)

let test_unknown_param () =
  expect_error "unknown key"
    (Registry.check_params "trr" [ ("zap", Registry.Int 1) ])
    (fun m -> contains "zap" m && contains "sampler_size" m)

let test_type_mismatch () =
  expect_error "float where int expected"
    (Registry.check_params "trr" [ ("sampler_size", Registry.Float 2.0) ])
    (fun m -> contains "sampler_size" m);
  expect_error "int where float expected"
    (Registry.check_params "para" [ ("p", Registry.Int 1) ])
    (fun m -> contains "p" m)

let test_out_of_range () =
  expect_error "sampler_size 0"
    (Registry.instantiate
       ~params:[ ("sampler_size", Registry.Int 0) ]
       "trr"
       (Registry.ctx (Dram.create ())))
    (contains "sampler_size");
  expect_error "para p out of (0,1]"
    (Registry.instantiate
       ~params:[ ("p", Registry.Float 1.5) ]
       "para"
       (Registry.ctx ~rng:(Ptg_util.Rng.create 1L) (Dram.create ())))
    (contains "p")

let test_missing_capabilities () =
  expect_error "para without rng"
    (Registry.instantiate "para" (Registry.ctx (Dram.create ())))
    (contains "random stream");
  expect_error "soft-trr without pt_row"
    (Registry.instantiate "soft-trr" (Registry.ctx (Dram.create ())))
    (contains "oracle")

let test_parse_spec () =
  (match Registry.parse_spec "para:p=0.002" with
  | Ok ("para", [ ("p", Registry.Float p) ]) ->
      Alcotest.(check (float 0.)) "p parsed" 0.002 p
  | Ok _ -> Alcotest.fail "unexpected parse shape"
  | Error e -> Alcotest.fail e);
  (match Registry.parse_spec "trr" with
  | Ok ("trr", []) -> ()
  | _ -> Alcotest.fail "bare name parses to no overrides");
  expect_error "malformed binding" (Registry.parse_spec "trr:sampler_size")
    (contains "sampler_size");
  expect_error "non-finite float" (Registry.parse_spec "para:p=inf")
    (contains "finite");
  expect_error "bad int" (Registry.parse_spec "trr:sampler_size=two")
    (contains "two")

let test_resolved_params () =
  (match Registry.resolved_params "graphene" [] with
  | Some [ ("counters", Registry.Int 128); ("threshold", Registry.Int 2500) ] ->
      ()
  | Some other ->
      Alcotest.failf "defaults wrong: %s"
        (String.concat ","
           (List.map
              (fun (k, v) -> k ^ "=" ^ Registry.value_to_string v)
              other))
  | None -> Alcotest.fail "graphene unknown");
  (match Registry.resolved_params "graphene" [ ("threshold", Registry.Int 9) ] with
  | Some [ ("counters", Registry.Int 128); ("threshold", Registry.Int 9) ] -> ()
  | _ -> Alcotest.fail "override not applied (or keys unsorted)");
  Alcotest.(check bool) "unknown plugin is None" true
    (Registry.resolved_params "bogus" [] = None)

let test_spec_help () =
  let help = Registry.spec_help () in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "spec_help mentions %s" name)
        true (contains name help))
    (Registry.names ())

let suite =
  [
    Alcotest.test_case "built-in names" `Quick test_names;
    Alcotest.test_case "spec-string differential" `Quick
      test_of_spec_differential;
    Alcotest.test_case "unknown plugin rejected" `Quick test_unknown_plugin;
    Alcotest.test_case "unknown param rejected" `Quick test_unknown_param;
    Alcotest.test_case "type mismatch rejected" `Quick test_type_mismatch;
    Alcotest.test_case "out-of-range values rejected" `Quick test_out_of_range;
    Alcotest.test_case "missing capabilities rejected" `Quick
      test_missing_capabilities;
    Alcotest.test_case "spec parsing" `Quick test_parse_spec;
    Alcotest.test_case "resolved params" `Quick test_resolved_params;
    Alcotest.test_case "spec help covers every plugin" `Quick test_spec_help;
  ]
