type instance = {
  name : string;
  mutable refreshes : int;
  mutable active : bool;
  (* Checkpoint capability: a flat, canonically-ordered key/value image of
     the plugin's internal state (sampler tables, counters, coin-flip RNG).
     Builders without hidden state keep the empty defaults. *)
  mutable save : unit -> (string * int64) list;
  mutable restore : (string * int64) list -> unit;
}

let make_instance name =
  { name; refreshes = 0; active = true; save = (fun () -> []); restore = ignore }

let instance_name i = i.name
let refreshes_issued i = i.refreshes
let detach i = i.active <- false

let save_state i = ("refreshes", Int64.of_int i.refreshes) :: i.save ()

let restore_state i kvs =
  (match List.assoc_opt "refreshes" kvs with
  | Some n -> i.refreshes <- Int64.to_int n
  | None -> ());
  i.restore (List.remove_assoc "refreshes" kvs)

(* ------------------------------------------------------------------ *)
(* Typed parameters                                                    *)
(* ------------------------------------------------------------------ *)

type value = Int of int | Float of float | Bool of bool

let type_name = function Int _ -> "int" | Float _ -> "float" | Bool _ -> "bool"

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.17g" f
  | Bool b -> string_of_bool b

let value_of_string ~like s =
  match like with
  | Int _ -> (
      match int_of_string_opt s with
      | Some i -> Ok (Int i)
      | None -> Error (Printf.sprintf "%S is not an int" s))
  | Float _ -> (
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Ok (Float f)
      | Some _ -> Error (Printf.sprintf "%S is not a finite float" s)
      | None -> Error (Printf.sprintf "%S is not a float" s))
  | Bool _ -> (
      match bool_of_string_opt s with
      | Some b -> Ok (Bool b)
      | None -> Error (Printf.sprintf "%S is not a bool (true/false)" s))

type param = { key : string; doc : string; default : value }

type ctx = {
  dram : Ptg_dram.Dram.t;
  rng : Ptg_util.Rng.t option;
  pt_row : (channel:int -> bank:int -> row:int -> bool) option;
}

let ctx ?rng ?pt_row dram = { dram; rng; pt_row }

type plugin = {
  plugin_name : string;
  plugin_doc : string;
  plugin_params : param list;
  build : (string -> value) -> ctx -> instance;
}

(* Registration order is the presentation order (built-ins first), so
   [names] is stable for docs and for the README sync gate. *)
let plugins : plugin list ref = ref []

let find name =
  List.find_opt (fun p -> p.plugin_name = name) !plugins

let register ~name ~doc ~params build =
  if find name <> None then
    invalid_arg (Printf.sprintf "Registry.register: duplicate plugin %S" name);
  let rec dup_key = function
    | [] -> None
    | p :: rest ->
        if List.exists (fun q -> q.key = p.key) rest then Some p.key
        else dup_key rest
  in
  (match dup_key params with
  | Some k ->
      invalid_arg
        (Printf.sprintf "Registry.register: %s: duplicate parameter %S" name k)
  | None -> ());
  plugins :=
    !plugins
    @ [ { plugin_name = name; plugin_doc = doc; plugin_params = params; build } ]

let names () = List.map (fun p -> p.plugin_name) !plugins
let doc name = Option.map (fun p -> p.plugin_doc) (find name)
let params name = Option.map (fun p -> p.plugin_params) (find name)

let unknown_plugin name =
  Printf.sprintf "unknown mitigation %S (registered: %s)" name
    (String.concat ", " (names ()))

let check_overrides plugin overrides =
  List.fold_left
    (fun acc (key, v) ->
      Result.bind acc (fun () ->
          match List.find_opt (fun p -> p.key = key) plugin.plugin_params with
          | None ->
              Error
                (Printf.sprintf "%s: unknown parameter %S (valid: %s)"
                   plugin.plugin_name key
                   (String.concat ", "
                      (List.map (fun p -> p.key) plugin.plugin_params)))
          | Some p ->
              if type_name p.default = type_name v then Ok ()
              else
                Error
                  (Printf.sprintf "%s: parameter %s must be %s, got %s %s"
                     plugin.plugin_name key (type_name p.default) (type_name v)
                     (value_to_string v))))
    (Ok ()) overrides

let check_params name overrides =
  match find name with
  | None -> Error (unknown_plugin name)
  | Some plugin -> check_overrides plugin overrides

let resolved_of plugin overrides =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (List.map
       (fun p ->
         ( p.key,
           match List.assoc_opt p.key overrides with
           | Some v -> v
           | None -> p.default ))
       plugin.plugin_params)

let resolved_params name overrides =
  Option.map (fun p -> resolved_of p overrides) (find name)

let instantiate ?(params = []) name ctx =
  match find name with
  | None -> Error (unknown_plugin name)
  | Some plugin -> (
      match check_overrides plugin params with
      | Error _ as e -> e
      | Ok () ->
          let resolved = resolved_of plugin params in
          let get key =
            match List.assoc_opt key resolved with
            | Some v -> v
            | None ->
                invalid_arg
                  (Printf.sprintf "Registry: %s has no parameter %S" name key)
          in
          (* Range checks and context requirements live in the builders;
             both surface as Invalid_argument and come back as Error. *)
          (try Ok (plugin.build get ctx) with Invalid_argument msg -> Error msg))

(* ------------------------------------------------------------------ *)
(* CLI spec syntax: NAME[:key=value,key=value]                         *)
(* ------------------------------------------------------------------ *)

let parse_spec spec =
  let name, args =
    match String.index_opt spec ':' with
    | None -> (spec, "")
    | Some i ->
        (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
  in
  match find name with
  | None -> Error (unknown_plugin name)
  | Some plugin ->
      let bindings =
        if args = "" then [] else String.split_on_char ',' args
      in
      List.fold_left
        (fun acc binding ->
          Result.bind acc (fun parsed ->
              match String.index_opt binding '=' with
              | None ->
                  Error
                    (Printf.sprintf
                       "%s: malformed parameter %S (want key=value)" name
                       binding)
              | Some i ->
                  let key = String.sub binding 0 i in
                  let raw =
                    String.sub binding (i + 1) (String.length binding - i - 1)
                  in
                  (match
                     List.find_opt (fun p -> p.key = key) plugin.plugin_params
                   with
                  | None ->
                      Error
                        (Printf.sprintf "%s: unknown parameter %S (valid: %s)"
                           name key
                           (String.concat ", "
                              (List.map (fun p -> p.key) plugin.plugin_params)))
                  | Some p -> (
                      match value_of_string ~like:p.default raw with
                      | Ok v -> Ok (parsed @ [ (key, v) ])
                      | Error e ->
                          Error (Printf.sprintf "%s: parameter %s: %s" name key e)))))
        (Ok []) bindings
      |> Result.map (fun parsed -> (name, parsed))

let of_spec spec ctx =
  Result.bind (parse_spec spec) (fun (name, params) -> instantiate ~params name ctx)

let spec_help () =
  String.concat "\n"
    (List.map
       (fun p ->
         Printf.sprintf "  %-9s %s%s" p.plugin_name
           (match p.plugin_params with
           | [] -> ""
           | ps ->
               "("
               ^ String.concat ", "
                   (List.map
                      (fun q ->
                        Printf.sprintf "%s:%s=%s" q.key (type_name q.default)
                          (value_to_string q.default))
                      ps)
               ^ ") ")
           p.plugin_doc)
       !plugins)

(* ------------------------------------------------------------------ *)
(* Typed getters for builders                                          *)
(* ------------------------------------------------------------------ *)

let get_int get key =
  match get key with Int i -> i | _ -> invalid_arg ("Registry: " ^ key)

let get_float get key =
  match get key with Float f -> f | _ -> invalid_arg ("Registry: " ^ key)

let require_rng ~plugin ctx =
  match ctx.rng with
  | Some rng -> rng
  | None ->
      invalid_arg
        (Printf.sprintf "%s requires a random stream (supply a seed/rng)" plugin)

let require_pt_row ~plugin ctx =
  match ctx.pt_row with
  | Some f -> f
  | None ->
      invalid_arg
        (Printf.sprintf
           "%s requires a page-table-row oracle (supply pt_row)" plugin)

(* ------------------------------------------------------------------ *)
(* Built-in defenses                                                   *)
(*                                                                     *)
(* [instantiate] is the only way to build one; range violations raise  *)
(* Invalid_argument here and come back from it as [Error msg].         *)
(* ------------------------------------------------------------------ *)

let refresh_neighbors t dram ~channel ~bank ~row =
  let geometry = Ptg_dram.Dram.geometry dram in
  List.iter
    (fun r ->
      Ptg_dram.Dram.refresh_row dram ~channel ~bank ~row:r;
      t.refreshes <- t.refreshes + 1)
    (Ptg_dram.Geometry.row_neighbors geometry row ~distance:1)

(* --- TRR ------------------------------------------------------------- *)

type trr_entry = { row : int; mutable count : int; inserted_at : int }

type trr_bank = {
  mutable entries : trr_entry list; (* newest first, length <= sampler_size *)
  mutable acts_since_ref : int;
  mutable acts_total : int;
}

let make_trr ~sampler_size ~ref_interval_acts ~sample_window dram =
  if sampler_size < 1 then invalid_arg "trr: sampler_size must be >= 1";
  if ref_interval_acts < 1 then
    invalid_arg "trr: ref_interval_acts must be >= 1";
  if sample_window < 0 then invalid_arg "trr: sample_window must be >= 0";
  let t = make_instance "TRR" in
  let banks : (int * int, trr_bank) Hashtbl.t = Hashtbl.create 32 in
  let bank_state channel bank =
    let key = (channel, bank) in
    match Hashtbl.find_opt banks key with
    | Some b -> b
    | None ->
        let b = { entries = []; acts_since_ref = 0; acts_total = 0 } in
        Hashtbl.replace banks key b;
        b
  in
  t.save <-
    (fun () ->
      let keys =
        Hashtbl.fold (fun k _ acc -> k :: acc) banks [] |> List.sort compare
      in
      List.concat_map
        (fun (c, bk) ->
          let b = Hashtbl.find banks (c, bk) in
          let prefix = Printf.sprintf "%d.%d." c bk in
          [
            (prefix ^ "asr", Int64.of_int b.acts_since_ref);
            (prefix ^ "att", Int64.of_int b.acts_total);
            (prefix ^ "n", Int64.of_int (List.length b.entries));
          ]
          @ List.concat
              (List.mapi
                 (fun i e ->
                   let ep = Printf.sprintf "%se%d." prefix i in
                   [
                     (ep ^ "row", Int64.of_int e.row);
                     (ep ^ "count", Int64.of_int e.count);
                     (ep ^ "at", Int64.of_int e.inserted_at);
                   ])
                 b.entries))
        keys);
  t.restore <-
    (fun kvs ->
      Hashtbl.reset banks;
      let get k =
        match List.assoc_opt k kvs with
        | Some v -> Int64.to_int v
        | None -> invalid_arg (Printf.sprintf "trr restore: missing %S" k)
      in
      List.iter
        (fun (k, v) ->
          match String.split_on_char '.' k with
          | [ c; bk; "asr" ] ->
              let c = int_of_string c and bk = int_of_string bk in
              let prefix = Printf.sprintf "%d.%d." c bk in
              let n = get (prefix ^ "n") in
              let entries =
                List.init n (fun i ->
                    let ep = Printf.sprintf "%se%d." prefix i in
                    {
                      row = get (ep ^ "row");
                      count = get (ep ^ "count");
                      inserted_at = get (ep ^ "at");
                    })
              in
              Hashtbl.replace banks (c, bk)
                {
                  entries;
                  acts_since_ref = Int64.to_int v;
                  acts_total = get (prefix ^ "att");
                }
          | _ -> ())
        kvs);
  Ptg_dram.Dram.on_activate dram (fun c ->
      if t.active then begin
        let channel = c.Ptg_dram.Geometry.channel
        and bank = c.Ptg_dram.Geometry.bank
        and row = c.Ptg_dram.Geometry.row in
        let b = bank_state channel bank in
        b.acts_total <- b.acts_total + 1;
        if b.acts_since_ref < sample_window then begin
        (match List.find_opt (fun e -> e.row = row) b.entries with
        | Some e -> e.count <- e.count + 1
        | None ->
            let entry = { row; count = 1; inserted_at = b.acts_total } in
            if List.length b.entries < sampler_size then
              b.entries <- entry :: b.entries
            else begin
              (* Sampler full: evict the oldest entry, losing its history.
                 With more distinct aggressors than sampler entries, no row
                 ever accumulates a meaningful count. *)
              let oldest =
                List.fold_left
                  (fun acc e -> if e.inserted_at < acc.inserted_at then e else acc)
                  (List.hd b.entries) b.entries
              in
              b.entries <-
                entry :: List.filter (fun e -> e != oldest) b.entries
            end)
        end;
        b.acts_since_ref <- b.acts_since_ref + 1;
        if b.acts_since_ref >= ref_interval_acts then begin
          b.acts_since_ref <- 0;
          (* REF-time mitigation: refresh neighbours of the hottest entry. *)
          match b.entries with
          | [] -> ()
          | e :: rest ->
              let hottest =
                List.fold_left (fun acc e -> if e.count > acc.count then e else acc) e rest
              in
              b.entries <- List.filter (fun e -> e != hottest) b.entries;
              refresh_neighbors t dram ~channel ~bank ~row:hottest.row
        end
      end);
  t

(* --- PARA ------------------------------------------------------------ *)

let make_para ~p ~rng dram =
  if p < 0.0 || p > 1.0 then invalid_arg "para: p must be in [0, 1]";
  let t = make_instance "PARA" in
  t.save <-
    (fun () ->
      Array.to_list (Ptg_util.Rng.state rng)
      |> List.mapi (fun i w -> (Printf.sprintf "rng.%d" i, w)));
  t.restore <-
    (fun kvs ->
      let word i =
        match List.assoc_opt (Printf.sprintf "rng.%d" i) kvs with
        | Some w -> w
        | None -> invalid_arg "para restore: missing rng word"
      in
      Ptg_util.Rng.set_state rng (Array.init 4 word));
  let geometry = Ptg_dram.Dram.geometry dram in
  Ptg_dram.Dram.on_activate dram (fun c ->
      if t.active then
        List.iter
          (fun r ->
            if Ptg_util.Rng.bernoulli rng p then begin
              Ptg_dram.Dram.refresh_row dram ~channel:c.Ptg_dram.Geometry.channel
                ~bank:c.Ptg_dram.Geometry.bank ~row:r;
              t.refreshes <- t.refreshes + 1
            end)
          (Ptg_dram.Geometry.row_neighbors geometry c.Ptg_dram.Geometry.row
             ~distance:1));
  t

(* --- Graphene -------------------------------------------------------- *)

type graphene_bank = {
  counts : (int, int) Hashtbl.t; (* Misra-Gries estimated counts *)
  mutable spillover : int;
}

let make_graphene ~counters ~threshold dram =
  if counters < 1 || threshold < 1 then invalid_arg "graphene: counters and threshold must be >= 1";
  let t = make_instance "Graphene" in
  let banks : (int * int, graphene_bank) Hashtbl.t = Hashtbl.create 32 in
  let bank_state channel bank =
    let key = (channel, bank) in
    match Hashtbl.find_opt banks key with
    | Some b -> b
    | None ->
        let b = { counts = Hashtbl.create counters; spillover = 0 } in
        Hashtbl.replace banks key b;
        b
  in
  t.save <-
    (fun () ->
      let keys =
        Hashtbl.fold (fun k _ acc -> k :: acc) banks [] |> List.sort compare
      in
      List.concat_map
        (fun (c, bk) ->
          let b = Hashtbl.find banks (c, bk) in
          let rows =
            Hashtbl.fold (fun r n acc -> (r, n) :: acc) b.counts []
            |> List.sort compare
          in
          (Printf.sprintf "%d.%d.spill" c bk, Int64.of_int b.spillover)
          :: List.map
               (fun (r, n) ->
                 (Printf.sprintf "%d.%d.row.%d" c bk r, Int64.of_int n))
               rows)
        keys);
  t.restore <-
    (fun kvs ->
      Hashtbl.reset banks;
      List.iter
        (fun (k, v) ->
          match String.split_on_char '.' k with
          | [ c; bk; "spill" ] ->
              let b = bank_state (int_of_string c) (int_of_string bk) in
              b.spillover <- Int64.to_int v
          | [ c; bk; "row"; r ] ->
              let b = bank_state (int_of_string c) (int_of_string bk) in
              Hashtbl.replace b.counts (int_of_string r) (Int64.to_int v)
          | _ -> ())
        kvs);
  Ptg_dram.Dram.on_activate dram (fun c ->
      if t.active then begin
        let channel = c.Ptg_dram.Geometry.channel
        and bank = c.Ptg_dram.Geometry.bank
        and row = c.Ptg_dram.Geometry.row in
        let b = bank_state channel bank in
        (match Hashtbl.find_opt b.counts row with
        | Some n -> Hashtbl.replace b.counts row (n + 1)
        | None ->
            if Hashtbl.length b.counts < counters then Hashtbl.replace b.counts row 1
            else begin
              (* Misra-Gries decrement step: no entry is ever silently
                 undercounted by more than the spillover. *)
              b.spillover <- b.spillover + 1;
              let doomed =
                Hashtbl.fold
                  (fun r n acc -> if n <= 1 then r :: acc else acc)
                  b.counts []
              in
              if doomed = [] then begin
                let all = Hashtbl.fold (fun r n acc -> (r, n) :: acc) b.counts [] in
                List.iter (fun (r, n) -> Hashtbl.replace b.counts r (n - 1)) all
              end
              else List.iter (Hashtbl.remove b.counts) doomed;
              Hashtbl.replace b.counts row 1
            end);
        match Hashtbl.find_opt b.counts row with
        | Some n when n >= threshold ->
            Hashtbl.replace b.counts row 0;
            refresh_neighbors t dram ~channel ~bank ~row
        | _ -> ()
      end);
  t

(* --- SoftTRR ---------------------------------------------------------- *)

let make_soft_trr ~threshold ~pt_row dram =
  if threshold < 1 then invalid_arg "soft-trr: threshold must be >= 1";
  let t = make_instance "SoftTRR" in
  let geometry = Ptg_dram.Dram.geometry dram in
  (* aggressor (channel, bank, row) -> activations seen since the guarded
     PT row was last refreshed *)
  let counts : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
  t.save <-
    (fun () ->
      Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts []
      |> List.sort compare
      |> List.map (fun ((c, bk, r), n) ->
             (Printf.sprintf "%d.%d.%d" c bk r, Int64.of_int n)));
  t.restore <-
    (fun kvs ->
      Hashtbl.reset counts;
      List.iter
        (fun (k, v) ->
          match String.split_on_char '.' k with
          | [ c; bk; r ] ->
              Hashtbl.replace counts
                (int_of_string c, int_of_string bk, int_of_string r)
                (Int64.to_int v)
          | _ -> ())
        kvs);
  Ptg_dram.Dram.on_activate dram (fun c ->
      if t.active then begin
        let channel = c.Ptg_dram.Geometry.channel
        and bank = c.Ptg_dram.Geometry.bank
        and row = c.Ptg_dram.Geometry.row in
        (* Software visibility: only the attacker's activations adjacent
           to a page-table row register. *)
        let guarded_neighbors =
          List.filter
            (fun r -> pt_row ~channel ~bank ~row:r)
            (Ptg_dram.Geometry.row_neighbors geometry row ~distance:1)
        in
        if guarded_neighbors <> [] then begin
          let key = (channel, bank, row) in
          let n = 1 + Option.value ~default:0 (Hashtbl.find_opt counts key) in
          if n >= threshold then begin
            Hashtbl.remove counts key;
            (* Refresh the page-table rows this aggressor endangers (a
               kernel read of the PT page re-writes the row). *)
            List.iter
              (fun r ->
                Ptg_dram.Dram.refresh_row dram ~channel ~bank ~row:r;
                t.refreshes <- t.refreshes + 1)
              guarded_neighbors
          end
          else Hashtbl.replace counts key n
        end
      end);
  t

(* ------------------------------------------------------------------ *)
(* Registrations                                                       *)
(* ------------------------------------------------------------------ *)

let () =
  register ~name:"trr"
    ~doc:"in-DRAM TRR: bounded sampler, REF-time victim refresh"
    ~params:
      [
        { key = "sampler_size"; doc = "sampler entries per bank"; default = Int 4 };
        {
          key = "ref_interval_acts";
          doc = "activations per bank between REF-time mitigations";
          default = Int 166;
        };
        {
          key = "sample_window";
          doc = "activations observed after each REF";
          default = Int 8;
        };
      ]
    (fun get ctx ->
      make_trr
        ~sampler_size:(get_int get "sampler_size")
        ~ref_interval_acts:(get_int get "ref_interval_acts")
        ~sample_window:(get_int get "sample_window")
        ctx.dram)

let () =
  register ~name:"para"
    ~doc:"PARA: refresh each neighbour with probability p per activation"
    ~params:
      [ { key = "p"; doc = "per-neighbour refresh probability"; default = Float 0.001 } ]
    (fun get ctx ->
      make_para ~p:(get_float get "p") ~rng:(require_rng ~plugin:"para" ctx)
        ctx.dram)

let () =
  register ~name:"soft-trr"
    ~doc:"SoftTRR: OS-level counting of aggressors next to page-table rows"
    ~params:
      [ { key = "threshold"; doc = "aggressor activations before a PT-row refresh"; default = Int 2500 } ]
    (fun get ctx ->
      make_soft_trr
        ~threshold:(get_int get "threshold")
        ~pt_row:(require_pt_row ~plugin:"soft-trr" ctx)
        ctx.dram)

let () =
  register ~name:"graphene"
    ~doc:"Graphene: Misra-Gries frequent-item counters, fixed threshold"
    ~params:
      [
        { key = "counters"; doc = "Misra-Gries entries per bank"; default = Int 128 };
        {
          key = "threshold";
          doc = "estimated count that triggers a victim refresh";
          default = Int 2500;
        };
      ]
    (fun get ctx ->
      make_graphene
        ~counters:(get_int get "counters")
        ~threshold:(get_int get "threshold")
        ctx.dram)
