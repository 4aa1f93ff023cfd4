type ('p, 'u, 'o, 'r) t = {
  shared : ?jobs:int -> unit -> 'p;
  units : 'u list;
  run_unit : 'p -> ?obs:Ptg_obs.Sink.t -> 'u -> 'o;
  merge : 'o list -> 'r;
}

let no_shared ?jobs:_ () = ()

let map ?jobs ?obs (f : ?obs:Ptg_obs.Sink.t -> 'u -> 'o) units =
  let units = Array.of_list units in
  match obs with
  | None -> Array.to_list (Ptg_util.Pool.parallel_map ?jobs (fun u -> f u) units)
  | Some sink ->
      let children = Array.map (fun _ -> Ptg_obs.Sink.child sink) units in
      let out =
        Ptg_util.Pool.parallel_map ?jobs
          (fun i -> f ~obs:children.(i) units.(i))
          (Array.init (Array.length units) Fun.id)
      in
      Array.iter (fun child -> Ptg_obs.Sink.merge_into ~src:child ~dst:sink) children;
      Array.to_list out

let run ?jobs ?obs t = t.merge (map ?jobs ?obs (t.run_unit (t.shared ?jobs ())) t.units)
