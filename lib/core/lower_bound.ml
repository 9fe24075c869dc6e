module Gen = Sso_graph.Gen
module Path = Sso_graph.Path
module Matching = Sso_graph.Matching
module Demand = Sso_demand.Demand
module Pool = Sso_engine.Pool
module Obs = Sso_obs.Obs

let attack_span = Obs.span "lower_bound.attack"
let matchings_counter = Obs.counter "lower_bound.matchings"

type attack = {
  demand : Demand.t;
  bottleneck : int list;
  pairs_matched : int;
  predicted_congestion : float;
}

let middles_hit (c : Gen.c_graph) p =
  let middles = Array.to_list c.Gen.c_middles in
  let vs = Path.vertices c.Gen.c_graph p in
  List.sort_uniq compare
    (List.filter (fun m -> Array.exists (fun v -> v = m) vs) middles)

let attack (c : Gen.c_graph) ps =
  Obs.with_span attack_span @@ fun () ->
  let g = c.Gen.c_graph in
  ignore g;
  let leaves1 = c.Gen.c_leaves1 and leaves2 = c.Gen.c_leaves2 in
  let k = Array.length c.Gen.c_middles in
  (* Hit-set per (left leaf, right leaf): the middles its candidates can
     possibly use.  Every left-right path crosses a middle vertex. *)
  let hits = Hashtbl.create (Array.length leaves1 * Array.length leaves2) in
  Array.iteri
    (fun i s ->
      Array.iteri
        (fun j t ->
          let candidate_paths = Path_system.paths ps s t in
          let hit =
            List.sort_uniq compare
              (List.concat_map (fun p -> middles_hit c p) candidate_paths)
          in
          if hit = [] then
            invalid_arg "Lower_bound.attack: a left-right candidate avoids all middles";
          Hashtbl.replace hits (i, j) hit)
        leaves2)
    leaves1;
  (* Candidate bottleneck sets: the distinct hit-sets.  For each, match
     left leaves to right leaves among pairs funneled inside it, and score
     by (matched pairs, capped at k so the optimum stays 1) / |set|. *)
  let keys =
    Hashtbl.fold (fun _ hit acc -> hit :: acc) hits []
    |> List.sort_uniq compare
  in
  let subset a b = List.for_all (fun x -> List.mem x b) a in
  let evaluate key =
    Obs.incr matchings_counter;
    let adj i =
      List.filter_map
        (fun j -> if subset (Hashtbl.find hits (i, j)) key then Some j else None)
        (List.init (Array.length leaves2) Fun.id)
    in
    let pairs = Matching.maximum ~left:(Array.length leaves1) ~right:(Array.length leaves2) adj in
    let capped = Array.sub pairs 0 (min (Array.length pairs) k) in
    let score = float_of_int (Array.length capped) /. float_of_int (List.length key) in
    (score, key, capped)
  in
  (* Score every candidate bottleneck concurrently, then pick the winner by
     the same left-to-right fold the serial code used, so ties break
     identically for any job count. *)
  let evaluated = Pool.parallel_map evaluate (Array.of_list keys) in
  let best =
    Array.fold_left
      (fun acc ((score, _, _) as result) ->
        match acc with
        | Some (bs, _, _) when bs >= score -> acc
        | _ -> Some result)
      None evaluated
  in
  match best with
  | None -> invalid_arg "Lower_bound.attack: no left-right pairs in the system"
  | Some (score, key, matched) ->
      let demand =
        Demand.of_list
          (Array.to_list
             (Array.map (fun (i, j) -> (leaves1.(i), leaves2.(j), 1.0)) matched))
      in
      {
        demand;
        bottleneck = key;
        pairs_matched = Array.length matched;
        predicted_congestion = score;
      }

let attack_in_family (g : Gen.g_graph) ~alpha ps =
  let view =
    match List.assoc_opt alpha g.Gen.g_copies with
    | Some view -> view
    | None ->
        let available =
          g.Gen.g_copies
          |> List.map (fun (a, _) -> string_of_int a)
          |> String.concat ", "
        in
        invalid_arg
          (Printf.sprintf
             "Lower_bound.attack_in_family: no copy for alpha = %d (available: %s)"
             alpha available)
  in
  let as_c_graph : Gen.c_graph =
    {
      Gen.c_graph = g.Gen.g_graph;
      c_center1 = view.Gen.v_center1;
      c_leaves1 = view.Gen.v_leaves1;
      c_center2 = view.Gen.v_center2;
      c_leaves2 = view.Gen.v_leaves2;
      c_middles = view.Gen.v_middles;
    }
  in
  attack as_c_graph ps
