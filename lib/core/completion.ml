module Graph = Sso_graph.Graph
module Arena = Sso_graph.Arena
module Shortest = Sso_graph.Shortest
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Hop_constrained = Sso_oblivious.Hop_constrained
module Rng = Sso_prng.Rng

let ladder_hops g =
  let diameter = max 1 (Shortest.diameter g) in
  let rec build h acc = if h >= diameter then List.rev (diameter :: acc) else build (h * 2) (h :: acc) in
  build 1 []

let ladder_system rng g ~alpha =
  let rungs = ladder_hops g in
  let systems =
    List.map
      (fun h ->
        let obl = Hop_constrained.routing ~max_hops:h g in
        (* A rung's routing may not reach every pair within its budget;
           treat unreachable pairs as contributing no candidates. *)
        let sample = Sampler.alpha_sample (Rng.split rng) obl ~alpha in
        Path_system.of_generator g (fun s t ->
            try Path_system.paths sample s t with Invalid_argument _ -> []))
      rungs
  in
  match systems with
  | [] -> assert false (* ladder_hops is never empty *)
  | first :: rest -> List.fold_left Path_system.union first rest

let route ?solver g ps demand =
  if Demand.support_size demand = 0 then (Routing.make g [], 0.0, 0)
  else begin
    (* Hop thresholds worth trying: the distinct candidate path lengths
       that leave every demanded pair a candidate, i.e. at least each
       pair's shortest one. *)
    let arena = Path_system.arena ps in
    let lengths, need =
      Demand.fold
        (fun s t _ (lengths, need) ->
          let lengths = ref lengths and shortest = ref max_int in
          Path_system.iter_slices ps s t (fun i ->
              let h = Arena.hops arena i in
              lengths := h :: !lengths;
              shortest := min !shortest h);
          (!lengths, max need !shortest))
        demand ([], 0)
    in
    let thresholds =
      List.filter (fun h -> h >= need) (List.sort_uniq Int.compare lengths)
    in
    let candidates_at h = Path_system.filter (fun a i -> Arena.hops a i <= h) ps in
    let best =
      List.fold_left
        (fun acc h ->
          let routing, cong = Semi_oblivious.route ?solver g (candidates_at h) demand in
          let dil = Routing.dilation routing demand in
          let value = cong +. float_of_int dil in
          match acc with
          | Some (bv, _, _, _) when bv <= value -> acc
          | _ -> Some (value, routing, cong, dil))
        None thresholds
    in
    match best with
    | None -> invalid_arg "Completion.route: no feasible hop threshold (missing candidates)"
    | Some (_, routing, cong, dil) -> (routing, cong, dil)
  end
