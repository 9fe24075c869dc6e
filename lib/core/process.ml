module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing

type outcome = {
  kept_demand : Demand.t;
  kept_routing : Routing.t option;
  survived_fraction : float;
  deletions : (int * float) list;
}

let weak_route ~gamma g ps demand =
  if gamma <= 0.0 then invalid_arg "Process.weak_route: gamma must be positive";
  (* Materialize every candidate path with its initial weight
     d(s,t)/|P(s,t)| (the uniform spread; the paper's sample-multiplicity
     weighting coincides with this in distribution after deduplication). *)
  let items =
    Demand.fold
      (fun s t amount acc ->
        match Path_system.paths ps s t with
        | [] -> invalid_arg "Process.weak_route: demanded pair has no candidates"
        | paths ->
            let w0 = amount /. float_of_int (List.length paths) in
            List.fold_left (fun acc p -> ((s, t), p, ref w0) :: acc) acc paths)
      demand []
  in
  let total = Demand.siz demand in
  (* Edge → members index for the scan. *)
  let m = Graph.m g in
  let members = Array.make m [] in
  List.iter
    (fun ((_, p, _) as item) ->
      Array.iter (fun e -> members.(e) <- item :: members.(e)) p.Path.edges)
    items;
  let deletions = ref [] in
  for e = 0 to m - 1 do
    let cong =
      List.fold_left (fun acc (_, _, w) -> acc +. !w) 0.0 members.(e) /. Graph.cap g e
    in
    if cong > gamma then begin
      let removed =
        List.fold_left
          (fun acc (_, _, w) ->
            let v = !w in
            w := 0.0;
            acc +. v)
          0.0 members.(e)
      in
      if removed > 0.0 then deletions := (e, removed) :: !deletions
    end
  done;
  let kept_demand =
    Demand.of_list
      (List.filter_map
         (fun ((s, t), _, w) -> if !w > 0.0 then Some (s, t, !w) else None)
         items)
  in
  let kept_routing =
    if Demand.support_size kept_demand = 0 then None
    else
      Some
        (Routing.make g
           (List.map
              (fun (s, t) ->
                let dist =
                  List.filter_map
                    (fun ((s', t'), p, w) ->
                      if s' = s && t' = t && !w > 0.0 then Some (!w, p) else None)
                    items
                in
                ((s, t), dist))
              (Demand.support kept_demand)))
  in
  {
    kept_demand;
    kept_routing;
    survived_fraction = (if total > 0.0 then Demand.siz kept_demand /. total else 1.0);
    deletions = List.rev !deletions;
  }

let greedy_first_candidates ps demand =
  Routing.make (Path_system.graph ps)
    (List.map
       (fun (s, t) ->
         match Path_system.paths ps s t with
         | [] -> invalid_arg "Process: demanded pair has no candidates"
         | p :: _ -> ((s, t), [ (1.0, p) ]))
       (Demand.support demand))

let route_by_halving ~gamma g ps demand =
  if Demand.support_size demand = 0 then (Routing.make g [], 0.0)
  else begin
    let m = Graph.m g in
    let rounds =
      int_of_float (Float.ceil (Float.log (float_of_int (max 2 m)) /. Float.log 1.5)) + 8
    in
    let threshold = Demand.siz demand /. float_of_int m in
    (* Accumulate (sub-demand, routing) parts; combine at the end. *)
    let rec go round remaining parts =
      if Demand.support_size remaining = 0 then parts
      else if round >= rounds || Demand.siz remaining <= threshold then
        (remaining, greedy_first_candidates ps remaining) :: parts
      else begin
        let { kept_demand; kept_routing; _ } = weak_route ~gamma g ps remaining in
        (* Keep pairs that retained ≥ 1/4 of their demand; route their full
           demand by rescaling the kept routing (factor ≤ 4 congestion). *)
        let served =
          Demand.filter
            (fun s t amount -> Demand.get kept_demand s t >= amount /. 4.0)
            remaining
        in
        match (kept_routing, Demand.support_size served) with
        | Some routing, k when k > 0 ->
            let residual = Demand.filter (fun s t _ -> Demand.get served s t = 0.0) remaining in
            go (round + 1) residual ((served, routing) :: parts)
        | _ ->
            (* Weak routing stalled: fall back to greedy on what is left. *)
            (remaining, greedy_first_candidates ps remaining) :: parts
      end
    in
    let parts = go 0 demand [] in
    let combined = Routing.merge_convex parts in
    (combined, Routing.congestion g combined demand)
  end
