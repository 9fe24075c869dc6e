module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Shortest = Sso_graph.Shortest

let stretch = 2
let paths_per_pair = 8

let routing ~max_hops g =
  if max_hops <= 0 then invalid_arg "Hop_constrained.routing: max_hops must be positive";
  let budget = stretch * max_hops in
  let generate s t =
    (* Penalize edges already used by earlier extracted paths so the set is
       diverse; stop early when the penalties stop producing new paths.
       An edge weighs penalty / capacity, the penalty starting at 1 and
       growing 4x per use: scaling by a power of two is exact, so
       multiplying the weight itself in place is the same float. *)
    let weights = Array.init (Graph.m g) (fun e -> 1.0 /. Graph.cap g e) in
    let rec extract k acc =
      if k = 0 then acc
      else
        match Shortest.hop_limited_path g ~weights ~max_hops:budget s t with
        | None -> acc
        | Some p ->
            let fresh = not (List.exists (fun (_, q) -> Path.equal p q) acc) in
            Array.iter (fun e -> weights.(e) <- weights.(e) *. 4.0) p.Path.edges;
            extract (k - 1) (if fresh then (1.0, p) :: acc else acc)
    in
    let result = extract paths_per_pair [] in
    let module Obs = Sso_obs.Obs in
    if Obs.tracing () then
      Obs.event "hop.generate"
        ~attrs:
          [
            ("s", Sso_obs.Trace.Int s);
            ("t", Sso_obs.Trace.Int t);
            ("paths", Sso_obs.Trace.Int (List.length result));
            ("max_hops", Sso_obs.Trace.Int max_hops);
          ];
    result
  in
  Oblivious.make ~name:(Printf.sprintf "hop-%d" max_hops) g generate
