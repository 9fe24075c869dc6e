module Graph = Sso_graph.Graph
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing

let top_paths g routing ~alpha =
  if alpha <= 0 then invalid_arg "Oracle.top_paths: alpha must be positive";
  Path_system.of_pairs g
    (List.map
       (fun (s, t) ->
         let dist = Routing.distribution routing s t in
         let sorted = List.sort (fun (a, _) (b, _) -> Float.compare b a) dist in
         let rec take k = function
           | (_, p) :: rest when k > 0 -> p :: take (k - 1) rest
           | _ -> []
         in
         ((s, t), take alpha sorted))
       (Routing.pairs routing))

let demand_aware_system ?solver g demand ~alpha =
  top_paths g (Semi_oblivious.optimum ?solver g demand).routing ~alpha
