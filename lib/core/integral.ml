module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Demand = Sso_demand.Demand
module Rounding = Sso_flow.Rounding
module Min_congestion = Sso_flow.Min_congestion

let congestion_upper ?solver ?(tries = 10) rng g ps demand =
  if not (Demand.is_integral demand) then
    invalid_arg "Integral.congestion_upper: demand must be integral";
  let fractional, _ = Semi_oblivious.route ?solver g ps demand in
  let rounded = Rounding.best_round ~tries rng g fractional demand in
  let improved = Rounding.local_search g ~candidates:(Path_system.paths ps) rounded in
  (improved, Rounding.congestion g improved)

(* Most candidate combinations [brute_force] enumerates. *)
let brute_force_limit = 2_000_000

let brute_force g ps demand =
  if not (Demand.is_zero_one demand) then
    invalid_arg "Integral.brute_force: demand must be a {0,1}-demand";
  let pairs = Demand.support demand in
  let choices = List.map (fun (s, t) -> Array.of_list (Path_system.paths ps s t)) pairs in
  List.iter
    (fun c -> if Array.length c = 0 then invalid_arg "Integral.brute_force: pair without candidates")
    choices;
  ignore
    (List.fold_left
       (fun acc c ->
         let acc = acc * Array.length c in
         if acc > brute_force_limit || acc <= 0 then
           invalid_arg "Integral.brute_force: search space too large"
         else acc)
       1 choices);
  let choices = Array.of_list choices in
  let k = Array.length choices in
  let loads = Array.make (Graph.m g) 0.0 in
  let add (p : Path.t) delta =
    Array.iter (fun e -> loads.(e) <- loads.(e) +. delta) p.Path.edges
  in
  let best = ref infinity in
  let current_max () =
    let mx = ref 0.0 in
    Array.iteri (fun e load -> mx := Float.max !mx (load /. Graph.cap g e)) loads;
    !mx
  in
  let rec explore i =
    if i = k then best := Float.min !best (current_max ())
    else
      Array.iter
        (fun p ->
          add p 1.0;
          (* Prune: congestion only grows as packets are added. *)
          if current_max () < !best then explore (i + 1);
          add p (-1.0))
        choices.(i)
  in
  explore 0;
  !best
