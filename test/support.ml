(* Demand predicates the test suites check generated demands against. *)

module Demand = Sso_demand.Demand

(* Same support, and entries within 1e-12 of each other. *)
let demand_equal a b =
  Demand.support a = Demand.support b
  && List.for_all
       (fun (s, t) -> Float.abs (Demand.get a s t -. Demand.get b s t) < 1e-12)
       (Demand.support a)

(* A {0,1}-demand where every vertex sends at most once and receives at
   most once. *)
let is_permutation d =
  let distinct l = List.length (List.sort_uniq compare l) = List.length l in
  let support = Demand.support d in
  Demand.is_zero_one d && distinct (List.map fst support) && distinct (List.map snd support)
