module Graph = Sso_graph.Graph
module Demand = Sso_demand.Demand
module Rng = Sso_prng.Rng

let special_of_support g ~alpha pairs =
  Demand.of_list
    (List.map (fun (s, t) -> (s, t, float_of_int (Sampler.cnt g ~alpha s t))) pairs)

let buckets g ~alpha d =
  let scale s t amount = amount /. float_of_int (Sampler.cnt g ~alpha s t) in
  let bucket_of ratio = int_of_float (Float.floor (Float.log ratio /. Float.log 2.0)) in
  let table = Hashtbl.create 16 in
  Demand.fold
    (fun s t amount () ->
      let b = bucket_of (scale s t amount) in
      let cur = try Hashtbl.find table b with Not_found -> [] in
      Hashtbl.replace table b ((s, t, amount) :: cur))
    d ();
  Hashtbl.fold (fun b entries acc -> (b, Demand.of_list entries) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
