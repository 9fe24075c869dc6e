module Graph = Sso_graph.Graph
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing

let route ~gamma ~alpha g ps demand =
  if Demand.support_size demand = 0 then (Routing.make g [], 0.0)
  else begin
    (* Lemma 5.9: dyadic buckets of the ratio d(s,t)/cnt(s,t). *)
    let buckets = Special.buckets g ~alpha demand in
    let parts =
      List.map
        (fun (_, bucket) ->
          (* Route the special demand with the bucket's support; its
             routing (a per-pair distribution) routes the bucket itself
             with congestion inflated by at most the ratio bound. *)
          let special = Special.special_of_support g ~alpha (Demand.support bucket) in
          let routing, _ = Process.route_by_halving ~gamma g ps special in
          (bucket, routing))
        buckets
    in
    (* Lemma 5.15: demand-proportional merge of the bucket routings. *)
    let combined = Routing.merge_convex parts in
    (combined, Routing.congestion g combined demand)
  end
