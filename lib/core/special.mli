(** Special demands and the bucketing reduction (Definition 5.5,
    Lemma 5.9).

    A demand is α-special when every entry is 0 or [α + cut_G(s,t)]
    — exactly the shape that makes the concentration argument of
    Lemma 5.6 go through.  Lemma 5.9 reduces arbitrary demands to special
    ones: bucket pairs by the dyadic scale of [d(s,t) / (α + cut_G(s,t))],
    round each bucket up to the special demand on its support, and pay one
    factor 2 per bucket and O(log) buckets overall. *)

val special_of_support :
  Sso_graph.Graph.t -> alpha:int -> (int * int) list -> Sso_demand.Demand.t
(** The α-special demand with the given support:
    [d(s,t) = α + cut_G(s,t)] on it. *)

val buckets :
  Sso_graph.Graph.t -> alpha:int -> Sso_demand.Demand.t ->
  (int * Sso_demand.Demand.t) list
(** Split [d] into dyadic-ratio buckets: bucket [i] holds the pairs with
    [d(s,t)/(α + cut_G(s,t)) ∈ [2^i, 2^{i+1})].  The buckets sum to [d]
    and there are at most O(log(max ratio / min ratio)) of them. *)
