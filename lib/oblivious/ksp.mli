(** k-shortest-path spread — the "traditional traffic engineering"
    baseline from the SMORE comparison [KYY+18].

    Each pair spreads uniformly over its [k] shortest paths in the hop
    metric.  Unlike Räcke-style routings this ignores global capacity
    structure, which is exactly the weakness the SMORE experiment (E5)
    demonstrates. *)

val routing : k:int -> Sso_graph.Graph.t -> Oblivious.t
(** [routing ~k g] spreads uniformly over the [k] shortest paths per pair
    in the hop metric ({!Sso_graph.Yen.k_shortest}; fewer when the graph
    has fewer simple paths). *)
