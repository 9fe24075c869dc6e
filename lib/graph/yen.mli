(** Yen's algorithm for the k shortest loopless paths.

    Used by the KSP-spread oblivious baseline (traditional traffic
    engineering spreads load over the k shortest paths). *)

val k_shortest : Graph.t -> k:int -> int -> int -> Path.t list
(** [k_shortest g ~k s t] returns up to [k] distinct simple paths from [s]
    to [t] in non-decreasing hop order (fewer if the graph does not
    contain [k] simple paths).  Every search runs
    {!Shortest.dijkstra_targets} over one unit-weight array, in which a
    spur search bans edges by setting them to [infinity].  For [s = t]
    the single trivial path is returned. *)
