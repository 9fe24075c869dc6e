(** Demand-aware path selection — the non-oblivious upper baseline.

    The whole point of Stage 2 is that the candidate paths are chosen
    {e before} the demand (obliviously).  To quantify what that costs, this
    module builds the cheating comparator: it solves the Stage-5 optimal
    fractional routing of the revealed demand ({!Semi_oblivious.optimum})
    and keeps each pair's α heaviest flow paths.  An α-sparse system
    chosen this way is the best a clairvoyant operator could install; the
    gap between it and the paper's α-sample is the price of obliviousness
    (experiment E15). *)

val demand_aware_system :
  ?solver:Semi_oblivious.solver ->
  Sso_graph.Graph.t -> Sso_demand.Demand.t -> alpha:int -> Path_system.t
(** Top-α paths by optimal-flow weight per demanded pair (pairs outside
    the demand's support get no candidates).  Either [solver]'s optimum
    is a path-based routing: the MWU's interned Dijkstra paths, or the
    exact LP's generated columns. *)
