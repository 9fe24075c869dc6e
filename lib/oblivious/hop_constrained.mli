(** Hop-constrained oblivious routing — the [GHZ21] substitute.

    [GHZ21] builds, for every hop budget [h], an oblivious routing whose
    paths have [O(polylog)] hop-stretch over [h] while staying competitive
    with the best dilation-[h] routing.  Constructing their hop-constrained
    expander hierarchies is out of scope; per the substitution rule we
    build the closest synthetic equivalent that exercises the same code
    path downstream (sampling few paths from a hop-bounded distribution and
    adapting rates under the congestion + dilation objective):

    for each pair we extract up to 8 simple paths of at most [2 · h] hops
    by repeated hop-limited shortest-path queries under multiplicatively
    growing penalties on already-used edges (so the paths are
    capacity-diverse), and spread uniformly over them. *)

val routing : max_hops:int -> Sso_graph.Graph.t -> Oblivious.t
(** [routing ~max_hops g]: every path has at most [2 · max_hops] hops,
    and a pair spreads over at most 8 paths.
    {!Oblivious.distribution} raises [Invalid_argument] for pairs that are
    unreachable within the budget — callers pick [max_hops] at least the
    pair's hop distance (Lemma 2.8's ladder does). *)
