(** Räcke-style oblivious routing via multiplicative weights over FRT
    trees.

    [Räc08] proves every graph admits an O(log n)-competitive oblivious
    routing and reduces its construction to distance-preserving tree
    embeddings.  We implement the practical form of that reduction (the one
    SMORE [KYY+18] ships): iteratively sample FRT trees, where each round's
    edge lengths exponentially penalize edges the earlier trees overloaded
    (load measured by routing every edge's capacity through the tree), and
    take the uniform mixture of the sampled trees as the routing.

    This is the substitution documented in DESIGN.md §3: the object has the
    same shape as Räcke's (a distribution over decomposition trees) and is
    empirically polylog-competitive on our testbed, which suffices because
    Theorem 5.3 is stated relative to the base routing [R]. *)

val routing : Sso_prng.Rng.t -> ?trees:int -> Sso_graph.Graph.t -> Oblivious.t
(** Build the routing from [trees] sampled decompositions (default
    [2·⌈log₂ n⌉ + 4]).  Construction cost: [trees] FRT builds plus one
    capacity-routing pass per tree.  Trees are sampled in rounds of 4:
    trees within a round share the penalty state of the previous rounds,
    each from its own index-keyed RNG child, so the mixture never depends
    on the job count.  Each tree is built serially ({!Frt.build}); its
    {!tree_loads} pass runs edge chunks on the process pool, where the
    parallelism scales with the graph instead of with the round width.
    The result is bit-identical for any [--jobs]. *)

val default_trees : Sso_graph.Graph.t -> int
(** The default tree count, [2·⌈log₂ n⌉ + 4]. *)

val forest : Sso_prng.Rng.t -> ?trees:int -> Sso_graph.Graph.t -> Frt.t list
(** The MWU-sampled tree mixture behind {!routing}, exposed so the artifact
    store can persist it ({!Frt.to_parts}) and rebuild the routing without
    re-running the construction.
    @raise Invalid_argument naming [Racke.forest] if [trees] is not
    positive ({!routing} raises the same). *)

val of_forest : Sso_graph.Graph.t -> Frt.t list -> Oblivious.t
(** The uniform {!Oblivious.mixture} over an already-built forest:
    sampling a pair routes only the trees it draws.
    [routing rng g = of_forest g (forest rng g)]. *)

val tree_loads : Sso_graph.Graph.t -> Frt.t -> float array
(** Relative load per edge when each graph edge routes its capacity along
    the tree path between its endpoints — the penalty signal of the MWU
    loop, exposed for tests and diagnostics.  Edges are routed in fixed
    chunks on the pool; each chunk streams its routes ({!Frt.iter_route}, no
    path is built) into its domain's dense scratch (O(m) once per domain,
    left zeroed) in edge-index order, and chunks merge in chunk order, so
    the float sums are identical at any job count.  Traced as one [racke.tree_loads] span per tree inside
    {!forest}. *)
