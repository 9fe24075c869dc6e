(** FRT random hierarchical decompositions (tree embeddings).

    Fakcharoenphol–Rao–Talwar metric embeddings: a random laminar family of
    clusters with geometrically shrinking radii, built from a random vertex
    permutation and a random radius scale.  Every tree maps back into the
    graph by routing each tree edge along a shortest path between cluster
    centers, so a tree induces a deterministic path per vertex pair; a
    distribution over trees induces an oblivious routing.  This is the
    building block of the Räcke-style construction in {!Racke}. *)

type t
(** One sampled decomposition tree over a graph. *)

val build : Sso_prng.Rng.t -> Sso_graph.Graph.t -> lengths:float array -> t
(** Sample a decomposition w.r.t. the shortest-path metric induced by the
    per-edge [lengths] (indexed by edge id, one per edge).  They are
    checked once up front and copied, clamped below by a tiny positive
    constant, so zero lengths are safe and the caller may refill its
    array afterwards.  Built level-wise by growing bounded-radius Dijkstra
    balls from the centers in permutation order — each vertex joins the
    first center within the level radius — so work is near-linear per
    level and memory is O(n·levels + m); no all-pairs distance matrix is
    ever formed.  The build is serial: one ball at a time, on the calling
    domain.
    @raise Invalid_argument if the graph is disconnected, if [lengths]
    does not have one entry per edge, or on a NaN or negative length
    ([Frt.build: NaN edge length], [Frt.build: negative edge length]). *)

type parts = {
  p_levels : int;
  p_chain : int array array;  (** [n × (levels+1)] cluster centers *)
  p_cluster_id : int array array;  (** [n × (levels+1)] cluster identifiers *)
  p_lengths : float array;  (** clamped per-edge lengths, indexed by edge id *)
}
(** The serializable state of a decomposition.  Shortest-path trees are
    {e not} part of it: they are a deterministic function of [p_lengths]
    (truncated Dijkstra from each hub, radius fixed by level and the
    minimum length), so a tree rebuilt by {!of_parts} routes every pair
    exactly as the original did. *)

val to_parts : t -> parts
(** Extract the serializable state (arrays are copies). *)

val of_parts : Sso_graph.Graph.t -> parts -> t
(** Reconstruct a tree over [g], validating the structure in O(n·levels):
    level-0 clusters are singletons centered at their vertex, the top level
    is one cluster with one center, and clusters nest (vertices sharing a
    level-i cluster share its center and their level-(i+1) cluster).
    @raise Invalid_argument if the dimensions or values do not fit [g] or
    the structure is violated, so a tree that loads never routes a pair
    to the wrong endpoint. *)

val levels : t -> int
(** Height of the decomposition (Θ(log (diameter/min-distance))). *)

val route : t -> int -> int -> Sso_graph.Path.t
(** The unique tree path between two vertices, mapped into the graph: the
    center-to-center shortest paths up from [s] and down to [t], taken as
    one walk and loop-erased once by {!Sso_graph.Path.Erasure}, the kernel
    of {!Sso_graph.Path.simplify}.
    Always a simple path from [s] to [t].

    Segments come from a dense per-tree index, one slot per (vertex,
    level): one word each, next to the chain and cluster-id tables it
    mirrors.  A slot is filled on first use from its hub's paths — one
    truncated Dijkstra per (hub, level) finds the paths to all of that
    hub's children and counts [frt.hub_fill] — and is never evicted.  A
    filled slot is read without a lock or a table lookup, so trees route
    concurrently from pool workers; racing fills store equal paths, and
    routes never depend on the order in which slots fill. *)

val iter_route : t -> int -> int -> (int -> unit) -> unit
(** [iter_route t s d f] calls [f] on each edge of [(route t s d).edges],
    in order, without building the walk or the path: the segments are
    loop-erased on the calling domain's {!Sso_graph.Path.Erasure} scratch
    and read back from it.  [f] must not erase another walk on the same
    domain (route, {!Sso_graph.Path.simplify}) while the visit runs. *)
