(** Spanning trees: construction and tree routing.

    Routing every pair along a single spanning tree is the simplest
    oblivious routing on a general graph (and, through better trees,
    the backbone of Räcke's construction).  We provide BFS trees, uniform
    random spanning trees via Wilson's loop-erased-random-walk algorithm,
    and the unique tree path between two vertices — used by the
    tree-routing baselines and the base-quality ablation experiment. *)

type t = private {
  root : int;
  parent_edge : int array;
  parent : int array;
  depth : int array;
}
(** Rooted spanning tree: [parent_edge.(v)] is the edge towards the root
    and [parent.(v)] the vertex it leads to ([-1] for both at the root
    itself); [depth.(v)] is the hop distance to the root.  All three are
    filled once at construction. *)

val bfs_tree : Graph.t -> int -> t
(** Shortest-path (hop) tree rooted at the given vertex.
    @raise Invalid_argument if the graph is disconnected. *)

val wilson : Sso_prng.Rng.t -> Graph.t -> t
(** A uniformly random spanning tree (Wilson 1996: loop-erased random
    walks from each vertex to the growing tree), rooted at a random
    vertex.  @raise Invalid_argument if the graph is disconnected. *)

val path : t -> int -> int -> Path.t
(** The unique tree path between two vertices (simple by construction),
    in O(depth): both endpoints climb to their lowest common ancestor and
    the edge array is written directly. *)
