(** Graph generators for the experiments.

    Includes the classical topologies the oblivious-routing literature
    studies (hypercubes, grids, tori, expanders), the gadgets the paper's
    arguments use (two cliques joined by a sparse bundle from Section 2.1,
    the lower-bound graphs [C(n,k)] and [G(n)] of Section 8), and a small
    WAN topology for the traffic-engineering experiment. *)

val hypercube : int -> Graph.t
(** [hypercube d] is the [2^d]-vertex boolean hypercube; vertex ids are the
    bit patterns.  @raise Invalid_argument unless [1 <= d <= 30] — [d] is
    the dimension, not the vertex count. *)

val grid : int -> int -> Graph.t
(** [grid rows cols]: vertex [(r, c)] has id [r * cols + c]. *)

val torus : int -> int -> Graph.t
(** Like {!grid} with wrap-around edges.  Requires both sides ≥ 3 so no
    duplicate wrap edges collapse. *)

val complete : int -> Graph.t

val path_graph : int -> Graph.t
(** Path on [n] vertices [0 - 1 - ... - n-1]. *)

val cycle : int -> Graph.t

val erdos_renyi : Sso_prng.Rng.t -> int -> float -> Graph.t
(** [erdos_renyi rng n p]: G(n, p) conditioned on connectivity (resampled
    until connected; [p] should be comfortably above the connectivity
    threshold). *)

val random_regular : Sso_prng.Rng.t -> int -> int -> Graph.t
(** [random_regular rng n d]: a random (near-)d-regular simple connected
    graph via the configuration model with rejection; used as an expander.
    Requires [n * d] even, [d ≥ 3], [d < n]. *)

val two_cliques : int -> Graph.t
(** Section 2.1's gadget: two [n]-cliques [{0..n-1}] and [{n..2n-1}]
    connected by the [n] edges [(i, n+i)].  The min cut between opposite
    clique vertices is [n], so [α]-sparsity without the [cut_G] term cannot
    be competitive on heavy single-pair demands. *)

type c_graph = {
  c_graph : Graph.t;
  c_center1 : int;
  c_leaves1 : int array;
  c_center2 : int;
  c_leaves2 : int array;
  c_middles : int array;
}
(** The lower-bound gadget [C(n,k)] (Fig. 1): two [n+1]-vertex stars whose
    centers are joined through [k] middle vertices. *)

val c_graph : int -> int -> c_graph
(** [c_graph n k] builds [C(n,k)]: [2n + 2 + k] vertices, [2n + 2k]
    edges. *)

type g_graph = { g_graph : Graph.t; g_copies : (int * c_graph_view) list }

and c_graph_view = {
  v_center1 : int;
  v_leaves1 : int array;
  v_center2 : int;
  v_leaves2 : int array;
  v_middles : int array;
}
(** [G(n)] from Lemma 8.2: one copy of [C(n, ⌊n^(1/2α)⌋)] per
    [α ∈ [⌊log n⌋]], chained with bridges.  [g_copies] maps each [α] to the
    vertex ids of its copy. *)

val g_graph : int -> g_graph

val multi_path : int list -> Graph.t
(** [multi_path lens] joins terminals [0] and [1] by internally-disjoint
    paths, one of each length in [lens] (each length ≥ 1; length 1 adds a
    parallel edge).  This is the gadget where congestion-only optimization
    ruins completion time (Section 7 / [GHZ21]): short paths are scarce,
    long paths are plentiful. *)

val abilene : unit -> Graph.t * string array
(** An Abilene-like 11-node US research WAN with 14 links (uniform
    capacity), plus city labels, for the SMORE-style traffic-engineering
    experiment. *)

val fat_tree : int -> Graph.t
(** [fat_tree k] for even [k ≥ 2]: the k-ary data-center fat-tree
    (k²/4 core switches, k pods of k aggregation+edge switches; hosts are
    omitted — routing is between edge switches).  Vertex layout: cores
    first, then per pod [k/2] aggregation then [k/2] edge switches. *)

val b4 : unit -> Graph.t * string array
(** A B4-like 12-site inter-datacenter WAN (19 links, uniform capacity)
    with site labels — a second realistic topology for the
    traffic-engineering experiments. *)
