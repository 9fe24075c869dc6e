(** Routings: per-pair distributions over paths (Section 4 of the paper).

    A routing [R] assigns to each vertex pair [(s,t)] in its domain a
    probability distribution [R(s,t)] over simple (s,t)-paths.  Routing a
    demand [d] places weight [d(s,t) · P(R(s,t) = p)] on each path, and the
    congestion of an edge is the total weight crossing it divided by its
    capacity (with unit capacities this is the paper's path count).

    A routing is flat arrays over one {!Sso_graph.Arena}: per pair, a
    range of entries; per entry, a weight and a slice handle.  A solve
    emits its routing over its candidate index's arena, copying no path
    ({!of_sorted}); the other constructors append or blit paths into an
    arena of their own. *)

type t = private {
  arena : Sso_graph.Arena.t;
  pairs : (int * int) array;  (** Strictly ascending. *)
  off : int array;  (** Pair [i]'s entries are [off.(i) .. off.(i + 1) - 1]. *)
  weights : float array;
  slices : int array;  (** Entry -> its path, a slice of [arena]. *)
}
(** Immutable: the arrays must not be mutated. *)

val make : Sso_graph.Graph.t -> ((int * int) * (float * Sso_graph.Path.t) list) list -> t
(** Build from per-pair weighted path lists over [g].  Weights must be
    non-negative with a positive sum per pair; they are normalized to a
    distribution.  Paths must be walks of [g] connecting the pair's
    endpoints.  Duplicate paths within a pair are merged, and each pair's
    entries are left in descending {!Sso_graph.Path.compare} order.
    @raise Invalid_argument on violations. *)

val of_slices : Sso_graph.Arena.t -> ((int * int) * (float * int) list) list -> t
(** {!make} over slices of [arena], which the routing shares (the LP
    solvers' emission). *)

val of_normalized : Sso_graph.Arena.t -> ((int * int) * (float * int) list) list -> t
(** Checked constructor for distributions that are already normalized
    (as the routing codec decodes them): weights are installed {e
    without} re-normalization and in list order, so a decode–encode round
    trip is bit-identical.  @raise Invalid_argument on duplicate pairs,
    non-positive weights, endpoint mismatches, or per-pair sums farther
    than [1e-6] from 1. *)

val of_sorted :
  Sso_graph.Arena.t -> (int * int) array -> int array -> float array -> int array -> t
(** Trusted constructor for a solver's emission: the fields as given,
    with no check and no copy.  Each pair's entries must be normalized,
    distinct and in descending path order, as {!of_slices} leaves them.
    No array may be mutated afterwards. *)

val position : t -> int -> int -> int
(** The pair's index in [pairs], or [-1] if absent: a binary search. *)

val distribution : t -> int -> int -> (float * Sso_graph.Path.t) list
(** The distribution for a pair, as boxed paths; [[]] if absent. *)

val pairs : t -> (int * int) list

val covers : t -> Sso_demand.Demand.t -> bool
(** Does the routing define a distribution for every pair in the demand's
    support? *)

val congestion : Sso_graph.Graph.t -> t -> Sso_demand.Demand.t -> float
(** [cong(R,d) = max_e load_e / cap_e]; [0] for the empty demand. *)

val dilation : t -> Sso_demand.Demand.t -> int
(** [dil(R,d)]: maximum hop count over paths with positive weight used by
    pairs in the demand's support; [0] for the empty demand. *)

val merge_convex : (Sso_demand.Demand.t * t) list -> t
(** Demand-weighted combination (Lemma 5.15) of parts [(d_i, R_i)]: the
    routing that, for each pair, mixes the parts' distributions
    proportionally to their demands.  Parts are folded left to right, each
    into the merge of those before it weighted by their summed demand.  A
    pair present in one part only keeps that part's distribution.  Its
    congestion on [sum d_i] is at most [sum cong(R_i, d_i)].  Every part
    must be over the same graph value.  @raise Invalid_argument on the
    empty list. *)

val sample_path : Sso_prng.Rng.t -> t -> int -> int -> Sso_graph.Path.t
(** Draw a path from [R(s,t)].  @raise Invalid_argument if the pair is
    absent. *)
