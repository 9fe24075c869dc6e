(** Routings: per-pair distributions over paths (Section 4 of the paper).

    A routing [R] assigns to each vertex pair [(s,t)] in its domain a
    probability distribution [R(s,t)] over simple (s,t)-paths.  Routing a
    demand [d] places weight [d(s,t) · P(R(s,t) = p)] on each path, and the
    congestion of an edge is the total weight crossing it divided by its
    capacity (with unit capacities this is the paper's path count). *)

type t
(** Immutable routing. *)

val make : ((int * int) * (float * Sso_graph.Path.t) list) list -> t
(** Build from per-pair weighted path lists.  Weights must be non-negative
    with a positive sum per pair; they are normalized to a distribution.
    Paths must connect the pair's endpoints.  Duplicate paths within a pair
    are merged.  @raise Invalid_argument on violations. *)

val of_normalized : ((int * int) * (float * Sso_graph.Path.t) list) list -> t
(** Trusted constructor for distributions that are already normalized (as
    returned by {!distribution}): weights are installed {e without}
    re-normalization, so a decode–encode round trip through the artifact
    codecs is bit-identical.  @raise Invalid_argument on duplicate pairs,
    non-positive weights, endpoint mismatches, or per-pair sums farther
    than [1e-6] from 1. *)

val of_sorted : (int * int) array -> (float * Sso_graph.Path.t) list array -> t
(** Trusted constructor for a solver's emission: [of_sorted pairs dists]
    gives pair [pairs.(i)] the distribution [dists.(i)], installed as is,
    with no check and no copy.  [pairs] must be strictly ascending (the
    order of {!Sso_demand.Demand.support}), and each distribution
    normalized, its paths distinct and in descending
    {!Sso_graph.Path.compare} order, as {!make} would leave it.  Neither
    array may be mutated afterwards. *)

val distribution : t -> int -> int -> (float * Sso_graph.Path.t) list
(** The distribution for a pair; [[]] if the pair is absent.  A binary
    search over the pairs. *)

val fold : ((int * int) -> (float * Sso_graph.Path.t) list -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the pairs in ascending order, with their distributions. *)

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
    congestion on [sum d_i] is at most [sum cong(R_i, d_i)]; the empty
    list gives the empty routing. *)

val sample_path : Sso_prng.Rng.t -> t -> int -> int -> Sso_graph.Path.t
(** Draw a path from [R(s,t)].  @raise Invalid_argument if the pair is
    absent. *)
