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

val distribution : t -> int -> int -> (float * Sso_graph.Path.t) list
(** The distribution for a pair; [[]] if the pair is absent. *)

val pairs : t -> (int * int) list

val covers : t -> Sso_demand.Demand.t -> bool
(** Does the routing define a distribution for every pair in the demand's
    support? *)

val congestion : Sso_graph.Graph.t -> t -> Sso_demand.Demand.t -> float
(** [cong(R,d) = max_e load_e / cap_e]; [0] for the empty demand. *)

val dilation : t -> Sso_demand.Demand.t -> int
(** [dil(R,d)]: maximum hop count over paths with positive weight used by
    pairs in the demand's support; [0] for the empty demand. *)

val merge_convex :
  Sso_demand.Demand.t * t -> Sso_demand.Demand.t * t -> t
(** Demand-weighted combination (Lemma 5.15): the routing that, for each
    pair, mixes the two distributions proportionally to the two demands.
    Pairs present in only one argument keep that argument's distribution.
    Its congestion on [d1 + d2] is at most [cong(R1,d1) + cong(R2,d2)]. *)

val sample_path : Sso_prng.Rng.t -> t -> int -> int -> Sso_graph.Path.t
(** Draw a path from [R(s,t)].  @raise Invalid_argument if the pair is
    absent. *)
