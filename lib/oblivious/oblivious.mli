(** Oblivious routings.

    An oblivious routing fixes, for every vertex pair, a distribution over
    simple paths {e before} any demand is seen.  The semi-oblivious
    construction of the paper samples its candidate paths from exactly such
    a distribution, so this type is the substrate Theorem 5.3 builds on.

    Distributions are produced lazily per pair and memoized, because some
    routings (e.g. Valiant's trick) have supports of size Θ(n) per pair and
    most experiments only touch the pairs in a demand's support. *)

type t

val make :
  name:string ->
  Sso_graph.Graph.t ->
  (int -> int -> (float * Sso_graph.Path.t) list) ->
  t
(** [make ~name g dist] wraps a per-pair distribution generator.  For every
    [s <> t], [dist s t] must return a non-empty list of weighted
    (s,t)-paths (weights need not be normalized; they are when used).  The
    generator is called at most once per pair. *)

val name : t -> string

val graph : t -> Sso_graph.Graph.t

val distribution : t -> int -> int -> (float * Sso_graph.Path.t) list
(** Memoized, normalized distribution for a pair ([s <> t]). *)

val preload : t -> ((int * int) * (float * Sso_graph.Path.t) list) list -> unit
(** Install already-normalized distributions (as previously returned by
    {!distribution}) into the memo cache, bypassing re-normalization so the
    installed weights are bit-identical to the originals.  This is how the
    artifact store warm-starts a routing: cached pairs answer from the
    preloaded table, uncached pairs fall through to the generator.
    @raise Invalid_argument on empty lists, non-positive weights, or
    endpoint mismatches. *)

val sampler : t -> int -> int -> Sso_prng.Rng.t -> Sso_graph.Path.t
(** [sampler r s t] looks the distribution up once and returns a drawer:
    each application draws one path from [R(s,t)] with a single
    [Rng.discrete] call — the sampling primitive behind α-samples, which
    draw α times per pair. *)

val sample : Sso_prng.Rng.t -> t -> int -> int -> Sso_graph.Path.t
(** Draw one path from [R(s,t)]: [sampler r s t rng]. *)

val to_routing : t -> (int * int) list -> Sso_flow.Routing.t
(** Restriction of the oblivious routing to a finite set of pairs, as a
    {!Sso_flow.Routing.t} (used to evaluate [cong(R,d)]). *)

val congestion : t -> Sso_demand.Demand.t -> float
(** Expected congestion [cong(R,d)] of obliviously routing [d]. *)

val dilation : t -> Sso_demand.Demand.t -> int
(** Max hops over support paths of pairs in [supp(d)]. *)

val support_sparsity : t -> (int * int) list -> int
(** Largest per-pair support size among the given pairs — what "sparsity"
    would mean for the oblivious routing itself (Section 1.1 argues this is
    inherently large for competitive routings, unlike semi-oblivious
    candidate systems). *)
