(** Oblivious routings.

    An oblivious routing fixes, for every vertex pair, a distribution over
    simple paths {e before} any demand is seen.  The semi-oblivious
    construction of the paper samples its candidate paths from exactly such
    a distribution, so this type is the substrate Theorem 5.3 builds on.

    Distributions are produced lazily per pair and memoized, because some
    routings (e.g. Valiant's trick) have supports of size Θ(n) per pair and
    most experiments only touch the pairs in a demand's support.  A routing
    built by {!mixture} goes one step further: its {!sampler} routes only
    the components it draws, so an α-sample of a k-component mixture costs
    at most α routes per pair, not k. *)

type t

val make :
  name:string ->
  Sso_graph.Graph.t ->
  (int -> int -> (float * Sso_graph.Path.t) list) ->
  t
(** [make ~name g dist] wraps a per-pair distribution generator.  For every
    [s <> t], [dist s t] must return a non-empty list of weighted
    (s,t)-paths (weights need not be normalized; they are when used).  The
    generator is called at most once per pair: {!distribution} and
    {!sampler} both go through the memo cache.  Use it for routings whose
    support is produced jointly (k shortest paths, hop-constrained,
    deterministic); a fixed mixture of independently routed components
    should be a {!mixture}. *)

val mixture :
  name:string ->
  Sso_graph.Graph.t ->
  float array ->
  (int -> int -> int -> Sso_graph.Path.t) ->
  t
(** [mixture ~name g weights route] is the routing that, for every pair,
    takes component [i] with probability proportional to [weights.(i)]
    and routes it along [route s t i] (an (s,t)-path; [route] must be
    deterministic).  Its {!distribution} is
    [List.init k (fun i -> (w_i, route s t i))], with the weights
    normalized as for {!make}, and is memoized the same way.  Its
    {!sampler} draws from the same normalized weights but routes only the
    components it draws.  The weights are normalized once, here.
    @raise Invalid_argument if [weights] is empty or has an entry that is
    not positive. *)

val name : t -> string

val graph : t -> Sso_graph.Graph.t

val distribution : t -> int -> int -> (float * Sso_graph.Path.t) list
(** Memoized, normalized distribution for a pair ([s <> t]). *)

val sampler : t -> int -> int -> Sso_prng.Rng.t -> Sso_graph.Path.t
(** [sampler r s t] returns a drawer: each application draws one path
    from [R(s,t)] with a single [Rng.discrete] call — the sampling
    primitive behind α-samples, which draw α times per pair.  A routing
    built by {!make}, and a pair whose distribution is already cached
    (by an earlier {!distribution} call), draw from the memoized
    distribution.
    Otherwise a {!mixture} draws a component from its normalized weights
    and routes it on first draw only, under the routing's lock; the drawer
    keeps the components it has routed and never fills the distribution
    cache.  Either way the RNG is consumed the same and the same paths
    come out.  A drawer belongs to one caller; the routing itself may be
    shared by pool workers. *)

val congestion : t -> Sso_demand.Demand.t -> float
(** Expected congestion [cong(R,d)] of obliviously routing [d]. *)

val support_sparsity : t -> (int * int) list -> int
(** Largest per-pair support size among the given pairs — what "sparsity"
    would mean for the oblivious routing itself (Section 1.1 argues this is
    inherently large for competitive routings, unlike semi-oblivious
    candidate systems). *)
