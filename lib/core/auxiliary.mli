(** The auxiliary-graph construction of Corollary 6.2.

    To derive α-sample results from the (α+cut)-sample theorem, the paper
    builds [G₂]: for each vertex pair [(s,t)] of interest, two fresh
    terminals [v₁, v₂] attached by single edges [v₁–s] and [t–v₂].  Then
    [cut_{G₂}(v₁, v₂) = 1], so an [(α−1+cut)]-sample between the terminals
    draws exactly [α] paths, and those paths project back to (s,t)-paths
    of [G] with the same distribution as a direct α-sample.  This module
    makes the reduction executable so tests can check its two load-bearing
    facts: the unit terminal cuts, and the congestion correspondence
    [cong_{G₂}(R₂, d₂) = max(cong_G(R, d), max_{s,t} d(s,t))]. *)

type t
(** An expansion of a base graph for a fixed list of pairs. *)

val expand : Sso_graph.Graph.t -> pairs:(int * int) list -> t
(** Build [G₂] with one terminal pair per listed (distinct) vertex pair.
    Terminal edges get capacity 1 ([G]'s own edges keep theirs). *)

val graph : t -> Sso_graph.Graph.t
(** The expanded graph [G₂] (base vertices keep their ids). *)

val terminals : t -> int -> int -> int * int
(** [(v₁, v₂)] for a listed pair.  @raise Not_found otherwise. *)

val lift_oblivious : t -> Sso_oblivious.Oblivious.t -> Sso_oblivious.Oblivious.t
(** [R₂]: between terminals of a listed pair, route [v₁ → s → ⋯ → t → v₂]
    with the inner part drawn from [R]; between other pairs the
    distribution is inherited when both endpoints are base vertices.
    Terminal pairs not listed are rejected. *)

val lift_demand : t -> Sso_demand.Demand.t -> Sso_demand.Demand.t
(** [d₂]: move each [d(s,t)] onto the corresponding terminal pair. *)

val alpha_sample_via_expansion :
  Sso_prng.Rng.t -> t -> Sso_oblivious.Oblivious.t -> alpha:int -> Path_system.t
(** The Corollary 6.2 pipeline: an [(α−1+cut)]-sample of the lifted
    routing between terminals, projected back to [G].  Distributionally
    identical to [Sampler.alpha_sample ~alpha] (tested).  Requires
    [α ≥ 2]. *)
