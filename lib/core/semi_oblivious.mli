(** Semi-oblivious routing evaluation (Definition 5.1 and Stage 4/5 of the
    pipeline in Section 2.1).

    Once the demand is revealed, the router may choose rates on the
    candidate paths with full global knowledge; [cong_ℝ(P,d)] is the
    minimum congestion over routings supported on the path system.  The
    competitive ratio divides it by the offline optimum [opt_{G,ℝ}(d)]
    (Stage 5), and "competitiveness with R" divides it by [cong(R,d)]
    (the form Theorem 5.3 is stated in). *)

type solver =
  | Lp  (** Exact simplex (small instances). *)
  | Mwu of int  (** Multiplicative weights with the given iteration count. *)

val default_solver : solver
(** [Mwu 300]. *)

val route :
  ?solver:solver ->
  ?warm_start:Sso_flow.Routing.t * int ->
  ?index:Sso_flow.Slice_candidates.t ->
  Sso_graph.Graph.t -> Path_system.t -> Sso_demand.Demand.t ->
  Sso_flow.Routing.t * float
(** Stage 4: the adaptive min-congestion routing of [d] on [P] and its
    congestion [cong_ℝ(P,d)] (exact for [Lp], near-optimal for [Mwu]).
    Either solver runs on [index] when given, otherwise on
    [Path_system.to_slice_candidates P (supp d)].  A given [index] must
    equal that one: the {!Path_system.unpack_pair} pieces of [supp d]
    in [P], in support order, joined by
    {!Sso_flow.Slice_candidates.concat} (the routing service passes the
    pieces it keeps across ticks, so admitting a commodity costs one
    arena append and no path system rebuild).

    [~warm_start:(r, w)] is the one warm start: Stage-4 re-optimization
    after the demand, the path system or both changed, used by the
    routing service on every warm tick (demand churn, with or without
    failed edges) and by the fault experiments' recovery ladder.  With an
    MWU solver the iteration starts from [r] counted as [w] virtual
    rounds instead of from scratch, so few fresh rounds recover a good
    routing.  [r] is restricted to the pairs [d] demands and to the paths
    [P] still offers (looked up in the slice index): a pair that lost no
    path keeps its distribution verbatim, a pair that lost some has its
    surviving mass renormalized, and a pair left with nothing — or newly
    arrived — is learned by the fresh rounds alone.  The [Lp] solver has
    no incremental form and ignores it.  Output is bit-identical at any
    [--jobs].
    @raise Invalid_argument if some demanded pair has no candidates. *)

val congestion :
  ?solver:solver ->
  Sso_graph.Graph.t -> Path_system.t -> Sso_demand.Demand.t -> float
(** [cong_ℝ(P,d)]. *)

val optimum :
  ?solver:solver ->
  Sso_graph.Graph.t -> Sso_demand.Demand.t -> Sso_flow.Routing.t * float
(** Stage 5: a routing of [d] over all paths and its congestion, the
    offline optimum [opt_{G,ℝ}(d)] — the Dijkstra-oracle MWU by default,
    and with [solver = Lp] the exact path LP grown by column generation
    ({!Sso_flow.Min_congestion.lp_unrestricted}).  Either routing is
    path-based. *)

val opt : ?solver:solver -> Sso_graph.Graph.t -> Sso_demand.Demand.t -> float
(** The value of {!optimum}. *)

val competitive_ratio :
  ?solver:solver ->
  Sso_graph.Graph.t -> Path_system.t -> Sso_demand.Demand.t -> float
(** [cong_ℝ(P,d) / opt_{G,ℝ}(d)] (Stage 5); [1] for empty demands.  With
    an [Mwu] solver both terms are congestions of feasible routings, so
    each is an upper bound on its exact value and the ratio is an
    estimate; [Lp] makes both exact. *)

val competitive_with :
  ?solver:solver ->
  Sso_oblivious.Oblivious.t -> Path_system.t -> Sso_demand.Demand.t -> float
(** [cong_ℝ(P,d) / cong(R,d)] — competitiveness relative to the base
    oblivious routing (Definition 5.1's "C-competitive with R"). *)
