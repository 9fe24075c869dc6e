(** Min-congestion multicommodity-flow solvers.

    These implement Stage 4 of the semi-oblivious pipeline — given the
    revealed demand, pick the congestion-minimizing fractional routing on
    the candidate path system — and the offline optimum [opt_{G,ℝ}(d)] the
    competitive ratio compares against.

    Two engines are provided and cross-validated in the test suite:

    - an exact LP (path formulation, dense simplex) for small instances,
      on the candidates for Stage 4 and grown by column generation for
      the unrestricted optimum;
    - a multiplicative-weights (no-regret game) solver with one round loop
      whose best responses come from a {!Best_response} store: candidate
      indices for path-restricted routing and interned Dijkstra paths for
      the unrestricted optimum.  It is the only engine at experiment
      scale.

    Both Stage-4 engines read the candidate set P in one representation,
    a {!Slice_candidates} index (built by
    {!Sso_core.Path_system.to_slice_candidates}): the flat per-pair table
    the solvers walk in place. *)

(** What every solver returns. *)
type solution = {
  routing : Routing.t;
  congestion : float;
      (** [Routing.congestion] of [routing]: recomputed from its loads by
          the MWU solvers, the simplex objective for the LPs. *)
}

val lp_on_slices :
  Sso_graph.Graph.t -> Slice_candidates.t -> Sso_demand.Demand.t -> solution
(** Exact minimum congestion of fractionally routing [d] where each pair
    only uses its candidate paths: one variable per candidate of each
    demanded pair, in generation order.  Returns an optimal routing.
    @raise Invalid_argument if some demanded pair has no candidates.
    Intended for instances with up to a few thousand (pair, path)
    variables. *)

val mwu_on_slices :
  ?iters:int ->
  ?warm:Routing.t * int ->
  Sso_graph.Graph.t -> Slice_candidates.t -> Sso_demand.Demand.t -> solution
(** Approximate version of {!lp_on_slices} via multiplicative weights
    ([iters] defaults to 300; error decays as [O(1/√iters)]).  Results
    are bit-identical for any [--jobs].
    @raise Invalid_argument if some demanded pair has no candidates.

    The rounds keep their state per slot class
    ({!Best_response.classes}: edges crossed by the same candidates,
    with equal capacity) and copy each class weight out to its edges
    before pricing.  Edges of a class receive the same loads in the same
    order, so the result is bit-identical to a per-edge round loop; a
    solve too short to repay the class pass, or whose classes barely
    merge, runs the per-edge loop itself.

    [~warm:(r, w)] re-optimizes incrementally: the MWU starts from the
    routing [r] counted as [w] (positive) already-played rounds, then runs
    [iters] fresh rounds.  This is the traffic-engineering control loop —
    when the demand drifts or a few candidates fail between snapshots, a
    handful of warm rounds recovers near-optimal rates at a fraction of a
    cold solve's cost.  [r] is restricted to the demanded pairs and to the
    paths the index still offers: a pair that lost no path keeps its
    distribution verbatim, a pair that lost some has its surviving mass
    renormalized, and a pair left with nothing (or absent from [r]) is
    learned by the fresh rounds alone. *)

val lp_unrestricted : Sso_graph.Graph.t -> Sso_demand.Demand.t -> solution
(** Exact [opt_{G,ℝ}(d)] and an optimal routing: the path LP of
    {!lp_on_slices} over all paths, grown by column generation from one
    min-hop path per pair.  A pair gains its Dijkstra path under
    [w_e = -y_e] (the capacity duals) when that is shorter than its
    demand dual beyond a [1e-9] relative tolerance; once none does, the
    duals prove the value.  Dense — meant for small graphs.
    @raise Invalid_argument if a demanded pair is disconnected. *)

val mwu_unrestricted :
  ?iters:int ->
  ?avoid:(int -> bool) ->
  Sso_graph.Graph.t -> Sso_demand.Demand.t -> solution option
(** Approximate [opt_{G,ℝ}(d)] with a Dijkstra best-response oracle.  The
    returned routing is supported on the paths the oracle produced, and
    never uses an edge for which [avoid] holds (the post-failure optimum
    of the robustness experiments; by default no edge is avoided).
    [None] if a demanded pair has no path that avoids those edges.

    Each round groups the demand's support by source — [Demand.support]
    is sorted, so groups are consecutive runs — and answers all of a
    source's targets from one Dijkstra pass over the round's flat weight
    array that stops once they have settled
    ({!Sso_graph.Shortest.dijkstra_targets}).  The routing is
    bit-identical for any [--jobs].  Each search adds its settled
    vertices to the [mwu.sssp_settled] counter. *)

val lower_bound_sparse_cut : Sso_graph.Graph.t -> Sso_demand.Demand.t -> float
(** A cheap certified lower bound on [opt_{G,ℝ}(d)]: the max over demanded
    pairs of [d(s,t) / cut-capacity(s,t)], and the average-load bound
    [siz(d) · (min-hop distance) / total capacity].  The tests use it as
    an independent check of the optima from below. *)
