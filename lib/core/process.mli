(** The proof machinery of Section 5, executable.

    {!weak_route} runs the dynamic process from the proof of Lemma 5.6:
    spread each pair's demand uniformly over its candidate paths, scan the
    edges in a fixed order, and whenever an edge's congestion exceeds the
    allowance [γ] delete every remaining path crossing it.  What survives
    is a sub-demand [d'] routed with congestion ≤ γ; the paper proves that
    with exponentially good probability at least half of [siz(d)] survives
    when the candidates are an [(α+cut)]-sample.  Running it empirically is
    experiment-grade evidence for the concentration argument and doubles as
    a fast (solver-free) feasibility router.

    {!route_by_halving} is the weak-to-strong reduction of Lemma 5.8:
    repeatedly weak-route the not-yet-served demand, keep the pairs that
    retained at least a quarter of their demand (rescaling their rates by
    ≤ 4), and recurse on the rest; after [O(log m)] rounds the leftovers
    are small enough to route arbitrarily. *)

type outcome = {
  kept_demand : Sso_demand.Demand.t;  (** [d' ≤ d], what survived. *)
  kept_routing : Sso_flow.Routing.t option;
      (** [R'] with [cong(R', d') ≤ γ]; [None] when nothing survived. *)
  survived_fraction : float;  (** [siz(d') / siz(d)]; 1 for empty [d]. *)
  deletions : (int * float) list;
      (** Overcongested edges in scan order with the weight deleted at each
          (the [Δ_k > 0] entries of the proof). *)
}

val weak_route :
  gamma:float ->
  Sso_graph.Graph.t -> Path_system.t -> Sso_demand.Demand.t -> outcome
(** Run the process with allowance [γ] (an absolute congestion bound).
    @raise Invalid_argument if a demanded pair has no candidates. *)

val route_by_halving :
  gamma:float ->
  Sso_graph.Graph.t -> Path_system.t -> Sso_demand.Demand.t ->
  Sso_flow.Routing.t * float
(** Lemma 5.8's reduction: returns a routing of the full demand and its
    congestion.  Each round contributes ≤ 4γ congestion and the rounds
    stop once the residual demand is ≤ siz(d)/m (routed greedily on first
    candidates) or ⌈log_{3/2} m⌉ + 8 rounds have run — if the
    weak router keeps stalling (survived fraction ~0) the remaining demand
    is also routed greedily, so the returned congestion can then exceed
    [O(γ log m)]; the paper's high-probability regime avoids this. *)
