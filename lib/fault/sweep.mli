(** Offline fault sweeps: congestion under failure, generalized over
    {!Scenario}.

    For each scenario the sweep drops the dead candidate paths, scales the
    degraded capacities, re-optimizes Stage-4 rates on the survivors, and
    compares against the optimum of the damaged network.  Over {!singles}
    it is the single-link failure analysis (bench E14); other scenario
    sets make it multi-failure and capacity-aware.  Optionally it also
    measures {e time-to-recover}: how many warm-started MWU rounds
    ({!Sso_core.Semi_oblivious.route} [~warm_start]) bring the
    post-failure routing within tolerance of the from-scratch solution.

    Scenarios are evaluated concurrently on the engine pool; the report
    list is identical for any [--jobs].  With a store, per-scenario
    results are cached under a recipe keyed by the graph, demand, path
    system, scenario, solver, and recovery settings, so warm sweeps skip
    the solves entirely and remain byte-identical to cold ones. *)

type report = {
  scenario : Scenario.t;
  connected : bool;
      (** The damaged network can still route the demand at all. *)
  survivable : bool;
      (** Connected, and every demanded pair kept a candidate path. *)
  achieved : float;
      (** Stage-4 congestion on surviving candidates over the damaged
          graph; [infinity] when unsurvivable. *)
  post_opt : float;  (** Optimum congestion of the damaged network. *)
  ratio : float;  (** [achieved / post_opt]; [infinity] if unsurvivable. *)
  recovery_rounds : int;
      (** Smallest ladder rung of warm-started MWU rounds whose congestion
          is within tolerance of [achieved]; [-1] when recovery was not
          measured or no rung sufficed. *)
  warm_congestion : float;
      (** Congestion at the reported rung ([nan] when not measured). *)
}

val singles : Sso_graph.Graph.t -> Scenario.t list
(** One single-edge-removal scenario per edge, in id order — makes the
    classic sweep a special case of {!run}. *)

val run :
  ?solver:Sso_core.Semi_oblivious.solver ->
  ?store:Sso_artifact.Store.t ->
  ?system_key:string ->
  ?recovery:bool ->
  Sso_graph.Graph.t ->
  Sso_core.Path_system.t ->
  Sso_demand.Demand.t ->
  Scenario.t list ->
  report list
(** One report per scenario, in input order.  [system_key] names the path
    system (e.g. the sampling fingerprint) and is required for caching:
    without it, results are computed but never stored.  [recovery]
    (default [false]) additionally solves the pre-failure Stage-4 routing
    once and measures warm-started time-to-recover per survivable
    scenario: it tries 10, 20, 40 and 80 MWU rounds in turn, each warm
    started with the pre-failure routing worth 60 rounds, and accepts the
    first within [1.05 · achieved].  Emits the
    [fault.sweep] span and the [fault.scenarios] counter. *)

type summary = {
  scenarios : int;
  disconnected : int;  (** Failures the network itself cannot absorb. *)
  unsurvivable : int;
      (** Connected failures the candidate set could not absorb. *)
  mean_ratio : float;  (** Over survivable scenarios; [nan] when none. *)
  worst_ratio : float;  (** Likewise [nan] when none. *)
  mean_recovery_rounds : float;
      (** Over scenarios with measured recovery; [nan] when none. *)
}

val summary : report list -> summary

val worst_k :
  ?solver:Sso_core.Semi_oblivious.solver ->
  ?store:Sso_artifact.Store.t ->
  ?system_key:string ->
  ?candidates:int ->
  Sso_graph.Graph.t ->
  Sso_core.Path_system.t ->
  Sso_demand.Demand.t ->
  k:int ->
  report
(** Adversarial correlated failure: greedy search for a worst [k]-edge
    set.  Seeds with the single-failure sweep, keeps the [candidates]
    (default 8) most damaging edges as the candidate pool, then grows the
    set one edge at a time, always adding the edge maximizing the
    congestion ratio (deterministic tie-break: pool order).  Stops early
    once the set disconnects the network or exhausts the pool.  Greedy is
    a heuristic — a true worst set is NP-hard — but it reliably finds
    correlated sets far worse than any single failure.  Emits the
    [fault.worst_k] span. *)
