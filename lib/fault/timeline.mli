(** Timed fault scenarios and mid-flight failover.

    A timeline schedules scenarios onto simulation steps: each entry fails
    its scenario's edges at step [fail_at] and optionally repairs them at
    [repair_at].  {!simulate} replays an integral path assignment through
    {!Sso_sim.Simulator.run_faulted} with the {e candidate failover}
    policy: a packet hit by a failure continues on a surviving candidate
    path of the installed path system — the semi-oblivious robustness
    story made operational.  Everything is deterministic for fixed inputs
    (the simulation itself is sequential). *)

type entry = {
  scenario : Scenario.t;
  fail_at : int;  (** Step (≥ 1) at which the scenario strikes. *)
  repair_at : int option;  (** Step (> [fail_at]) restoring full capacity. *)
}

type t = entry list

val entry : ?repair_at:int -> at:int -> Scenario.t -> entry
(** @raise Invalid_argument if [at < 1] or [repair_at ≤ at]. *)

val simulate :
  ?discipline:Sso_sim.Simulator.discipline ->
  ?max_steps:int ->
  Sso_graph.Graph.t ->
  Sso_core.Path_system.t ->
  Sso_flow.Rounding.assignment ->
  t ->
  Sso_sim.Simulator.fault_stats Sso_sim.Simulator.outcome
(** Run the assignment under the timeline with the candidate failover
    policy drawing replacement routes from the path system: a packet
    whose next edge is down continues on a surviving candidate of its
    pair, preferring one already passing through the packet's current
    vertex (it takes that candidate's suffix); otherwise it bridges — BFS
    over alive edges from the current vertex to the nearest vertex of the
    first surviving candidate, then that candidate to the destination.
    With no surviving candidate, or no bridge, the packet is dropped.
    Deterministic: candidates are scanned in path-system order and the
    BFS visits edges in CSR order.  Emits
    [fault.timeline] spans and [fault.dropped]/[fault.rerouted] counters.
    When every demanded pair retains at least one surviving candidate and
    bridges exist (e.g. a torus row SRLG), the run reports [dropped = 0]. *)
