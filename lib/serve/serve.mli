(** Long-lived routing service: incremental re-optimization under churn.

    The semi-oblivious scheme is shaped like a daemon: the sparse sampled
    path system is installed {e once} (Stage 2), and only the rates on it
    are re-optimized as traffic changes (Stage 4).  This module is that
    daemon's engine.  It consumes a stream of {!Sso_demand.Update} events
    batched per tick and, for each batch:

    - folds the batch into the active demand ({!Sso_demand.Update.apply});
    - {e admits} newly seen commodities by materializing their candidate
      slices into the shared path arena
      ({!Sso_core.Path_system.materialize} — appends in support order,
      never a rebuild);
    - {e retires} departed commodities (their distributions drop out of
      the warm routing; their arena slices stay, so a returning pair is
      re-admitted for free);
    - re-solves incrementally with {!Sso_core.Semi_oblivious.route}
      [~warm_start], carrying the previous routing as MWU warm-start
      weight, falling back to a cold solve on the first tick and every
      [refresh_every]-th solve thereafter.  The solve's slice index is
      joined from candidates the service keeps unpacked for its active
      pairs ({!Sso_core.Path_system.unpack_pair}): a tick unpacks only
      the pairs new to it, a retired pair drops its candidates, and a
      tick that changes the live system (a fault or repair) drops them
      all.  {!restore} unpacks nothing.

    Three robustness layers wrap that loop (DESIGN.md §14):

    - {e Faults in the loop}: {!step} takes per-tick {!fault} events that
      fail or repair edges.  While edges are down the solve runs on the
      surviving candidates ({!Sso_core.Path_system.filter}), warm
      ticks re-optimize with the same warm-started
      {!Sso_core.Semi_oblivious.route} call (which drops the warm mass on
      dead paths), exactly like the fault-recovery ladder, and pairs left
      with no surviving candidate are excluded from the solve (counted
      [unroutable]) until a repair brings them back.
    - {e Overload shedding}: with a positive [event_budget], a tick
      admits at most that many events; the excess is deferred — requeued
      in order ahead of the next tick's batch and counted in the report.
      An overloaded tick may serve the previous routing unchanged
      ({!mode} [Degraded], restricted to surviving paths) instead of
      re-solving, for at most [max_staleness] consecutive ticks.
    - {e Checkpoint/restore}: {!snapshot} captures the full service state
      as a plain {!state} value and {!restore} rebuilds a service from
      it, re-deriving the arena from the system's own generator and
      refusing ({!Sso_obs.File.Corrupt}) if any regenerated
      candidate slice differs, as packed slot bytes, from the
      checkpointed one.  See {!Checkpoint} for the on-disk format.

    Everything is deterministic: the same stream, seed, configuration,
    and fault schedule produce bit-identical routings, reports, and
    digests at any [--jobs].  Per-tick telemetry flows through [serve.*]
    counters/spans (among them [serve.index_unpacked], the pairs
    unpacked into the kept index, and [serve.index_resets], the
    live-system changes that dropped it) and, when tracing is on, a
    [serve.tick] trace event per batch. *)

type config = {
  solver : Sso_core.Semi_oblivious.solver;
      (** Cold-solve engine (default [Mwu 300]).  Warm ticks need an MWU
          solver; with [Lp] every tick is a cold solve. *)
  warm_iters : int;  (** Fresh MWU rounds per warm tick (default 20). *)
  warm_weight : int;
      (** Virtual rounds the carried routing counts as (default 60). *)
  refresh_every : int;
      (** Cold re-solve every this many solves; [0] (the default) never
          refreshes — the warm chain runs for the service's lifetime. *)
  event_budget : int;
      (** Per-tick admission budget: a tick applies at most this many
          events (deferred leftovers first, then the incoming batch in
          order); the rest carries over to the next tick.  [0] (the
          default) admits everything. *)
  max_staleness : int;
      (** Consecutive ticks allowed to serve the stale routing
          ([Degraded]) when over budget before a real re-solve is
          forced (default 4; [0] never degrades — overloaded ticks
          still shed events but always re-solve). *)
}

val default_config : config

type mode =
  | Cold  (** Full solve from scratch. *)
  | Warm  (** Incremental MWU re-optimization from the previous routing. *)
  | Degraded
      (** Overloaded: the previous routing served as-is (restricted to
          surviving paths), no solve.  Bounded by [max_staleness]. *)

type fault =
  | Fail of int  (** The edge id goes down before the tick's solve. *)
  | Repair of int  (** The edge id comes back. *)

type report = {
  tick : int;
  events : int;
      (** Events {e applied} this tick (deferred leftovers included);
          shed events surface in [deferred] instead. *)
  arrivals : int;
  departures : int;
  rate_changes : int;
  active_pairs : int;  (** Commodities after folding the batch. *)
  admitted : int;
      (** Active pairs new to the path system, materialized into its
          arena this tick.  A pair the system already held (a returning
          commodity, or one installed before the service saw it) is not
          counted. *)
  retired : int;  (** Pairs that left the active set this tick. *)
  deferred : int;
      (** Events shed to the next tick by the [event_budget] policy. *)
  failed_edges : int;  (** Edges down after this tick's fault events. *)
  rerouted : int;
      (** Pairs whose previous routing put weight on an edge that failed
          this tick — the commodities the fault actually displaced. *)
  unroutable : int;
      (** Active pairs with no surviving candidate path; excluded from
          the solve until a repair restores a candidate. *)
  congestion : float;  (** Congestion of the re-optimized routing. *)
  mode : mode;
  staleness : int;
      (** Warm or degraded solves since the last cold solve, this one
          included; [0] on cold ticks. *)
  solve_ns : int;
      (** Wall time of the re-solve — nondeterministic; deterministic
          outputs (JSON, digests) must not include it. *)
  tick_ns : int;
      (** Wall time of the whole tick (admission + solve + bookkeeping) —
          nondeterministic, same contract as [solve_ns]; input to
          {!check_overload}. *)
}

type t

val create : ?config:config -> Sso_graph.Graph.t -> Sso_core.Path_system.t -> t
(** A fresh service over an installed path system (typically a lazy
    α-sample, so admission generates paths on demand).  No solve happens
    until the first {!step}. *)

val system : t -> Sso_core.Path_system.t

val demand : t -> Sso_demand.Demand.t
(** The active demand (empty before the first step). *)

val routing : t -> Sso_flow.Routing.t option
(** The current routing ([None] before the first step). *)

val pending : t -> Sso_demand.Update.t list
(** Events shed by the budget policy, waiting (in order) for the next
    tick. *)

val step : t -> tick:int -> ?faults:fault list -> Sso_demand.Update.t list ->
  report
(** Fold one tick's batch and re-solve.  Ticks must be strictly
    increasing across calls; every event must carry the given tick and
    endpoints within the graph.  [faults] are applied {e before} the
    batch: each [Fail] must name a live in-range edge and each [Repair]
    a currently failed one.  @raise Sso_obs.File.Corrupt on stream
    inconsistencies (wrong tick, out-of-range endpoint, departure of an
    inactive pair, double failure, repair of a healthy edge, ...),
    [Invalid_argument] if a demanded pair has no candidate paths while
    nothing is failed (with failures such pairs are shed as
    [unroutable] instead). *)

val replay :
  ?on_tick:(report -> Sso_flow.Routing.t -> unit) ->
  ?faults:(int * fault list) list ->
  t -> Sso_demand.Update.t list -> report list
(** Drive the service over a whole logged stream, one {!step} per tick
    present in the stream or the fault schedule (fault-only ticks step
    with an empty batch); [faults] maps ticks to fault events and may
    extend past the stream.  After the last tick, deferred events are
    drained on synthetic trailing ticks until the queue is empty, so a
    budgeted replay ends on the same demand as an unbudgeted one.
    [on_tick] observes each report with the tick's routing (e.g. to feed
    the simulator or hash the routing). *)

val faults_of_timeline : Sso_fault.Timeline.t -> (int * fault list) list
(** Bridge a fault timeline into the service: each entry's scenario
    edges fail at [fail_at] and repair at [repair_at] (when present),
    with steps read as ticks.  Within a tick, repairs precede failures,
    so a repair-then-refail schedule is expressible.  Sorted by tick,
    ready for {!replay}.  @raise Invalid_argument if an entry's scenario
    is a degradation (the service models full removals only). *)

val simulate :
  ?discipline:Sso_sim.Simulator.discipline ->
  ?max_steps:int ->
  ?on_tick:(report -> Sso_flow.Routing.t -> unit) ->
  Sso_prng.Rng.t -> period:int -> t -> Sso_demand.Update.t list ->
  Sso_sim.Simulator.load_stats Sso_sim.Simulator.outcome * report list
(** Replay the stream and push the resulting traffic through the packet
    simulator: each tick injects, per active commodity the tick's
    routing covers, [ceil rate] packets on paths drawn from that routing
    (a per-tick [Rng.split_at] child, so the draw is independent of
    [--jobs]), released at [tick * period].  Commodities the routing
    does not cover (e.g. unroutable under failures) inject nothing.
    Returns the timed-load statistics beside the per-tick reports.
    [on_tick] observes each report after the tick's packets are injected
    (e.g. the metrics snapshot writer).  [period] must be positive. *)

(** {1 Checkpointable state}

    {!state} is the full value of a service between ticks — everything
    {!step} reads besides the graph and the path-system generator.  The
    arena is captured as the v2 slice payload of every materialized
    pair ({!Sso_artifact.Codec.encode_path_system_slices}).  {!restore}
    verifies every saved pair against the (per-pair deterministic)
    generator of a freshly sampled system and then installs the saved
    bytes, so a checkpoint from a different seed, α, or base routing is
    rejected as {!Sso_obs.File.Corrupt} rather than silently
    resumed. *)

type state = {
  s_tick : int;  (** [last_tick]; [-1] before the first step. *)
  s_since_cold : int;
  s_degraded_streak : int;
  s_demand : Sso_demand.Demand.t;
  s_routing : Sso_flow.Routing.t option;
  s_pending : Sso_demand.Update.t list;
  s_failed : int list;  (** Failed edge ids, strictly ascending. *)
  s_system : string;
      (** v2 slice payload of every pair the system has materialized
          ({!Sso_core.Path_system.known_pairs}, sorted). *)
}

val snapshot : t -> state
(** Capture the service between ticks.  Pure read — the service keeps
    running. *)

val restore :
  ?config:config -> Sso_graph.Graph.t -> Sso_core.Path_system.t -> state -> t
(** Rebuild a service from a snapshot over a freshly created system
    (same graph, same sampler seed).  The payload is decoded into a
    scratch arena over the system's graph
    ({!Sso_artifact.Codec.decode_path_system_slices}), and every pair,
    demand endpoint, deferred event and failed edge is range-checked.
    Then {!Sso_core.Path_system.adopt} verifies the checkpointed pairs
    in canonical (sorted) order: each pair's candidate count and each
    path, edge by edge, must equal what the system's generator draws
    (or, for a pair the system already holds, its installed slices),
    and every pair passes the install check.  Only then are the saved
    bytes of the pairs not yet installed copied into the system's
    arena, in that order, so over a fresh system the arena is
    byte-identical to materializing the pairs in sorted order.  The
    check costs one generator call per missing pair; no generated path
    is encoded and no boxed path is built from the payload.  The error
    names the first pair that disagrees.  Traced as [serve.restore],
    with [restore.decode], [restore.verify] and [restore.install]
    children.
    @raise Sso_obs.File.Corrupt if the payload is damaged, the
    regenerated candidates differ (wrong seed/α/base), or any endpoint,
    edge id, or failed-edge list is out of contract.  A rejected
    snapshot leaves [system] unchanged: no index entry, no arena
    bytes. *)

(** {1 Telemetry and SLO}

    Every {!step} feeds rolling quantiles [serve.tick_ns] /
    [serve.admit_ns] / [serve.solve_ns] (and {!simulate} [serve.inject_ns])
    plus [serve.staleness], [serve.failed_edges] and
    [serve.updates_per_sec] gauges in the {!Sso_obs.Obs} registry.  All
    wall-clock: they surface only through [Obs.snapshot]/[Obs.expose],
    never in reports, digests, or trace payloads. *)

val write_metrics : path:string -> unit
(** Snapshot the registry (GC gauges sampled) as Prometheus text
    exposition to [path], atomically ({!Sso_obs.File.write}): an
    interrupted write never leaves a stale [.tmp] beside the target.
    @raise Sso_obs.File.Unreadable when the write fails. *)

type slo = {
  p99_budget_ms : float;  (** The budget checked against. *)
  p99_ms : float;  (** Nearest-rank p99 of per-tick [solve_ns], in ms. *)
  burns : int;  (** Ticks whose solve exceeded the budget. *)
  burned : bool;  (** [p99_ms] exceeds the budget. *)
}

val check_slo : budget_ms:float -> report list -> slo
(** Evaluate a replay's per-tick solve latencies against a p99 budget
    (the nearest-rank index the bench suite reports).  An empty report
    list yields [p99_ms = 0.] and no burn.  Wall-clock based — callers
    must keep the verdict out of deterministic output ([sso serve replay
    --slo-p99-ms] reports on stderr and signals burn via exit code 12).
    @raise Invalid_argument if [budget_ms <= 0]. *)

type overload = {
  budget_tick_ms : float;  (** The per-tick wall budget checked. *)
  max_tick_ms : float;  (** Slowest tick observed, in ms. *)
  slow_ticks : int;  (** Ticks over budget. *)
  overloaded : bool;  (** [slow_ticks > 0]. *)
}

val check_overload : budget_ms:float -> report list -> overload
(** The wall-clock face of the overload policy: flag every tick whose
    total wall time ([tick_ns]) exceeded the budget.  Same contract as
    {!check_slo} — stderr/exit-code only, never in deterministic output
    ([sso serve replay --overload-ms], exit 12 when overloaded).
    @raise Invalid_argument if [budget_ms <= 0]. *)
