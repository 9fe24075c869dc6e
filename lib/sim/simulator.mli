(** Store-and-forward packet simulation.

    The paper's completion-time objective (Section 7) rests on the classic
    scheduling fact [LMR94]: packets routed on fixed paths with congestion
    [c] and dilation [d] can all be delivered in [O(c + d)] synchronous
    steps.  This module makes that operational: it simulates the
    packet-by-packet delivery of an integral path assignment and reports
    the actual makespan, so experiments can check that minimizing
    congestion + dilation really minimizes delivery time — the reason the
    objective matters to traffic engineering [KYY+18].

    Model: time proceeds in synchronous steps.  Each packet occupies a
    vertex and follows its preassigned path.  In one step an edge transmits
    at most [⌊cap⌋] packets (at least 1) {e per direction}.  Contending
    packets are ordered by the queue discipline.

    {!run}, {!run_faulted} and {!run_timed} drive one and the same step
    loop.  They differ only in when packets are released, whether
    capacities change mid-run, and which statistics they report. *)

type discipline =
  | Fifo  (** Earlier-injected packet first (ties by packet id). *)
  | Random_rank of Sso_prng.Rng.t
      (** Each packet draws one random rank at injection; highest rank
          first at every edge — the random-delay scheme behind the
          O(c + d) bound of [LMR94]. *)
  | Longest_remaining
      (** Most hops still to travel first — a practical heuristic. *)

type stats = {
  makespan : int;  (** Steps simulated (arrival of the last packet when the
                       run completed). *)
  delivered : int;
      (** Packets that reached their destination.  Equals the total packet
          count on a {!Completed} run with no drops; strictly less when the
          step budget ran out ({!Out_of_budget}) or packets were dropped by
          a fault ({!run_faulted}). *)
  max_queue : int;
      (** Largest number of packets simultaneously waiting to cross one
          (edge, direction). *)
  total_waits : int;
      (** Total packet-steps spent waiting (0 for uncontended traffic). *)
}

(** {1 Outcomes}

    Runs are bounded by a step budget.  Instead of raising when the budget
    runs out, every simulation returns a typed outcome carrying the
    statistics accumulated so far, so callers can distinguish "finished"
    from "gave up" without losing the partial data. *)

type 'a outcome =
  | Completed of 'a  (** Every surviving packet was delivered. *)
  | Out_of_budget of 'a
      (** The step budget was exhausted with packets still in flight; the
          payload holds partial statistics ([delivered < total]). *)

val value : 'a outcome -> 'a
(** The statistics, complete or partial. *)

val completed_exn : 'a outcome -> 'a
(** The statistics of a completed run.
    @raise Failure on {!Out_of_budget} — for call sites where exhausting
    the budget can only mean a bug in the schedule under test. *)

val run :
  ?discipline:discipline ->
  ?max_steps:int ->
  Sso_graph.Graph.t -> Sso_flow.Rounding.assignment -> stats outcome
(** Simulate the assignment to completion.  Packets with empty paths
    ([s = t]) are delivered at time 0.  [max_steps] (default
    [64 · (c·d + c + d + 1)], far above any schedule this model admits)
    bounds the run; exceeding it yields {!Out_of_budget} with the partial
    statistics.  [discipline] defaults to {!Fifo}. *)

val lower_bound : Sso_graph.Graph.t -> Sso_flow.Rounding.assignment -> int
(** [max(dilation, max over (edge, direction) of ⌈packets / ⌊cap⌋⌉)] — the
    simulator's service model moves at most [⌊cap⌋] (at least one)
    packets per step across an edge in each direction, so no schedule of
    {!run} can beat it. *)

val upper_bound_cd : Sso_graph.Graph.t -> Sso_flow.Rounding.assignment -> int
(** The trivial schedule bound [c·d + d]: every packet waits at most [c-1]
    steps per hop. *)

(** {1 Fault injection}

    A faulted run replays an assignment while edge capacities change at
    scheduled steps: an edge can die (factor 0), degrade (factor in
    (0,1)), or be repaired (factor restored).  When an edge on a packet's
    remaining route dies, the packet {e fails over}: the caller's policy
    proposes a replacement route from the packet's current vertex over the
    surviving edges (typically a surviving candidate path of the
    installed path system — see [Sso_fault.Timeline]), or the packet is
    dropped when no such route exists.  The simulator itself stays
    policy-agnostic, which keeps this library independent of the path
    system layer. *)

type edge_change = {
  edge : int;  (** Edge id whose capacity changes. *)
  at_step : int;  (** Step (≥ 1) at the start of which the change applies. *)
  factor : float;
      (** New capacity factor: 0 removes the edge, values in (0,1) degrade
          it (transmission width [max 1 ⌊cap·factor⌋] while alive), 1
          restores it.  Repairs do not move already-rerouted packets back. *)
}

type fault_stats = {
  base : stats;  (** [delivered] excludes dropped packets. *)
  dropped : int;  (** Packets with no surviving route after a failure. *)
  rerouted : int;  (** Packets that failed over onto a replacement route. *)
  recovery_makespan : int;
      (** Steps from the first edge death until the last rerouted packet
          arrived; 0 when nothing was rerouted. *)
}

val run_faulted :
  ?discipline:discipline ->
  ?max_steps:int ->
  changes:edge_change list ->
  failover:
    (pair:int * int ->
    at_vertex:int ->
    alive:(int -> bool) ->
    Sso_graph.Path.t option) ->
  Sso_graph.Graph.t -> Sso_flow.Rounding.assignment -> fault_stats outcome
(** Simulate the assignment under the given capacity changes.  At the
    start of each step, due changes apply; if any edge died, every packet
    whose remaining route crosses a dead edge consults [failover] with its
    demand [pair], its current [at_vertex], and the liveness predicate
    [alive].  A [Some route] answer must start at [at_vertex], end at the
    packet's destination, and use only alive edges ([Invalid_argument]
    otherwise); [None] drops the packet.  The default step budget grows
    with each reroute, so failovers onto long detours are not misreported
    as budget exhaustion.  Deterministic for fixed inputs: changes apply
    in (step, edge) order and the failover policy sees packets in packet-id
    order. *)

(** {1 Timed injection}

    {!run} and {!run_faulted} release every packet at step 0 and measure
    makespan; traffic engineering also cares about per-packet {e latency}
    under sustained load.  A timed run gives each packet its own release
    step (FIFO serves earlier releases first) and reports latency
    statistics (arrival − release − hops = queueing delay). *)

type timed_packet = {
  pair : int * int;
  route : Sso_graph.Path.t;
  release : int;  (** First step at which the packet may move (≥ 0). *)
}

type load_stats = {
  finish_time : int;  (** Step at which the last delivered packet arrived. *)
  packets : int;  (** Packets injected. *)
  delivered : int;  (** Packets that arrived (all of them on {!Completed}). *)
  mean_latency : float;  (** Mean (arrival − release) over delivered. *)
  p99_latency : float;
  mean_queueing : float;  (** Mean (latency − hops): pure waiting. *)
  peak_queue : int;
}

val run_timed :
  ?discipline:discipline ->
  ?max_steps:int ->
  Sso_graph.Graph.t -> timed_packet list -> load_stats outcome
(** Simulate to completion.  [max_steps] defaults to a generous bound
    derived from total load and path lengths; exhausting it yields
    {!Out_of_budget} with latency statistics over the delivered packets
    only. *)
