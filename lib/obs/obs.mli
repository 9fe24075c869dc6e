(** Deterministic tracing + metrics.

    Two layers share one module:

    - {b Always-on aggregates} — counters, spans (wall time + calls), and
      log-scale histograms in a thread-safe registry, rendered by
      [metrics_table]/[metrics_json] for [--metrics].
    - {b Trace events} — gated by [set_tracing].  When tracing is off,
      [event] is a flag test and [traced] runs its thunk directly; call
      sites guard attribute construction with [tracing ()] so the
      disabled path allocates nothing.

    Every trace event carries a deterministic [(slot, seq)] key: [slot]
    identifies the emitting stream (the main thread between parallel
    regions, or one task of a parallel region), [seq] its position within
    that stream.  The engine pool pre-assigns one slot per task
    ({!reserve_slots} / {!in_task}), so sorting by [(slot, seq)] recovers
    the serial execution order no matter how many domains actually ran the
    tasks — traces are identical at any [--jobs].  See DESIGN.md §8. *)

val now_ns : unit -> int
(** Wall clock in integer nanoseconds. *)

(** {1 Tracing switch} *)

val set_tracing : bool -> unit
val tracing : unit -> bool

(** {1 Deterministic streams} — used by [Engine.Pool]; most code never
    calls these. *)

val reserve_slots : int -> int
(** Atomically reserve [n] consecutive stream slots; returns the first. *)

val span_depth : unit -> int
(** The current domain's span nesting depth. *)

val in_task : depth:int -> int -> (unit -> 'a) -> 'a
(** Run the thunk with a fresh stream on the given slot, at span depth
    [depth] (the submitter's {!span_depth}, read when the region reserved
    its slots), restoring the caller's stream and depth afterwards.  A
    task's spans then report the same depths inline or on a worker, and
    nest under the span that was open when the region was submitted. *)

val fresh_stream : unit -> unit
(** Drop the current domain's stream; the next event lazily reserves a
    new, strictly higher slot.  Called after a parallel region so the
    caller's subsequent events sort after the region's tasks. *)

(** {1 Trace events} *)

val event : ?attrs:(string * Trace.value) list -> string -> unit
(** Emit a point event (no-op when tracing is off). *)

val traced : ?attrs:(string * Trace.value) list -> string -> (unit -> 'a) -> 'a
(** Trace-only span: emits a span event on exit (duration, nesting depth)
    without touching the metrics registry.  When tracing is off this is
    exactly [f ()]. *)

(** {1 Metrics registry} *)

type counter
type span
type histogram

val counter : string -> counter
(** Find or create; same name returns the same (physically equal) counter. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val histogram : string -> histogram
(** Log2-bucketed histogram of non-negative integer samples. *)

val observe : histogram -> int -> unit

val span : string -> span
(** Find or create.  Also registers a ["span." ^ name] duration histogram
    fed by every [with_span] call. *)

val with_span : ?attrs:(string * Trace.value) list -> span -> (unit -> 'a) -> 'a
(** Run the closure, accumulating wall time and one call (also on
    exceptions).  When tracing is on, additionally emits a span trace
    event carrying [attrs]. *)

val time : string -> (unit -> 'a) -> 'a
val span_total_ns : span -> int
val span_calls : span -> int

(** {1 Gauges and rolling quantiles}

    Live telemetry primitives for the serve loop.  Both carry wall-clock
    (or otherwise nondeterministic) values, so they are {e excluded from
    every deterministic output path} — digests, replay JSON, trace event
    payloads.  They surface only through {!snapshot}/{!expose}.  See
    DESIGN.md §13. *)

type gauge
type quantile

val gauge : string -> gauge
(** Find or create; same name returns the same (physically equal) gauge. *)

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val default_quantile_window : int
(** Window size used by {!quantile} when [?window] is omitted (1024). *)

val quantile : ?window:int -> string -> quantile
(** Find or create a rolling-window quantile sketch.  Observations land
    in log2 buckets (the {!histogram} scheme); only the most recent
    [window] observations count toward estimates.  Deterministic given
    the same observation sequence.
    @raise Invalid_argument if [window < 1]. *)

val observe_quantile : quantile -> int -> unit
(** Record a non-negative integer sample (negatives clamp to bucket 0),
    evicting the oldest sample once the window is full. *)

val quantile_estimate : quantile -> float -> float
(** [quantile_estimate q p] estimates the [p]-quantile over the current
    window as the upper boundary of the log2 bucket containing the rank
    [ceil (p * len)] sample ([2^(b+1)-1]; bucket 0 quotes [1.0]) — exact
    bucket arithmetic, so jobs- and platform-invariant for a fixed
    observation sequence.  Returns [nan] on an empty window.
    @raise Invalid_argument unless [0 < p <= 1]. *)

val quantile_count : quantile -> int
(** All-time number of observations (not capped by the window). *)

val reset_metrics : unit -> unit
(** Zero every counter, span, histogram, gauge, and quantile
    (registrations persist). *)

(** {1 Prometheus exposition} *)

type exposition = {
  x_counters : (string * int) list;
  x_gauges : (string * float) list;
  x_spans : (string * int * int) list;  (** name, total_ns, calls *)
  x_histograms : (string * int * int * (int * int) list) list;
      (** name, count, sum, (log2 bucket, occupancy) ascending *)
  x_quantiles : (string * int * int * (float * float) list) list;
      (** name, all-time count, all-time sum, (p, estimate) for
          p in 0.5/0.9/0.99 *)
}

val snapshot : unit -> exposition
(** Freeze the full registry (counters, gauges, spans, histograms,
    quantiles), each section sorted by name. *)

val expose : exposition -> string
(** Render a frame as Prometheus text exposition format v0.0.4: dotted
    registry names become [sso_]-prefixed metric names, counters gain
    [_total], spans surface as [_ns_total]/[_calls_total] counter pairs,
    histograms as cumulative [le]-bucket series over the log2 boundaries,
    quantiles as summaries with [quantile] labels.  Every line is
    [# HELP], [# TYPE], or [name{...} value]. *)

val sample_gc_gauges : unit -> unit
(** Refresh the [gc.heap_words] / [gc.minor_collections] /
    [gc.major_collections] / [gc.compactions] gauges from
    [Gc.quick_stat].  Sampling is explicit — never called from traced or
    digest-producing code — so deterministic outputs stay GC-invariant. *)

val metrics_snapshot : unit -> (string * int) list * (string * int * int) list
(** Non-zero counters [(name, value)] and spans [(name, total_ns, calls)],
    sorted by name. *)

val metrics_table : unit -> string
(** Human-readable table of all non-zero counters and spans, sorted by
    name.  Empty string when nothing was recorded. *)

val metrics_json : unit -> string
(** The same data as a JSON object
    [{"counters": {...}, "spans": {name: {"ns": n, "calls": c}}}]. *)

(** {1 Trace collection} *)

val set_ring_capacity : int -> unit
(** Per-domain event ring capacity (default [2^20]).  When a ring
    saturates, the oldest events in that ring are overwritten and counted
    in [dropped_events].
    @raise Invalid_argument if the capacity is [< 1]. *)

val events : unit -> Trace.event list
(** Merge all per-domain rings, sorted by [(slot, seq)].  Call only when
    no parallel region is in flight. *)

val dropped_events : unit -> int

val histogram_records : unit -> Trace.histogram list
(** Non-empty registry histograms as trace trailer records, sorted by
    name.  Span-duration histograms are timing-dependent; tools comparing
    traces for determinism must ignore histogram lines. *)

val clear_trace : unit -> unit
(** Empty every ring, reset the slot cursor and current stream.  Call
    only between runs (no parallel region in flight). *)

val write_trace : path:string -> meta:(string * Trace.value) list -> unit
(** Snapshot events + histograms into a {!Trace.t} and [Trace.save] it.
    The current {!dropped_events} count is recorded both in the trace
    header and — unless the caller already supplied one — as a
    [dropped_events] meta entry.
    @raise Trace.Unreadable on I/O failure. *)
