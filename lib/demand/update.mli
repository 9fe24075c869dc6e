(** Demand update events: the wire format of the routing service.

    A long-lived semi-oblivious router does not receive fresh demand
    matrices; it receives a stream of {e flow events} — arrivals,
    departures, and rate changes — and folds them into its active demand
    between re-optimizations.  This module is {!Workload}'s churn model
    made explicit: one versioned event type, a JSONL codec for logging and
    replaying streams, and the fold that applies a batch to a demand.

    The on-disk form is the {!Sso_obs.Trace} JSONL frame
    ({!Sso_obs.Trace.read_jsonl}): one JSON object per line, a versioned
    header declaring the event count, atomic writes (temp file + rename).
    Every error is {!Sso_obs.File.Unreadable} (an I/O problem; [sso serve]
    exits 10) or {!Sso_obs.File.Corrupt} (exit 11): bad JSON, a missing or
    wrong schema tag, an unsupported version, a truncation (fewer events
    than the header declares), or an event that breaks the stream
    invariants (ticks must be non-decreasing, endpoints distinct and
    non-negative, rates finite and positive, departures and rate changes
    must refer to an active pair when applied). *)

type kind =
  | Arrive of float  (** A flow of the given rate joins the pair. *)
  | Depart  (** The pair's flows leave; the pair goes inactive. *)
  | Set_rate of float  (** The pair's aggregate rate is reset. *)

type t = { tick : int; src : int; dst : int; kind : kind }
(** One event.  [tick] is the batching epoch: all events sharing a tick
    are folded into the demand together and answered by one
    re-optimization. *)

val apply : Demand.t -> t list -> Demand.t
(** Fold a batch into a demand, in list order.  [Arrive r] adds [r] to
    the pair's rate (concurrent flows between the same endpoints
    aggregate), [Depart] deactivates the pair, [Set_rate r] replaces its
    aggregate rate.  @raise Sso_obs.File.Corrupt when an event is
    inconsistent with the demand it is applied to (departure or rate
    change of an inactive pair, non-positive or non-finite rate, diagonal
    pair) — replaying a logged stream against the wrong prefix is a data
    error, not a programming error. *)

val by_tick : t list -> (int * t list) list
(** Group a stream into per-tick batches, in stream order.  Ticks need not
    be contiguous (quiet ticks are simply absent).
    @raise Sso_obs.File.Corrupt if the ticks are not non-decreasing. *)

val save : string -> t list -> unit
(** Write a stream atomically ({!Sso_obs.File.write}).
    @raise Sso_obs.File.Unreadable on I/O errors, [Invalid_argument] if
    the events violate the stream invariants (they would not
    round-trip). *)

val load : string -> t list
(** @raise Sso_obs.File.Unreadable when the file cannot be read,
    {!Sso_obs.File.Corrupt} when it parses wrong, is truncated, or breaks
    a stream invariant. *)
