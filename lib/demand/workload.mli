(** Time-varying demand sequences.

    Semi-oblivious traffic engineering installs paths once and re-optimizes
    rates every few minutes against fresh traffic snapshots [KYY+18].  A
    workload is the sequence of such snapshots; the over-time experiments
    check that one fixed sampled path system serves every epoch of a
    realistic day. *)

type t = Demand.t list
(** Epochs in order. *)

val diurnal :
  Sso_prng.Rng.t -> n:int -> epochs:int -> peak_total:float -> t
(** Gravity matrices whose total volume follows a sinusoidal day profile
    (trough = 25% of [peak_total]) with fresh per-epoch activity noise —
    the standard WAN diurnal model. *)

val random_walk :
  Sso_prng.Rng.t -> n:int -> epochs:int -> pairs:int -> churn:float -> t
(** Unit-demand pair sets evolving by churn: each epoch, every active pair
    is resampled with probability [churn ∈ [0,1]].  Models flow arrivals
    and departures. *)

val generate :
  ?rate_churn:float ->
  Sso_prng.Rng.t -> n:int -> ticks:int -> pairs:int -> churn:float ->
  Update.t list
(** {!random_walk}'s churn model as an explicit event stream — the input
    of the routing service.  Tick 0 carries the [pairs] initial arrivals
    (unit rates); each later tick resamples every active pair with
    probability [churn ∈ [0,1]] (a departure followed by a fresh arrival)
    and, with probability [rate_churn] (default 0) per surviving pair,
    drifts its rate uniformly within [0.5, 1.5).  With [rate_churn = 0],
    folding ticks [0..k] with {!Update.apply} reproduces exactly epoch
    [k-1] of {!random_walk} run on the same rng — the two views of churn
    are the same process.
    @raise Invalid_argument when [churn] or [rate_churn] falls outside
    [0,1], [ticks] is not positive, or [pairs] is out of range; the
    message names the offending value. *)

val hotspot_sweep : n:int -> t
(** One epoch per vertex, each an all-to-one incast on that vertex — the
    adversarial sweep where every vertex takes a turn being popular. *)
