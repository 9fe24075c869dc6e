(** Deterministic, splittable pseudo-random number generator.

    All randomized constructions in this repository (α-samples, Valiant's
    trick, FRT embeddings, randomized rounding, workload generators) draw
    from this module so that every experiment is reproducible from a single
    integer seed.

    The generator is xoshiro256** seeded through splitmix64, a standard
    high-quality non-cryptographic combination.  States are mutable; use
    {!split} to derive an independent stream (e.g. one per trial). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator deterministically from [seed]. *)

val split : t -> t
(** [split t] derives a statistically independent generator from [t],
    advancing [t].  Splitting then using both streams never repeats draws. *)

val split_at : t -> int -> t
(** [split_at t i] derives an independent child stream keyed by index [i]
    {e without advancing} [t]: the same [(t, i)] always yields the same
    stream, and distinct indices yield decorrelated streams.  This is the
    primitive behind deterministic parallelism — each task of a parallel
    loop takes [split_at parent task_index], so results are independent of
    execution order and job count.  @raise Invalid_argument if [i < 0]. *)

val fingerprint : t -> int64
(** A digest of the current state {e without advancing} it.  Two generators
    with equal fingerprints produce identical future draws, so the
    fingerprint canonically names the randomness a construction is about to
    consume — the artifact store keys cached randomized objects by it. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive and
    fit in 62 bits.  Uses rejection sampling, hence exactly uniform. *)

val float : t -> float
(** Uniform in [\[0, 1)] with 53 bits of precision. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [\[0, n)]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  @raise Invalid_argument on [||]. *)

val discrete : t -> float array -> int
(** [discrete t w] samples index [i] with probability [w.(i) / sum w] by
    linear scan.  Weights must be non-negative with a positive sum. *)
