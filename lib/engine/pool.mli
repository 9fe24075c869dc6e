(** The process-wide deterministic work pool over OCaml 5 domains.

    Every fan-out in the repository (trial repetitions in the bench
    harness, tree-load edge chunks, Stage-5 per-source searches, the
    fault sweep, adversary scoring) runs through this module, on the one
    pool that [--jobs N] sizes
    ({!set_default_jobs}).  The hard invariant is {b determinism}: for a
    fixed input, {!parallel_map} returns bit-identical results for any job
    count, including [jobs = 1].  The pool guarantees its half of that
    contract by assembling results in task-index order and never letting
    scheduling order leak into outputs; call sites guarantee the other half
    by fixing their chunking independently of the job count and by giving
    each task its own [Rng.split_at] child keyed by task index instead of
    drawing from a shared stream.

    Tasks must not block on each other.  A [parallel_*] call issued from
    inside a running task (a nested call) falls back to serial execution on
    the calling domain, so nesting is always safe and never deadlocks. *)

val set_default_jobs : int -> unit
(** Set the number of tasks the pool runs at once ([jobs - 1] worker
    domains plus the submitting domain), joining the workers of the
    previous size.  This is what [--jobs N] plumbs through; the default is
    [Domain.recommended_domain_count ()].  [1] spawns no domains and makes
    every [parallel_*] call serial.  Workers are spawned on the first
    parallel call and joined at exit.
    @raise Invalid_argument if [jobs < 1]. *)

val default_jobs : unit -> int
(** The job count the pool runs at. *)

val parallel_map : ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map f arr] is [Array.map f arr] computed on the pool.
    Results are placed by index, so the output is independent of
    scheduling.  If any task raises, the exception of the lowest-index
    failing task is re-raised (with its backtrace) after all tasks finish
    — deterministically, regardless of job count. *)

val parallel_init : int -> (int -> 'a) -> 'a array
(** [parallel_init n f] is [Array.init n f] on the pool, with the same
    determinism and exception contract as {!parallel_map}. *)

val parallel_list_map : ('a -> 'b) -> 'a list -> 'b list
(** {!parallel_map} over lists, preserving order. *)

val inside_task : unit -> bool
(** [true] while executing inside a pool task — i.e. when a [parallel_*]
    call would run serially.  Exposed for diagnostics and tests. *)
