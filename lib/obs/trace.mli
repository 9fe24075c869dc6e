(** JSONL trace files: the on-disk form of the {!Obs} event streams.

    A trace is one JSON object per line — a versioned header, then every
    event sorted by its deterministic [(slot, seq)] key, then one trailer
    line per non-empty histogram.  The codec is hand-rolled (the project
    deliberately carries no JSON dependency) and restricted to the subset
    these lines use; [save] writes atomically (temp file + rename) so a
    crashed run never leaves a half-written trace behind. *)

exception Unreadable of string
(** The file (or its temp sibling during [save]) cannot be read/written —
    an I/O problem, not a format problem.  [sso trace] maps this to exit
    code 10, matching [sso cache]. *)

exception Corrupt of string
(** The file is readable but not a valid trace: bad JSON, a missing schema
    tag, an unsupported version, or a truncation (fewer events than the
    header declares).  [sso trace] maps this to exit code 11. *)

val schema_version : int
(** Version written into (and required of) the header line. *)

type value = Int of int | Float of float | Bool of bool | String of string
(** Attribute values.  Finite floats round-trip exactly ([%.17g]);
    infinities are written as [±1e999] and NaN as [null]. *)

type kind = Span | Event

type event = {
  slot : int;  (** deterministic stream id (task slot), see DESIGN.md §8 *)
  seq : int;  (** position within the stream *)
  ts_ns : int;  (** wall clock; the only nondeterministic field with [dur_ns] *)
  kind : kind;
  name : string;
  dur_ns : int;  (** span duration; 0 for point events *)
  depth : int;  (** span nesting depth at emission *)
  attrs : (string * value) list;
}

type histogram = {
  h_name : string;
  h_count : int;
  h_sum : int;
  h_buckets : (int * int) list;  (** (log2 bucket, count), ascending, non-zero *)
}

type t = {
  meta : (string * value) list;  (** header metadata: seed, jobs, git, ... *)
  dropped : int;  (** events lost to ring-buffer saturation *)
  events : event list;  (** sorted by (slot, seq) *)
  histograms : histogram list;
}

val save : string -> t -> unit
(** Write atomically ({!Atomic_file.write}).  @raise Unreadable on I/O errors. *)

val load : string -> t
(** @raise Unreadable when the file cannot be read, [Corrupt] when it
    parses wrong or is truncated. *)

val value_equal : value -> value -> bool
(** Structural equality with [NaN = NaN] (for round-trip tests). *)

(** {1 Aggregation} *)

val event_counts : event list -> (string * int) list
(** Per point-event name: (name, count), sorted by name. *)

val attr : event -> string -> value option

(** {1 Span-tree profiling}

    Spans are recorded at exit (post-order) with their nesting depth, and
    a parallel region's tasks inherit the depth of the span open at
    submission ({!Obs.in_task}), which closes after them in [(slot, seq)]
    order.  So the whole trace is one call tree: scanning it in
    [(slot, seq)] order, a span at depth [d] is the parent of every
    not-yet-claimed span of greater depth, across slots.  Paths and call
    counts depend only on the deterministic [(slot, seq)] order —
    jobs-invariant; the ns weights are wall clock. *)

val folded_stacks : event list -> (string * int * int) list
(** Folded flamegraph lines: ([;]-joined span path from the root, calls,
    self ns = duration minus direct children), sorted by path.  Events
    must be in their sorted [(slot, seq)] order, as [load] returns
    them. *)

val self_totals : event list -> (string * int * int * int) list
(** Per span name: (name, calls, total ns, self ns), sorted by self ns
    descending then name.  Every span event is one node of the tree, so
    calls and total ns count every span event of that name. *)

type round = {
  r_round : int;
  r_cong : float;  (** max edge congestion of this round's best responses *)
  r_avg : float;  (** congestion of the routing averaged up to this round *)
  r_potential : float;  (** adversary potential: max cumulative normalized load *)
  r_paths : int;  (** distinct paths in the averaged routing's support *)
}

type solve = {
  s_solver : string;
  s_pairs : int;
  s_iters : int;
  s_rounds : round list;  (** in round order *)
}

val mwu_solves : event list -> solve list
(** Group ["mwu.solve"]/["mwu.round"] events (in trace order — events must
    be in their sorted [(slot, seq)] order, as [load] returns them) into
    per-solve convergence trajectories. *)

(** {1 Generic JSON access}

    The parser behind [load], exposed so other tools (the bench overhead
    guard reading BENCH_kernels.json) can read small JSON files without a
    dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of string  (** raw spelling; convert per use site *)
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> t
  (** @raise Corrupt on malformed input. *)

  val member : string -> t -> t option
  val number : t -> float option
end
