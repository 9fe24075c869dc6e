(** JSONL trace files: the on-disk form of the {!Obs} event streams.

    A trace is one JSON object per line — a versioned header, then every
    event sorted by its deterministic [(slot, seq)] key.  The codec is hand-rolled (the project
    deliberately carries no JSON dependency) and restricted to the subset
    these lines use; [save] writes atomically (temp file + rename) so a
    crashed run never leaves a half-written trace behind.  Loading and
    saving raise only {!File.Unreadable} (exit 10 in [sso trace]) and
    {!File.Corrupt} (exit 11): bad JSON, a missing schema tag, an
    unsupported version, or fewer events than the header declares. *)

val schema_version : int
(** Version written into (and required of) the header line: 2.  Version 1
    files, which ended in histogram trailer lines, are refused. *)

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

type t = {
  meta : (string * value) list;  (** header metadata: seed, jobs, git, ... *)
  dropped : int;  (** events lost to ring-buffer saturation *)
  events : event list;  (** sorted by (slot, seq) *)
}

val save : string -> t -> unit
(** Write atomically ({!File.write}).  @raise File.Unreadable on I/O errors. *)

val load : string -> t
(** @raise File.Unreadable when the file cannot be read, {!File.Corrupt}
    when it parses wrong or is truncated. *)

val json_string : string -> string
(** [s] as a quoted JSON string literal, escaped the way [save] escapes
    names and string attributes; every JSON writer in the repository
    uses it. *)

(** {1 Aggregation} *)

val event_counts : event list -> (string * int) list
(** Per point-event name: (name, count), sorted by name. *)

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

(** {1 Generic JSON}

    The parser behind [load], exposed so other tools (the update-stream
    codec, the pipeline benchmark) can read small JSON files without a
    dependency, and the one printer of the JSON reports ([sso --json],
    the experiment harness's [--json], {!Obs.metrics_json}). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of string  (** raw spelling; convert per use site *)
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> t
  (** @raise File.Corrupt on malformed input. *)

  val member : string -> t -> t option
  val number : t -> float option

  (** Field getters: [int k j] is field [k] of object [j].  Each raises
      {!File.Corrupt} naming [k] when the field is missing or of the
      wrong type. *)

  val int : string -> t -> int
  (** An integer spelling, or an integral float below 2{^62}. *)

  val float : string -> t -> float
  val string : string -> t -> string
  val fields : string -> t -> (string * t) list

  val of_int : int -> t

  val of_float : float -> t
  (** A finite float as [%.17g] (it reads back exactly); NaN and the
      infinities, which JSON cannot spell as numbers, as the strings
      ["nan"], ["inf"] and ["-inf"]. *)

  val to_string : t -> string
  (** One line: members and items separated by [", "], keys by [": "],
      strings escaped by {!json_string}, a [Num] printed as spelled. *)
end

val read_jsonl :
  what:string -> schema:string -> version:int -> (Json.t -> 'a) -> string ->
  Json.t * 'a list
(** [read_jsonl ~what ~schema ~version decode path] reads a versioned
    JSONL file: a header object, then one record per non-blank line.  It
    checks the header's [schema] tag and [version] and that the header's
    [events] count equals the number of records, and returns the header
    with each record passed through [decode].  Messages name the file
    kind [what] (["trace"], ["stream"]).
    @raise File.Unreadable when the file cannot be read, {!File.Corrupt}
    on any mismatch or when [decode] raises it. *)
