(** Canonical, versioned binary codecs for the artifact store.

    Hand-rolled writer/reader over [Buffer]/[string] — deliberately not
    [Marshal]: the encoding is stable across OCaml versions and
    architectures, every read is bounds-checked, and malformed input
    raises {!Sso_obs.File.Corrupt} instead of segfaulting or silently
    misreading.  Floats are stored as their IEEE-754 bit patterns, so
    every round trip is bit-identical — the property the determinism
    contract (DESIGN.md §6) rests on: a warm run that decodes a cached
    object must behave exactly like the cold run that built it.

    Every top-level codec writes a one-byte kind tag and a format-version
    byte.  Bump {!format_version} on any layout change: old cache entries
    then decode as [Corrupt] and are treated as misses (never
    half-deserialized).  Every [decode_*]/[read_*] raises
    {!Sso_obs.File.Corrupt} on malformed, truncated, or mis-tagged
    input; the store maps it to a cache miss.

    Candidate path collections have exactly one encoding, the arena slice
    layout of {!encode_path_system_slices}; only weighted distributions
    ({!encode_routing}) still carry paths as edge-id lists. *)

val format_version : int

(** {1 Primitives} *)

type writer
type reader

val writer : unit -> writer
val contents : writer -> string

val reader : string -> reader
val expect_end : reader -> unit
(** @raise Sso_obs.File.Corrupt if unread bytes remain. *)

val write_u8 : writer -> int -> unit
val read_u8 : reader -> int

val write_varint : writer -> int -> unit
(** LEB128 for non-negative ints.  @raise Invalid_argument on negatives. *)

val read_varint : reader -> int

val write_i64 : writer -> int64 -> unit
val read_i64 : reader -> int64

val write_f64 : writer -> float -> unit
(** IEEE-754 bits, little-endian — bit-exact round trip. *)

val read_f64 : reader -> float

val write_string : writer -> string -> unit
val read_string : reader -> string

(** {1 Hashing} *)

val fnv1a64 : string -> int64
(** 64-bit FNV-1a — the store's content-address hash. *)

val hex_of_key : int64 -> string
(** 16 lowercase hex digits. *)

(** {1 Object codecs} *)

val graph_digest : Sso_graph.Graph.t -> int64
(** FNV-1a of the graph's canonical encoding (vertex and edge counts,
    then each edge's endpoints and capacity in id order) — the graph
    component of recipe keys. *)

val encode_demand : Sso_demand.Demand.t -> string
val decode_demand : string -> Sso_demand.Demand.t

val encode_path_system_slices :
  Sso_graph.Arena.t -> ((int * int) * (int * int)) list -> string
(** The one path-system encoding: per pair (written once each, in
    ascending pair order), the [count] slices starting at [first] (ranges
    as [(pair, (first, count))]), each as its hop count followed by the
    arena's packed CSR-slot bytes, blitted verbatim — roughly one byte per
    hop, and no boxed path on the save path. *)

val decode_path_system_slices :
  Sso_graph.Graph.t ->
  string ->
  Sso_graph.Arena.t * ((int * int) * (int * int)) list
(** Decode straight into a fresh arena over the graph: every slice goes
    through {!Sso_graph.Arena.append_encoded}, which rejects slots outside
    their adjacency row, non-canonical varints, endpoints out of range and
    walks that miss [dst] ([Corrupt]).  Pairs must be strictly ascending
    (a repeated or out-of-order pair is [Corrupt]).  Returns the arena
    and, per pair in payload order, its [(first, count)] slice range.
    Candidate-set rules (no repeated path within a pair) are checked where
    the slices are installed, {!Sso_core.Path_system.preload}.  The
    retired v1 layout (edge-id varints per path) is refused as
    [Corrupt], which the store treats as a miss. *)

val encode_routing : Sso_flow.Routing.t -> string
val decode_routing : Sso_graph.Graph.t -> string -> Sso_flow.Routing.t
(** Per-pair weighted path distributions (oblivious-routing restrictions,
    Stage-4 rate solutions), canonically ordered by pair.  Decoding goes
    through
    {!Sso_flow.Routing.of_normalized}, so weights round-trip bit-exactly. *)

val encode_forest : Sso_oblivious.Frt.parts list -> string
val decode_forest : string -> Sso_oblivious.Frt.parts list
(** Räcke tree mixtures as {!Sso_oblivious.Frt.parts}. *)

val pairs_digest : (int * int) list -> int64
(** Canonical digest of a pair set (sorted, deduplicated) — used in recipe
    keys for pair-scoped artifacts. *)
