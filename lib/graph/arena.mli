(** Shared arena storage for path collections ([Path_arena]).

    A [Path.t] boxes one heap-allocated [int array] per path; a path system
    on a 10^5-node graph stores millions of them.  The arena packs the same
    information into one shared byte buffer plus two parallel int arrays,
    giving O(1) slice handles and iteration kernels that never materialize a
    per-path array.

    {2 Layout}

    Paths are appended; path [i] is identified by its index (a {e slice}
    handle, just an [int]).  Three parallel stores:

    - [data : Bytes.t] — the hop sequences of all paths, back to back.  A
      hop is stored as the {e CSR slot} of its edge: the position of the
      edge inside the current vertex's adjacency row ({!Graph.csr_offsets}
      order).  Slots are LEB128 varints, so a hop costs one byte on any
      graph with degree < 128 (8× smaller than a word-sized edge id).
      Decoding hop [j] of a path at vertex [v] reads slot [c] and resolves
      [e = csr_edge_ids.(csr_offsets.(v) + c)],
      [v' = csr_targets.(csr_offsets.(v) + c)] — which is why an arena is
      bound to its graph.
    - [meta : int array] — per path, [(byte_offset lsl 21) lor hops]
      (hops < 2^21, offsets < 2^42).  Byte regions of consecutive slices
      are contiguous: path [i] ends where path [i+1] begins.
    - [ends : int array] — per path, [src * n + dst] packed in one word.

    Appends are O(total row scan); every append validates that the edges
    form a walk from [src] to [dst] (the slot lookup {e is} the incidence
    check).  All reads are lock-free; appending is not thread-safe: the
    owner serializes appends (a path system appends under its lock). *)

type t

val create : Graph.t -> t
(** Fresh empty arena over [g]. *)

val graph : t -> Graph.t
(** The graph the slot encoding resolves against. *)

val length : t -> int
(** Number of paths stored; valid slice handles are [0 .. length - 1]. *)

val memory_bytes : t -> int
(** Live bytes of path storage: packed hop bytes plus the two per-path
    metadata words. *)

(** {1 Appending} *)

val append_path : t -> Path.t -> int
(** Validate the path's edges as a walk [src → dst] and append it;
    returns the new slice handle.  @raise Invalid_argument if an edge is
    not incident to the walk's current vertex, the walk does not end at
    [dst], an endpoint is out of range, or the path exceeds the 2^21-hop
    limit. *)

val append_slice : t -> t -> int -> int
(** [append_slice dst src i] copies slice [i] of [src] (byte blit; both
    arenas must be over the same graph — physical equality).
    @raise Invalid_argument on a graph mismatch or bad handle. *)

val append_range : t -> t -> int -> int -> int
(** [append_range dst src first count] copies slices
    [first .. first + count - 1] of [src] in order (one byte blit; both
    arenas over the same graph, as {!append_slice}) and returns the
    handle the first one received ([length dst] when [count = 0]).
    @raise Invalid_argument on a graph mismatch or a range outside
    [src]. *)

val truncate : t -> int -> unit
(** [truncate a len] drops slices [len ..] and their bytes, so a rejected
    batch of appends leaves no trace; handles below [len] stay valid.
    @raise Invalid_argument unless [0 <= len <= length a]. *)

(** {1 O(1) slice accessors} *)

val hops : t -> int -> int
val src : t -> int -> int
val dst : t -> int -> int

val equal_slices : t -> int -> t -> int -> bool
(** [equal_slices a i b j] — do slice [i] of [a] and slice [j] of [b]
    hold the same path?  Compares endpoints, hop counts and packed slot
    bytes, allocating nothing.  Every append path stores canonical
    varints, so over one graph equal bytes from the same source are
    exactly equal edge sequences.  @raise Invalid_argument on a graph
    mismatch (physical equality, as {!append_slice}) or a bad handle. *)

val compare_path : t -> int -> Path.t -> int
(** [compare_path a i p] orders slice [i] of [a] against [p] as
    {!Path.compare} does, decoding the slice in place up to the first
    difference; allocates nothing.  @raise Invalid_argument on a bad
    handle. *)

val equal_path : t -> int -> Path.t -> bool
(** Does slice [i] of [a] hold the path [p]? *)

val hash_slice : t -> int -> int
(** A hash of slice [i]'s hop count and packed slot bytes, allocating
    nothing.  Slices from one source vertex that hold the same path hash
    equal, so sorting a pair's handles by it puts repeats side by side
    ([Path_system] finds repeated candidates this way). *)

(** {1 Iteration kernels}

    All kernels decode the packed hops in place; none allocates a per-path
    array.  Handles are not range-checked beyond array bounds. *)

val iter_edges_vertices : t -> int -> (int -> int -> unit) -> unit
(** [iter_edges_vertices a i f] calls [f e v'] for each hop: edge id [e]
    entering vertex [v'].  The source vertex is [src a i]. *)

val for_all : t -> int -> (int -> bool) -> bool
val exists : t -> int -> (int -> bool) -> bool

val compare_within_pair : t -> int -> int -> int
(** Compare two slices of the {e same} arena by their edge sequences with
    {!Path.compare} semantics for equal endpoints: shorter path first, then
    lexicographic on edge ids.  Used to impose the canonical candidate
    order without materializing paths. *)

(** {1 Materialization} *)

val suffix_edges : t -> int -> from_hop:int -> int array
(** Edges from hop [from_hop] (0-based) to the end — the remaining route of
    a packet that has already crossed [from_hop] hops. *)

val vertices : t -> int -> int array
(** Vertex sequence [src .. dst], length [hops + 1]. *)

val to_path : t -> int -> Path.t
(** Rebuild the boxed representation (trusted; the walk was validated on
    append). *)

val unpack_with_vertices : t -> int array -> int array * int array * int array
(** [unpack_with_vertices a ids] flattens the given slices into
    [(off, flat_edges, flat_verts)]: the edge ids of [ids.(i)] occupy
    [flat_edges.(off.(i)) .. flat_edges.(off.(i+1) - 1)] and its vertex
    sequence (length [hops + 1]) starts at [flat_verts.(off.(i) + i)].
    The packet simulator unpacks its routes once and walks the flat
    arrays every step. *)

(** {1 Raw encoding access (codec)} *)

val write_encoding : t -> int -> Buffer.t -> unit
(** Append the slice's packed-slot bytes to a buffer verbatim. *)

val append_encoded :
  t -> src:int -> dst:int -> hops:int -> Bytes.t -> pos:int -> int * int
(** [append_encoded a ~src ~dst ~hops buf ~pos] validates [hops] packed
    slots starting at [pos] — canonical varints, every slot inside its
    vertex's adjacency row, walk ending at [dst] — appends the path, and
    returns [(handle, bytes_consumed)].
    @raise Invalid_argument on any malformed byte (codecs wrap this into
    their [Corrupt] error). *)
