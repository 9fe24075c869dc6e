(** Paths in a graph.

    A path records its source, destination and the sequence of edge ids it
    traverses, in order.  Because graphs are multigraphs, the edge sequence
    (not the vertex sequence) is the canonical representation: two paths on
    the same vertices through different parallel edges are distinct, and
    congestion is attributed to specific edge ids.

    The paper works with simple paths; {!simplify} converts any walk into a
    simple path with the same endpoints by excising loops, and constructors
    in this repository only hand out simple paths. *)

type t = private { src : int; dst : int; edges : int array }

val trivial : int -> t
(** [trivial v] is the empty path from [v] to itself (used for [s = t]
    pairs; it crosses no edges). *)

val of_edges : Graph.t -> src:int -> dst:int -> int array -> t
(** Validate an edge sequence as a walk from [src] to [dst] and build the
    path.  @raise Invalid_argument if consecutive edges do not share the
    expected endpoints. *)

val unsafe_of_edges : src:int -> dst:int -> int array -> t
(** Build a path from fields already known to form a walk, skipping the
    validation of {!of_edges}.  For trusted reconstruction only (arena
    slices, codec payloads that were validated on decode); the array is
    adopted, not copied. *)

val of_vertices : Graph.t -> int list -> t
(** Build a path from a vertex sequence, selecting for each hop an arbitrary
    minimum-id edge between the consecutive vertices.
    @raise Invalid_argument if some hop has no edge. *)

val hops : t -> int
(** Number of edges ([hop(p)] in the paper). *)

val vertices : Graph.t -> t -> int array
(** The vertex sequence [src, ..., dst] (length [hops + 1]). *)

val mem_edge : t -> int -> bool
(** Does the path cross edge [id]?  O(hops). *)

val is_simple : Graph.t -> t -> bool
(** No repeated vertex. *)

val simplify : Graph.t -> t -> t
(** Excise loops so that the result is simple; endpoints are preserved and
    the edge set of the result is a subset of the input's.  Chronological
    loop erasure ({!Erasure}): walking left to right, a repeated vertex
    drops the loop since its first retained occurrence, so erasing a walk
    [a·b] equals erasing [(simplify a)·b] — segments can be appended first
    and erased once.  O(hops); the only allocation is the result.
    @raise Invalid_argument if the edges do not form a walk from [src]. *)

(** The loop-erasure kernel behind {!simplify}, for callers that produce a
    walk segment by segment and only need to visit the erased edges: no
    walk array and no result path is built.  It runs on a per-domain scratch of
    O(n) ints, grown on demand and reused without clearing, so one domain
    erases one walk at a time: {!start} abandons any erasure in progress
    on the calling domain (including one inside {!simplify}). *)
module Erasure : sig
  type t

  val start : Graph.t -> int -> t
  (** [start g src] begins erasing a walk from [src]. *)

  val push_edges : t -> rev:bool -> int array -> unit
  (** Append edges to the walk: [edges] in order, or last first when
      [rev] (a segment walked backwards).
      @raise Invalid_argument if they do not continue the walk. *)

  val length : t -> int
  (** Edges retained so far. *)

  val edge : t -> int -> int
  (** [edge er d] is the [d]-th retained edge, [0 <= d < length er]. *)

  val edges : t -> int array
  (** The retained edges, copied. *)
end

val concat : Graph.t -> t -> t -> t
(** [concat g p q] joins [p] ([s → x]) and [q] ([x → t]) into a walk
    [s → t] and {!simplify}s it.  @raise Invalid_argument if
    [p.dst <> q.src]. *)

val equal : t -> t -> bool
(** Structural equality on (src, dst, edge sequence). *)

val compare : t -> t -> int

val weight : (int -> float) -> t -> float
(** Sum of a per-edge weight function over the path's edges. *)

