(** Candidate path sets as arena slices.

    The flat per-solve index the Stage-4 solvers walk in place: candidate
    edge ids are unpacked into contiguous int arrays ([cand_off] per pair,
    [edge_off] per candidate, [flat] edge ids), so per-round oracle and
    accumulation loops decode no slice.  Alongside the generation order
    the index stores, per pair, the candidate permutation ascending by
    path (fewer hops first, then edge by edge), the order routings are
    emitted in, and per candidate its slice handle.  Candidate indices
    are the handles {!Best_response} hands the solvers.

    An index is built in two steps.  {!unpack} decodes one pair's slices
    into a {!piece} (the slice range, the candidates' edge ids in one
    flat array and their ascending order, all local to the pair);
    {!concat} joins the pieces of a solve's support, all cut from one
    arena, in support order, flattens their edges and assigns the edge
    slots.  A piece depends only on its pair's slices, so it can be kept
    across solves over the same arena: the routing service keeps the
    pieces of its active pairs and unpacks, per tick, only the pairs new
    to the solve (see {!Sso_core.Path_system.unpack_pair}).  Both routes
    run the same [concat], so the index — and every solve on it — is the
    same either way.  Routings emitted from an index are slices of its
    {!arena} ({!slice}): no path is boxed or copied.

    Every index is built from {!Sso_core.Path_system.unpack_pair}
    pieces, and a path system's install check rejects a path repeated
    within a pair, so no pair holds the same path twice: a path names at
    most one candidate of its pair ({!lookup}), and per-candidate
    statistics need no duplicate map.

    Edges are addressed by slot: the position of an edge id in {!edges},
    the candidates' distinct edges in ascending order.  Weights passed to
    {!cheapest} and edges yielded by {!iter_edges} are slots, so a solver's
    per-edge arrays have one entry per candidate edge, not one per graph
    edge.  Slots are assigned per {!concat}, over that solve's
    candidates only. *)

type t

type piece
(** One pair's candidates, unpacked: a slice range of its arena and the
    candidates' edge ids.  Immutable. *)

val unpack : Sso_graph.Arena.t -> int * int -> piece
(** [unpack arena (first, count)] decodes the [count] consecutive arena
    slices starting at [first], in slice (generation) order.  The slices
    must be distinct paths, as one pair's slices in a path system are. *)

val count : piece -> int
(** Number of candidates in a piece. *)

val concat : Sso_graph.Arena.t -> ((int * int) * piece) list -> t
(** Index the pieces, every one unpacked from [arena], with pair
    positions in list order (the first binding of a duplicated pair wins
    a lookup).  @raise Invalid_argument on a piece of another arena. *)

val arena : t -> Sso_graph.Arena.t

val slice : t -> int -> int
(** A candidate's slice of {!arena}. *)

val positions : t -> (int * int) array -> int array
(** Pair position of each pair, [-1] for a pair not in the index.  An
    index built over exactly these pairs, strictly ascending, maps pair
    [i] to [i] without a lookup table. *)

val ncands : t -> int
(** Total number of candidates across all pairs. *)

val range : t -> int -> int * int
(** [(first, count)]: the candidates of pair position [i] are
    [first .. first + count - 1], in generation order. *)

val cheapest : t -> weights:float array -> priced:int ref -> int -> int
(** Cheapest candidate of pair position [i] under the per-slot [weights],
    which must be [>= 0]: a strict [<] left fold over candidates in
    generation order (ties keep the first), each path's weight summed
    left to right.  [-1] when the pair has no candidates.

    The first candidate is summed in full.  A later one stops summing as
    soon as its partial sum is no longer below the best so far, and does
    not win.  This is exact: adding a non-negative weight to a
    non-negative sum under round-to-nearest never lowers it, so the full
    sum of a stopped candidate could not have been strictly below the
    best.  The pick is the full-sum fold's for any weights [>= 0],
    [+inf] and NaN included.  The number of candidate edges read is added
    to [priced].  Raises [Invalid_argument] when [weights] is shorter
    than {!edges}. *)

val iter_edges : t -> int -> (int -> unit) -> unit
(** Edge slots of a candidate, in path order. *)

val add_loads : t -> float array -> int array -> float array -> int -> unit
(** [add_loads sc loads cands xs n] adds [xs.(k)] to [loads] at each edge
    slot of candidate [cands.(k)], in path order, for [k = 0 .. n - 1] in
    turn: {!iter_edges} without a closure or a boxed float per
    candidate. *)

val add_shares :
  t -> float array -> per_slot:float array -> int array -> float array -> int -> unit
(** {!add_loads} adding [xs.(k) /. per_slot.(e)] at slot [e]. *)

val edges : t -> int array
(** Slot -> edge id: the distinct edge ids of all candidates, ascending,
    collected once when the index is built.  Do not mutate. *)

val crossings : t -> int
(** Total number of edges over all candidates, counted with repetition:
    what one pass over every candidate's edges visits. *)

val classes : t -> caps:float array -> int array * int array
(** The slots split into classes: two slots share a class iff the same
    candidates cross them, each the same number of times, and their
    [caps] (per slot) are equal.  [(cls, first)] maps each slot to its
    class and each class to its lowest slot; classes are numbered in the
    order of their lowest slots.  Slots of one class receive the same
    loads in the same order from every solve on this index.  One
    partition-refinement pass over the candidates' edges, on a
    per-domain scratch; only the two results are allocated. *)

val lookup : t -> int -> Sso_graph.Arena.t -> int -> int
(** [lookup sc i a h]: the candidate of pair position [i] holding the
    path of slice [h] of [a], or [-1] — warm-start seeding.  A slice of
    {!arena} in the pair's range is found by offset; any other slice is
    compared with each candidate by {!Sso_graph.Arena.equal_slices}. *)

val descending : t -> int -> weights:float array -> int array -> int -> int
(** [descending sc i ~weights buf pos] writes the candidates [c] of pair
    position [i] with [weights.(c) > 0.0] into [buf] from [pos] on, in
    descending path order, and returns the position after the last. *)
