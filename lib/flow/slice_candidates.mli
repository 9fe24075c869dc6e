(** Candidate path sets as arena slices.

    The flat per-solve index the Stage-4 solvers walk in place: candidate
    edge ids are unpacked once into contiguous int arrays ([cand_off] per
    pair, [edge_off] per candidate, [flat] edge ids), so per-round oracle
    and accumulation loops never touch a boxed path.  Alongside the
    generation order the index stores, per pair, the candidate permutation
    ascending by {!Sso_graph.Path.compare}, the order routings are emitted
    in.  Candidate indices are the handles {!Best_response} hands the
    solvers.

    Edges are addressed by slot: the position of an edge id in {!edges},
    the candidates' distinct edges in ascending order.  Weights passed to
    {!cheapest} and edges yielded by {!iter_edges} are slots, so a solver's
    per-edge arrays have one entry per candidate edge, not one per graph
    edge. *)

type t

val of_arena : Sso_graph.Arena.t -> ((int * int) * (int * int)) list -> t
(** [of_arena arena ranges] indexes, per pair, the [count] consecutive
    arena slices starting at [first] (ranges as [(pair, (first, count))];
    the first binding of a duplicated pair wins). *)

val of_list : Sso_graph.Graph.t -> ((int * int) * Sso_graph.Path.t list) list -> t
(** Index boxed candidate lists by appending them into a private arena
    (validating each path against [g]). *)

val position : t -> int * int -> int
(** Pair position of a pair, [-1] when the pair is not in the index. *)

val ncands : t -> int
(** Total number of candidates across all pairs. *)

val cheapest : t -> weights:float array -> int -> int
(** Cheapest candidate of pair position [i] under the per-slot [weights]:
    a strict [<] left fold over candidates in generation order (ties keep
    the first), each path's weight summed left to right.  [-1] when the
    pair has no candidates. *)

val canonical : t -> int -> int
(** Canonical representative of a candidate: duplicate paths inside one
    pair's list collapse onto their first occurrence.  Accumulate
    per-candidate statistics at the canonical index. *)

val iter_edges : t -> int -> (int -> unit) -> unit
(** Edge slots of a candidate, in path order. *)

val edges : t -> int array
(** Slot -> edge id: the distinct edge ids of all candidates, ascending,
    collected once when the index is built.  Do not mutate. *)

val find : t -> int -> Sso_graph.Path.t -> int
(** First candidate of pair position [i] (generation order) whose edge
    sequence equals the path's, or [-1] — warm-start seeding. *)

val iter_ascending : t -> int -> (int -> unit) -> unit
(** The candidates of pair position [i] in ascending path order
    (duplicates follow their canonical copy). *)

val path : t -> int -> Sso_graph.Path.t
(** A candidate as a boxed path, decoded from the arena. *)
