(** Best responses of the min-congestion game as int handles.

    The MWU game of {!Min_congestion} asks one question per commodity:
    under these per-edge weights, which admissible path is cheapest?  A
    store built over a solve's support (the demanded pairs, sorted)
    answers with an int handle, [-1] when the pair has no admissible
    path:

    - {!candidates}: the candidate index in a slice index — the
      path set P is fixed up front (Stage 4, [cong_ℝ(P,d)]);
    - {!dijkstra}: the search result interned per pair — the first
      sighting of a path appends it to the store's own arena, later ones
      map back to its slice (Stage 5's [opt_{G,ℝ}(d)]).

    The solver tallies per-handle statistics in a {!tally} and emits its
    routing through {!routing}: each pair's entries in descending path
    order, as slices of the index's arena or of the store's.

    Weights and path edges are addressed by slot, the position of an edge
    id in {!edges}: a candidate store's slots cover only its candidates'
    edges, a search store's slot [e] is edge [e]. *)

type t

val candidates : Slice_candidates.t -> (int * int) array -> t
(** Cheapest-candidate responses over a slice index; pairs absent from the
    index have no admissible path. *)

val dijkstra :
  ?avoid:(int -> bool) ->
  Sso_graph.Graph.t -> (int * int) array -> t
(** Shortest-path responses over all simple paths.  [avoid]ed edges are
    masked to [infinity].  {!respond_all} answers every target of a
    source from one target-bounded search
    ({!Sso_graph.Shortest.dijkstra_targets}, counted in
    [mwu.sssp_batches]). *)

val respond_all : t -> float array -> int array -> int
(** [respond_all t weights handles] writes every pair's handle under
    per-slot [weights] into [handles], in support order ([-1] when the
    pair has no admissible path), and returns the number of vertices the
    searches settled ([0] for candidates).  [handles] is the caller's:
    one buffer at least as long as the support serves every call of a
    solve, so a round allocates no pairs-long array.  Candidates are
    priced serially ({!Slice_candidates.cheapest}), and the candidate
    edges read are added once per call to the [mwu.edges_priced]
    counter; searches fan out on the pool, one per source, and interning
    then runs serially in support order, straight into [handles], so
    handles are the same for any [--jobs]. *)

val edges : t -> int array
(** Slot -> edge id: every edge a response can load, ascending — a
    candidate store's distinct candidate edges
    ({!Slice_candidates.edges}), all m edges for a search store.  Do not
    mutate. *)

val classes : t -> rounds:int -> caps:float array -> (int array * int array) option
(** Slot classes for a solve of [rounds] rounds with per-slot [caps]:
    [Some (cls, first)] maps each slot to its class and each class to its
    lowest slot, where a class holds the slots crossed by exactly the same
    candidates that have equal capacity ({!Slice_candidates.classes}).
    Slots of one class receive the same loads in the same order, so a
    solver may keep per-class state and copy it out to the slots.
    [None] (keep every slot apart) for a search store; for a candidate
    store whose [rounds · slots] is under eight times its candidate edges
    ({!Slice_candidates.crossings}), without running the pass; and when
    the classes number more than three quarters of the slots. *)

val add_loads : t -> float array -> int array -> float array -> int -> unit
(** [add_loads t loads handles xs n] adds [xs.(k)] to [loads] at each
    edge slot of handle [handles.(k)], in path order, for
    [k = 0 .. n - 1] in turn: a round's loads from its responses and the
    pairs' amounts, with no closure and no boxed float per pair. *)

val add_shares :
  t -> float array -> per_slot:float array -> int array -> float array -> int -> unit
(** {!add_loads} adding [xs.(k) /. per_slot.(e)] at slot [e]: warm
    seeding's normalized loads. *)

val lookup : t -> int -> Sso_graph.Arena.t -> int -> int
(** [lookup t i a h]: pair [i]'s handle of slice [h] of [a] — warm-start
    seeding ({!Slice_candidates.lookup}); [-1] when a candidate store
    does not offer the path.  A search store interns it. *)

type tally
(** Per-handle accumulated weight, and whether the handle was ever
    credited. *)

val tally : t -> tally

val add : tally -> int -> float -> unit
(** Credit a handle. *)

val credit : tally -> int array -> int -> unit
(** [credit tally handles n] credits [handles.(k)] with [1.0] for
    [k = 0 .. n - 1]: one round's play.  Raises [Invalid_argument] on a
    negative handle. *)

val seen_count : tally -> int
(** Number of handles credited so far (the support of the routing). *)

val routing : t -> tally -> float array -> float array -> Routing.t
(** [routing t tally amounts loads]: every pair's credited handles, in
    support order, each pair's in descending path order and weighted by
    its tally over their sum in that order — what {!Routing.of_slices}
    builds from the same entries.  It also adds [amounts.(i)] times each
    weight to [loads] at the path's slots, in entry order: the loads
    {!Routing.congestion} sums, in its order.  The pairs are the support
    array, the paths slices of the index's arena or the store's.  Raises
    [Invalid_argument] when a pair was never credited. *)
