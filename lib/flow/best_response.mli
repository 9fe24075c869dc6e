(** Best responses of the min-congestion game as int handles.

    The MWU game of {!Min_congestion} asks one question per commodity:
    under these per-edge weights, which admissible path is cheapest?  A
    store built over a solve's support (the demanded pairs, sorted)
    answers with an int handle, [-1] when the pair has no admissible
    path:

    - {!candidates}: the candidate index in a slice index — the
      path set P is fixed up front (Stage 4, [cong_ℝ(P,d)]);
    - {!dijkstra}: the search result interned per pair — the first
      sighting of a path appends it to the store, later ones map back to
      its handle (Stage 5's [opt_{G,ℝ}(d)]).

    The solver tallies per-handle statistics in a {!tally} and emits each
    pair's distribution through {!distribution}, in descending
    {!Sso_graph.Path.compare} order.

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

val respond_all : t -> float array -> int array * int
(** Every pair's handle under per-slot weights ([-1] when the pair has no
    admissible path), in support order, and the number of vertices the
    searches settled ([0] for candidates).  Candidates are priced
    serially ({!Slice_candidates.cheapest}), and the candidate edges read
    are added once per call to the [mwu.edges_priced] counter; searches
    fan out on the pool, one per source, and interning
    then runs serially in support order, so handles are the same for any
    [--jobs]. *)

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

val iter_edges : t -> int -> (int -> unit) -> unit
(** The edge slots of a handle's path, in path order. *)

val add_loads : t -> float array -> int -> float -> unit
(** [add_loads t loads h x] adds [x] to [loads] at each edge slot of
    handle [h], in path order: {!iter_edges} specialized to the solvers'
    load accumulation. *)

val find : t -> int -> Sso_graph.Path.t -> int
(** The handle of a given path for pair [i] — warm-start seeding.  [-1]
    when a candidate store does not offer it; a search store interns it. *)

type tally
(** Per-handle accumulated weight, and whether the handle was ever
    credited. *)

val tally : t -> tally

val add : tally -> int -> float -> unit
(** Credit a handle. *)

val seen_count : tally -> int
(** Number of handles credited so far (the support of the routing). *)

val distribution : t -> tally -> int -> (float * Sso_graph.Path.t) list
(** Pair [i]'s credited handles with their weights, in descending path
    order.  Boxed paths are materialized here and only here. *)
