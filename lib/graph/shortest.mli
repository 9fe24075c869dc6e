(** Shortest-path computations: BFS, Dijkstra, and hop-limited variants.

    Dijkstra takes non-negative per-edge weights (a negative or NaN weight
    raises [Invalid_argument]), either as a function (validated and
    snapshotted once per edge per call) or as a flat [float array] (each
    entry checked as its edge is relaxed) — the latter is how the MWU flow
    solvers and the FRT construction re-weight the graph between calls
    without a per-call O(m) sweep.  Traversals run over the graph's flat
    CSR arrays.

    Every Dijkstra entry point runs one allocation-free core: the same
    neighbor order, heap comparisons and strict-improvement test as the
    historical boxed implementation, so [dist]/[pred] tables and paths
    are bit-identical to it. *)

val bfs_dist : Graph.t -> int -> int array
(** Hop distances from a source; [max_int] for unreachable vertices. *)

val bfs_path : Graph.t -> int -> int -> Path.t option
(** A minimum-hop path, if the destination is reachable. *)

(** Reusable single-source workspace: dist/pred/settled state, target
    marks, the validated-weight snapshot and the heap arrays, all
    epoch-stamped so starting a run costs one integer increment instead
    of O(n) clearing.  A workspace is single-threaded state; use
    {!Workspace.for_current_domain} to get the calling domain's private
    one (pool workers each reuse their own across oracle calls).

    The readers below answer for the last run.  A vertex that run settled
    reads its final distance and predecessor.  An unsettled vertex reads
    as unreached ([infinity], [-1], [None]) when the run drained its heap
    (full runs, balls), and raises [Invalid_argument] when the run stopped
    early ({!dijkstra_targets} or a [visit] callback that raised): its state there is partial, never a stale answer. *)
module Workspace : sig
  type t

  val for_current_domain : unit -> t
  (** The calling domain's lazily-created private workspace. *)

  val dist : t -> int -> float
  (** Distance from the last run's source; [infinity] if unreached. *)

  val pred_edge : t -> int -> int
  (** Edge id entering the vertex on the last run's shortest-path tree;
      [-1] at the source and unreachable vertices. *)

  val path : t -> Graph.t -> int -> Path.t option
  (** Reconstruct the path from the last run's source to a vertex.
      @raise Invalid_argument if no run has completed. *)

  val settled_count : t -> int
  (** Vertices the last run settled: [n] (of the source's component) for
      a full run, fewer when a target-bounded run stopped early. *)
end

val dijkstra_ball_into :
  Workspace.t ->
  Graph.t ->
  weights:float array ->
  radius:float ->
  ?prune:(int -> float -> bool) ->
  sources:int array -> (int -> float -> unit) -> unit
(** [dijkstra_ball_into ws g ~weights ~radius ~sources visit] grows the
    ball of radius [radius] around [sources] (multi-source: every source
    starts at distance 0): settles exactly the vertices whose distance is
    [<= radius], calling [visit v d] at settle time, in non-decreasing
    distance order.  Work is proportional to the ball and its one-edge
    frontier, never to the graph — the kernel behind the level-wise
    ball-growing FRT construction ({!Sso_oblivious.Frt.build}).

    [prune w nd] (default: never), checked at relaxation time, discards
    the candidate as if it lay outside the radius; sources are exempt.
    Settled vertices and their distances match the unpruned run only when
    the predicate is monotone in the sense used by the FRT construction
    (a vertex that survives pruning has a shortest path whose prefixes
    all survive); the kernel itself makes no such check.

    Settled distances and predecessor edges are bit-identical to an
    untruncated run and are left in [ws] ({!Workspace.dist} /
    {!Workspace.pred_edge}; {!Workspace.path} reconstructs from
    [sources.(0)] when a single source was given).  [weights] is a flat
    per-edge array (length [>= m]) so per-ball calls skip the O(m) weight
    validation sweep; entries must be non-negative and are validated as
    edges are first relaxed.  A negative (or NaN) [radius] settles
    nothing; [infinity] recovers the full single/multi-source run. *)

val dijkstra_into : Workspace.t -> Graph.t -> weight:(int -> float) -> int -> unit
(** [dijkstra_into ws g ~weight src] runs Dijkstra from [src] to
    completion, leaving the results in [ws] (read them with
    {!Workspace.dist} / {!Workspace.pred_edge} / {!Workspace.path}).
    Allocates nothing beyond workspace growth on first use.  [weight e]
    must be non-negative; validated once per edge. *)

val dijkstra : Graph.t -> weight:(int -> float) -> int -> float array * int array
(** [dijkstra g ~weight src] returns [(dist, pred_edge)] where
    [pred_edge.(v)] is the edge id entering [v] on a shortest path tree
    ([-1] at the source and unreachable vertices), and [dist.(v)] is
    [infinity] when unreachable.  [weight e] must be non-negative.
    Allocates the two result arrays; hot loops that do not need owned
    arrays should use {!dijkstra_into}. *)

val dijkstra_path : Graph.t -> weight:(int -> float) -> int -> int -> Path.t option
(** A minimum-weight path between two vertices. *)

val dijkstra_targets :
  ?workspace:Workspace.t ->
  Graph.t -> weights:float array -> int -> int array -> Path.t option array
(** [dijkstra_targets g ~weights src targets] answers every target from
    one Dijkstra pass that stops as soon as the last distinct target has
    settled — the MWU best-response oracle.  Entry [i] is exactly
    [dijkstra_into] followed by [Workspace.path] for [targets.(i)]
    ([None] when unreachable, e.g. behind [infinity]-weight edges):
    settle order is the full run's, and a settled vertex's predecessor
    chain is final.  Targets may repeat and may include [src].

    [weights] is a flat per-edge array (length [>= m]); entries must be
    non-negative and are checked as their edges are relaxed.  Each path
    is built straight into an exact-size edge array; apart from the
    results the call allocates nothing.  [workspace] defaults to the
    calling domain's.
    @raise Invalid_argument on a short [weights] array or an out-of-range
    vertex. *)

val hop_limited_path :
  Graph.t -> weight:(int -> float) -> max_hops:int -> int -> int -> Path.t option
(** Minimum-weight walk using at most [max_hops] edges, simplified into a
    simple path (whose weight is then at most the walk's).  Bellman–Ford
    style dynamic program over hop counts, O(max_hops · m).  Returns [None]
    when no walk within the hop budget exists. *)

val eccentricity : Graph.t -> int -> int
(** Maximum hop distance from a vertex to any reachable vertex. *)

val diameter : Graph.t -> int
(** Maximum eccentricity over all vertices (hop metric).  O(n·m). *)

val all_pairs_hops : Graph.t -> int array array
(** [all_pairs_hops g] runs BFS from every vertex; row [s] is
    [bfs_dist g s].  O(n·m) and O(n²) memory — intended for the moderate
    graph sizes used in experiments. *)
