(** Shortest-path computations: BFS, Dijkstra, and hop-limited variants.

    Every weighted search takes its non-negative per-edge weights as one
    flat [float array] indexed by edge id (length [>= m]; a shorter array
    raises [Invalid_argument]).  Entries are checked as their edges are
    relaxed, so a negative or NaN weight raises [Invalid_argument] and the
    MWU flow solvers and the FRT construction re-weight the graph between
    calls without a per-call O(m) sweep.  Traversals run over the graph's
    flat CSR arrays.

    Both Dijkstra entry points run one allocation-free core: the same
    neighbor order, heap comparisons and strict-improvement test as the
    historical boxed implementation, so [dist]/[pred] tables and paths
    are bit-identical to it.  No float crosses a call inside the core:
    pruning reads a bound array, and the settle callback takes the vertex
    only. *)

val bfs_dist : Graph.t -> int -> int array
(** Hop distances from a source; [max_int] for unreachable vertices. *)

val bfs_path : Graph.t -> int -> int -> Path.t option
(** A minimum-hop path, if the destination is reachable. *)

(** Reusable single-source workspace: dist/pred/settled state, target
    marks and the heap arrays, all epoch-stamped so starting a run costs
    one integer increment instead of O(n) clearing.  A workspace is
    single-threaded state; use {!Workspace.for_current_domain} to get the
    calling domain's private one (pool workers each reuse their own across
    oracle calls, and {!dijkstra_targets} always runs on it).

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
  ?bound:float array ->
  sources:int array -> (int -> unit) -> unit
(** [dijkstra_ball_into ws g ~weights ~radius ~sources visit] grows the
    ball of radius [radius] around [sources] (multi-source: every source
    starts at distance 0): settles exactly the vertices whose distance is
    [<= radius], calling [visit v] at settle time, in non-decreasing
    distance order ({!Workspace.dist} reads [v]'s distance there).  Work
    is proportional to the ball and its one-edge frontier, never to the
    graph — the kernel behind the level-wise ball-growing FRT
    construction ({!Sso_oblivious.Frt.build}).  A negative (or NaN)
    [radius] settles nothing; [infinity] recovers the full
    single/multi-source run.

    [bound] (length [>= n]; default: none) prunes and records: a
    relaxation into [w] whose tentative distance is [>= bound.(w)] is
    dropped as if it lay outside the radius (sources are exempt), and
    settling [v] lowers [bound.(v)] to its distance.  Settled vertices
    and their distances match the unbounded run only when the bound is
    monotone in the sense used by the FRT construction (a vertex that
    survives pruning has a shortest path whose prefixes all survive);
    the kernel itself makes no such check.  After a run with an all-
    [infinity] bound, [bound.(v)] holds the distance of every settled
    vertex.

    Settled distances and predecessor edges are bit-identical to an
    untruncated run and are left in [ws] ({!Workspace.dist} /
    {!Workspace.pred_edge}; {!Workspace.path} reconstructs from
    [sources.(0)] when a single source was given). *)

val dijkstra_targets :
  Graph.t -> weights:float array -> int -> int array -> Path.t option array
(** [dijkstra_targets g ~weights src targets] answers every target from
    one Dijkstra pass that stops as soon as the last distinct target has
    settled — the MWU best-response oracle, Yen's spur search and the
    LP's column generation.  Entry [i] is exactly the full run's path to
    [targets.(i)] ([None] when unreachable, e.g. behind
    [infinity]-weight edges): settle order is the full run's, and a
    settled vertex's predecessor chain is final.  Targets may repeat and
    may include [src].  The run uses the calling domain's workspace
    ({!Workspace.for_current_domain}), which the readers then answer for.

    Each path is built straight into an exact-size edge array; apart
    from the results the call allocates nothing.
    @raise Invalid_argument on a short [weights] array or an out-of-range
    vertex. *)

val hop_limited_path :
  Graph.t -> weights:float array -> max_hops:int -> int -> int -> Path.t option
(** Minimum-weight walk using at most [max_hops] edges, simplified into a
    simple path (whose weight is then at most the walk's).  Bellman–Ford
    style dynamic program over hop counts, O(max_hops · m).  Returns [None]
    when no walk within the hop budget exists. *)

val diameter : Graph.t -> int
(** Maximum hop distance between two vertices that reach each other,
    from one BFS per vertex.  O(n·m). *)
