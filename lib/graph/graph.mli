(** Undirected capacitated multigraphs.

    The paper works with undirected connected graphs where parallel edges
    stand in for capacities.  We keep explicit parallel edges (each with its
    own id) {e and} allow a real-valued capacity per edge, which subsumes the
    parallel-edge model: a unit-capacity multigraph is obtained by adding
    each parallel edge with capacity [1.0].  Congestion throughout the
    repository is load divided by capacity, which coincides with the paper's
    path-count congestion on unit capacities.

    Vertices are integers [0 .. n-1].  Edges are identified by dense integer
    ids [0 .. m-1] so per-edge state (loads, lengths, flows) lives in flat
    arrays. *)

type t
(** Immutable graph. *)

type edge = private { id : int; u : int; v : int; cap : float }
(** An undirected edge between [u] and [v] with positive capacity. *)

module Builder : sig
  type graph := t

  type t
  (** Mutable graph under construction. *)

  val create : int -> t
  (** [create n] starts a graph on vertices [0 .. n-1]. *)

  val add_edge : ?cap:float -> t -> int -> int -> int
  (** [add_edge b u v] appends an edge and returns its id.  Self-loops are
      rejected; parallel edges are allowed.  [cap] defaults to [1.0] and
      must be positive. *)

  val build : t -> graph
  (** Freeze into an immutable graph. *)
end

val n : t -> int
(** Number of vertices. *)

val m : t -> int
(** Number of edges. *)

val edges : t -> edge array
(** All edges, indexed by id.  Do not mutate. *)

val cap : t -> int -> float
(** Capacity of edge [id]. *)

val endpoints : t -> int -> int * int
(** Endpoints [(u, v)] of edge [id], with [u <= v]. *)

val other_end : t -> int -> int -> int
(** [other_end g e v] is the endpoint of edge [e] that is not [v].
    @raise Invalid_argument if [v] is not an endpoint of [e]. *)

val adj : t -> int -> (int * int) array
(** [adj g v] lists [(edge_id, neighbor)] pairs incident to [v].  Do not
    mutate. *)

(** {1 Flat CSR adjacency}

    The incidence structure is also stored in compressed-sparse-row form:
    the incidence list of vertex [v] occupies positions
    [csr_offsets g .(v) .. csr_offsets g .(v+1) - 1] of the packed
    edge-id/target arrays, in exactly the same order as [adj g v].  Hot
    traversals iterate these flat int arrays instead of the boxed-tuple
    rows.  Do not mutate any of them. *)

val csr_offsets : t -> int array
(** [n + 1] offsets into the packed arrays; entry [n] is [2m]. *)

val csr_edge_ids : t -> int array
(** Packed incident edge ids, length [2m]. *)

val csr_targets : t -> int array
(** Packed neighbor vertices, aligned with {!csr_edge_ids}. *)

val iter_adj : t -> int -> (int -> int -> unit) -> unit
(** [iter_adj g v f] calls [f edge_id neighbor] for each incident edge of
    [v], in [adj] order, without materializing tuples. *)

val max_degree : t -> int

val is_connected : t -> bool

val fold_edges : (int -> int -> int -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_edges f g init] folds [f id u v cap] over all edges. *)

val total_capacity : t -> float
(** Sum of all edge capacities. *)
