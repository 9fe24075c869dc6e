(** Failure scenarios: deterministic descriptions of what breaks.

    A scenario is a set of per-edge capacity changes — full removals
    (factor 0) and partial degradations (factor in (0,1), scaling the
    edge's capacity, i.e. its effective multiplicity in the paper's
    parallel-edge model).  Scenarios are pure data: they can be applied to
    a graph offline (for the sweeps of [Sweep]), scheduled on a timeline
    (for the mid-flight simulations of [Timeline]), hashed into artifact
    recipes, and round-tripped through the binary codec.

    Beyond single edges and random k-subsets, constructors derive
    {e shared-risk link groups} (SRLGs) from generator structure: a torus
    row or a fat-tree pod fails as one correlated event — the failure
    model real traffic-engineering deployments plan for (fiber conduits,
    pod power domains). *)

type failure = {
  fail_edge : int;  (** Edge id. *)
  fail_factor : float;
      (** Remaining capacity fraction in [0,1): 0 removes the edge,
          anything else degrades it. *)
}

type t = {
  label : string;  (** Stable human-readable name (part of the identity). *)
  failures : failure list;  (** Sorted by edge id, no duplicates. *)
}

val single : Sso_graph.Graph.t -> int -> t
(** Remove one edge — the classic sweep scenario. *)

val of_edges : ?label:string -> Sso_graph.Graph.t -> int list -> t
(** Remove the given edges. *)

val degrade :
  ?label:string -> Sso_graph.Graph.t -> factor:float -> int list -> t
(** Scale the given edges' capacities by [factor] ∈ (0,1) instead of
    removing them. *)

val random_k : Sso_prng.Rng.t -> Sso_graph.Graph.t -> k:int -> t
(** [k] distinct edges drawn uniformly.  Deterministic in the RNG state:
    sweeps split a child per scenario index ({!Sso_prng.Rng.split_at}) so
    results are independent of the job count. *)

(** {1 Structural shared-risk groups} *)

val torus_rows : Sso_graph.Graph.t -> rows:int -> cols:int -> t list
(** One SRLG per torus row: the [cols] wrap-around horizontal edges whose
    endpoints both lie in the row (vertex [(r,c)] has id [r·cols + c], the
    layout of [Gen.torus]).  Vertical edges survive, so the network stays
    connected — the interesting regime for failover.
    @raise Invalid_argument if the graph does not have [rows·cols]
    vertices. *)

val fat_tree_pods : Sso_graph.Graph.t -> k:int -> t list
(** One SRLG per pod of [Gen.fat_tree k]: every edge with at least one
    endpoint among the pod's k switches (intra-pod fabric and core
    uplinks) — a pod-wide power event.  @raise Invalid_argument if the
    vertex count does not match a [k]-ary fat tree. *)

val incident : Sso_graph.Graph.t -> int -> t
(** All edges incident to one vertex — a node failure expressed as an
    SRLG. *)

(** {1 Interrogation} *)

val edges : t -> int list
(** Failed edge ids, ascending. *)

val removed : t -> (int -> bool)
(** Predicate: is this edge fully removed (factor 0)?  Suitable as the
    [avoid] argument of the flow solvers. *)

val is_degradation : t -> bool
(** Does any failure keep positive capacity? *)

val apply : Sso_graph.Graph.t -> t -> Sso_graph.Graph.t
(** The degraded graph: capacities of partially-failed edges are scaled,
    edge ids and endpoints are preserved (the graph is rebuilt in id
    order), and fully-removed edges keep their capacity — removal is
    expressed via {!removed}, because capacities must stay positive and
    path systems filter dead candidates explicitly.  When the scenario
    contains no degradation the original graph is returned unchanged. *)

(** {1 Identity} *)

val digest : t -> int64
(** FNV-1a of a versioned binary encoding of the label and failures
    (over the artifact-store primitives) — the scenario component of
    artifact recipes. *)
