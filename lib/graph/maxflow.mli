(** Maximum flow / minimum cut via Dinic's algorithm.

    The paper's [(α + cut_G)]-samples need [cut_G(s,t)], the value of the
    minimum (s,t)-cut where every parallel edge counts once (equivalently,
    max-flow with unit capacities).  We implement Dinic on the residual
    digraph obtained by replacing each undirected edge of capacity [c] with
    a pair of opposite arcs of capacity [c] each — a standard reduction
    whose max-flow value equals the undirected one. *)

val max_flow : Graph.t -> int -> int -> float
(** Value of a maximum (s,t)-flow (capacities from the graph).
    [max_flow g v v = 0.].  O(n²·m) worst case; much faster in practice. *)

val cut : Graph.t -> int -> int -> int
(** [cut g s t] is [cut_G(s,t)] from the paper: minimum number of edges
    (each counted once, ignoring real capacities) whose removal separates
    [s] from [t]; [0] when [s = t].  Computed as unit-capacity max-flow,
    rounded to the nearest integer. *)
