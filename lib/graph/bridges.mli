(** Bridge (cut-edge) detection.

    A bridge is an edge whose removal disconnects its endpoints.  No
    program calls this module: it is the test oracle of [test_core]'s
    "robustness agrees with bridges" case, which checks that the single
    failures the fault sweep reports as disconnecting are exactly the
    bridges separating the demanded pair.  Tarjan low-link DFS,
    O(n + m); parallel edges are never bridges. *)

val find : Graph.t -> int list
(** Edge ids of all bridges, ascending. *)

val is_bridge : Graph.t -> int -> bool
(** O(n + m) per query; use {!find} for many queries. *)

val count : Graph.t -> int
