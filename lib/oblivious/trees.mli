(** Spanning-tree oblivious routings.

    Routing along a single spanning tree is the canonical {e bad}
    competitive oblivious routing on rich graphs — every pair's traffic is
    forced onto n−1 edges.  A uniform mixture over several random spanning
    trees is better but still far from Räcke quality.  These serve as the
    ablation bases for experiment E11: Theorem 5.3's guarantee is relative
    to the base routing R, so α-samples of a poor R stay poor — "sample
    from any {e competitive} oblivious routing" is load-bearing. *)

val single : Sso_graph.Graph.t -> Sso_graph.Tree.t -> Oblivious.t
(** Deterministic routing along one spanning tree. *)

val uniform : Sso_prng.Rng.t -> ?count:int -> Sso_graph.Graph.t -> Oblivious.t
(** Uniform {!Oblivious.mixture} over [count] (default 8) independent
    uniformly random spanning trees (Wilson). *)
