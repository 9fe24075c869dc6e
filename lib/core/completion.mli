(** Completion-time semi-oblivious routing (Section 7, Lemma 2.8).

    The completion-time objective is congestion + dilation: by classical
    scheduling results [LMR94] a path assignment with congestion [c] and
    dilation [h] can deliver all packets in [O(c + h)] steps.  Optimizing
    congestion alone can be disastrous for this objective, so Lemma 2.8
    unions, over a geometric ladder of hop budgets [h_i], an α-sample of a
    hop-constrained oblivious routing per scale; Stage 4 then jointly picks
    the scale and the rates. *)

val ladder_hops : Sso_graph.Graph.t -> int list
(** The geometric hop ladder [h_1 = 1, h_{i+1} = ⌈h_i·2⌉, …] capped at the
    graph's diameter (the paper uses factor [log n]; a factor-2 ladder has
    [O(log)] rungs too and gives finer resolution at our scales). *)

val ladder_system :
  Sso_prng.Rng.t -> Sso_graph.Graph.t -> alpha:int -> Path_system.t
(** Lemma 2.8's construction: the union over the hop ladder of α-samples
    of hop-constrained oblivious routings (one per rung; rungs that cannot
    reach a pair contribute nothing for that pair). *)

val route :
  ?solver:Semi_oblivious.solver ->
  Sso_graph.Graph.t -> Path_system.t -> Sso_demand.Demand.t ->
  Sso_flow.Routing.t * float * int
(** Minimize congestion + dilation over the path system: for each hop
    threshold [h] realized by some candidate path, solve min-congestion on
    the ≤[h]-hop restriction and keep the best [cong + dil].  Returns
    (routing, congestion, dilation).  @raise Invalid_argument if a demanded
    pair has no candidates at all. *)
