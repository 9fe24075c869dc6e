(** Integral routings: randomized rounding (Lemma 6.3) plus local search.

    The paper's rounding lemma: for any routing [R] and integral demand
    [d], there is a routing on [supp(R)] that is integral on [d] with
    congestion at most [2·cong(R,d) + 3·ln m].  The constructive proof
    samples [d(s,t)] paths per pair from [R(s,t)]; we implement exactly
    that, expose a best-of-[tries] variant (the lemma is existential, so we
    are allowed to retry), and a greedy local search that moves single
    packets off the most congested edge, which tightens constants in
    practice. *)

type assignment = ((int * int) * Sso_graph.Path.t array) array
(** One entry per demanded pair; the array holds one path per packet
    (so its length is [d(s,t)], which must be a whole number). *)

val round :
  Sso_prng.Rng.t -> Routing.t -> Sso_demand.Demand.t -> assignment
(** Sample [d(s,t)] paths i.i.d. from [R(s,t)] for each pair (the rounding
    of Lemma 6.3).  @raise Invalid_argument if the demand is not integral
    or a demanded pair is missing from the routing. *)

val congestion : Sso_graph.Graph.t -> assignment -> float
(** Max edge congestion of the assignment (load / capacity). *)

val best_round :
  ?tries:int ->
  Sso_prng.Rng.t -> Sso_graph.Graph.t -> Routing.t -> Sso_demand.Demand.t -> assignment
(** Repeat {!round} [tries] times (default 10) and keep the least congested
    draw. *)

val local_search :
  Sso_graph.Graph.t ->
  candidates:(int -> int -> Sso_graph.Path.t list) ->
  assignment -> assignment
(** Greedy improvement: repeatedly take a packet crossing a maximally
    congested edge and move it to the candidate path minimizing the
    resulting maximum congestion over that edge's alternatives; stop at a
    local optimum or after 10·packets moves.  Only
    candidate paths for the packet's own pair are considered, so the result
    stays within the path system. *)
