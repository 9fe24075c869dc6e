(** The Section-8 lower-bound adversary, constructive.

    On the gadget [C(n,k)] (Fig. 1) every path between a left-star leaf and
    a right-star leaf crosses one of the [k] middle vertices.  Given any
    concrete [α]-ish-sparse path system, the proof of Lemma 8.1 finds — by
    a double pigeonhole and a Hall matching — a permutation demand between
    [k] leaf pairs all of whose candidate paths are funneled through the
    same [α] middle vertices, forcing semi-oblivious congestion [≥ k/α]
    while the offline optimum routes each pair through its own middle with
    congestion 1.  This module runs that construction against actual path
    systems, turning the impossibility proof into an experiment (E3). *)

type attack = {
  demand : Sso_demand.Demand.t;  (** The adversarial permutation demand. *)
  bottleneck : int list;  (** The middle-vertex set [S'] all candidates cross. *)
  pairs_matched : int;  (** [siz] of the demand (≤ k). *)
  predicted_congestion : float;
      (** The certified lower bound [pairs_matched / |S'|] on
          [cong_ℝ(P, demand)]; the offline optimum is 1. *)
}

val attack : Sso_graph.Gen.c_graph -> Path_system.t -> attack
(** Construct the adversarial demand for the given path system on
    [C(n,k)].  Works for any path system; the bound is strongest when the
    system is sparse (the hit-sets are then small).  The [demand] is a
    permutation demand with [opt_{G,ℤ} = 1] whenever [pairs_matched ≤ k]
    (each matched pair can use a private middle vertex).  Candidate
    bottleneck sets are scored concurrently on the pool; the winner is
    selected by the same deterministic fold at any [--jobs]. *)

val attack_in_family : Sso_graph.Gen.g_graph -> alpha:int -> Path_system.t -> attack
(** The Lemma 8.2 argument on the composite graph [G(n)]: locate the
    [C(n, ⌊n^(1/2α)⌋)] copy matching [alpha] and run {!attack} inside it
    (bridges cannot be re-crossed by simple paths, so candidates between a
    copy's leaves stay inside the copy and the Lemma 8.1 analysis applies
    verbatim).  @raise Not_found if [G(n)] has no copy for this [alpha]. *)
