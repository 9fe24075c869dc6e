(** The constructive pipeline of Theorem 5.3, end to end.

    The paper's proof is algorithmic, and this module runs it as an actual
    router for arbitrary demands — no LP/MWU solver involved, just the
    combinatorics of Section 5:

    + bucket the demand by the dyadic scale of [d(s,t)/(α+cut_G(s,t))]
      (Lemma 5.9's special-to-general reduction);
    + replace each bucket by the α-special demand on its support
      (Definition 5.5) — the bucket is within a factor 2 of a scaled copy;
    + route each special demand by repeatedly running the Lemma 5.6
      dynamic process and keeping the pairs that retained a quarter of
      their demand (Lemma 5.8's weak-to-strong reduction);
    + merge the per-bucket routings demand-proportionally (Lemma 5.15).

    The result is a valid fractional routing of the full demand on the
    path system whose congestion, in the regime the theorem promises
    (candidates sampled from a competitive oblivious routing, [γ] at the
    theorem's allowance), is [O(γ · log²m)]-ish.  The solver-based
    {!Semi_oblivious.route} is what production would use; this pipeline is
    the theorem made executable, and the experiments compare the two. *)

val route :
  gamma:float ->
  alpha:int ->
  Sso_graph.Graph.t -> Path_system.t -> Sso_demand.Demand.t ->
  Sso_flow.Routing.t * float
(** Run the pipeline with per-round congestion allowance [gamma] (measured
    in units of the special demands, i.e. absolute congestion per bucket
    round).  Returns the routing of the original demand and its measured
    congestion.  @raise Invalid_argument if a demanded pair has no
    candidates. *)
