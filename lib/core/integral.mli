(** Integral semi-oblivious routing (Section 6, Definition 6.1).

    Each packet must travel on exactly one candidate path;
    [cong_ℤ(P,d)] is the minimum congestion over such choices.  Exact
    minimization is NP-hard in general, so we expose:

    - {!congestion_upper}: the paper's own constructive route — solve the
      fractional problem, round (Lemma 6.3), and locally improve — whose
      value is guaranteed [≤ 2·cong_ℝ(P,d) + 3 ln m] in expectation over
      retries;
    - {!brute_force}: exact [cong_ℤ(P,d)] by exhaustive search, for the
      small instances used in tests and the lower-bound experiments. *)

val congestion_upper :
  ?solver:Semi_oblivious.solver ->
  ?tries:int ->
  Sso_prng.Rng.t ->
  Sso_graph.Graph.t -> Path_system.t -> Sso_demand.Demand.t ->
  Sso_flow.Rounding.assignment * float
(** Fractional solve + best-of-[tries] rounding (default 10) + local
    search.  The demand must be integral. *)

val brute_force : Sso_graph.Graph.t -> Path_system.t -> Sso_demand.Demand.t -> float
(** Exact [cong_ℤ(P,d)] for {0,1}-demands by enumerating all candidate
    combinations (at most [2_000_000]; raises
    [Invalid_argument] beyond that or on non-{0,1} demands). *)
