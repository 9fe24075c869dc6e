(** Garg–Könemann maximum concurrent flow.

    The third, independent min-congestion engine (besides the exact LP and
    the MWU game solver): the classic width-independent fractional packing
    algorithm.  Min-congestion and max concurrent flow are duals — if
    [λ*] is the largest multiplier such that [λ*·d] fits with congestion
    ≤ 1, then [opt cong(d) = 1/λ*] — and Garg–Könemann approximates [λ*]
    within [1+ε] by repeatedly routing along cheapest paths under
    exponentially growing edge lengths.

    We return the accumulated path flows re-normalized into a per-pair
    distribution and its {e measured} congestion, so the result is always
    a feasible routing of [d] regardless of the approximation constant;
    the test suite cross-validates all three engines against each other. *)

val on_paths :
  ?epsilon:float ->
  Sso_graph.Graph.t ->
  Min_congestion.candidates ->
  Sso_demand.Demand.t ->
  Routing.t * float
(** Min-congestion routing restricted to candidate paths ([epsilon]
    defaults to 0.1; smaller = more accurate and slower).
    @raise Invalid_argument if a demanded pair has no candidates. *)

val on_slices :
  ?epsilon:float ->
  Sso_graph.Graph.t ->
  Min_congestion.slice_candidates ->
  Sso_demand.Demand.t ->
  Routing.t * float
(** {!on_paths} on a prebuilt slice index — the same phase loop and
    bit-identical output, walking the flat candidate arrays in place. *)

val unrestricted :
  ?epsilon:float ->
  Sso_graph.Graph.t -> Sso_demand.Demand.t -> Routing.t * float
(** Same with a Dijkstra cheapest-path oracle over all simple paths —
    approximates the offline optimum [opt_{G,ℝ}(d)]. *)
