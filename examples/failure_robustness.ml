(* Robustness to link failures — SMORE's other selling point.

   A semi-oblivious system installs its candidate paths once.  When a link
   dies, the candidates crossing it die too, and the operator's only lever
   is re-optimizing sending rates over the survivors (Stage 4 again) —
   installing new paths takes orders of magnitude longer.  The paper notes
   (Section 1) that sampled candidate sets are diverse enough for this to
   work; this example kills every link of a B4-like WAN in turn and
   measures how well the surviving candidates absorb it.

   Run with: dune exec examples/failure_robustness.exe *)

module Rng = Sso_prng.Rng
module Gen = Sso_graph.Gen
module Graph = Sso_graph.Graph
module Demand = Sso_demand.Demand
module Racke = Sso_oblivious.Racke
module Sampler = Sso_core.Sampler
module Scenario = Sso_fault.Scenario
module Sweep = Sso_fault.Sweep

let () =
  let rng = Rng.create 5 in
  let g, sites = Gen.b4 () in
  Printf.printf "network: B4-like WAN (%d sites, %d links)\n" (Graph.n g) (Graph.m g);
  Printf.printf "sites: %s...\n\n" (String.concat ", " (Array.to_list (Array.sub sites 0 5)));
  let demand = Demand.random_pairs (Rng.split rng) ~n:(Graph.n g) ~pairs:12 in
  let base = Racke.routing (Rng.split rng) g in
  Printf.printf "%d unit flows; failing each of the %d links in turn\n\n"
    (Demand.support_size demand) (Graph.m g);
  Printf.printf "%8s | %14s %12s %12s\n" "alpha" "stranded" "mean ratio" "worst ratio";
  List.iter
    (fun alpha ->
      let system = Sampler.alpha_sample (Rng.split rng) base ~alpha in
      let s = Sweep.summary (Sweep.run g system demand (Sweep.singles g)) in
      Printf.printf "%8d | %10d/%-3d %12.3f %12.3f\n" alpha
        s.Sweep.unsurvivable s.Sweep.scenarios s.Sweep.mean_ratio
        s.Sweep.worst_ratio)
    [ 1; 2; 4; 8 ];
  Printf.printf
    "\n'stranded' counts failures that left some flow without a surviving\n";
  Printf.printf
    "candidate; with alpha ~ 4 the sampled paths are diverse enough that\n";
  Printf.printf
    "rate re-optimization alone rides out nearly every single failure.\n\n";
  (* Beyond single links: correlated and adversarial scenarios, plus how
     fast a warm-started re-optimization recovers (lib/fault). *)
  let system = Sampler.alpha_sample (Rng.split rng) base ~alpha:4 in
  let scenarios =
    List.init (Graph.n g) (Scenario.incident g)
    @ List.init 4 (fun i -> Scenario.random_k (Rng.split_at (Rng.split rng) i) g ~k:2)
  in
  let reports =
    Sweep.run ~recovery:true g system demand scenarios
  in
  let s = Sweep.summary reports in
  Printf.printf
    "alpha=4 under %d node-failure SRLGs + 4 random 2-link cuts:\n"
    (Graph.n g);
  Printf.printf
    "  %d scenarios disconnect the WAN itself, %d strand a flow,\n"
    s.Sweep.disconnected s.Sweep.unsurvivable;
  Printf.printf
    "  survivable ones end %.3fx from the damaged optimum after ~%.0f\n"
    s.Sweep.mean_ratio s.Sweep.mean_recovery_rounds;
  Printf.printf "  warm-started MWU rounds (cold solves take hundreds).\n\n";
  let worst = Sweep.worst_k g system demand ~k:2 in
  Printf.printf "greedy worst-2 cut: %s -> ratio %.3f\n"
    worst.Sweep.scenario.Scenario.label worst.Sweep.ratio
