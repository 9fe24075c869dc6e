(* End-to-end integration tests: the full five-stage pipeline of the paper
   on a variety of topologies, with cross-library invariants checked at
   every step.  These are the tests that catch wiring mistakes no unit
   test sees: sampling from a routing built on one graph, solving with one
   engine and validating with another, rounding, simulating, attacking. *)

module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Gen = Sso_graph.Gen
module Maxflow = Sso_graph.Maxflow
module Demand = Sso_demand.Demand
module Workload = Sso_demand.Workload
module Routing = Sso_flow.Routing
module Min_congestion = Sso_flow.Min_congestion
module Rounding = Sso_flow.Rounding
module Oblivious = Sso_oblivious.Oblivious
module Valiant = Sso_oblivious.Valiant
module Deterministic = Sso_oblivious.Deterministic
module Ksp = Sso_oblivious.Ksp
module Racke = Sso_oblivious.Racke
module Hop_constrained = Sso_oblivious.Hop_constrained
module Trees = Sso_oblivious.Trees
module Path_system = Sso_core.Path_system
module Sampler = Sso_core.Sampler
module Semi_oblivious = Sso_core.Semi_oblivious
module Integral = Sso_core.Integral
module Completion = Sso_core.Completion
module Sweep = Sso_fault.Sweep
module Simulator = Sso_sim.Simulator

(* Full pipeline on one (graph, base, demand) combination: sample, solve
   with MWU, check against LP, round, locally improve, simulate.  Every
   step's invariants are asserted. *)
let pipeline ~name g base demand alpha seed =
  let rng = Rng.create seed in
  (* Stage 2: sample. *)
  let system = Sampler.alpha_sample (Rng.split rng) base ~alpha in
  let pairs = Demand.support demand in
  Alcotest.(check bool) (name ^ ": sparse") true
    (Path_system.is_alpha_sparse system ~alpha pairs);
  (* Stage 4 fractional: two engines agree. *)
  let routing, mwu = Semi_oblivious.route ~solver:(Semi_oblivious.Mwu 400) g system demand in
  Alcotest.(check bool) (name ^ ": covers") true (Routing.covers routing demand);
  let _, lp = Semi_oblivious.route ~solver:Semi_oblivious.Lp g system demand in
  Alcotest.(check bool)
    (Printf.sprintf "%s: engines agree (lp %.3f mwu %.3f)" name lp mwu)
    true
    (mwu >= lp -. 1e-6 && mwu <= (lp *. 1.25) +. 0.05);
  (* Stage 5: restricted can't beat unrestricted. *)
  let opt = Semi_oblivious.opt ~solver:(Semi_oblivious.Mwu 300) g demand in
  let lower = Min_congestion.lower_bound_sparse_cut g demand in
  Alcotest.(check bool) (name ^ ": certified bound below opt estimate") true
    (lower <= opt +. 1e-6);
  Alcotest.(check bool) (name ^ ": restricted above certified bound") true
    (lp >= lower -. 1e-6);
  (* Integral: rounding bound (Cor 6.4). *)
  if Demand.is_integral demand then begin
    let assignment, integral = Integral.congestion_upper (Rng.split rng) g system demand in
    let bound = (2.0 *. lp) +. (3.0 *. Float.log (float_of_int (Graph.m g))) in
    Alcotest.(check bool)
      (Printf.sprintf "%s: Cor 6.4 (%.2f <= %.2f)" name integral bound)
      true (integral <= bound +. 1e-6);
    (* Simulate: all packets delivered, makespan within schedule bounds. *)
    let stats = Simulator.completed_exn (Simulator.run g assignment) in
    let expected =
      Array.fold_left (fun acc (_, paths) -> acc + Array.length paths) 0 assignment
    in
    Alcotest.(check int) (name ^ ": all delivered") expected stats.Simulator.delivered;
    Alcotest.(check bool) (name ^ ": makespan in bounds") true
      (stats.Simulator.makespan >= Simulator.lower_bound g assignment
      && stats.Simulator.makespan <= Simulator.upper_bound_cd g assignment)
  end

let test_pipeline_hypercube () =
  let g = Gen.hypercube 4 in
  pipeline ~name:"hypercube" g (Valiant.routing g) (Demand.bit_reversal 4) 4 1

let test_pipeline_grid_racke () =
  let g = Gen.grid 4 4 in
  let rng = Rng.create 2 in
  let d = Demand.random_permutation (Rng.split rng) 16 in
  pipeline ~name:"grid" g (Racke.routing (Rng.split rng) g) d 4 2

let test_pipeline_expander () =
  let rng = Rng.create 3 in
  let g = Gen.random_regular (Rng.split rng) 20 4 in
  let d = Demand.random_pairs (Rng.split rng) ~n:20 ~pairs:8 in
  pipeline ~name:"expander" g (Ksp.routing ~k:5 g) d 3 3

let test_pipeline_torus_trees () =
  let rng = Rng.create 4 in
  let g = Gen.torus 4 4 in
  let d = Demand.ring_shift ~n:16 ~shift:5 in
  pipeline ~name:"torus" g (Trees.uniform (Rng.split rng) ~count:6 g) d 3 4

let test_pipeline_wan_gravity () =
  let rng = Rng.create 5 in
  let g, _ = Gen.abilene () in
  (* Gravity demands are fractional: integral phase is skipped inside. *)
  let d = Demand.gravity (Rng.split rng) ~n:11 ~total:30.0 in
  pipeline ~name:"wan" g (Racke.routing (Rng.split rng) g) d 4 5

let test_pipeline_fat_tree () =
  let rng = Rng.create 6 in
  let g = Gen.fat_tree 4 in
  let d = Demand.random_pairs (Rng.split rng) ~n:(Graph.n g) ~pairs:10 in
  pipeline ~name:"fat-tree" g (Ksp.routing ~k:4 g) d 4 6

(* The d-dimensional wrapped butterfly on (d+1)·2^d vertices: vertex
   (level, row) has id level·2^d + row; level l connects to level l+1
   straight and crossing bit l. *)
let butterfly d =
  let rows = 1 lsl d in
  let id level row = (level * rows) + row in
  let b = Graph.Builder.create ((d + 1) * rows) in
  for level = 0 to d - 1 do
    for row = 0 to rows - 1 do
      ignore (Graph.Builder.add_edge b (id level row) (id (level + 1) row));
      ignore (Graph.Builder.add_edge b (id level row) (id (level + 1) (row lxor (1 lsl level))))
    done
  done;
  Graph.Builder.build b

(* The undirected de Bruijn graph on 2^d vertices: v is adjacent to
   2v mod 2^d and 2v+1 mod 2^d (parallel edges collapsed, self-loops
   dropped). *)
let de_bruijn d =
  let n = 1 lsl d in
  let b = Graph.Builder.create n in
  let seen = Hashtbl.create (2 * n) in
  for v = 0 to n - 1 do
    List.iter
      (fun w ->
        if v <> w && not (Hashtbl.mem seen (min v w, max v w)) then begin
          Hashtbl.add seen (min v w, max v w) ();
          ignore (Graph.Builder.add_edge b v w)
        end)
      [ 2 * v mod n; ((2 * v) + 1) mod n ]
  done;
  Graph.Builder.build b

let test_pipeline_butterfly () =
  let rng = Rng.create 7 in
  let g = butterfly 3 in
  let d = Demand.random_pairs (Rng.split rng) ~n:(Graph.n g) ~pairs:10 in
  pipeline ~name:"butterfly" g (Ksp.routing ~k:3 g) d 3 7

let test_pipeline_de_bruijn () =
  let rng = Rng.create 8 in
  let g = de_bruijn 4 in
  let d = Demand.random_permutation (Rng.split rng) 16 in
  pipeline ~name:"de-bruijn" g (Ksp.routing ~k:4 g) d 3 8

(* Completion-time pipeline: the hop-aware router's objective value is
   never worse than the congestion-only router's. *)
let test_completion_never_worse () =
  let rng = Rng.create 9 in
  let g = Gen.multi_path [ 2; 5; 5 ] in
  let system = Completion.ladder_system (Rng.split rng) g ~alpha:3 in
  List.iter
    (fun packets ->
      let d = Demand.single_pair 0 1 (float_of_int packets) in
      let r, cong_only = Semi_oblivious.route ~solver:(Semi_oblivious.Mwu 200) g system d in
      let blind = cong_only +. float_of_int (Routing.dilation r d) in
      let _, cong, dil = Completion.route ~solver:(Semi_oblivious.Mwu 200) g system d in
      let aware = cong +. float_of_int dil in
      Alcotest.(check bool)
        (Printf.sprintf "packets=%d: aware %.2f <= blind %.2f" packets aware blind)
        true
        (aware <= blind +. 0.15))
    [ 1; 3; 9 ]

(* A day of traffic through one installed system: every epoch feasible,
   ratios bounded. *)
let test_workday_over_fixed_system () =
  let rng = Rng.create 10 in
  let g, _ = Gen.abilene () in
  let base = Racke.routing (Rng.split rng) g in
  let system = Sampler.alpha_sample (Rng.split rng) base ~alpha:4 in
  let day = Workload.diurnal (Rng.split rng) ~n:11 ~epochs:6 ~peak_total:40.0 in
  List.iter
    (fun d ->
      let cong = Semi_oblivious.congestion ~solver:(Semi_oblivious.Mwu 200) g system d in
      let opt = Semi_oblivious.opt ~solver:(Semi_oblivious.Mwu 200) g d in
      Alcotest.(check bool)
        (Printf.sprintf "epoch ratio %.2f bounded" (cong /. opt))
        true
        (cong /. opt <= 2.0))
    day

(* Failure, then reroute, then simulate: the surviving system still
   delivers everything. *)
let test_failure_then_simulate () =
  let rng = Rng.create 11 in
  let g = Gen.torus 4 4 in
  let base = Racke.routing (Rng.split rng) g in
  let system = Sampler.alpha_sample (Rng.split rng) base ~alpha:6 in
  let d = Demand.random_pairs (Rng.split rng) ~n:16 ~pairs:6 in
  let reports =
    Sweep.run ~solver:(Semi_oblivious.Mwu 150) g system d (Sweep.singles g)
  in
  let survivable =
    List.filter_map
      (fun (r : Sweep.report) ->
        if r.Sweep.survivable then Some (List.hd (Sso_fault.Scenario.edges r.Sweep.scenario))
        else None)
      reports
  in
  Alcotest.(check bool) "most failures survivable" true
    (List.length survivable >= Graph.m g / 2);
  match survivable with
  | [] -> Alcotest.fail "expected a survivable failure"
  | failed :: _ ->
      let survivors =
        Path_system.filter (fun a i -> not (Sso_graph.Arena.exists a i (( = ) failed))) system
      in
      let assignment, _ =
        Integral.congestion_upper (Rng.split rng) g survivors d
      in
      let stats = Simulator.completed_exn (Simulator.run g assignment) in
      Alcotest.(check int) "all delivered after failure"
        (int_of_float (Demand.siz d))
        stats.Simulator.delivered;
      (* And no delivered packet crosses the dead edge. *)
      Array.iter
        (fun (_, paths) ->
          Array.iter
            (fun p ->
              Alcotest.(check bool) "avoids failed edge" false
                (Path.mem_edge p failed))
            paths)
        assignment

(* Hop-constrained sampling composes with the integral machinery. *)
let test_hop_ladder_integral_simulation () =
  let rng = Rng.create 12 in
  let g = Gen.grid 4 4 in
  let system = Completion.ladder_system (Rng.split rng) g ~alpha:2 in
  let d = Demand.random_pairs (Rng.split rng) ~n:16 ~pairs:5 in
  let routing, cong, dil = Completion.route ~solver:(Semi_oblivious.Mwu 150) g system d in
  Alcotest.(check bool) "feasible" true (cong > 0.0 && dil > 0);
  Alcotest.(check bool) "covers" true (Routing.covers routing d)

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "hypercube + valiant" `Slow test_pipeline_hypercube;
          Alcotest.test_case "grid + racke" `Slow test_pipeline_grid_racke;
          Alcotest.test_case "expander + ksp" `Slow test_pipeline_expander;
          Alcotest.test_case "torus + wilson trees" `Slow test_pipeline_torus_trees;
          Alcotest.test_case "wan + gravity" `Slow test_pipeline_wan_gravity;
          Alcotest.test_case "fat tree" `Slow test_pipeline_fat_tree;
          Alcotest.test_case "butterfly" `Slow test_pipeline_butterfly;
          Alcotest.test_case "de bruijn" `Slow test_pipeline_de_bruijn;
        ] );
      ( "cross-feature",
        [
          Alcotest.test_case "completion never worse" `Slow test_completion_never_worse;
          Alcotest.test_case "workday over fixed system" `Slow test_workday_over_fixed_system;
          Alcotest.test_case "failure then simulate" `Slow test_failure_then_simulate;
          Alcotest.test_case "hop ladder integral" `Slow test_hop_ladder_integral_simulation;
        ] );
    ]
