(* Tests for the fault-injection subsystem: scenario construction,
   SRLG derivation, offline sweeps (golden single-failure pins,
   jobs-invariance, warm-started recovery), and
   mid-flight failover in the simulator. *)

module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Gen = Sso_graph.Gen
module Demand = Sso_demand.Demand
module Rounding = Sso_flow.Rounding
module Path_system = Sso_core.Path_system
module Sampler = Sso_core.Sampler
module Semi_oblivious = Sso_core.Semi_oblivious
module Ksp = Sso_oblivious.Ksp
module Codec = Sso_artifact.Codec
module Simulator = Sso_sim.Simulator
module Scenario = Sso_fault.Scenario
module Timeline = Sso_fault.Timeline
module Sweep = Sso_fault.Sweep

let solver = Semi_oblivious.Mwu 100

let assignment_of_paths entries : Rounding.assignment =
  Array.of_list (List.map (fun (pair, paths) -> (pair, Array.of_list paths)) entries)

(* ---------- Scenario construction ---------- *)

let test_scenario_validation () =
  let g = Gen.path_graph 4 in
  let check_invalid name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  check_invalid "edge out of range" (fun () -> Scenario.single g 99);
  check_invalid "negative edge" (fun () -> Scenario.of_edges g [ -1 ]);
  check_invalid "duplicate edges" (fun () -> Scenario.of_edges g [ 1; 1 ]);
  check_invalid "factor 1 not a failure" (fun () -> Scenario.degrade g ~factor:1.0 [ 0 ]);
  check_invalid "degrade factor 0" (fun () -> Scenario.degrade g ~factor:0.0 [ 1 ]);
  (* Failures come out sorted regardless of input order. *)
  let s = Scenario.of_edges g [ 2; 0 ] in
  Alcotest.(check (list int)) "sorted" [ 0; 2 ] (Scenario.edges s)

let test_scenario_predicates () =
  let g = Gen.path_graph 4 in
  let cut = Scenario.of_edges g [ 0 ] and degraded = Scenario.degrade g ~factor:0.5 [ 2 ] in
  Alcotest.(check bool) "edge 0 removed" true (Scenario.removed cut 0);
  Alcotest.(check bool) "edge 2 only degraded" false (Scenario.removed degraded 2);
  Alcotest.(check bool) "edge 1 untouched" false (Scenario.removed cut 1);
  Alcotest.(check bool) "has degradation" true (Scenario.is_degradation degraded);
  Alcotest.(check bool) "removal is no degradation" false (Scenario.is_degradation cut);
  let g' = Scenario.apply g degraded in
  Alcotest.(check int) "same edge count" (Graph.m g) (Graph.m g');
  Alcotest.(check (float 1e-12)) "edge 2 scaled" 0.5 (Graph.cap g' 2);
  Alcotest.(check (float 1e-12)) "edge 0 cap kept" (Graph.cap g 0) (Graph.cap g' 0);
  (* Removal is expressed via [removed], not via capacity. *)
  Alcotest.(check bool) "pure removal returns same graph" true
    (Scenario.apply g cut == g)

let test_torus_rows_structure () =
  let rows = 4 and cols = 4 in
  let g = Gen.torus rows cols in
  let groups = Scenario.torus_rows g ~rows ~cols in
  Alcotest.(check int) "one group per row" rows (List.length groups);
  List.iteri
    (fun r s ->
      Alcotest.(check int)
        (Printf.sprintf "row %d has %d edges" r cols)
        cols
        (List.length (Scenario.edges s));
      List.iter
        (fun e ->
          let u, v = Graph.endpoints g e in
          Alcotest.(check int) "u in row" r (u / cols);
          Alcotest.(check int) "v in row" r (v / cols))
        (Scenario.edges s))
    groups

let test_fat_tree_pods_structure () =
  let k = 4 in
  let g = Gen.fat_tree k in
  let pods = Scenario.fat_tree_pods g ~k in
  Alcotest.(check int) "one group per pod" k (List.length pods);
  let cores = k * k / 4 in
  List.iteri
    (fun p s ->
      let lo = cores + (p * k) and hi = cores + ((p + 1) * k) in
      let in_pod v = v >= lo && v < hi in
      Alcotest.(check bool)
        (Printf.sprintf "pod %d nonempty" p)
        true
        (Scenario.edges s <> []);
      List.iter
        (fun e ->
          let u, v = Graph.endpoints g e in
          Alcotest.(check bool) "touches the pod" true (in_pod u || in_pod v))
        (Scenario.edges s))
    pods

(* ---------- Sweeps ---------- *)

(* Two disjoint 2-hop routes between 0 and 1. *)
let redundant_fixture () =
  let g = Gen.multi_path [ 2; 2 ] in
  let a = Path.of_vertices g [ 0; 2; 1 ] in
  let b = Path.of_vertices g [ 0; 3; 1 ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ a; b ]) ] in
  (g, ps, Demand.single_pair 0 1 1.0)

(* Golden pins: (edge, survivable, achieved bits, post_opt bits) as the
   former dedicated single-failure evaluator reported them, before
   [Sweep.run (Sweep.singles g)] replaced it.  Recorded, not derived. *)
let singles_redundant_pin =
  [
    (0, true, 0x3ff0000000000000L, 0x3ff0000000000000L);
    (1, true, 0x3ff0000000000000L, 0x3ff0000000000000L);
    (2, true, 0x3ff0000000000000L, 0x3ff0000000000000L);
    (3, true, 0x3ff0000000000000L, 0x3ff0000000000000L);
  ]

(* Bench E14's KSP-4 system: Abilene, 10 unit flows from child 43 of
   seed 0, Mwu 200. *)
let singles_e14_ksp4_pin =
  [
    (0, true, 0x3fd34395810624ddL, 0x3fd34395810624ddL);
    (1, true, 0x3fd3645a1cac0831L, 0x3fd3645a1cac0832L);
    (2, true, 0x3fd3333333333333L, 0x3fd3333333333333L);
    (3, true, 0x3fd35c28f5c28f5cL, 0x3fd3645a1cac0832L);
    (4, true, 0x3fe3333333333333L, 0x3fe3333333333334L);
    (5, true, 0x3fe3333333333333L, 0x3fe3333333333333L);
    (6, true, 0x3fd3645a1cac0832L, 0x3fd3645a1cac0832L);
    (7, false, 0x7ff0000000000000L, 0x3fd9999999999999L);
    (8, true, 0x3fd999999999999aL, 0x3fd999999999999aL);
    (9, true, 0x3fd34395810624deL, 0x3fd34395810624ddL);
    (10, true, 0x3fd3333333333333L, 0x3fd34395810624ddL);
    (11, true, 0x3fd33b645a1cac08L, 0x3fd34bc6a7ef9db2L);
    (12, true, 0x3fd34395810624deL, 0x3fd34395810624ddL);
    (13, true, 0x3fd33b645a1cac08L, 0x3fd33b645a1cac0aL);
  ]

let test_sweep_singles_agrees_with_robustness () =
  let show (e, survivable, achieved, post_opt) =
    Printf.sprintf "edge %d %b %Lx %Lx" e survivable achieved post_opt
  in
  let check name pin ~solver g ps d =
    let got =
      List.mapi
        (fun e (r : Sweep.report) ->
          ( e,
            r.Sweep.survivable,
            Int64.bits_of_float r.Sweep.achieved,
            Int64.bits_of_float r.Sweep.post_opt ))
        (Sweep.run ~solver g ps d (Sweep.singles g))
    in
    Alcotest.(check (list string)) name (List.map show pin) (List.map show got)
  in
  let g, ps, d = redundant_fixture () in
  check "redundant fixture" singles_redundant_pin ~solver g ps d;
  let rng = Rng.split_at (Rng.create 0) 43 in
  let g, _ = Gen.abilene () in
  let d = Demand.random_pairs (Rng.split rng) ~n:(Graph.n g) ~pairs:10 in
  let ps = Path_system.of_oblivious_support (Ksp.routing ~k:4 g) in
  check "E14 KSP-4" singles_e14_ksp4_pin ~solver:(Semi_oblivious.Mwu 200) g ps d

let test_sweep_multi_failure_strands () =
  (* Three disjoint routes but only two installed as candidates.  One
     failure per installed route strands the pair even though the third
     route keeps the network connected; failing all three disconnects
     it. *)
  let g = Gen.multi_path [ 3; 3; 3 ] in
  let a = Path.of_vertices g [ 0; 2; 3; 1 ] in
  let b = Path.of_vertices g [ 0; 4; 5; 1 ] in
  let c = Path.of_vertices g [ 0; 6; 7; 1 ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ a; b ]) ] in
  let d = Demand.single_pair 0 1 1.0 in
  let one = Scenario.of_edges g [ a.Path.edges.(0) ] in
  let two = Scenario.of_edges g [ a.Path.edges.(0); b.Path.edges.(1) ] in
  let all3 = Scenario.of_edges g [ a.Path.edges.(0); b.Path.edges.(0); c.Path.edges.(2) ] in
  match Sweep.run ~solver g ps d [ one; two; all3 ] with
  | [ r1; r2; r3 ] ->
      Alcotest.(check bool) "one failure survivable" true r1.Sweep.survivable;
      Alcotest.(check bool) "ratio finite" true (Float.is_finite r1.Sweep.ratio);
      Alcotest.(check bool) "both candidates dead: still connected" true r2.Sweep.connected;
      Alcotest.(check bool) "both candidates dead: stranded" false r2.Sweep.survivable;
      Alcotest.(check bool) "all routes dead: disconnected" false r3.Sweep.connected
  | _ -> Alcotest.fail "expected three reports"

let test_sweep_degradation_capacity_aware () =
  (* Halving one route's capacity is survivable but costs congestion. *)
  let g, ps, d = redundant_fixture () in
  let a = Path.of_vertices g [ 0; 2; 1 ] in
  let s = Scenario.degrade g ~factor:0.5 [ a.Path.edges.(0) ] in
  match Sweep.run ~solver g ps d [ s ] with
  | [ r ] ->
      Alcotest.(check bool) "survivable" true r.Sweep.survivable;
      Alcotest.(check bool) "no candidate lost" true (Float.is_finite r.Sweep.achieved)
  | _ -> Alcotest.fail "expected one report"

let torus_sweep_fixture seed =
  let rng = Rng.create seed in
  let rows = 4 and cols = 4 in
  let g = Gen.torus rows cols in
  let base = Sso_oblivious.Ksp.routing ~k:4 g in
  let system = Sampler.alpha_sample (Rng.split rng) base ~alpha:4 in
  let d = Demand.random_pairs (Rng.split rng) ~n:(Graph.n g) ~pairs:5 in
  let scenarios =
    Scenario.torus_rows g ~rows ~cols
    @ List.init 3 (fun i -> Scenario.random_k (Rng.split_at (Rng.split rng) i) g ~k:2)
  in
  (g, system, d, scenarios)

let test_sweep_jobs_invariance () =
  let g, system, d, scenarios = torus_sweep_fixture 5 in
  let at_jobs jobs =
    Support.with_jobs jobs (fun () ->
        Sweep.run ~solver ~recovery:true g system d scenarios)
  in
  let r1 = at_jobs 1 and r4 = at_jobs 4 in
  (* compare, not (=): unmeasured warm_congestion is nan. *)
  Alcotest.(check bool) "jobs 1 = jobs 4" true (compare r1 r4 = 0)

let test_worst_k_jobs_invariance_and_monotone () =
  let g, system, d, _ = torus_sweep_fixture 6 in
  let at_jobs jobs =
    Support.with_jobs jobs (fun () -> Sweep.worst_k ~solver ~candidates:4 g system d ~k:2)
  in
  let w1 = at_jobs 1 and w4 = at_jobs 4 in
  Alcotest.(check bool) "jobs 1 = jobs 4" true (compare w1 w4 = 0);
  (* The greedy pair is at least as damaging as the worst single edge. *)
  let singles = Sweep.run ~solver g system d (Sweep.singles g) in
  let worst_single =
    List.fold_left
      (fun acc r -> if r.Sweep.connected then Float.max acc r.Sweep.ratio else acc)
      0.0 singles
  in
  Alcotest.(check bool)
    (Printf.sprintf "worst-2 %.3f >= worst single %.3f" w1.Sweep.ratio worst_single)
    true
    ((not w1.Sweep.connected) || w1.Sweep.ratio >= worst_single -. 1e-9)

let test_sweep_recovery_measured () =
  let g, ps, d = redundant_fixture () in
  let reports =
    Sweep.run ~solver ~recovery:true g ps d (Sweep.singles g)
  in
  List.iter
    (fun r ->
      if r.Sweep.survivable then begin
        (* The ladder and tolerance documented at [Sweep.run]. *)
        Alcotest.(check bool) "rung from the ladder" true
          (List.mem r.Sweep.recovery_rounds [ 10; 20; 40; 80 ]);
        Alcotest.(check bool) "warm within tolerance" true
          (r.Sweep.warm_congestion <= (1.05 *. r.Sweep.achieved) +. 1e-9)
      end
      else Alcotest.(check int) "unmeasured" (-1) r.Sweep.recovery_rounds)
    reports;
  let s = Sweep.summary reports in
  Alcotest.(check bool) "mean recovery measured" true
    (Float.is_finite s.Sweep.mean_recovery_rounds)

let test_resolve_warm_start_matches_cold_quality () =
  (* A warm-started re-solve reaches (at least) cold-solve quality with few
     rounds on a small instance. *)
  let g, ps, d = redundant_fixture () in
  let pre, _ = Semi_oblivious.route ~solver g ps d in
  let _, cold = Semi_oblivious.route ~solver:(Semi_oblivious.Mwu 40) g ps d in
  let _, warm =
    Semi_oblivious.route ~solver:(Semi_oblivious.Mwu 40) ~warm_start:(pre, 60) g ps d
  in
  Alcotest.(check bool)
    (Printf.sprintf "warm %.4f <= 1.1 * cold %.4f" warm cold)
    true
    (warm <= (1.1 *. cold) +. 1e-9)

(* Golden pin for warm recovery on a survivor system, recorded before the
   two warm-start routines were merged: the pre-failure routing seeds the
   re-solve on the candidates that avoid the failed edge, so some pairs
   lose candidates (their surviving mass is renormalized) and the rest
   keep theirs. *)
let routing_digest (r, value) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (s, t) ->
      Printf.bprintf b "%d %d:" s t;
      List.iter
        (fun (w, (p : Path.t)) ->
          Printf.bprintf b " %Lx[" (Int64.bits_of_float w);
          Array.iter (Printf.bprintf b "%d,") p.Path.edges;
          Buffer.add_char b ']')
        (Sso_flow.Routing.distribution r s t);
      Buffer.add_char b '\n')
    (Sso_flow.Routing.pairs r);
  Printf.bprintf b "value %Lx" (Int64.bits_of_float value);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_warm_recovery_golden () =
  let g, system, d, _ = torus_sweep_fixture 5 in
  let pre, _ = Semi_oblivious.route ~solver g system d in
  (* The first edge of the heaviest path of the first pair fails. *)
  let s, t = List.hd (Demand.support d) in
  let failed =
    match Sso_flow.Routing.distribution pre s t with
    | (_, p) :: _ -> p.Path.edges.(0)
    | [] -> Alcotest.fail "pre-failure routing misses a demanded pair"
  in
  let survivors =
    Path_system.filter (fun a i -> not (Sso_graph.Arena.exists a i (( = ) failed))) system
  in
  Alcotest.(check string) "warm recovery on survivors" "af3752173c2c07ed7fd0f64a04e21cac"
    (routing_digest
       (Semi_oblivious.route ~solver:(Semi_oblivious.Mwu 40) ~warm_start:(pre, 60) g
          survivors d))

(* ---------- Timeline / mid-flight failover ---------- *)

let dumbbell_fixture () =
  (* Direct 1-hop route and a disjoint 3-hop detour between 0 and 1. *)
  let g = Gen.multi_path [ 1; 3 ] in
  let direct = Path.of_vertices g [ 0; 1 ] in
  let long = Path.of_vertices g [ 0; 2; 3; 1 ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ direct; long ]) ] in
  (g, direct, long, ps)

let test_timeline_entry_validation () =
  let g, direct, _, _ = dumbbell_fixture () in
  let s = Scenario.of_edges g [ direct.Path.edges.(0) ] in
  let invalid name f =
    Alcotest.(check bool) name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  invalid "fail_at 0" (fun () -> Timeline.entry ~at:0 s);
  invalid "repair before failure" (fun () -> Timeline.entry ~repair_at:2 ~at:2 s)

(* One packet on [path] through a timeline that fails [dead] at step
   [at]: (rerouted, dropped, delivered, makespan). *)
let one_packet_under_failure ~path ~dead ~at =
  let g, _, _, ps = dumbbell_fixture () in
  let a = assignment_of_paths [ ((0, 1), [ path ]) ] in
  let fs =
    Simulator.value (Timeline.simulate g ps a [ Timeline.entry ~at (Scenario.of_edges g dead) ])
  in
  ( fs.Simulator.rerouted,
    fs.Simulator.dropped,
    fs.Simulator.base.Simulator.delivered,
    fs.Simulator.base.Simulator.makespan )

let outcome = Alcotest.(pair (pair int int) (pair int int))
let flat (r, d, v, m) = ((r, d), (v, m))

let test_candidate_failover_prefers_suffix () =
  (* The direct edge dies before the packet crosses it: the packet takes
     the 3-hop detour. *)
  let _, direct, _, _ = dumbbell_fixture () in
  Alcotest.check outcome "takes the detour" ((1, 0), (1, 3))
    (flat (one_packet_under_failure ~path:direct ~dead:[ direct.Path.edges.(0) ] ~at:1))

let test_candidate_failover_bridges () =
  (* The packet sits at vertex 2 on the detour when its next hop dies.
     No surviving candidate passes through 2, so the policy must BFS a
     bridge back to the direct route and follow it home: 2 -> 0 -> 1,
     arriving at step 3. *)
  let _, _, long, _ = dumbbell_fixture () in
  Alcotest.check outcome "bridges back through the source" ((1, 0), (1, 3))
    (flat (one_packet_under_failure ~path:long ~dead:[ long.Path.edges.(1) ] ~at:2))

let test_candidate_failover_none () =
  let _, direct, long, _ = dumbbell_fixture () in
  (* Stranded: the next hop AND the way back both die, so no bridge to
     the surviving direct route exists from vertex 2. *)
  let rerouted, dropped, delivered, _ =
    one_packet_under_failure ~path:long ~dead:[ long.Path.edges.(0); long.Path.edges.(1) ] ~at:2
  in
  Alcotest.(check (list int)) "no bridge: dropped" [ 0; 1; 0 ] [ rerouted; dropped; delivered ];
  (* No candidate survives at all: nothing to fail over to, even from
     the source itself. *)
  let rerouted, dropped, delivered, _ =
    one_packet_under_failure ~path:direct ~dead:[ direct.Path.edges.(0); long.Path.edges.(1) ] ~at:1
  in
  Alcotest.(check (list int)) "all candidates dead: dropped" [ 0; 1; 0 ]
    [ rerouted; dropped; delivered ]

let test_midflight_failover_dumbbell () =
  (* Two packets routed on the direct edge; it dies before they cross.
     Both fail over to the detour: nothing is dropped, traffic shifts to
     the long path. *)
  let g, direct, _, ps = dumbbell_fixture () in
  let a = assignment_of_paths [ ((0, 1), [ direct; direct ]) ] in
  let s = Scenario.of_edges g [ direct.Path.edges.(0) ] in
  let outcome = Timeline.simulate g ps a [ Timeline.entry ~at:1 s ] in
  let fs = Simulator.completed_exn outcome in
  Alcotest.(check int) "nothing dropped" 0 fs.Simulator.dropped;
  Alcotest.(check int) "both rerouted" 2 fs.Simulator.rerouted;
  Alcotest.(check int) "both delivered" 2 fs.Simulator.base.Simulator.delivered;
  (* Detour of 3 hops, two packets serialized on its first edge: last
     arrival at step 4, failure at step 1. *)
  Alcotest.(check int) "makespan" 4 fs.Simulator.base.Simulator.makespan;
  Alcotest.(check int) "recovery makespan" 3 fs.Simulator.recovery_makespan

let test_midflight_drop_without_candidates () =
  (* Single-candidate system: when the only route dies, packets drop. *)
  let g, direct, _, _ = dumbbell_fixture () in
  let ps = Path_system.of_pairs g [ ((0, 1), [ direct ]) ] in
  let a = assignment_of_paths [ ((0, 1), [ direct; direct ]) ] in
  let s = Scenario.of_edges g [ direct.Path.edges.(0) ] in
  let fs = Simulator.value (Timeline.simulate g ps a [ Timeline.entry ~at:1 s ]) in
  Alcotest.(check int) "both dropped" 2 fs.Simulator.dropped;
  Alcotest.(check int) "none rerouted" 0 fs.Simulator.rerouted;
  Alcotest.(check int) "delivered only the dead" 0 fs.Simulator.base.Simulator.delivered

let test_midflight_degradation_and_repair () =
  (* A capacity-2 edge degraded to width 1 mid-burst, then repaired: the
     run slows down but no packet is dropped or rerouted. *)
  let b = Graph.Builder.create 2 in
  ignore (Graph.Builder.add_edge ~cap:2.0 b 0 1);
  let g = Graph.Builder.build b in
  let p = Path.of_vertices g [ 0; 1 ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ p ]) ] in
  let a = assignment_of_paths [ ((0, 1), List.init 6 (fun _ -> p)) ] in
  let baseline = Simulator.value (Timeline.simulate g ps a []) in
  Alcotest.(check int) "full width: 3 steps" 3 baseline.Simulator.base.Simulator.makespan;
  let s = Scenario.degrade g ~factor:0.5 [ 0 ] in
  let fs =
    Simulator.value
      (Timeline.simulate g ps a [ Timeline.entry ~repair_at:4 ~at:2 s ])
  in
  Alcotest.(check int) "nothing dropped" 0 fs.Simulator.dropped;
  Alcotest.(check int) "nothing rerouted" 0 fs.Simulator.rerouted;
  Alcotest.(check int) "all delivered" 6 fs.Simulator.base.Simulator.delivered;
  (* Steps: 2 cross, 1 crosses (degraded), 1 crosses (degraded), repair
     at 4 -> 2 cross: 4 steps total. *)
  Alcotest.(check int) "slowed to 4 steps" 4 fs.Simulator.base.Simulator.makespan

let test_timeline_jobs_oblivious () =
  (* The simulation is sequential, but its inputs flow through the pool
     elsewhere; simulate twice and require identical stats. *)
  let g, direct, _, ps = dumbbell_fixture () in
  let a = assignment_of_paths [ ((0, 1), [ direct; direct ]) ] in
  let s = Scenario.of_edges g [ direct.Path.edges.(0) ] in
  let run () = Simulator.value (Timeline.simulate g ps a [ Timeline.entry ~at:1 s ]) in
  Alcotest.(check bool) "deterministic" true (compare (run ()) (run ()) = 0)

let () =
  Alcotest.run "fault"
    [
      ( "scenario",
        [
          Alcotest.test_case "validation" `Quick test_scenario_validation;
          Alcotest.test_case "predicates and apply" `Quick test_scenario_predicates;
          Alcotest.test_case "torus rows" `Quick test_torus_rows_structure;
          Alcotest.test_case "fat-tree pods" `Quick test_fat_tree_pods_structure;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "agrees with robustness" `Quick
            test_sweep_singles_agrees_with_robustness;
          Alcotest.test_case "multi-failure strands" `Quick test_sweep_multi_failure_strands;
          Alcotest.test_case "degradation aware" `Quick test_sweep_degradation_capacity_aware;
          Alcotest.test_case "jobs invariance" `Slow test_sweep_jobs_invariance;
          Alcotest.test_case "worst-k deterministic" `Slow
            test_worst_k_jobs_invariance_and_monotone;
          Alcotest.test_case "recovery measured" `Quick test_sweep_recovery_measured;
          Alcotest.test_case "warm resolve quality" `Quick
            test_resolve_warm_start_matches_cold_quality;
          Alcotest.test_case "warm recovery golden pin" `Quick test_warm_recovery_golden;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "entry validation" `Quick test_timeline_entry_validation;
          Alcotest.test_case "failover prefers suffix" `Quick
            test_candidate_failover_prefers_suffix;
          Alcotest.test_case "failover bridges" `Quick
            test_candidate_failover_bridges;
          Alcotest.test_case "failover gives up" `Quick
            test_candidate_failover_none;
          Alcotest.test_case "mid-flight failover" `Quick test_midflight_failover_dumbbell;
          Alcotest.test_case "drops without candidates" `Quick
            test_midflight_drop_without_candidates;
          Alcotest.test_case "degradation and repair" `Quick
            test_midflight_degradation_and_repair;
          Alcotest.test_case "deterministic" `Quick test_timeline_jobs_oblivious;
        ] );
    ]
