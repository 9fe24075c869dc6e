(* Tests for the store-and-forward packet simulator: single packets,
   serialization at bottlenecks, capacity widths, and the [LMR94]-style
   congestion+dilation bounds the completion-time objective relies on. *)

module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Gen = Sso_graph.Gen
module Demand = Sso_demand.Demand
module Rounding = Sso_flow.Rounding
module Routing = Sso_flow.Routing
module Simulator = Sso_sim.Simulator
module Valiant = Sso_oblivious.Valiant
module Sampler = Sso_core.Sampler
module Integral = Sso_core.Integral
module Semi_oblivious = Sso_core.Semi_oblivious

let assignment_of_paths entries : Rounding.assignment =
  Array.of_list (List.map (fun (pair, paths) -> (pair, Array.of_list paths)) entries)

(* Every test below expects its run to fit the default step budget, so
   unwrap the outcome at the call site; the budget itself is exercised in
   [test_max_steps_guard]. *)
let run ?discipline g a = Simulator.completed_exn (Simulator.run ?discipline g a)

let run_timed ?discipline g packets =
  Simulator.completed_exn (Simulator.run_timed ?discipline g packets)

let test_single_packet () =
  let g = Gen.path_graph 5 in
  let p = Path.of_vertices g [ 0; 1; 2; 3; 4 ] in
  let a = assignment_of_paths [ ((0, 4), [ p ]) ] in
  let stats = run g a in
  Alcotest.(check int) "travel time = hops" 4 stats.Simulator.makespan;
  Alcotest.(check int) "delivered" 1 stats.Simulator.delivered;
  Alcotest.(check int) "no waits" 0 stats.Simulator.total_waits

let test_trivial_packet () =
  let g = Gen.path_graph 3 in
  let a = assignment_of_paths [ ((1, 1), [ Path.trivial 1 ]) ] in
  let stats = run g a in
  Alcotest.(check int) "instant" 0 stats.Simulator.makespan;
  Alcotest.(check int) "counted" 1 stats.Simulator.delivered

let test_serialization_on_shared_edge () =
  (* k packets over the same single edge: makespan = k. *)
  let g = Gen.path_graph 2 in
  let p = Path.of_vertices g [ 0; 1 ] in
  let k = 5 in
  let a = assignment_of_paths [ ((0, 1), List.init k (fun _ -> p)) ] in
  let stats = run g a in
  Alcotest.(check int) "serialized" k stats.Simulator.makespan;
  Alcotest.(check int) "waits total k(k-1)/2" (k * (k - 1) / 2) stats.Simulator.total_waits;
  Alcotest.(check int) "queue saw all" k stats.Simulator.max_queue

let test_capacity_width () =
  (* Same 5 packets over a capacity-2 edge: ⌈5/2⌉ = 3 steps. *)
  let b = Graph.Builder.create 2 in
  ignore (Graph.Builder.add_edge ~cap:2.0 b 0 1);
  let g = Graph.Builder.build b in
  let p = Path.of_vertices g [ 0; 1 ] in
  let a = assignment_of_paths [ ((0, 1), List.init 5 (fun _ -> p)) ] in
  let stats = run g a in
  Alcotest.(check int) "width 2" 3 stats.Simulator.makespan

let test_disjoint_parallelism () =
  (* Two packets on disjoint 3-hop routes finish together. *)
  let g = Gen.multi_path [ 3; 3 ] in
  let a = Path.of_vertices g [ 0; 2; 3; 1 ] in
  let b = Path.of_vertices g [ 0; 4; 5; 1 ] in
  let asg = assignment_of_paths [ ((0, 1), [ a; b ]) ] in
  let stats = run g asg in
  Alcotest.(check int) "parallel" 3 stats.Simulator.makespan

let test_opposite_directions_dont_block () =
  (* One packet 0→2 and one 2→0 on a path share edges but in opposite
     directions: per-direction capacity means no waiting. *)
  let g = Gen.path_graph 3 in
  let fwd = Path.of_vertices g [ 0; 1; 2 ] in
  let bwd = Path.of_vertices g [ 2; 1; 0 ] in
  let asg = assignment_of_paths [ ((0, 2), [ fwd ]); ((2, 0), [ bwd ]) ] in
  let stats = run g asg in
  Alcotest.(check int) "no head-on blocking" 2 stats.Simulator.makespan;
  Alcotest.(check int) "no waits" 0 stats.Simulator.total_waits

let test_pipeline_throughput () =
  (* k packets pipelined along one path of length d: makespan = d + k - 1. *)
  let d = 4 and k = 3 in
  let g = Gen.path_graph (d + 1) in
  let p = Path.of_vertices g (List.init (d + 1) Fun.id) in
  let a = assignment_of_paths [ ((0, d), List.init k (fun _ -> p)) ] in
  let stats = run g a in
  Alcotest.(check int) "pipelined" (d + k - 1) stats.Simulator.makespan

let test_bounds_consistency () =
  let g = Gen.path_graph 2 in
  let p = Path.of_vertices g [ 0; 1 ] in
  let a = assignment_of_paths [ ((0, 1), List.init 4 (fun _ -> p)) ] in
  Alcotest.(check int) "lower bound = congestion" 4 (Simulator.lower_bound g a);
  Alcotest.(check int) "upper bound = cd + d" 5 (Simulator.upper_bound_cd g a)

let run_random_instance seed discipline =
  let rng = Rng.create seed in
  let dim = 5 in
  let g = Gen.hypercube dim in
  let valiant = Valiant.routing g in
  let system = Sampler.alpha_sample (Rng.split rng) valiant ~alpha:dim in
  let d = Demand.random_permutation (Rng.split rng) (Graph.n g) in
  let assignment, _ = Integral.congestion_upper (Rng.split rng) g system d in
  let stats = run ~discipline g assignment in
  (g, assignment, stats)

let test_random_instances_within_bounds () =
  List.iter
    (fun seed ->
      let g, a, stats = run_random_instance seed Simulator.Fifo in
      let lb = Simulator.lower_bound g a in
      let ub = Simulator.upper_bound_cd g a in
      Alcotest.(check bool)
        (Printf.sprintf "lb %d <= makespan %d <= ub %d" lb stats.Simulator.makespan ub)
        true
        (lb <= stats.Simulator.makespan && stats.Simulator.makespan <= ub))
    [ 1; 2; 3 ]

let test_disciplines_all_deliver () =
  List.iter
    (fun discipline ->
      let _, a, stats = run_random_instance 7 discipline in
      let expected =
        Array.fold_left (fun acc (_, paths) -> acc + Array.length paths) 0 a
      in
      Alcotest.(check int) "all delivered" expected stats.Simulator.delivered)
    [ Simulator.Fifo; Simulator.Random_rank (Rng.create 9); Simulator.Longest_remaining ]

let test_lower_bound_holds_on_hypercube () =
  (* Random-rank runs of 16-packet random permutations on the 64-node
     hypercube, routed on an α=6 Valiant sample and rounded: every one
     finishes at or above the per-direction bound (summing both
     directions of an edge overstated it, and most such runs finished
     below). *)
  let g = Gen.hypercube 6 in
  let system = Sampler.alpha_sample (Rng.create 61) (Valiant.routing g) ~alpha:6 in
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let d = Demand.scale 16.0 (Demand.random_permutation (Rng.split rng) (Graph.n g)) in
      let r, _ = Semi_oblivious.route g system d in
      let a = Rounding.round (Rng.split rng) r d in
      let stats = run ~discipline:(Simulator.Random_rank (Rng.split rng)) g a in
      let lb = Simulator.lower_bound g a in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: makespan %d >= lower bound %d" seed
           stats.Simulator.makespan lb)
        true
        (stats.Simulator.makespan >= lb))
    (List.init 10 (fun i -> 100 + i))

let test_makespan_near_cong_plus_dil () =
  (* The empirical heart of Section 7: delivery time tracks c + d, far
     below the trivial c·d schedule. *)
  List.iter
    (fun seed ->
      let g, a, stats = run_random_instance seed (Simulator.Random_rank (Rng.create seed)) in
      ignore g;
      let lb = Simulator.lower_bound g a in
      Alcotest.(check bool)
        (Printf.sprintf "makespan %d within 4x of max(c,d) %d" stats.Simulator.makespan lb)
        true
        (stats.Simulator.makespan <= 4 * lb))
    [ 11; 12; 13 ]

let test_longest_remaining_priority () =
  (* Two packets contend at edge 0→1; one still has 3 hops to go, the
     other 1.  Longest-remaining sends the long one first, so the short
     one arrives at time 2 and the long at time 4. *)
  let g = Gen.path_graph 5 in
  let long_path = Path.of_vertices g [ 0; 1; 2; 3; 4 ] in
  let short_path = Path.of_vertices g [ 0; 1 ] in
  let a = assignment_of_paths [ ((0, 4), [ long_path ]); ((0, 1), [ short_path ]) ] in
  let stats = run ~discipline:Simulator.Longest_remaining g a in
  (* Long first: long finishes at 4, short waits one step then crosses at
     step 2 → makespan 4. *)
  Alcotest.(check int) "makespan" 4 stats.Simulator.makespan;
  Alcotest.(check int) "exactly one wait" 1 stats.Simulator.total_waits

let test_max_steps_guard () =
  (* A too-small budget no longer raises: it returns the partial result as
     [Out_of_budget], with the stats accumulated so far. *)
  let g = Gen.path_graph 2 in
  let p = Path.of_vertices g [ 0; 1 ] in
  let a = assignment_of_paths [ ((0, 1), List.init 5 (fun _ -> p)) ] in
  match Simulator.run ~max_steps:2 g a with
  | Simulator.Completed _ -> Alcotest.fail "expected Out_of_budget"
  | Simulator.Out_of_budget stats as outcome ->
      Alcotest.(check int) "two steps ran" 2 stats.Simulator.makespan;
      Alcotest.(check int) "partial delivery" 2 stats.Simulator.delivered;
      Alcotest.(check int) "value unwraps" 2 (Simulator.value outcome).Simulator.delivered;
      Alcotest.(check bool) "completed_exn refuses" true
        (try
           ignore (Simulator.completed_exn outcome);
           false
         with Failure _ -> true)

let test_wide_edge_both_directions () =
  (* A capacity-2 edge carries 2 packets per direction per step,
     simultaneously in both directions. *)
  let b = Graph.Builder.create 2 in
  ignore (Graph.Builder.add_edge ~cap:2.0 b 0 1);
  let g = Graph.Builder.build b in
  let fwd = Path.of_vertices g [ 0; 1 ] in
  let bwd = Path.of_vertices g [ 1; 0 ] in
  let a = assignment_of_paths [ ((0, 1), [ fwd; fwd ]); ((1, 0), [ bwd; bwd ]) ] in
  let stats = run g a in
  Alcotest.(check int) "one step suffices" 1 stats.Simulator.makespan

let test_fifo_order_respected () =
  (* FIFO ties broken by packet id: the first-listed packet crosses
     first. *)
  let g = Gen.path_graph 3 in
  let p = Path.of_vertices g [ 0; 1; 2 ] in
  let a = assignment_of_paths [ ((0, 2), [ p; p ]) ] in
  let stats = run ~discipline:Simulator.Fifo g a in
  (* Pipelined: second packet follows one step behind. *)
  Alcotest.(check int) "makespan" 3 stats.Simulator.makespan

(* Timed injection *)

let timed pair route release = { Simulator.pair; route; release }

let test_timed_single_packet () =
  let g = Gen.path_graph 4 in
  let p = Path.of_vertices g [ 0; 1; 2; 3 ] in
  let stats = run_timed g [ timed (0, 3) p 5 ] in
  Alcotest.(check (float 1e-9)) "latency = hops" 3.0 stats.Simulator.mean_latency;
  Alcotest.(check int) "finishes at release + hops" 8 stats.Simulator.finish_time;
  Alcotest.(check (float 1e-9)) "no queueing" 0.0 stats.Simulator.mean_queueing

let test_timed_staggered_no_contention () =
  let g = Gen.path_graph 2 in
  let p = Path.of_vertices g [ 0; 1 ] in
  let stats = run_timed g [ timed (0, 1) p 0; timed (0, 1) p 5 ] in
  Alcotest.(check (float 1e-9)) "each latency 1" 1.0 stats.Simulator.mean_latency;
  Alcotest.(check int) "done at 6" 6 stats.Simulator.finish_time

let test_timed_burst_queues () =
  (* 10 packets released together onto a unit edge: latencies 1..10. *)
  let g = Gen.path_graph 2 in
  let p = Path.of_vertices g [ 0; 1 ] in
  let stats = run_timed g (List.init 10 (fun _ -> timed (0, 1) p 0)) in
  Alcotest.(check (float 1e-9)) "mean latency" 5.5 stats.Simulator.mean_latency;
  Alcotest.(check (float 1e-9)) "mean queueing" 4.5 stats.Simulator.mean_queueing;
  Alcotest.(check (float 1e-9)) "p99" 10.0 stats.Simulator.p99_latency;
  Alcotest.(check int) "peak queue" 10 stats.Simulator.peak_queue

let test_timed_paced_no_queueing () =
  (* Release one packet per step onto the edge: nobody ever waits. *)
  let g = Gen.path_graph 2 in
  let p = Path.of_vertices g [ 0; 1 ] in
  let stats = run_timed g (List.init 10 (fun i -> timed (0, 1) p i)) in
  Alcotest.(check (float 1e-9)) "no queueing" 0.0 stats.Simulator.mean_queueing

let test_timed_trivial_packet () =
  let g = Gen.path_graph 2 in
  let stats = run_timed g [ timed (1, 1) (Path.trivial 1) 3 ] in
  Alcotest.(check int) "counted" 1 stats.Simulator.packets;
  Alcotest.(check (float 1e-9)) "zero latency" 0.0 stats.Simulator.mean_latency

let test_timed_rejects_negative_release () =
  let g = Gen.path_graph 2 in
  let p = Path.of_vertices g [ 0; 1 ] in
  Alcotest.check_raises "negative release"
    (Invalid_argument "Simulator.run_timed: negative release time") (fun () ->
      ignore (run_timed g [ timed (0, 1) p (-1) ]))

let prop_makespan_at_least_dilation =
  QCheck.Test.make ~name:"makespan ≥ dilation" ~count:30 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.grid 3 3 in
      let base = Sso_oblivious.Ksp.routing ~k:3 g in
      let system = Sampler.alpha_sample (Rng.split rng) base ~alpha:3 in
      let d = Demand.random_pairs (Rng.split rng) ~n:9 ~pairs:4 in
      let assignment, _ = Integral.congestion_upper (Rng.split rng) g system d in
      let stats = run g assignment in
      let dil =
        Array.fold_left
          (fun acc (_, paths) ->
            Array.fold_left (fun acc p -> max acc (Path.hops p)) acc paths)
          0 assignment
      in
      stats.Simulator.makespan >= dil)

let () =
  Alcotest.run "sim"
    [
      ( "basics",
        [
          Alcotest.test_case "single packet" `Quick test_single_packet;
          Alcotest.test_case "trivial packet" `Quick test_trivial_packet;
          Alcotest.test_case "serialization" `Quick test_serialization_on_shared_edge;
          Alcotest.test_case "capacity width" `Quick test_capacity_width;
          Alcotest.test_case "disjoint parallelism" `Quick test_disjoint_parallelism;
          Alcotest.test_case "opposite directions" `Quick test_opposite_directions_dont_block;
          Alcotest.test_case "pipelining" `Quick test_pipeline_throughput;
          Alcotest.test_case "bounds" `Quick test_bounds_consistency;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "within bounds" `Slow test_random_instances_within_bounds;
          Alcotest.test_case "all disciplines deliver" `Slow test_disciplines_all_deliver;
          Alcotest.test_case "makespan ~ c+d" `Slow test_makespan_near_cong_plus_dil;
          Alcotest.test_case "lower bound on hypercube" `Quick
            test_lower_bound_holds_on_hypercube;
        ] );
      ( "disciplines",
        [
          Alcotest.test_case "longest remaining" `Quick test_longest_remaining_priority;
          Alcotest.test_case "max steps guard" `Quick test_max_steps_guard;
          Alcotest.test_case "wide edge both directions" `Quick test_wide_edge_both_directions;
          Alcotest.test_case "fifo order" `Quick test_fifo_order_respected;
        ] );
      ( "timed",
        [
          Alcotest.test_case "single packet" `Quick test_timed_single_packet;
          Alcotest.test_case "staggered" `Quick test_timed_staggered_no_contention;
          Alcotest.test_case "burst queues" `Quick test_timed_burst_queues;
          Alcotest.test_case "paced" `Quick test_timed_paced_no_queueing;
          Alcotest.test_case "trivial" `Quick test_timed_trivial_packet;
          Alcotest.test_case "rejects negative release" `Quick
            test_timed_rejects_negative_release;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_makespan_at_least_dilation ] );
    ]
