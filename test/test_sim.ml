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
module Path_system = Sso_core.Path_system
module Scenario = Sso_fault.Scenario
module Timeline = Sso_fault.Timeline

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

(* ---------- Golden pins ----------

   Exact outcomes recorded before the three step loops were folded into
   one engine; any change here is a behaviour change of the simulator,
   not a refactor. *)

let show_outcome show = function
  | Simulator.Completed s -> "completed " ^ show s
  | Simulator.Out_of_budget s -> "out_of_budget " ^ show s

let show_stats (s : Simulator.stats) =
  Printf.sprintf "makespan %d delivered %d max_queue %d waits %d" s.Simulator.makespan
    s.Simulator.delivered s.Simulator.max_queue s.Simulator.total_waits

let show_fault (f : Simulator.fault_stats) =
  Printf.sprintf "%s dropped %d rerouted %d recovery %d" (show_stats f.Simulator.base)
    f.Simulator.dropped f.Simulator.rerouted f.Simulator.recovery_makespan

let show_load (l : Simulator.load_stats) =
  Printf.sprintf "finish %d packets %d delivered %d mean %h p99 %h queueing %h peak %d"
    l.Simulator.finish_time l.Simulator.packets l.Simulator.delivered
    l.Simulator.mean_latency l.Simulator.p99_latency l.Simulator.mean_queueing
    l.Simulator.peak_queue

let golden name want got = Alcotest.(check string) name want got

let disciplines seed =
  [
    ("fifo", Simulator.Fifo);
    ("random-rank", Simulator.Random_rank (Rng.create seed));
    ("longest-remaining", Simulator.Longest_remaining);
  ]

(* test_sim's random instances, plus two contended ones: 16 packets per
   pair of a 64-node hypercube permutation. *)
let golden_instances () =
  List.map
    (fun seed ->
      let g, a, _ = run_random_instance seed Simulator.Fifo in
      (Printf.sprintf "seed %d" seed, g, a))
    [ 1; 2; 3 ]
  @ List.map
      (fun seed ->
        let rng = Rng.create seed in
        let g = Gen.hypercube 6 in
        let system = Sampler.alpha_sample (Rng.split rng) (Valiant.routing g) ~alpha:6 in
        let d = Demand.scale 16.0 (Demand.random_permutation (Rng.split rng) (Graph.n g)) in
        let r, _ = Semi_oblivious.route g system d in
        (Printf.sprintf "cube6 seed %d" seed, g, Rounding.round (Rng.split rng) r d))
      [ 100; 101 ]

let test_golden_run () =
  List.iter2
    (fun (label, g, a) expected ->
      List.iter2
        (fun (name, discipline) want ->
          golden (label ^ " " ^ name) want
            (show_outcome show_stats (Simulator.run ~discipline g a)))
        (disciplines 9) expected)
    (golden_instances ())
    [
      [
        "completed makespan 7 delivered 31 max_queue 2 waits 3";
        "completed makespan 7 delivered 31 max_queue 2 waits 2";
        "completed makespan 7 delivered 31 max_queue 2 waits 3";
      ];
      [
        "completed makespan 7 delivered 32 max_queue 2 waits 2";
        "completed makespan 8 delivered 32 max_queue 2 waits 2";
        "completed makespan 7 delivered 32 max_queue 2 waits 2";
      ];
      [
        "completed makespan 6 delivered 29 max_queue 2 waits 1";
        "completed makespan 6 delivered 29 max_queue 2 waits 1";
        "completed makespan 6 delivered 29 max_queue 2 waits 1";
      ];
      [
        "completed makespan 38 delivered 1024 max_queue 16 waits 10639";
        "completed makespan 36 delivered 1024 max_queue 16 waits 9826";
        "completed makespan 34 delivered 1024 max_queue 16 waits 11918";
      ];
      [
        "completed makespan 36 delivered 992 max_queue 16 waits 9560";
        "completed makespan 36 delivered 992 max_queue 16 waits 8712";
        "completed makespan 33 delivered 992 max_queue 16 waits 10505";
      ];
    ]

let dumbbell () =
  let g = Gen.multi_path [ 1; 3 ] in
  let direct = Path.of_vertices g [ 0; 1 ] in
  let long = Path.of_vertices g [ 0; 2; 3; 1 ] in
  (g, direct, long)

let test_golden_faulted () =
  let g, direct, long = dumbbell () in
  let a = assignment_of_paths [ ((0, 1), [ direct; direct ]) ] in
  let kill = [ Timeline.entry ~at:1 (Scenario.of_edges g [ direct.Path.edges.(0) ]) ] in
  let reroute = Path_system.of_pairs g [ ((0, 1), [ direct; long ]) ] in
  let drop = Path_system.of_pairs g [ ((0, 1), [ direct ]) ] in
  let b = Graph.Builder.create 2 in
  ignore (Graph.Builder.add_edge ~cap:2.0 b 0 1);
  let g2 = Graph.Builder.build b in
  let p2 = Path.of_vertices g2 [ 0; 1 ] in
  let a2 = assignment_of_paths [ ((0, 1), List.init 6 (fun _ -> p2)) ] in
  let ps2 = Path_system.of_pairs g2 [ ((0, 1), [ p2 ]) ] in
  let degrade =
    [ Timeline.entry ~repair_at:4 ~at:2 (Scenario.degrade g2 ~factor:0.5 [ 0 ]) ]
  in
  List.iter
    (fun (name, (g, ps, a, tl), expected) ->
      List.iter2
        (fun (dname, discipline) want ->
          golden (name ^ " " ^ dname) want
            (show_outcome show_fault (Timeline.simulate ~discipline g ps a tl)))
        (disciplines 5) expected)
    [
      ( "reroute",
        (g, reroute, a, kill),
        [
          "completed makespan 4 delivered 2 max_queue 2 waits 1 dropped 0 rerouted 2 recovery 3";
          "completed makespan 4 delivered 2 max_queue 2 waits 1 dropped 0 rerouted 2 recovery 3";
          "completed makespan 4 delivered 2 max_queue 2 waits 1 dropped 0 rerouted 2 recovery 3";
        ] );
      ( "drop",
        (g, drop, a, kill),
        [
          "completed makespan 1 delivered 0 max_queue 0 waits 0 dropped 2 rerouted 0 recovery 0";
          "completed makespan 1 delivered 0 max_queue 0 waits 0 dropped 2 rerouted 0 recovery 0";
          "completed makespan 1 delivered 0 max_queue 0 waits 0 dropped 2 rerouted 0 recovery 0";
        ] );
      ( "degrade-repair",
        (g2, ps2, a2, degrade),
        [
          "completed makespan 4 delivered 6 max_queue 6 waits 9 dropped 0 rerouted 0 recovery 0";
          "completed makespan 4 delivered 6 max_queue 6 waits 9 dropped 0 rerouted 0 recovery 0";
          "completed makespan 4 delivered 6 max_queue 6 waits 9 dropped 0 rerouted 0 recovery 0";
        ] );
    ]

let test_golden_faulted_hypercube () =
  (* Random 4-edge failures at step 2, repaired at step 6, under 4 packets
     per pair of a 32-node hypercube permutation; packets fail over to
     surviving candidates of the sampled system. *)
  List.iter
    (fun (seed, expected) ->
      let rng = Rng.create seed in
      let g = Gen.hypercube 5 in
      let system = Sampler.alpha_sample (Rng.split rng) (Valiant.routing g) ~alpha:5 in
      let d = Demand.scale 4.0 (Demand.random_permutation (Rng.split rng) (Graph.n g)) in
      let r, _ = Semi_oblivious.route g system d in
      let a = Rounding.round (Rng.split rng) r d in
      let s = Scenario.random_k (Rng.split rng) g ~k:4 in
      let tl = [ Timeline.entry ~repair_at:6 ~at:2 s ] in
      List.iter2
        (fun (name, discipline) want ->
          golden
            (Printf.sprintf "seed %d %s" seed name)
            want
            (show_outcome show_fault (Timeline.simulate ~discipline g system a tl)))
        (disciplines seed) expected)
    [
      ( 1,
        [
          "completed makespan 17 delivered 124 max_queue 6 waits 286 dropped 0 rerouted 10 recovery 10";
          "completed makespan 16 delivered 124 max_queue 6 waits 295 dropped 0 rerouted 10 recovery 10";
          "completed makespan 14 delivered 124 max_queue 6 waits 302 dropped 0 rerouted 10 recovery 10";
        ] );
      ( 2,
        [
          "completed makespan 13 delivered 121 max_queue 4 waits 229 dropped 7 rerouted 18 recovery 11";
          "completed makespan 13 delivered 121 max_queue 4 waits 221 dropped 7 rerouted 18 recovery 11";
          "completed makespan 10 delivered 121 max_queue 4 waits 245 dropped 7 rerouted 18 recovery 7";
        ] );
    ]

let test_golden_timed () =
  let g = Gen.path_graph 2 in
  let p = Path.of_vertices g [ 0; 1 ] in
  let burst = List.init 10 (fun _ -> timed (0, 1) p 0) in
  let staggered = [ timed (0, 1) p 0; timed (0, 1) p 5 ] in
  (* Contended releases on a 5-path: long and short routes interleave. *)
  let g5 = Gen.path_graph 5 in
  let long = Path.of_vertices g5 [ 0; 1; 2; 3; 4 ] in
  let short = Path.of_vertices g5 [ 1; 2 ] in
  let back = Path.of_vertices g5 [ 4; 3; 2 ] in
  let mixed =
    List.init 12 (fun i ->
        match i mod 3 with
        | 0 -> timed (0, 4) long (i / 2)
        | 1 -> timed (1, 2) short (i / 3)
        | _ -> timed (4, 2) back 1)
  in
  (* The contended cube6 instance, released in five waves. *)
  let _, gc, ac = List.nth (golden_instances ()) 3 in
  let waves =
    List.concat_map
      (fun (pair, paths) -> Array.to_list (Array.map (fun p -> (pair, p)) paths))
      (Array.to_list ac)
    |> List.mapi (fun i (pair, p) -> timed pair p (i mod 5))
  in
  List.iter
    (fun (name, g, packets, expected) ->
      List.iter2
        (fun (dname, discipline) want ->
          golden (name ^ " " ^ dname) want
            (show_outcome show_load (Simulator.run_timed ~discipline g packets)))
        (disciplines 3) expected)
    [
      ( "cube6 waves",
        gc, waves,
        [
          "completed finish 34 packets 1024 delivered 1024 mean 0x1.8348p+3 p99 0x1.bp+4 queueing 0x1.f17p+2 peak 14";
          "completed finish 33 packets 1024 delivered 1024 mean 0x1.84e8p+3 p99 0x1.cp+4 queueing 0x1.f4bp+2 peak 14";
          "completed finish 33 packets 1024 delivered 1024 mean 0x1.c37p+3 p99 0x1.bp+4 queueing 0x1.38ep+3 peak 15";
        ] );
      ( "burst",
        g, burst,
        [
          "completed finish 10 packets 10 delivered 10 mean 0x1.6p+2 p99 0x1.4p+3 queueing 0x1.2p+2 peak 10";
          "completed finish 10 packets 10 delivered 10 mean 0x1.6p+2 p99 0x1.4p+3 queueing 0x1.2p+2 peak 10";
          "completed finish 10 packets 10 delivered 10 mean 0x1.6p+2 p99 0x1.4p+3 queueing 0x1.2p+2 peak 10";
        ] );
      ( "staggered",
        g, staggered,
        [
          "completed finish 6 packets 2 delivered 2 mean 0x1p+0 p99 0x1p+0 queueing 0x0p+0 peak 1";
          "completed finish 6 packets 2 delivered 2 mean 0x1p+0 p99 0x1p+0 queueing 0x0p+0 peak 1";
          "completed finish 6 packets 2 delivered 2 mean 0x1p+0 p99 0x1p+0 queueing 0x0p+0 peak 1";
        ] );
      ( "mixed",
        g5, mixed,
        [
          "completed finish 10 packets 12 delivered 12 mean 0x1.d555555555555p+1 p99 0x1.8p+2 queueing 0x1.5555555555555p+0 peak 4";
          "completed finish 10 packets 12 delivered 12 mean 0x1.d555555555555p+1 p99 0x1.8p+2 queueing 0x1.5555555555555p+0 peak 4";
          "completed finish 8 packets 12 delivered 12 mean 0x1.d555555555555p+1 p99 0x1.4p+2 queueing 0x1.5555555555555p+0 peak 4";
        ] );
    ]

(* ---------- Step budgets ---------- *)

let test_faulted_budget_is_fixed () =
  (* Both packets fail over onto the 3-hop detour at step 1 and would
     finish at step 4.  An explicit budget of 3 does not grow with the
     reroutes: the run stops at step 3 with one packet delivered. *)
  let g, direct, long = dumbbell () in
  let a = assignment_of_paths [ ((0, 1), [ direct; direct ]) ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ direct; long ]) ] in
  let tl = [ Timeline.entry ~at:1 (Scenario.of_edges g [ direct.Path.edges.(0) ]) ] in
  match Timeline.simulate ~max_steps:3 g ps a tl with
  | Simulator.Completed _ -> Alcotest.fail "expected Out_of_budget"
  | Simulator.Out_of_budget fs ->
      Alcotest.(check int) "three steps ran" 3 fs.Simulator.base.Simulator.makespan;
      Alcotest.(check int) "one delivered" 1 fs.Simulator.base.Simulator.delivered;
      Alcotest.(check int) "both rerouted" 2 fs.Simulator.rerouted;
      Alcotest.(check int) "none dropped" 0 fs.Simulator.dropped;
      Alcotest.(check int) "recovery up to the last arrival" 2
        fs.Simulator.recovery_makespan

let test_timed_budget_partial_latency () =
  (* A 10-packet burst on a unit edge delivers one packet per step; after
     4 steps the latency statistics cover those 4 packets only. *)
  let g = Gen.path_graph 2 in
  let p = Path.of_vertices g [ 0; 1 ] in
  match Simulator.run_timed ~max_steps:4 g (List.init 10 (fun _ -> timed (0, 1) p 0)) with
  | Simulator.Completed _ -> Alcotest.fail "expected Out_of_budget"
  | Simulator.Out_of_budget s ->
      Alcotest.(check int) "all injected" 10 s.Simulator.packets;
      Alcotest.(check int) "four delivered" 4 s.Simulator.delivered;
      Alcotest.(check int) "last arrival" 4 s.Simulator.finish_time;
      Alcotest.(check (float 1e-9)) "mean latency over delivered" 2.5
        s.Simulator.mean_latency;
      Alcotest.(check (float 1e-9)) "mean queueing over delivered" 1.5
        s.Simulator.mean_queueing;
      Alcotest.(check (float 1e-9)) "p99 over delivered" 4.0 s.Simulator.p99_latency;
      Alcotest.(check int) "peak queue" 10 s.Simulator.peak_queue

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
      ( "golden",
        [
          Alcotest.test_case "run" `Quick test_golden_run;
          Alcotest.test_case "run_faulted fixtures" `Quick test_golden_faulted;
          Alcotest.test_case "run_faulted hypercube" `Quick test_golden_faulted_hypercube;
          Alcotest.test_case "run_timed" `Quick test_golden_timed;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "faulted budget is fixed" `Quick test_faulted_budget_is_fixed;
          Alcotest.test_case "timed partial latency" `Quick
            test_timed_budget_partial_latency;
        ] );
      ( "properties",
        List.map Support.to_alcotest [ prop_makespan_at_least_dilation ] );
    ]
