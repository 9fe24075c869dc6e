(* Tests for Sso_engine: pool determinism across job counts, exception
   propagation, nested calls, and the metrics registry. *)

module Pool = Sso_engine.Pool
module Obs = Sso_obs.Obs
module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Gen = Sso_graph.Gen
module Demand = Sso_demand.Demand
module Ksp = Sso_oblivious.Ksp
module Sampler = Sso_core.Sampler
module Semi_oblivious = Sso_core.Semi_oblivious
module Lower_bound = Sso_core.Lower_bound
module Sweep = Sso_fault.Sweep

let with_jobs = Support.with_jobs

(* ---- basic pool semantics ---- *)

let test_map_matches_serial () =
  with_jobs 4 @@ fun () ->
  let input = Array.init 100 (fun i -> i - 50) in
  let f x = (x * x) - (3 * x) in
  Alcotest.(check (array int))
    "jobs:4 equals Array.map" (Array.map f input)
    (Pool.parallel_map f input)

let test_init_matches_serial () =
  with_jobs 4 @@ fun () ->
  let f i = Printf.sprintf "task-%d" (i * 7) in
  Alcotest.(check (array string))
    "jobs:4 equals Array.init" (Array.init 33 f)
    (Pool.parallel_init 33 f)

let test_jobs1_serial () =
  with_jobs 1 @@ fun () ->
  Alcotest.(check int) "jobs" 1 (Pool.default_jobs ());
  Alcotest.(check (array int)) "still correct" [| 0; 2; 4 |]
    (Pool.parallel_init 3 (fun i -> 2 * i))

let test_empty_inputs () =
  with_jobs 4 @@ fun () ->
  Alcotest.(check (array int)) "empty map" [||]
    (Pool.parallel_map (fun x -> x) [||]);
  Alcotest.(check (array int)) "zero init" [||]
    (Pool.parallel_init 0 (fun _ -> assert false));
  Alcotest.(check (list int)) "empty list" []
    (Pool.parallel_list_map (fun x -> x) [])

let test_list_map_order () =
  with_jobs 4 @@ fun () ->
  let l = List.init 50 (fun i -> i) in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x + 1) l)
    (Pool.parallel_list_map (fun x -> x + 1) l)

let test_exception_lowest_index () =
  with_jobs 4 @@ fun () ->
  Alcotest.check_raises "lowest failing index wins" (Failure "task 3")
    (fun () ->
      ignore
        (Pool.parallel_init 64 (fun i ->
             if i mod 7 = 3 then failwith (Printf.sprintf "task %d" i) else i)))

let test_nested_calls_serialize () =
  with_jobs 4 @@ fun () ->
  let results =
    Pool.parallel_init 8 (fun i ->
        let inside = Pool.inside_task () in
        let inner = Pool.parallel_init 10 (fun j -> (i * 10) + j) in
        (inside, Array.fold_left ( + ) 0 inner))
  in
  Array.iteri
    (fun i (inside, sum) ->
      Alcotest.(check bool) "ran inside a task" true inside;
      Alcotest.(check int) "nested sum" ((i * 100) + 45) sum)
    results;
  Alcotest.(check bool) "flag cleared outside" false (Pool.inside_task ())

let test_default_jobs_plumbing () =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs 3;
  Alcotest.(check int) "set_default_jobs" 3 (Pool.default_jobs ());
  Pool.set_default_jobs before;
  Alcotest.check_raises "invalid jobs"
    (Invalid_argument "Engine.Pool.set_default_jobs: jobs must be >= 1")
    (fun () -> Pool.set_default_jobs 0)

(* The jobs-invariance tests compare runs under [with_jobs]: it must
   really run its body at the requested count, and hand the previous
   count back however the body ends. *)
let test_with_jobs () =
  let before = Pool.default_jobs () in
  let outer = if before = 3 then 2 else 3 in
  List.iter
    (fun jobs ->
      Alcotest.(check int)
        (Printf.sprintf "body runs at jobs %d" jobs)
        jobs
        (with_jobs jobs Pool.default_jobs))
    [ 1; 4 ];
  Alcotest.(check int) "previous count restored" before (Pool.default_jobs ());
  Pool.set_default_jobs outer;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs before) @@ fun () ->
  Alcotest.check_raises "the body's exception escapes" Exit (fun () ->
      with_jobs 4 (fun () ->
          Alcotest.(check int) "raising body runs at jobs 4" 4 (Pool.default_jobs ());
          raise Exit));
  Alcotest.(check int) "previous count restored after a raise" outer
    (Pool.default_jobs ())

(* ---- job-count invariance on randomized workloads ---- *)

let prop_job_count_invariant =
  QCheck.Test.make ~name:"parallel_map is job-count invariant" ~count:30
    QCheck.(pair small_int (small_list int))
    (fun (seed, xs) ->
      let input = Array.of_list xs in
      let f x =
        let rng = Rng.create (x + seed) in
        let acc = ref 0 in
        for _ = 1 to 50 do
          acc := !acc + Rng.int rng max_int
        done;
        !acc
      in
      let serial = with_jobs 1 (fun () -> Pool.parallel_map f input) in
      let parallel = with_jobs 4 (fun () -> Pool.parallel_map f input) in
      serial = parallel)

(* ---- end-to-end determinism: the E3 adversary table ---- *)

let e3_table () =
  let k = 3 in
  let c = Gen.c_graph 6 k in
  let rows =
    Pool.parallel_map
      (fun alpha ->
        let rng = Rng.create (300 + alpha) in
        let base = Ksp.routing ~k:(2 * k) c.Gen.c_graph in
        let system = Sampler.alpha_sample rng base ~alpha in
        let attack = Lower_bound.attack c system in
        let measured =
          Semi_oblivious.congestion ~solver:Semi_oblivious.Lp c.Gen.c_graph
            system attack.Lower_bound.demand
        in
        Printf.sprintf "%5d | %8d %.17g %.17g\n" alpha
          (List.length attack.Lower_bound.bottleneck)
          attack.Lower_bound.predicted_congestion measured)
      [| 1; 2; 3 |]
  in
  String.concat "" (Array.to_list rows)

let test_e3_table_determinism () =
  let serial = with_jobs 1 e3_table in
  let parallel = with_jobs 4 e3_table in
  Alcotest.(check string) "byte-identical adversary table" serial parallel

(* ---- end-to-end determinism: the E14 failure sweep ---- *)

let test_robustness_sweep_determinism () =
  let g = Gen.grid 3 3 in
  let make_inputs () =
    let rng = Rng.create 43 in
    let d = Demand.random_pairs (Rng.split rng) ~n:(Graph.n g) ~pairs:4 in
    let base = Ksp.routing ~k:4 g in
    let system = Sampler.alpha_sample (Rng.split rng) base ~alpha:2 in
    (d, system)
  in
  let run jobs =
    let d, system = make_inputs () in
    with_jobs jobs (fun () ->
        Sweep.run ~solver:(Semi_oblivious.Mwu 40) g system d (Sweep.singles g))
  in
  let serial = run 1 and parallel = run 4 in
  Alcotest.(check int) "one report per edge" (Graph.m g) (List.length serial);
  (* Compared as bits: reports carry nan fields, which [=] never equates. *)
  let bits (r : Sweep.report) =
    Printf.sprintf "%s %b %b %Lx %Lx %Lx %d %Lx" r.Sweep.scenario.Sso_fault.Scenario.label
      r.Sweep.connected r.Sweep.survivable
      (Int64.bits_of_float r.Sweep.achieved)
      (Int64.bits_of_float r.Sweep.post_opt)
      (Int64.bits_of_float r.Sweep.ratio)
      r.Sweep.recovery_rounds
      (Int64.bits_of_float r.Sweep.warm_congestion)
  in
  Alcotest.(check (list string)) "bit-identical failure reports"
    (List.map bits serial) (List.map bits parallel)

(* ---- metrics ---- *)

let test_counter_registry () =
  Obs.reset_metrics ();
  let c = Obs.counter "test.counter" in
  Obs.incr c;
  Obs.incr ~by:41 c;
  Alcotest.(check int) "accumulated" 42 (Obs.counter_value c);
  Alcotest.(check bool) "find-or-create returns the same counter" true
    (Obs.counter "test.counter" == c);
  Obs.reset_metrics ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.counter_value c)

let test_counter_concurrent () =
  Obs.reset_metrics ();
  let c = Obs.counter "test.concurrent" in
  with_jobs 4 (fun () ->
      ignore
        (Pool.parallel_init 8 (fun _ ->
             for _ = 1 to 1000 do
               Obs.incr c
             done)));
  Alcotest.(check int) "no lost updates" 8000 (Obs.counter_value c)

let test_spans () =
  Obs.reset_metrics ();
  let sp = Obs.span "test.span" in
  let v = Obs.with_span sp (fun () -> 12) in
  Alcotest.(check int) "passes result through" 12 v;
  Alcotest.check_raises "records on exceptions too" Exit (fun () ->
      Obs.with_span sp (fun () -> raise Exit));
  Alcotest.(check int) "two calls" 2 (Obs.span_calls sp);
  Alcotest.(check bool) "non-negative time" true (Obs.span_total_ns sp >= 0)

let test_table_and_json () =
  Obs.reset_metrics ();
  Alcotest.(check string) "empty registry, empty table" "" (Obs.metrics_table ());
  Obs.incr ~by:7 (Obs.counter "test.table");
  Obs.with_span (Obs.span "test.tspan") (fun () -> ());
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let tbl = Obs.metrics_table () in
  Alcotest.(check bool) "table lists the counter" true (contains tbl "test.table");
  Alcotest.(check bool) "table lists the span" true (contains tbl "test.tspan");
  let js = Sso_obs.Trace.Json.to_string (Obs.metrics_json ()) in
  Alcotest.(check bool) "json has the counter" true
    (contains js "\"test.table\": 7");
  Alcotest.(check bool) "json has the span" true (contains js "\"test.tspan\"");
  Obs.reset_metrics ()

let () =
  Alcotest.run "engine"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches serial" `Quick test_map_matches_serial;
          Alcotest.test_case "init matches serial" `Quick test_init_matches_serial;
          Alcotest.test_case "jobs=1" `Quick test_jobs1_serial;
          Alcotest.test_case "empty inputs" `Quick test_empty_inputs;
          Alcotest.test_case "list order" `Quick test_list_map_order;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "nested calls" `Quick test_nested_calls_serialize;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_plumbing;
          Alcotest.test_case "with_jobs" `Quick test_with_jobs;
        ] );
      ( "determinism",
        [
          Support.to_alcotest prop_job_count_invariant;
          Alcotest.test_case "E3 adversary table" `Slow test_e3_table_determinism;
          Alcotest.test_case "E14 failure sweep" `Slow
            test_robustness_sweep_determinism;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counter_registry;
          Alcotest.test_case "concurrent counters" `Quick test_counter_concurrent;
          Alcotest.test_case "spans" `Quick test_spans;
          Alcotest.test_case "table and json" `Quick test_table_and_json;
        ] );
    ]
