(* Tests for concentration-bound calculators and summary statistics. *)

module Stats = Sso_stats.Stats
module Rng = Sso_prng.Rng

let test_chernoff_mult_decays () =
  let p2 = Stats.chernoff_upper_mult ~mu:10.0 ~delta:2.0 in
  let p4 = Stats.chernoff_upper_mult ~mu:10.0 ~delta:4.0 in
  Alcotest.(check bool) "monotone in delta" true (p4 < p2);
  Alcotest.(check bool) "valid probability" true (p2 <= 1.0 && p2 >= 0.0);
  Alcotest.check_raises "delta below 2"
    (Invalid_argument "Stats.chernoff_upper_mult: requires delta >= 2") (fun () ->
      ignore (Stats.chernoff_upper_mult ~mu:1.0 ~delta:1.5))

let test_chernoff_add_decays () =
  let small = Stats.chernoff_upper_add ~mu:10.0 ~delta:0.5 in
  let large = Stats.chernoff_upper_add ~mu:10.0 ~delta:2.0 in
  Alcotest.(check bool) "monotone" true (large < small);
  (* Known value: delta=1, mu=3 → exp(-1) = e^{-1}. *)
  Alcotest.(check (float 1e-9)) "closed form" (Float.exp (-1.0))
    (Stats.chernoff_upper_add ~mu:3.0 ~delta:1.0)

let test_chernoff_empirically_valid () =
  (* Empirical tails of a Binomial(200, 0.05) (mu = 10) never exceed the
     additive Chernoff bound. *)
  let rng = Rng.create 99 in
  let trials = 20_000 in
  let samples =
    Array.init trials (fun _ ->
        let hits = ref 0 in
        for _ = 1 to 200 do
          if Rng.float rng < 0.05 then incr hits
        done;
        float_of_int !hits)
  in
  let mu = 10.0 in
  List.iter
    (fun delta ->
      let threshold = (1.0 +. delta) *. mu in
      let empirical = Stats.empirical_tail samples threshold in
      let bound = Stats.chernoff_upper_add ~mu ~delta in
      Alcotest.(check bool)
        (Printf.sprintf "tail at delta=%.1f (%.5f <= %.5f)" delta empirical bound)
        true (empirical <= bound +. 0.01))
    [ 0.5; 1.0; 1.5; 2.0 ]

let test_chernoff_mult_empirically_valid () =
  (* Multiplicative form at delta >= 2: Binomial(100, 0.02), mu = 2. *)
  let rng = Rng.create 123 in
  let trials = 20_000 in
  let samples =
    Array.init trials (fun _ ->
        let hits = ref 0 in
        for _ = 1 to 100 do
          if Rng.float rng < 0.02 then incr hits
        done;
        float_of_int !hits)
  in
  let mu = 2.0 in
  List.iter
    (fun delta ->
      let empirical = Stats.empirical_tail samples (delta *. mu) in
      let bound = Stats.chernoff_upper_mult ~mu ~delta in
      Alcotest.(check bool)
        (Printf.sprintf "tail at delta=%.1f (%.5f <= %.5f)" delta empirical bound)
        true (empirical <= bound +. 0.01))
    [ 2.0; 3.0; 4.0 ]

let test_mean_variance () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "variance" 1.25 (Stats.variance xs);
  Alcotest.(check (float 1e-9)) "stddev" (Float.sqrt 1.25) (Stats.stddev xs);
  Alcotest.(check (float 1e-9)) "singleton variance" 0.0 (Stats.variance [| 5.0 |])

let test_percentiles () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p20" 1.0 (Stats.percentile xs 20.0);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Stats.max_value xs);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_value xs)

let test_geometric_mean () =
  Alcotest.(check (float 1e-9)) "powers of two" 4.0 (Stats.geometric_mean [| 2.0; 8.0 |]);
  Alcotest.check_raises "nonpositive"
    (Invalid_argument "Stats.geometric_mean: samples must be positive") (fun () ->
      ignore (Stats.geometric_mean [| 1.0; 0.0 |]))

let test_empirical_tail () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "half" 0.5 (Stats.empirical_tail xs 3.0);
  Alcotest.(check (float 1e-9)) "all" 1.0 (Stats.empirical_tail xs 0.0);
  Alcotest.(check (float 1e-9)) "none" 0.0 (Stats.empirical_tail xs 10.0)

let prop_mean_bounds =
  QCheck.Test.make ~name:"mean lies between min and max" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.))
    (fun l ->
      let xs = Array.of_list l in
      let m = Stats.mean xs in
      m >= Stats.min_value xs -. 1e-9 && m <= Stats.max_value xs +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:200
    QCheck.(pair
              (list_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.))
              (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (l, (p1, p2)) ->
      let xs = Array.of_list l in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let () =
  Alcotest.run "stats"
    [
      ( "chernoff",
        [
          Alcotest.test_case "multiplicative decays" `Quick test_chernoff_mult_decays;
          Alcotest.test_case "additive decays" `Quick test_chernoff_add_decays;
          Alcotest.test_case "empirically valid" `Slow test_chernoff_empirically_valid;
          Alcotest.test_case "multiplicative empirically valid" `Slow
            test_chernoff_mult_empirically_valid;
        ] );
      ( "summary",
        [
          Alcotest.test_case "mean and variance" `Quick test_mean_variance;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "geometric mean" `Quick test_geometric_mean;
          Alcotest.test_case "empirical tail" `Quick test_empirical_tail;
        ] );
      ( "properties",
        List.map Support.to_alcotest [ prop_mean_bounds; prop_percentile_monotone ] );
    ]
