(* Tests for demand matrices: normalization, classifiers, generators. *)

module Rng = Sso_prng.Rng
module Demand = Sso_demand.Demand
module Gen = Sso_graph.Gen

let test_of_list_normalizes () =
  let d = Demand.of_list [ (0, 1, 2.0); (0, 1, 3.0); (1, 2, 0.0) ] in
  Alcotest.(check (float 1e-9)) "duplicates sum" 5.0 (Demand.get d 0 1);
  Alcotest.(check (float 1e-9)) "zeros dropped" 0.0 (Demand.get d 1 2);
  Alcotest.(check int) "support size" 1 (Demand.support_size d)

let test_of_list_rejects () =
  Alcotest.check_raises "diagonal" (Invalid_argument "Demand.of_list: diagonal entry")
    (fun () -> ignore (Demand.of_list [ (3, 3, 1.0) ]));
  Alcotest.check_raises "negative" (Invalid_argument "Demand.of_list: negative demand")
    (fun () -> ignore (Demand.of_list [ (0, 1, -1.0) ]))

let test_siz () =
  let d = Demand.of_list [ (0, 1, 2.0); (1, 0, 3.0); (2, 3, 0.5) ] in
  Alcotest.(check (float 1e-9)) "siz" 5.5 (Demand.siz d);
  Alcotest.(check (float 1e-9)) "empty siz" 0.0 (Demand.siz Demand.empty)

let test_support_ordered () =
  let d = Demand.of_list [ (2, 0, 1.0); (0, 2, 1.0); (0, 1, 1.0) ] in
  Alcotest.(check (list (pair int int))) "lexicographic"
    [ (0, 1); (0, 2); (2, 0) ] (Demand.support d)

let test_add_scale () =
  let d1 = Demand.of_list [ (0, 1, 1.0) ] in
  let d2 = Demand.of_list [ (0, 1, 2.0); (1, 2, 1.0) ] in
  let sum = Demand.add d1 d2 in
  Alcotest.(check (float 1e-9)) "add overlap" 3.0 (Demand.get sum 0 1);
  Alcotest.(check (float 1e-9)) "add disjoint" 1.0 (Demand.get sum 1 2);
  let scaled = Demand.scale 2.0 sum in
  Alcotest.(check (float 1e-9)) "scale" 6.0 (Demand.get scaled 0 1);
  Alcotest.(check int) "scale by zero empties" 0
    (Demand.support_size (Demand.scale 0.0 sum))

let test_filter () =
  let d = Demand.of_list [ (0, 1, 1.0); (1, 2, 2.0) ] in
  let only_big = Demand.filter (fun _ _ v -> v > 1.5) d in
  Alcotest.(check int) "filter" 1 (Demand.support_size only_big)

let test_classifiers () =
  let perm = Demand.of_list [ (0, 1, 1.0); (1, 0, 1.0); (2, 3, 1.0) ] in
  Alcotest.(check bool) "integral" true (Demand.is_integral perm);
  Alcotest.(check bool) "zero-one" true (Demand.is_zero_one perm);
  let not_01 = Demand.of_list [ (0, 1, 2.0) ] in
  Alcotest.(check bool) "not zero-one" false (Demand.is_zero_one not_01);
  Alcotest.(check bool) "but integral" true (Demand.is_integral not_01);
  let frac = Demand.of_list [ (0, 1, 0.5) ] in
  Alcotest.(check bool) "fractional" false (Demand.is_integral frac)

let test_is_special () =
  let g = Gen.cycle 5 in
  (* cut between any two cycle vertices is 2, so α-special entries are α+2. *)
  let special = Demand.of_list [ (0, 2, 5.0); (1, 3, 5.0) ] in
  Alcotest.(check bool) "special for alpha=3" true (Demand.is_special g ~alpha:3 special);
  Alcotest.(check bool) "not special for alpha=2" false (Demand.is_special g ~alpha:2 special)

let test_random_permutation () =
  let rng = Rng.create 7 in
  let d = Demand.random_permutation rng 50 in
  Alcotest.(check bool) "is permutation" true (Support.is_permutation d);
  Alcotest.(check bool) "most vertices active" true (Demand.support_size d > 40)

let test_random_pairs () =
  let rng = Rng.create 7 in
  let d = Demand.random_pairs rng ~n:20 ~pairs:15 in
  Alcotest.(check int) "count" 15 (Demand.support_size d);
  Alcotest.(check bool) "zero-one" true (Demand.is_zero_one d)

let test_bit_reversal () =
  let d = Demand.bit_reversal 4 in
  Alcotest.(check bool) "permutation" true (Support.is_permutation d);
  (* 0b0001 -> 0b1000 *)
  Alcotest.(check (float 1e-9)) "1 -> 8" 1.0 (Demand.get d 1 8);
  (* palindromic addresses are fixed points and dropped *)
  Alcotest.(check (float 1e-9)) "fixed point dropped" 0.0 (Demand.get d 9 9);
  Alcotest.(check int) "support" (16 - 4) (Demand.support_size d)

let test_transpose () =
  let d = Demand.transpose 4 in
  Alcotest.(check bool) "permutation" true (Support.is_permutation d);
  (* low half 01, high half 10: 0b0110 -> 0b1001 *)
  Alcotest.(check (float 1e-9)) "6 -> 9" 1.0 (Demand.get d 6 9);
  Alcotest.check_raises "odd dimension rejected"
    (Invalid_argument "Demand.transpose: dimension must be even and >= 2") (fun () ->
      ignore (Demand.transpose 3))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The hypercube permutations take the dimension d; the vertex count 2^d
   in its place used to wrap [1 lsl d] into an empty demand (63, 64) or a
   failing [List.init] (62). *)
let test_dimension_not_vertex_count () =
  List.iter
    (fun (name, f) ->
      List.iter
        (fun d ->
          match f d with
          | _ -> Alcotest.failf "%s %d accepted" name d
          | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s %d names the dimension" name d)
                true
                (contains msg "not the vertex count"))
        [ 62; 63; 64 ])
    [ ("bit_reversal", Demand.bit_reversal); ("transpose", Demand.transpose) ]

let test_all_to_all () =
  let d = Demand.all_to_all 5 in
  Alcotest.(check int) "support" 20 (Demand.support_size d);
  Alcotest.(check (float 1e-9)) "siz" 20.0 (Demand.siz d)

let test_gravity () =
  let rng = Rng.create 11 in
  let d = Demand.gravity rng ~n:10 ~total:100.0 in
  Alcotest.(check (float 1e-6)) "total mass" 100.0 (Demand.siz d);
  Alcotest.(check int) "full support" 90 (Demand.support_size d)

let test_single_pair () =
  let d = Demand.single_pair 3 7 2.5 in
  Alcotest.(check (float 1e-9)) "value" 2.5 (Demand.get d 3 7);
  Alcotest.(check int) "support" 1 (Demand.support_size d)

let test_hotspot () =
  let d = Demand.hotspot ~n:8 ~target:3 in
  Alcotest.(check int) "seven senders" 7 (Demand.support_size d);
  Alcotest.(check (float 1e-9)) "no self traffic" 0.0 (Demand.get d 3 3);
  Alcotest.(check bool) "zero-one" true (Demand.is_zero_one d);
  Alcotest.(check bool) "not a permutation (many-to-one)" false (Support.is_permutation d)

let test_ring_shift () =
  let d = Demand.ring_shift ~n:6 ~shift:2 in
  Alcotest.(check bool) "permutation" true (Support.is_permutation d);
  Alcotest.(check (float 1e-9)) "wraps" 1.0 (Demand.get d 5 1);
  Alcotest.check_raises "zero shift rejected"
    (Invalid_argument "Demand.ring_shift: shift must be non-zero mod n") (fun () ->
      ignore (Demand.ring_shift ~n:6 ~shift:6))

(* Serialization *)

let test_demand_of_string_comments () =
  let d = Demand.of_string "# comment\n0 1 2.0\n\n1 2 1\n" in
  Alcotest.(check int) "two pairs" 2 (Demand.support_size d);
  Alcotest.(check (float 1e-9)) "value" 2.0 (Demand.get d 0 1)

let test_demand_of_string_rejects () =
  Alcotest.(check bool) "bad line" true
    (try
       ignore (Demand.of_string "0 1\n");
       false
     with Failure _ -> true);
  Alcotest.(check bool) "diagonal" true
    (try
       ignore (Demand.of_string "3 3 1.0\n");
       false
     with Failure _ -> true)

let prop_of_string_matches_of_list =
  QCheck.Test.make ~name:"of_string reads the lines as of_list reads the entries"
    ~count:100
    QCheck.(list (triple (int_range 0 9) (int_range 0 9) (float_range 0.01 100.0)))
    (fun raw ->
      (* Shift targets to a disjoint id range so pairs are never diagonal
         (shrinkers may wander outside the declared ranges). *)
      let entries = List.map (fun (s, t, v) -> (s, t + 10, v)) raw in
      let text =
        String.concat ""
          (List.map
             (fun (s, t, v) -> Printf.sprintf "# entry\n  %d %d %h\n\n" s t v)
             entries)
      in
      let d = Demand.of_list entries and d' = Demand.of_string text in
      Demand.support d = Demand.support d'
      && List.for_all
           (fun (s, t) ->
             Int64.bits_of_float (Demand.get d s t)
             = Int64.bits_of_float (Demand.get d' s t))
           (Demand.support d))

(* Workloads *)

module Workload = Sso_demand.Workload

let test_workload_diurnal () =
  let rng = Rng.create 3 in
  let day = Workload.diurnal rng ~n:8 ~epochs:12 ~peak_total:100.0 in
  Alcotest.(check int) "epochs" 12 (List.length day);
  List.iter
    (fun d ->
      let total = Demand.siz d in
      Alcotest.(check bool) "within profile band" true
        (total >= 24.0 && total <= 100.1))
    day;
  (* The trough and the peak must actually differ. *)
  let sizes = List.map Demand.siz day in
  let lo = List.fold_left Float.min infinity sizes in
  let hi = List.fold_left Float.max 0.0 sizes in
  Alcotest.(check bool) "diurnal swing" true (hi >= 2.0 *. lo)

let test_workload_random_walk () =
  let rng = Rng.create 5 in
  let epochs = Workload.random_walk rng ~n:10 ~epochs:8 ~pairs:6 ~churn:0.5 in
  Alcotest.(check int) "epochs" 8 (List.length epochs);
  List.iter
    (fun d ->
      Alcotest.(check int) "constant pair count" 6 (Demand.support_size d);
      Alcotest.(check bool) "zero-one" true (Demand.is_zero_one d))
    epochs;
  (* With churn, consecutive epochs differ (with overwhelming probability
     for this seed). *)
  match epochs with
  | a :: b :: _ -> Alcotest.(check bool) "churn changes support" false (Support.demand_equal a b)
  | _ -> Alcotest.fail "expected epochs"

let test_workload_zero_churn_is_constant () =
  let rng = Rng.create 7 in
  let epochs = Workload.random_walk rng ~n:10 ~epochs:5 ~pairs:4 ~churn:0.0 in
  match epochs with
  | first :: rest ->
      List.iter
        (fun d -> Alcotest.(check bool) "identical" true (Support.demand_equal first d))
        rest
  | [] -> Alcotest.fail "expected epochs"

let test_workload_hotspot_sweep () =
  let sweep = Workload.hotspot_sweep ~n:5 in
  Alcotest.(check int) "one epoch per vertex" 5 (List.length sweep);
  List.iteri
    (fun target d ->
      Alcotest.(check int) "incast size" 4 (Demand.support_size d);
      List.iter
        (fun (_, t) -> Alcotest.(check int) "all to target" target t)
        (Demand.support d))
    sweep

(* Update streams (the churn model as explicit events) *)

module Update = Sso_demand.Update

let test_generate_rejects () =
  let reject name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  reject "ticks" "Workload.generate: ticks must be positive, got 0" (fun () ->
      Workload.generate (Rng.create 1) ~n:10 ~ticks:0 ~pairs:3 ~churn:0.1);
  reject "churn" "Workload.generate: churn must lie in [0,1], got 1.5"
    (fun () ->
      Workload.generate (Rng.create 1) ~n:10 ~ticks:5 ~pairs:3 ~churn:1.5);
  reject "rate churn"
    "Workload.generate: rate_churn must lie in [0,1], got -0.25" (fun () ->
      Workload.generate ~rate_churn:(-0.25) (Rng.create 1) ~n:10 ~ticks:5
        ~pairs:3 ~churn:0.1);
  reject "pairs"
    "Workload.generate: pairs must lie in [1, n(n-1)/2] = [1, 10], got 11"
    (fun () ->
      Workload.generate (Rng.create 1) ~n:5 ~ticks:5 ~pairs:11 ~churn:0.1)

let test_generate_zero_churn_is_static () =
  let events =
    Workload.generate (Rng.create 3) ~n:10 ~ticks:6 ~pairs:4 ~churn:0.0
  in
  Alcotest.(check int) "only the bootstrap arrivals" 4 (List.length events);
  List.iter
    (fun e ->
      Alcotest.(check int) "all at tick 0" 0 e.Update.tick;
      match e.Update.kind with
      | Update.Arrive r -> Alcotest.(check (float 1e-9)) "unit rate" 1.0 r
      | _ -> Alcotest.fail "expected an arrival")
    events

let prop_generate_deterministic =
  QCheck.Test.make ~name:"generate is a pure function of the rng" ~count:25
    QCheck.small_int (fun seed ->
      let gen () =
        Workload.generate ~rate_churn:0.5 (Rng.create seed) ~n:10 ~ticks:6
          ~pairs:5 ~churn:0.4
      in
      gen () = gen ())

let prop_generate_full_churn_resamples_all =
  QCheck.Test.make
    ~name:"churn 1 departs the whole previous active set every tick" ~count:25
    QCheck.small_int (fun seed ->
      let pairs = 4 and ticks = 5 in
      let events =
        Workload.generate (Rng.create seed) ~n:10 ~ticks ~pairs ~churn:1.0
      in
      let groups = Update.by_tick events in
      let rec check d = function
        | [] -> true
        | (tick, batch) :: rest ->
            let departed =
              List.filter_map
                (fun e ->
                  match e.Update.kind with
                  | Update.Depart -> Some (e.Update.src, e.Update.dst)
                  | Update.Arrive _ | Update.Set_rate _ -> None)
                batch
            in
            let ok =
              if tick = 0 then departed = [] && List.length batch = pairs
              else
                List.length batch = 2 * pairs
                && List.sort compare departed = Demand.support d
            in
            ok && check (Update.apply d batch) rest
      in
      List.length groups = ticks && check Demand.empty groups)

let prop_generate_folds_to_random_walk =
  QCheck.Test.make
    ~name:"folding generate's ticks replays random_walk's epochs" ~count:25
    QCheck.small_int (fun seed ->
      let n = 10 and ticks = 6 and pairs = 5 and churn = 0.5 in
      let events =
        Workload.generate (Rng.create seed) ~n ~ticks ~pairs ~churn
      in
      let epochs =
        Workload.random_walk (Rng.create seed) ~n ~epochs:(ticks - 1) ~pairs
          ~churn
      in
      let demand_after k =
        Update.apply Demand.empty
          (List.filter (fun e -> e.Update.tick <= k) events)
      in
      List.for_all
        (fun k -> Support.demand_equal (demand_after k) (List.nth epochs (k - 1)))
        (List.init (ticks - 1) (fun i -> i + 1)))

let prop_add_siz =
  QCheck.Test.make ~name:"siz is additive" ~count:200
    QCheck.(pair (list (triple (int_range 0 5) (int_range 6 10) (float_range 0.0 5.0)))
              (list (triple (int_range 0 5) (int_range 6 10) (float_range 0.0 5.0))))
    (fun (l1, l2) ->
      let d1 = Demand.of_list l1 and d2 = Demand.of_list l2 in
      Float.abs (Demand.siz (Demand.add d1 d2) -. (Demand.siz d1 +. Demand.siz d2)) < 1e-6)

let prop_scale_linear =
  QCheck.Test.make ~name:"scale is linear in siz" ~count:200
    QCheck.(pair (float_range 0.0 10.0)
              (list (triple (int_range 0 5) (int_range 6 10) (float_range 0.0 5.0))))
    (fun (c, l) ->
      let d = Demand.of_list l in
      Float.abs (Demand.siz (Demand.scale c d) -. (c *. Demand.siz d)) < 1e-6)

let prop_random_permutation_always_valid =
  QCheck.Test.make ~name:"random_permutation yields permutation demands" ~count:100
    QCheck.(pair small_int (int_range 2 64))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      Support.is_permutation (Demand.random_permutation rng n))

let () =
  Alcotest.run "demand"
    [
      ( "construction",
        [
          Alcotest.test_case "normalizes" `Quick test_of_list_normalizes;
          Alcotest.test_case "rejects bad input" `Quick test_of_list_rejects;
          Alcotest.test_case "siz" `Quick test_siz;
          Alcotest.test_case "support ordered" `Quick test_support_ordered;
          Alcotest.test_case "add and scale" `Quick test_add_scale;
          Alcotest.test_case "filter" `Quick test_filter;
        ] );
      ( "classifiers",
        [
          Alcotest.test_case "kinds" `Quick test_classifiers;
          Alcotest.test_case "special" `Quick test_is_special;
        ] );
      ( "generators",
        [
          Alcotest.test_case "random permutation" `Quick test_random_permutation;
          Alcotest.test_case "random pairs" `Quick test_random_pairs;
          Alcotest.test_case "bit reversal" `Quick test_bit_reversal;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "dimension, not vertex count" `Quick
            test_dimension_not_vertex_count;
          Alcotest.test_case "all to all" `Quick test_all_to_all;
          Alcotest.test_case "gravity" `Quick test_gravity;
          Alcotest.test_case "single pair" `Quick test_single_pair;
          Alcotest.test_case "hotspot" `Quick test_hotspot;
          Alcotest.test_case "ring shift" `Quick test_ring_shift;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "comments" `Quick test_demand_of_string_comments;
          Alcotest.test_case "rejects" `Quick test_demand_of_string_rejects;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "diurnal" `Quick test_workload_diurnal;
          Alcotest.test_case "random walk" `Quick test_workload_random_walk;
          Alcotest.test_case "zero churn" `Quick test_workload_zero_churn_is_constant;
          Alcotest.test_case "hotspot sweep" `Quick test_workload_hotspot_sweep;
        ] );
      ( "update streams",
        [
          Alcotest.test_case "generate rejects" `Quick test_generate_rejects;
          Alcotest.test_case "zero churn static" `Quick
            test_generate_zero_churn_is_static;
        ] );
      ( "properties",
        List.map Support.to_alcotest
          [
            prop_add_siz;
            prop_scale_linear;
            prop_random_permutation_always_valid;
            prop_of_string_matches_of_list;
            prop_generate_deterministic;
            prop_generate_full_churn_resamples_all;
            prop_generate_folds_to_random_walk;
          ] );
    ]
