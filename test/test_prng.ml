(* Tests for Sso_prng.Rng: determinism and uniformity sanity. *)

module Rng = Sso_prng.Rng

(* One raw draw, for comparing streams. *)
let draw rng = Rng.int rng max_int

let test_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (draw a) (draw b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if draw a <> draw b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 50 do
    if draw a = draw b then incr matches
  done;
  Alcotest.(check bool) "split streams diverge" true (!matches < 5)

let test_split_at_reproducible () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let c1 = Rng.split_at a 5 and c2 = Rng.split_at b 5 in
  for _ = 1 to 20 do
    Alcotest.(check int) "same child stream" (draw c1) (draw c2)
  done

let test_split_at_does_not_advance () =
  let a = Rng.create 7 and b = Rng.create 7 in
  ignore (Rng.split_at a 3);
  ignore (Rng.split_at a 9);
  for _ = 1 to 20 do
    Alcotest.(check int) "parent not advanced" (draw b) (draw a)
  done

let test_split_at_decorrelated () =
  let a = Rng.create 7 in
  let c0 = Rng.split_at a 0 and c1 = Rng.split_at a 1 in
  let matches = ref 0 in
  for _ = 1 to 50 do
    if draw c0 = draw c1 then incr matches
  done;
  Alcotest.(check bool) "adjacent-index children diverge" true (!matches < 5)

let test_split_at_children_uniform () =
  (* The first draw of each indexed child should look uniform across
     indices: consecutive indices must not produce correlated streams. *)
  let a = Rng.create 99 in
  let n = 10_000 in
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    sum := !sum +. Rng.float (Rng.split_at a i)
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean of first draws near 0.5" true
    (Float.abs (mean -. 0.5) < 0.02)

let test_split_at_negative () =
  let a = Rng.create 7 in
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.split_at: index must be non-negative") (fun () ->
      ignore (Rng.split_at a (-1)))

let test_int_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_int_invalid () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniform () =
  let rng = Rng.create 11 in
  let bound = 10 in
  let counts = Array.make bound 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let v = Rng.int rng bound in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int trials /. float_of_int bound in
  Array.iter
    (fun c ->
      let dev = Float.abs (float_of_int c -. expected) /. expected in
      Alcotest.(check bool) "within 5% of uniform" true (dev < 0.05))
    counts

let test_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (v >= 0.0 && v < 1.0)
  done

let test_float_mean () =
  let rng = Rng.create 13 in
  let trials = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to trials do
    sum := !sum +. Rng.float rng
  done;
  let mean = !sum /. float_of_int trials in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_permutation () =
  let rng = Rng.create 23 in
  let p = Rng.permutation rng 100 in
  let seen = Array.make 100 false in
  Array.iter (fun v -> seen.(v) <- true) p;
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen)

let test_permutation_varies () =
  let rng = Rng.create 29 in
  let p = Rng.permutation rng 50 and q = Rng.permutation rng 50 in
  Alcotest.(check bool) "two draws differ" true (p <> q)

let test_shuffle_preserves () =
  let rng = Rng.create 31 in
  let a = Array.init 20 (fun i -> i * i) in
  let b = Array.copy a in
  Rng.shuffle rng b;
  let sa = List.sort compare (Array.to_list a) in
  let sb = List.sort compare (Array.to_list b) in
  Alcotest.(check (list int)) "same multiset" sa sb

let test_choose () =
  let rng = Rng.create 37 in
  let a = [| 5; 6; 7 |] in
  for _ = 1 to 100 do
    let v = Rng.choose rng a in
    Alcotest.(check bool) "chosen from array" true (Array.mem v a)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose rng [||]))

let test_discrete () =
  let rng = Rng.create 41 in
  let w = [| 1.0; 0.0; 3.0 |] in
  let counts = Array.make 3 0 in
  let trials = 40_000 in
  for _ = 1 to trials do
    let i = Rng.discrete rng w in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero-weight outcome never drawn" 0 counts.(1);
  let frac0 = float_of_int counts.(0) /. float_of_int trials in
  Alcotest.(check bool) "proportional" true (Float.abs (frac0 -. 0.25) < 0.02)

(* Property-based checks. *)

let prop_int_in_range =
  QCheck.Test.make ~name:"Rng.int always lands in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_permutation_valid =
  QCheck.Test.make ~name:"Rng.permutation is always a bijection" ~count:200
    QCheck.(pair small_int (int_range 1 200))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let p = Rng.permutation rng n in
      let seen = Array.make n false in
      Array.iter (fun v -> seen.(v) <- true) p;
      Array.for_all Fun.id seen)

let prop_discrete_respects_support =
  QCheck.Test.make ~name:"Rng.discrete never picks zero-weight outcomes" ~count:300
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 10) (float_range 0.0 5.0)))
    (fun (seed, weights) ->
      let w = Array.of_list weights in
      QCheck.assume (Array.fold_left ( +. ) 0.0 w > 0.0);
      let rng = Rng.create seed in
      let i = Rng.discrete rng w in
      w.(i) > 0.0)

let () =
  Alcotest.run "prng"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "split" `Quick test_split_independent;
          Alcotest.test_case "split_at reproducible" `Quick test_split_at_reproducible;
          Alcotest.test_case "split_at non-advancing" `Quick test_split_at_does_not_advance;
          Alcotest.test_case "split_at decorrelated" `Quick test_split_at_decorrelated;
          Alcotest.test_case "split_at children uniform" `Slow test_split_at_children_uniform;
          Alcotest.test_case "split_at negative" `Quick test_split_at_negative;
          Alcotest.test_case "int range" `Quick test_int_range;
          Alcotest.test_case "int invalid" `Quick test_int_invalid;
          Alcotest.test_case "int uniform" `Slow test_int_uniform;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float mean" `Slow test_float_mean;
          Alcotest.test_case "permutation" `Quick test_permutation;
          Alcotest.test_case "permutation varies" `Quick test_permutation_varies;
          Alcotest.test_case "shuffle preserves" `Quick test_shuffle_preserves;
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "discrete" `Slow test_discrete;
        ] );
      ( "properties",
        List.map Support.to_alcotest
          [ prop_int_in_range; prop_permutation_valid; prop_discrete_respects_support ] );
    ]
