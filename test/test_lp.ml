(* Tests for the dense two-phase simplex. *)

module Simplex = Sso_lp.Simplex

let solve = Simplex.solve

let check_optimal name expected outcome =
  match outcome with
  | Simplex.Optimal { objective; _ } ->
      Alcotest.(check (float 1e-6)) name expected objective
  | Simplex.Infeasible -> Alcotest.fail (name ^ ": unexpected infeasible")
  | Simplex.Unbounded -> Alcotest.fail (name ^ ": unexpected unbounded")

let test_trivial_minimum () =
  (* min x0 s.t. x0 >= 3 *)
  let p =
    {
      Simplex.num_vars = 1;
      objective = [ (0, 1.0) ];
      constraints = [ { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Ge; rhs = 3.0 } ];
    }
  in
  check_optimal "min at bound" 3.0 (solve p)

let test_two_var () =
  (* min x + y s.t. x + 2y >= 4, 3x + y >= 6.  Optimum at intersection
     (8/5, 6/5) with value 14/5. *)
  let p =
    {
      Simplex.num_vars = 2;
      objective = [ (0, 1.0); (1, 1.0) ];
      constraints =
        [
          { Simplex.coeffs = [ (0, 1.0); (1, 2.0) ]; relation = Simplex.Ge; rhs = 4.0 };
          { Simplex.coeffs = [ (0, 3.0); (1, 1.0) ]; relation = Simplex.Ge; rhs = 6.0 };
        ];
    }
  in
  check_optimal "interior vertex" 2.8 (solve p)

let test_maximize () =
  (* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18: the classic example,
     optimum 36 at (2,6), solved as min -3x - 5y.  Its duals are
     (0, -3/2, -1): the first row is slack. *)
  let p =
    {
      Simplex.num_vars = 2;
      objective = [ (0, -3.0); (1, -5.0) ];
      constraints =
        [
          { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 4.0 };
          { Simplex.coeffs = [ (1, 2.0) ]; relation = Simplex.Le; rhs = 12.0 };
          { Simplex.coeffs = [ (0, 3.0); (1, 2.0) ]; relation = Simplex.Le; rhs = 18.0 };
        ];
    }
  in
  (match solve p with
  | Simplex.Optimal { objective; solution; duals } ->
      Alcotest.(check (float 1e-6)) "objective" (-36.0) objective;
      Alcotest.(check (float 1e-6)) "x" 2.0 solution.(0);
      Alcotest.(check (float 1e-6)) "y" 6.0 solution.(1);
      Alcotest.(check (array (float 1e-9))) "duals" [| 0.0; -1.5; -1.0 |] duals
  | _ -> Alcotest.fail "expected optimal")

let test_equality_constraint () =
  (* min x + 2y s.t. x + y = 5, x <= 3 → x=3, y=2, value 7. *)
  let p =
    {
      Simplex.num_vars = 2;
      objective = [ (0, 1.0); (1, 2.0) ];
      constraints =
        [
          { Simplex.coeffs = [ (0, 1.0); (1, 1.0) ]; relation = Simplex.Eq; rhs = 5.0 };
          { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 3.0 };
        ];
    }
  in
  (match solve p with
  | Simplex.Optimal { objective; solution; _ } ->
      Alcotest.(check (float 1e-6)) "objective" 7.0 objective;
      Alcotest.(check (float 1e-6)) "x" 3.0 solution.(0);
      Alcotest.(check (float 1e-6)) "y" 2.0 solution.(1)
  | _ -> Alcotest.fail "expected optimal")

let test_infeasible () =
  (* x <= 1 and x >= 2. *)
  let p =
    {
      Simplex.num_vars = 1;
      objective = [ (0, 1.0) ];
      constraints =
        [
          { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 1.0 };
          { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Ge; rhs = 2.0 };
        ];
    }
  in
  (match solve p with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible")

let test_unbounded () =
  (* max x with x >= 0 only. *)
  let p =
    {
      Simplex.num_vars = 1;
      objective = [ (0, -1.0) ];
      constraints = [ { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Ge; rhs = 0.0 } ];
    }
  in
  (match solve p with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded")

let test_negative_rhs_normalization () =
  (* -x <= -2  ⇔  x >= 2. *)
  let p =
    {
      Simplex.num_vars = 1;
      objective = [ (0, 1.0) ];
      constraints = [ { Simplex.coeffs = [ (0, -1.0) ]; relation = Simplex.Le; rhs = -2.0 } ];
    }
  in
  check_optimal "normalized" 2.0 (solve p)

let test_degenerate () =
  (* Multiple constraints active at the optimum. *)
  let p =
    {
      Simplex.num_vars = 2;
      objective = [ (0, -1.0); (1, -1.0) ];
      constraints =
        [
          { Simplex.coeffs = [ (0, 1.0); (1, 1.0) ]; relation = Simplex.Le; rhs = 1.0 };
          { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 1.0 };
          { Simplex.coeffs = [ (1, 1.0) ]; relation = Simplex.Le; rhs = 1.0 };
          { Simplex.coeffs = [ (0, 1.0); (1, 2.0) ]; relation = Simplex.Le; rhs = 2.0 };
        ];
    }
  in
  check_optimal "degenerate optimum" (-1.0) (solve p)

let test_beale_cycling_example () =
  (* Beale's classic instance makes naive pivot rules cycle forever;
     Bland's rule must terminate at the optimum z = -1/20. *)
  let p =
    {
      Simplex.num_vars = 4;
      objective = [ (0, -0.75); (1, 150.0); (2, -0.02); (3, 6.0) ];
      constraints =
        [
          {
            Simplex.coeffs = [ (0, 0.25); (1, -60.0); (2, -0.04); (3, 9.0) ];
            relation = Simplex.Le;
            rhs = 0.0;
          };
          {
            Simplex.coeffs = [ (0, 0.5); (1, -90.0); (2, -0.02); (3, 3.0) ];
            relation = Simplex.Le;
            rhs = 0.0;
          };
          { Simplex.coeffs = [ (2, 1.0) ]; relation = Simplex.Le; rhs = 1.0 };
        ];
    }
  in
  check_optimal "Beale optimum" (-0.05) (solve p)

let test_zero_objective () =
  (* Feasibility problem: any feasible point has objective 0. *)
  let p =
    {
      Simplex.num_vars = 2;
      objective = [];
      constraints =
        [ { Simplex.coeffs = [ (0, 1.0); (1, 1.0) ]; relation = Simplex.Eq; rhs = 3.0 } ];
    }
  in
  check_optimal "feasibility" 0.0 (solve p)

let test_index_validation () =
  let p =
    {
      Simplex.num_vars = 1;
      objective = [ (1, 1.0) ];
      constraints = [];
    }
  in
  Alcotest.check_raises "bad index"
    (Invalid_argument "Simplex.solve: variable index out of range") (fun () ->
      ignore (solve p))

let test_numerical_breakdown () =
  (* A 9x9 Hilbert system H x = H·1: feasible, but so ill-conditioned
     that Bland's pivots on the never refactorized tableau end on a point
     that breaks the rows.  The solver refuses it instead of calling it
     optimal. *)
  let n = 9 in
  let row i = List.init n (fun j -> (j, 1.0 /. float_of_int (i + j + 1))) in
  let p =
    {
      Simplex.num_vars = n;
      objective = List.init n (fun j -> (j, 1.0));
      constraints =
        List.init n (fun i ->
            let coeffs = row i in
            let rhs = List.fold_left (fun acc (_, a) -> acc +. a) 0.0 coeffs in
            { Simplex.coeffs; relation = Simplex.Eq; rhs });
    }
  in
  Alcotest.check_raises "refused"
    (Failure "Simplex: numerical breakdown (the solution breaks a constraint)") (fun () ->
      ignore (solve p))

(* Random LPs: cross-check weak duality style invariants. *)

let random_lp rng nvars nrows =
  let module Rng = Sso_prng.Rng in
  let constraints =
    List.init nrows (fun _ ->
        let coeffs =
          List.init nvars (fun j -> (j, Rng.float rng *. 2.0))
        in
        { Simplex.coeffs; relation = Simplex.Le; rhs = 1.0 +. Rng.float rng })
  in
  let objective = List.init nvars (fun j -> (j, -.(0.1 +. Rng.float rng))) in
  { Simplex.num_vars = nvars; objective; constraints }

let prop_random_le_lps_bounded_feasible =
  (* With all-Le positive rhs, origin is feasible; with negative objective
     coefficients and bounded rows, an optimum exists and is ≤ 0. *)
  QCheck.Test.make ~name:"random packing LPs solve to a non-positive optimum" ~count:60
    QCheck.(triple small_int (int_range 1 6) (int_range 1 8))
    (fun (seed, nvars, nrows) ->
      let rng = Sso_prng.Rng.create seed in
      match solve (random_lp rng nvars nrows) with
      | Simplex.Optimal { objective; solution; _ } ->
          objective <= 1e-9
          && Array.for_all (fun x -> x >= -1e-9) solution
      | Simplex.Infeasible | Simplex.Unbounded -> false)

let prop_solution_feasible =
  QCheck.Test.make ~name:"returned solutions satisfy all constraints" ~count:60
    QCheck.(triple small_int (int_range 1 6) (int_range 1 8))
    (fun (seed, nvars, nrows) ->
      let rng = Sso_prng.Rng.create (seed + 999) in
      let p = random_lp rng nvars nrows in
      match solve p with
      | Simplex.Optimal { solution; _ } ->
          List.for_all
            (fun { Simplex.coeffs; relation; rhs } ->
              let lhs =
                List.fold_left (fun acc (j, a) -> acc +. (a *. solution.(j))) 0.0 coeffs
              in
              match relation with
              | Simplex.Le -> lhs <= rhs +. 1e-6
              | Simplex.Ge -> lhs >= rhs -. 1e-6
              | Simplex.Eq -> Float.abs (lhs -. rhs) <= 1e-6)
            p.Simplex.constraints
      | _ -> false)

(* Feasible by construction: every row holds at a random point x0 ≥ 0
   (Le and Ge rows with some slack), coefficients of both signs give
   negative right-hand sides too, and costs c ≥ 0 bound the minimum
   below by 0. *)
let random_feasible_lp rng nvars nrows =
  let module Rng = Sso_prng.Rng in
  let x0 = Array.init nvars (fun _ -> Rng.float rng *. 3.0) in
  let constraints =
    List.init nrows (fun _ ->
        let coeffs = List.init nvars (fun j -> (j, (Rng.float rng *. 3.0) -. 1.0)) in
        let at_x0 = List.fold_left (fun acc (j, a) -> acc +. (a *. x0.(j))) 0.0 coeffs in
        let slack = Rng.float rng in
        match Rng.int rng 3 with
        | 0 -> { Simplex.coeffs; relation = Simplex.Le; rhs = at_x0 +. slack }
        | 1 -> { Simplex.coeffs; relation = Simplex.Ge; rhs = at_x0 -. slack }
        | _ -> { Simplex.coeffs; relation = Simplex.Eq; rhs = at_x0 })
  in
  let objective = List.init nvars (fun j -> (j, Rng.float rng)) in
  { Simplex.num_vars = nvars; objective; constraints }

let prop_duals_certify =
  QCheck.Test.make ~name:"duals are feasible and b·y equals the optimum" ~count:200
    QCheck.(triple small_int (int_range 1 6) (int_range 1 8))
    (fun (seed, nvars, nrows) ->
      let rng = Sso_prng.Rng.create (seed + 4242) in
      let p = random_feasible_lp rng nvars nrows in
      match solve p with
      | Simplex.Optimal { objective; duals; _ } ->
          let tol = 1e-7 *. (1.0 +. Float.abs objective) in
          let reduced = Array.make nvars 0.0 in
          List.iter (fun (j, c) -> reduced.(j) <- reduced.(j) +. c) p.Simplex.objective;
          let by = ref 0.0 in
          List.iteri
            (fun i { Simplex.coeffs; rhs; _ } ->
              by := !by +. (rhs *. duals.(i));
              List.iter (fun (j, a) -> reduced.(j) <- reduced.(j) -. (a *. duals.(i))) coeffs)
            p.Simplex.constraints;
          Array.length duals = nrows
          && Float.abs (!by -. objective) <= tol
          && Array.for_all (fun r -> r >= -.tol) reduced
          && List.for_all2
               (fun { Simplex.relation; _ } y ->
                 match relation with
                 | Simplex.Le -> y <= tol
                 | Simplex.Ge -> y >= -.tol
                 | Simplex.Eq -> true)
               p.Simplex.constraints (Array.to_list duals)
      | Simplex.Infeasible | Simplex.Unbounded -> false)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "trivial minimum" `Quick test_trivial_minimum;
          Alcotest.test_case "two variables" `Quick test_two_var;
          Alcotest.test_case "maximize" `Quick test_maximize;
          Alcotest.test_case "equality" `Quick test_equality_constraint;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs_normalization;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "Beale cycling example" `Quick test_beale_cycling_example;
          Alcotest.test_case "zero objective" `Quick test_zero_objective;
          Alcotest.test_case "index validation" `Quick test_index_validation;
          Alcotest.test_case "numerical breakdown" `Quick test_numerical_breakdown;
        ] );
      ( "properties",
        List.map Support.to_alcotest
          [ prop_random_le_lps_bounded_feasible; prop_solution_feasible; prop_duals_certify ] );
    ]
