(* Tests for routings and the min-congestion solvers, including the
   LP-vs-MWU cross-validation that justifies using MWU at scale. *)

module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Gen = Sso_graph.Gen
module Yen = Sso_graph.Yen
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Min_congestion = Sso_flow.Min_congestion
module Rounding = Sso_flow.Rounding
module Arena = Sso_graph.Arena
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace
module Codec = Sso_artifact.Codec
module Racke = Sso_oblivious.Racke
module Valiant = Sso_oblivious.Valiant
module Ksp = Sso_oblivious.Ksp
module Best_response = Sso_flow.Best_response
module Sampler = Sso_core.Sampler
module Path_system = Sso_core.Path_system

(* One path per pair, weight 1. *)
let singleton_paths g entries = Routing.make g (List.map (fun (pair, p) -> (pair, [ (1.0, p) ])) entries)

(* Packets per pair of an assignment. *)
let packet_counts (a : Rounding.assignment) = Array.map (fun (pair, paths) -> (pair, Array.length paths)) a

let square () =
  (* 0-1-3 and 0-2-3: two disjoint two-hop routes. *)
  let b = Graph.Builder.create 4 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 1 3);
  ignore (Graph.Builder.add_edge b 0 2);
  ignore (Graph.Builder.add_edge b 2 3);
  Graph.Builder.build b

let square_paths g =
  [ Path.of_vertices g [ 0; 1; 3 ]; Path.of_vertices g [ 0; 2; 3 ] ]

(* A Stage-4 candidate index over per-pair path lists, built the way
   every index is: installed in a path system, then unpacked. *)
let index g cands =
  Path_system.to_slice_candidates (Path_system.of_pairs g cands) (List.map fst cands)

(* [r] restricted to the pairs at even positions of [pairs], its weights
   as they are, over [r]'s own arena. *)
let every_other (r : Routing.t) pairs =
  Routing.of_normalized r.arena
    (List.filteri
       (fun i _ -> i mod 2 = 0)
       (List.map
          (fun (s, t) ->
            let j = Routing.position r s t in
            ( (s, t),
              List.init (r.off.(j + 1) - r.off.(j)) (fun k ->
                  (r.weights.(r.off.(j) + k), r.slices.(r.off.(j) + k))) ))
          pairs))

(* Routing basics *)

let test_routing_normalizes () =
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let r = Routing.make g [ ((0, 3), [ (2.0, upper); (2.0, lower) ]) ] in
  let dist = Routing.distribution r 0 3 in
  List.iter (fun (w, _) -> Alcotest.(check (float 1e-9)) "normalized" 0.5 w) dist;
  Alcotest.(check int) "two paths" 2 (List.length dist)

let test_routing_merges_duplicates () =
  let g = square () in
  let p = List.hd (square_paths g) in
  let r = Routing.make g [ ((0, 3), [ (1.0, p); (3.0, p) ]) ] in
  Alcotest.(check int) "merged" 1 (List.length (Routing.distribution r 0 3))

let test_routing_rejects () =
  let g = square () in
  let p = List.hd (square_paths g) in
  Alcotest.check_raises "wrong endpoints"
    (Invalid_argument "Routing.make: path endpoints do not match pair") (fun () ->
      ignore (Routing.make g [ ((1, 3), [ (1.0, p) ]) ]));
  Alcotest.check_raises "zero mass"
    (Invalid_argument "Routing.make: weights must have positive sum") (fun () ->
      ignore (Routing.make g [ ((0, 3), [ (0.0, p) ]) ]))

let test_routing_congestion () =
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let d = Demand.single_pair 0 3 2.0 in
  let split = Routing.make g [ ((0, 3), [ (1.0, upper); (1.0, lower) ]) ] in
  Alcotest.(check (float 1e-9)) "even split" 1.0 (Routing.congestion g split d);
  let solo = singleton_paths g [ ((0, 3), upper) ] in
  Alcotest.(check (float 1e-9)) "single path" 2.0 (Routing.congestion g solo d);
  Alcotest.(check (float 1e-9)) "empty demand" 0.0 (Routing.congestion g solo Demand.empty)

let test_routing_respects_capacity () =
  let b = Graph.Builder.create 2 in
  ignore (Graph.Builder.add_edge ~cap:4.0 b 0 1);
  let g = Graph.Builder.build b in
  let p = Path.of_vertices g [ 0; 1 ] in
  let r = singleton_paths g [ ((0, 1), p) ] in
  Alcotest.(check (float 1e-9)) "load over capacity" 0.5
    (Routing.congestion g r (Demand.single_pair 0 1 2.0))

let test_routing_dilation () =
  let g = Gen.path_graph 5 in
  let p = Path.of_vertices g [ 0; 1; 2; 3 ] in
  let q = Path.of_vertices g [ 0; 1 ] in
  let r = Routing.make g [ ((0, 3), [ (1.0, p) ]); ((0, 1), [ (1.0, q) ]) ] in
  Alcotest.(check int) "dilation over support" 3
    (Routing.dilation r (Demand.of_list [ (0, 3, 1.0); (0, 1, 1.0) ]));
  Alcotest.(check int) "restricted support" 1
    (Routing.dilation r (Demand.single_pair 0 1 1.0))

let test_merge_convex_bound () =
  (* Lemma 5.15: cong(R, d1+d2) ≤ cong(R1,d1) + cong(R2,d2). *)
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let d1 = Demand.single_pair 0 3 1.0 and d2 = Demand.single_pair 0 3 2.0 in
  let r1 = singleton_paths g [ ((0, 3), upper) ] in
  let r2 = singleton_paths g [ ((0, 3), lower) ] in
  let merged = Routing.merge_convex [ (d1, r1); (d2, r2) ] in
  let total = Demand.add d1 d2 in
  Alcotest.(check bool) "demand-sum bound" true
    (Routing.congestion g merged total
    <= Routing.congestion g r1 d1 +. Routing.congestion g r2 d2 +. 1e-9);
  (* The mixture puts 1/3 on upper and 2/3 on lower. *)
  let dist = Routing.distribution merged 0 3 in
  let w_upper =
    List.fold_left (fun acc (w, p) -> if Path.equal p upper then acc +. w else acc) 0.0 dist
  in
  Alcotest.(check (float 1e-9)) "mixture weight" (1.0 /. 3.0) w_upper

let test_sample_path () =
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let r = Routing.make g [ ((0, 3), [ (1.0, upper); (0.0, lower) ]) ] in
  let rng = Rng.create 3 in
  for _ = 1 to 20 do
    Alcotest.(check bool) "always the positive-weight path" true
      (Path.equal (Routing.sample_path rng r 0 3) upper)
  done

(* LP on a candidate index *)

let test_lp_splits () =
  let g = square () in
  let cands = [ ((0, 3), square_paths g) ] in
  let d = Demand.single_pair 0 3 2.0 in
  let { Min_congestion.routing; congestion } = Min_congestion.lp_on_slices g (index g cands) d in
  Alcotest.(check (float 1e-6)) "perfect split" 1.0 congestion;
  Alcotest.(check (float 1e-6)) "consistent" 1.0 (Routing.congestion g routing d)

let test_lp_single_candidate () =
  let g = square () in
  let cands = [ ((0, 3), [ List.hd (square_paths g) ]) ] in
  let d = Demand.single_pair 0 3 3.0 in
  let cong = (Min_congestion.lp_on_slices g (index g cands) d).congestion in
  Alcotest.(check (float 1e-6)) "forced congestion" 3.0 cong

let test_lp_competing_pairs () =
  (* Path graph 0-1-2: pairs (0,1) and (0,2) both must use edge 0. *)
  let g = Gen.path_graph 3 in
  let p01 = Path.of_vertices g [ 0; 1 ] in
  let p02 = Path.of_vertices g [ 0; 1; 2 ] in
  let cands = [ ((0, 1), [ p01 ]); ((0, 2), [ p02 ]) ] in
  let d = Demand.of_list [ (0, 1, 1.0); (0, 2, 1.0) ] in
  let cong = (Min_congestion.lp_on_slices g (index g cands) d).congestion in
  Alcotest.(check (float 1e-6)) "shared edge" 2.0 cong

let test_lp_missing_candidates () =
  let g = square () in
  Alcotest.check_raises "no candidates"
    (Invalid_argument "Min_congestion.lp_on_slices: demanded pair has no candidates")
    (fun () ->
      ignore (Min_congestion.lp_on_slices g (index g []) (Demand.single_pair 0 3 1.0)))

let test_lp_empty_demand () =
  let g = square () in
  let { Min_congestion.routing; congestion } =
    Min_congestion.lp_on_slices g (index g []) Demand.empty
  in
  Alcotest.(check int) "no pairs" 0 (List.length (Routing.pairs routing));
  Alcotest.(check (float 1e-9)) "empty" 0.0 congestion

(* MWU vs LP cross-validation *)

let random_candidates rng g k demand =
  List.map
    (fun (s, t) ->
      let paths = Yen.k_shortest g ~k s t in
      ignore rng;
      ((s, t), paths))
    (Demand.support demand)

let mwu_within_lp label g cands d =
  let lp = (Min_congestion.lp_on_slices g (index g cands) d).congestion in
  let mwu = (Min_congestion.mwu_on_slices ~iters:800 g (index g cands) d).congestion in
  Alcotest.(check bool)
    (Printf.sprintf "%s: mwu within 15%% of lp (lp=%.3f mwu=%.3f)" label lp mwu)
    true
    (mwu >= lp -. 1e-6 && mwu <= (lp *. 1.15) +. 0.05)

let test_mwu_matches_lp () =
  let rng = Rng.create 21 in
  for trial = 1 to 5 do
    let g = Gen.erdos_renyi rng 12 0.35 in
    let d = Demand.random_pairs rng ~n:12 ~pairs:5 in
    mwu_within_lp (Printf.sprintf "trial %d" trial) g (random_candidates rng g 4 d) d
  done

let test_mwu_grid_matches_lp () =
  let rng = Rng.create 73 in
  let g = Gen.grid 4 4 in
  let d = Demand.random_pairs rng ~n:16 ~pairs:6 in
  mwu_within_lp "grid" g (random_candidates rng g 4 d) d

let test_mwu_empty_demand () =
  let g = square () in
  let { Min_congestion.routing; congestion } =
    Min_congestion.mwu_on_slices g (index g []) Demand.empty
  in
  Alcotest.(check int) "no pairs" 0 (List.length (Routing.pairs routing));
  Alcotest.(check (float 1e-9)) "empty" 0.0 congestion

let test_mwu_missing_candidates () =
  let g = square () in
  Alcotest.check_raises "no candidates"
    (Invalid_argument "Min_congestion.mwu_on_slices: demanded pair has no candidates")
    (fun () ->
      ignore (Min_congestion.mwu_on_slices g (index g []) (Demand.single_pair 0 3 1.0)))

let test_mwu_respects_capacities () =
  (* Unequal parallel capacities: the optimal split is proportional to
     them, 3 on the fat edge and 1 on the thin one, congestion 1. *)
  let b = Graph.Builder.create 2 in
  ignore (Graph.Builder.add_edge ~cap:3.0 b 0 1);
  ignore (Graph.Builder.add_edge ~cap:1.0 b 0 1);
  let g = Graph.Builder.build b in
  let p0 = Path.of_edges g ~src:0 ~dst:1 [| 0 |] in
  let p1 = Path.of_edges g ~src:0 ~dst:1 [| 1 |] in
  let cands = [ ((0, 1), [ p0; p1 ]) ] in
  let d = Demand.single_pair 0 1 4.0 in
  Alcotest.(check (float 1e-6)) "lp" 1.0
    (Min_congestion.lp_on_slices g (index g cands) d).congestion;
  let cong = (Min_congestion.mwu_on_slices g (index g cands) d).congestion in
  Alcotest.(check bool) (Printf.sprintf "prop split (got %.3f)" cong) true
    (cong >= 1.0 -. 1e-9 && cong <= 1.1)

let test_mwu_on_square () =
  let g = square () in
  let cands = [ ((0, 3), square_paths g) ] in
  let d = Demand.single_pair 0 3 2.0 in
  let cong = (Min_congestion.mwu_on_slices ~iters:500 g (index g cands) d).congestion in
  Alcotest.(check bool) "near 1.0" true (cong < 1.1)

let test_mwu_unrestricted_square () =
  let g = square () in
  let d = Demand.single_pair 0 3 2.0 in
  let cong = (Option.get (Min_congestion.mwu_unrestricted ~iters:500 g d)).congestion in
  Alcotest.(check bool) "uses both routes" true (cong < 1.1);
  Alcotest.(check bool) "not below optimum" true (cong >= 1.0 -. 1e-6)

let test_unrestricted_lp_matches_mwu () =
  let rng = Rng.create 31 in
  let g = Gen.cycle 6 in
  let d = Demand.of_list [ (0, 3, 1.0); (1, 4, 1.0) ] in
  let lp = (Min_congestion.lp_unrestricted g d).congestion in
  let mwu = (Option.get (Min_congestion.mwu_unrestricted ~iters:800 g d)).congestion in
  ignore rng;
  Alcotest.(check bool)
    (Printf.sprintf "cycle optimum (lp=%.3f mwu=%.3f)" lp mwu)
    true
    (mwu >= lp -. 1e-6 && mwu <= (lp *. 1.15) +. 0.05)

let test_lp_unrestricted_known_value () =
  (* Two disjoint 2-hop routes for 2 units: optimum congestion 1. *)
  let g = square () in
  let d = Demand.single_pair 0 3 2.0 in
  Alcotest.(check (float 1e-5)) "square optimum" 1.0
    (Min_congestion.lp_unrestricted g d).congestion

(* A test-local copy of the edge formulation of opt_{G,ℝ}(d) that
   [lp_unrestricted] replaced: per commodity and edge, one flow variable
   per direction, flow conservation at every vertex, and per edge the
   summed flow at most cap · z.  The column-generation solver must agree
   with it. *)
let edge_lp g demand =
  let module Simplex = Sso_lp.Simplex in
  let n = Graph.n g and m = Graph.m g in
  let commodities = Demand.support demand in
  let z = List.length commodities * 2 * m in
  let var i e dir = (i * 2 * m) + (2 * e) + dir in
  let conservation =
    List.concat
      (List.mapi
         (fun i (s, t) ->
           let amount = Demand.get demand s t in
           List.init n (fun v ->
               let coeffs =
                 Array.fold_left
                   (fun acc (e, _) ->
                     let dir_out = if v = fst (Graph.endpoints g e) then 0 else 1 in
                     (var i e dir_out, 1.0) :: (var i e (1 - dir_out), -1.0) :: acc)
                   [] (Graph.adj g v)
               in
               let rhs = if v = s then amount else if v = t then -.amount else 0.0 in
               { Simplex.coeffs; relation = Simplex.Eq; rhs }))
         commodities)
  in
  let capacity =
    List.init m (fun e ->
        {
          Simplex.coeffs =
            (z, -.Graph.cap g e)
            :: List.concat
                 (List.mapi (fun i _ -> [ (var i e 0, 1.0); (var i e 1, 1.0) ]) commodities);
          relation = Simplex.Le;
          rhs = 0.0;
        })
  in
  match
    Simplex.solve
      { Simplex.num_vars = z + 1; objective = [ (z, 1.0) ]; constraints = conservation @ capacity }
  with
  | Simplex.Optimal { objective; _ } -> Float.max 0.0 objective
  | Simplex.Infeasible | Simplex.Unbounded -> Alcotest.fail "edge LP: no optimum"

(* G(10,0.4), G(14,0.3) or the 3x3 grid by [kind mod 3], and [pairs]
   random pairs with amounts in [0.5, 2.5). *)
let random_instance rng kind ~pairs =
  let g =
    match kind mod 3 with
    | 0 -> Gen.erdos_renyi rng 10 0.4
    | 1 -> Gen.erdos_renyi rng 14 0.3
    | _ -> Gen.grid 3 3
  in
  let support = Demand.support (Demand.random_pairs rng ~n:(Graph.n g) ~pairs) in
  (g, Demand.of_list (List.map (fun (s, t) -> (s, t, 0.5 +. (2.0 *. Rng.float rng))) support))

(* Fixtures for the unrestricted optimum: the hand-built instances of
   this file and test_oblivious, E6's two cliques, the lower-bound
   instances below, then seeded random ones. *)
let unrestricted_fixtures () =
  let rng = Rng.create 41 in
  let lower_bound =
    List.init 5 (fun i ->
        let g = Gen.erdos_renyi rng 10 0.4 in
        (Printf.sprintf "G(10,0.4) seed 41 #%d" i, g, Demand.random_pairs rng ~n:10 ~pairs:4))
  in
  let random i =
    let g, d = random_instance (Rng.create (700 + i)) i ~pairs:(3 + (i mod 4)) in
    (Printf.sprintf "random %d" i, g, d)
  in
  [
    ("square", square (), Demand.single_pair 0 3 2.0);
    ("cycle 6", Gen.cycle 6, Demand.of_list [ (0, 3, 1.0); (1, 4, 1.0) ]);
    ("grid 3x3", Gen.grid 3 3, Demand.of_list [ (0, 8, 1.0); (2, 6, 1.0); (1, 7, 1.0) ]);
    ("two cliques 8", Gen.two_cliques 8, Demand.single_pair 0 15 8.0);
  ]
  @ lower_bound @ List.init 10 random

(* Values of the edge formulation on the fixtures, printed with %.17g
   before it was replaced by column generation.  Both are exact LPs, so
   they agree up to float rounding. *)
let test_unrestricted_pins () =
  List.iter2
    (fun (label, g, d) want ->
      let want = float_of_string want in
      let { Min_congestion.routing; congestion = got } = Min_congestion.lp_unrestricted g d in
      Alcotest.(check (float (1e-12 *. Float.max 1.0 want))) label want got;
      Alcotest.(check bool) (label ^ ": covers d") true (Routing.covers routing d))
    (unrestricted_fixtures ())
    [
      "1"; "1"; "0.99999999999999989"; "1";
      "0.66666666666666652"; "1"; "0.74999999999999922"; "0.49999999999999989";
      "0.49999999999999944";
      "2.3771291639510741"; "1.1637817898605363"; "1.971409803930819"; "4.3689326253740939";
      "1.3708138838707105"; "1.6799474482442194"; "1.2550193020646252"; "0.94585193076284857";
      "1.2789083061532742"; "0.84284400999728826";
    ]

let prop_column_generation_matches_edge_lp =
  QCheck.Test.make ~name:"column generation equals the edge LP; its routing attains it"
    ~count:100 QCheck.small_nat (fun seed ->
      let g, d = random_instance (Rng.create (9000 + seed)) seed ~pairs:(1 + (seed mod 5)) in
      let { Min_congestion.routing; congestion = value } = Min_congestion.lp_unrestricted g d in
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 b in
      close value (edge_lp g d)
      && Routing.covers routing d
      && close (Routing.congestion g routing d) value)

let test_lower_bound_sound () =
  let rng = Rng.create 41 in
  for _ = 1 to 5 do
    let g = Gen.erdos_renyi rng 10 0.4 in
    let d = Demand.random_pairs rng ~n:10 ~pairs:4 in
    let bound = Min_congestion.lower_bound_sparse_cut g d in
    let opt = (Min_congestion.lp_unrestricted g d).congestion in
    Alcotest.(check bool)
      (Printf.sprintf "lower bound below optimum (%.3f <= %.3f)" bound opt)
      true (bound <= opt +. 1e-6)
  done

let test_lower_bound_tight_on_bottleneck () =
  let g = Gen.path_graph 3 in
  let d = Demand.single_pair 0 2 4.0 in
  Alcotest.(check (float 1e-9)) "cut bound" 4.0 (Min_congestion.lower_bound_sparse_cut g d)

(* Extra routing coverage *)

let test_routing_covers () =
  let g = square () in
  let p = List.hd (square_paths g) in
  let r = singleton_paths g [ ((0, 3), p) ] in
  Alcotest.(check bool) "covers its pair" true (Routing.covers r (Demand.single_pair 0 3 1.0));
  Alcotest.(check bool) "missing pair" false (Routing.covers r (Demand.single_pair 1 2 1.0))

let test_lower_bound_volume_on_long_path () =
  (* On a path graph, hop distances make the volume bound bite: 3 pairs of
     span 4 over 4 edges → at least 3.0 even though each pair's cut bound
     is only 1·d. *)
  let g = Gen.path_graph 5 in
  let d = Demand.of_list [ (0, 4, 1.0); (4, 0, 1.0); (0, 4, 0.0) ] in
  Alcotest.(check bool) "volume bound" true
    (Min_congestion.lower_bound_sparse_cut g d >= 2.0 -. 1e-9)

(* Warm-started MWU *)

let test_warm_start_preserves_good_solution () =
  (* Seed with the exact optimum at high weight + few fresh rounds: the
     result must stay near-optimal. *)
  let g = square () in
  let cands = [ ((0, 3), square_paths g) ] in
  let d = Demand.single_pair 0 3 2.0 in
  let { Min_congestion.routing = optimal; congestion = lp } =
    Min_congestion.lp_on_slices g (index g cands) d
  in
  let warm =
    (Min_congestion.mwu_on_slices ~iters:5 ~warm:(optimal, 100) g (index g cands) d).congestion
  in
  Alcotest.(check bool)
    (Printf.sprintf "stays near optimum (lp %.3f warm %.3f)" lp warm)
    true
    (warm <= (lp *. 1.1) +. 0.02)

let test_warm_start_recovers_from_bad_seed () =
  (* Seed with the worst routing at low weight + many fresh rounds: MWU
     must still converge. *)
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  ignore lower;
  let bad = singleton_paths g [ ((0, 3), upper) ] in
  let cands = [ ((0, 3), square_paths g) ] in
  let d = Demand.single_pair 0 3 2.0 in
  let recovered =
    (Min_congestion.mwu_on_slices ~iters:600 ~warm:(bad, 1) g (index g cands) d).congestion
  in
  Alcotest.(check bool) (Printf.sprintf "recovered %.3f" recovered) true (recovered <= 1.15)

let test_warm_start_handles_new_pairs () =
  (* The new demand has a pair the warm routing never saw. *)
  let g = Gen.grid 3 3 in
  let d_old = Demand.single_pair 0 8 1.0 in
  let cands_old = [ ((0, 8), Yen.k_shortest g ~k:3 0 8) ] in
  let warm = (Min_congestion.lp_on_slices g (index g cands_old) d_old).routing in
  let d_new = Demand.of_list [ (0, 8, 1.0); (2, 6, 1.0) ] in
  let cands_new =
    cands_old @ [ ((2, 6), Yen.k_shortest g ~k:3 2 6) ]
  in
  let { Min_congestion.routing; congestion } =
    Min_congestion.mwu_on_slices ~iters:200 ~warm:(warm, 50) g
      (index g cands_new) d_new
  in
  Alcotest.(check bool) "covers the new pair" true (Routing.covers routing d_new);
  Alcotest.(check bool) "finite congestion" true (Float.is_finite congestion && congestion > 0.0)

let test_warm_start_rejects_bad_weight () =
  let g = square () in
  let cands = [ ((0, 3), square_paths g) ] in
  let d = Demand.single_pair 0 3 1.0 in
  let warm = (Min_congestion.lp_on_slices g (index g cands) d).routing in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Min_congestion.mwu_on_slices ~iters:10 ~warm:(warm, 0) g
            (index g cands)
            d);
       false
     with Invalid_argument _ -> true)

(* Rounding *)

let test_round_is_integral () =
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let r = Routing.make g [ ((0, 3), [ (1.0, upper); (1.0, lower) ]) ] in
  let d = Demand.single_pair 0 3 5.0 in
  let rng = Rng.create 5 in
  let a = Rounding.round rng r d in
  Alcotest.(check (array (pair (pair int int) int))) "one whole path per packet"
    [| ((0, 3), 5) |] (packet_counts a)

let test_round_rejects_fractional_demand () =
  let g = square () in
  let r = singleton_paths g [ ((0, 3), List.hd (square_paths g)) ] in
  let rng = Rng.create 5 in
  Alcotest.check_raises "fractional"
    (Invalid_argument "Rounding.round: demand must be integral") (fun () ->
      ignore (Rounding.round rng r (Demand.single_pair 0 3 0.5)))

let test_rounding_lemma_bound () =
  (* Lemma 6.3: some rounding achieves ≤ 2·cong_R + 3·ln m; best-of-20
     should find one on small instances. *)
  let rng = Rng.create 17 in
  for _ = 1 to 5 do
    let g = Gen.erdos_renyi rng 12 0.35 in
    let d = Demand.random_pairs rng ~n:12 ~pairs:6 in
    let cands =
      List.map
        (fun (s, t) -> ((s, t), Yen.k_shortest g ~k:3 s t))
        (Demand.support d)
    in
    let { Min_congestion.routing = fractional; congestion = frac_cong } =
      Min_congestion.lp_on_slices g (index g cands) d
    in
    let a = Rounding.best_round ~tries:20 rng g fractional d in
    let bound = (2.0 *. frac_cong) +. (3.0 *. Float.log (float_of_int (Graph.m g))) in
    Alcotest.(check bool)
      (Printf.sprintf "rounding bound (%.3f <= %.3f)" (Rounding.congestion g a) bound)
      true
      (Rounding.congestion g a <= bound +. 1e-6)
  done

let test_local_search_improves () =
  (* Start with both packets on the same route; local search should move
     one to the disjoint alternative. *)
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let bad : Rounding.assignment = [| ((0, 3), [| upper; upper |]) |] in
  Alcotest.(check (float 1e-9)) "initially congested" 2.0 (Rounding.congestion g bad);
  let improved =
    Rounding.local_search g
      ~candidates:(fun _ _ -> [ upper; lower ])
      bad
  in
  Alcotest.(check (float 1e-9)) "balanced" 1.0 (Rounding.congestion g improved)

let test_local_search_preserves_demand () =
  let g = square () in
  let upper, lower =
    match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
  in
  let a : Rounding.assignment = [| ((0, 3), [| upper; upper; lower |]) |] in
  let improved = Rounding.local_search g ~candidates:(fun _ _ -> [ upper; lower ]) a in
  Alcotest.(check bool) "same demand" true (packet_counts a = packet_counts improved)

let prop_round_preserves_counts =
  QCheck.Test.make ~name:"rounding preserves per-pair packet counts" ~count:50
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, packets) ->
      let g = square () in
      let upper, lower =
        match square_paths g with [ a; b ] -> (a, b) | _ -> assert false
      in
      let r = Routing.make g [ ((0, 3), [ (1.0, upper); (1.0, lower) ]) ] in
      let d = Demand.single_pair 0 3 (float_of_int packets) in
      let rng = Rng.create seed in
      let a = Rounding.round rng r d in
      packet_counts a = [| ((0, 3), packets) |])

(* Source-batched oracles: the unrestricted MWU must return byte-identical
   routings at any job count (E3/E14 depend on it).  That each batched
   search returns the full run's path is the qcheck property
   [dijkstra_targets = full run + path] in test_graph.ml. *)

let exact_same_routing label r1 r2 =
  let dump r =
    List.map
      (fun (s, t) ->
        ( (s, t),
          List.map
            (fun (w, (p : Path.t)) -> (w, p.Path.src, p.Path.dst, p.Path.edges))
            (Routing.distribution r s t) ))
      (Routing.pairs r)
  in
  Alcotest.(check bool) label true (dump r1 = dump r2)

let batched_demand () =
  (* Several targets per source so batching actually groups, plus one
     lone pair. *)
  Demand.of_list
    [ (0, 5, 1.0); (0, 7, 2.0); (0, 11, 1.0); (2, 9, 1.5); (2, 13, 1.0); (4, 10, 0.5) ]


let test_mwu_unrestricted_jobs_invariant () =
  let rng = Rng.create 21 in
  let g = Gen.random_regular rng 16 4 in
  let d = batched_demand () in
  let solve jobs =
    Support.with_jobs jobs (fun () ->
        (Option.get (Min_congestion.mwu_unrestricted ~iters:60 g d)).routing)
  in
  exact_same_routing "jobs 4" (solve 1) (solve 4)

let test_sssp_settled_counter () =
  (* [mwu.sssp_settled] adds each search's settled vertices: the same at
     any job count, and fewer than one full run per pair and round, since
     each search stops once its source's targets settle. *)
  let settled = Sso_obs.Obs.counter "mwu.sssp_settled" in
  let g = Gen.hypercube 5 in
  let d = Demand.bit_reversal 5 in
  let iters = 20 in
  let count jobs =
    Support.with_jobs jobs @@ fun () ->
    let before = Sso_obs.Obs.counter_value settled in
    ignore (Min_congestion.mwu_unrestricted ~iters g d);
    Sso_obs.Obs.counter_value settled - before
  in
  let bounded = count 1 in
  Alcotest.(check int) "jobs 4" bounded (count 4);
  let full = (iters + 1) * Demand.support_size d * Graph.n g in
  Alcotest.(check bool)
    (Printf.sprintf "early exit settles fewer (%d < %d)" bounded full)
    true
    (0 < bounded && bounded < full)

(* Golden pins for Stage 5: digests of the full routing (pairs, weight
   bits, edge sequences) and of the value's bits, recorded before the
   Dijkstra oracle moved to flat weights and a target-bounded,
   allocation-free core.  Any change to float order, tie-breaking or path
   reconstruction moves them. *)
let stage5_digest { Min_congestion.routing = r; congestion = value } =
  let b = Buffer.create 4096 in
  List.iter
    (fun (s, t) ->
      Printf.bprintf b "%d %d:" s t;
      List.iter
        (fun (w, (p : Path.t)) ->
          Printf.bprintf b " %Lx@%d>%d[" (Int64.bits_of_float w) p.Path.src p.Path.dst;
          Array.iter (Printf.bprintf b "%d,") p.Path.edges;
          Buffer.add_char b ']')
        (Routing.distribution r s t);
      Buffer.add_char b '\n')
    (Routing.pairs r);
  Printf.bprintf b "value %Lx" (Int64.bits_of_float value);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_stage5_golden () =
  let g = Gen.hypercube 6 in
  let bitrev = Demand.bit_reversal 6 in
  let perm = Demand.random_permutation (Rng.create 2023) (Graph.n g) in
  let pin label want got = Alcotest.(check string) label want got in
  let opt = function Some x -> stage5_digest x | None -> "none" in
  pin "unrestricted bit-reversal" "b2dd69a31fcb5e8b97cfca1fb21ccac5"
    (opt (Min_congestion.mwu_unrestricted ~iters:300 g bitrev));
  pin "unrestricted permutation" "052f53de9b1c5eeaf99edd587e8b8ce1"
    (opt (Min_congestion.mwu_unrestricted ~iters:300 g perm));
  pin "avoiding nothing" "052f53de9b1c5eeaf99edd587e8b8ce1"
    (opt (Min_congestion.mwu_unrestricted ~iters:300 ~avoid:(fun _ -> false) g perm));
  pin "avoiding" "182498c02fd974352ce32846a98f0d7d"
    (opt
       (Min_congestion.mwu_unrestricted ~iters:300
          ~avoid:(fun e -> e mod 7 = 3)
          g perm));
  pin "avoiding, vertex 0 cut off" "none"
    (opt
       (Min_congestion.mwu_unrestricted ~iters:300
          ~avoid:(fun e ->
            let u, v = Graph.endpoints g e in
            u = 0 || v = 0)
          g perm))

(* Golden pin for the warm-started Stage-4 solve, recorded before the twin
   solver bodies were folded into one MWU core.  It re-solves after churn:
   half of the old pairs depart, new ones arrive, so the warm routing
   covers a strict subset of the new support. *)
let erdos_renyi_instance () =
  let rng = Rng.create 1511 in
  let g = Gen.erdos_renyi rng 18 0.3 in
  let d = Demand.random_pairs rng ~n:18 ~pairs:8 in
  (rng, g, d, random_candidates rng g 4 d)

let test_warm_golden () =
  let pin label want got = Alcotest.(check string) label want got in
  let rng, g, d, cands = erdos_renyi_instance () in
  let sc = index g cands in
  let warm = (Min_congestion.mwu_on_slices ~iters:120 g sc d).routing in
  let kept =
    List.filteri (fun i _ -> i mod 2 = 0) (Demand.support d)
    |> List.map (fun (s, t) -> (s, t, Demand.get d s t *. 1.5))
  in
  let arrivals =
    Demand.support (Demand.random_pairs rng ~n:18 ~pairs:5)
    |> List.map (fun (s, t) -> (s, t, 1.0))
  in
  let d_new =
    Demand.of_list
      (kept
      @ List.filter
          (fun (s, t, _) -> not (List.exists (fun (s', t', _) -> s = s' && t = t') kept))
          arrivals)
  in
  let sc_new =
    index g (random_candidates rng g 4 d_new)
  in
  pin "warm under churn" "c869d032d8986709c56f3af4c03ca191"
    (stage5_digest
       (Min_congestion.mwu_on_slices ~iters:40 ~warm:(warm, 60) g sc_new d_new))

(* Golden pins for Stage-4 solves on sampled path systems, recorded before
   the MWU rounds were restricted to the candidates' edges: the routing
   codec's FNV digest, the congestion's bits and a digest of the traced
   [mwu.round] attribute stream.  The fat-tree candidates cover a strict
   subset of the edges, the hypercube ones cover every edge. *)
let traced_stage4 solve =
  Obs.clear_trace ();
  Obs.set_tracing true;
  let { Min_congestion.routing = r; congestion = c } =
    Fun.protect ~finally:(fun () -> Obs.set_tracing false) solve
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun (e : Trace.event) ->
      if e.Trace.name = "mwu.round" then begin
        List.iter
          (fun (k, v) ->
            match v with
            | Trace.Int i -> Printf.bprintf b "%s=%d;" k i
            | Trace.Float f -> Printf.bprintf b "%s=%Lx;" k (Int64.bits_of_float f)
            | Trace.Bool x -> Printf.bprintf b "%s=%b;" k x
            | Trace.String s -> Printf.bprintf b "%s=%s;" k s)
          e.Trace.attrs;
        Buffer.add_char b '\n'
      end)
    (Obs.events ());
  Obs.clear_trace ();
  Printf.sprintf "%Lx %Lx %s"
    (Codec.fnv1a64 (Codec.encode_routing r))
    (Int64.bits_of_float c)
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let fat_tree_instance () =
  let g = Gen.fat_tree 8 in
  let rng = Rng.create 2024 in
  let ps = Sampler.alpha_sample (Rng.split_at rng 0) (Racke.routing (Rng.split_at rng 1) g) ~alpha:4 in
  (* Edge switches of the k=8 fat-tree: per pod, the last 4 of its 8. *)
  let sw = Array.init 32 (fun i -> 16 + (i / 4 * 8) + 4 + (i mod 4)) in
  let d =
    Demand.of_list
      (List.init 6 (fun i ->
           (sw.(5 * i), sw.(((5 * i) + 13) mod 32), 1.0 +. float_of_int (i mod 3))))
  in
  (g, ps, d)

let test_stage4_golden () =
  let pin label want got = Alcotest.(check string) label want got in
  let g, ps, d = fat_tree_instance () in
  let slices ps d = Path_system.to_slice_candidates ps (Demand.support d) in
  let covered ps d =
    Array.length
      (Best_response.edges
         (Best_response.candidates (slices ps d) (Array.of_list (Demand.support d))))
  in
  Alcotest.(check bool) "fat-tree candidates: a strict subset of E" true
    (covered ps d < Graph.m g);
  let cold = (Min_congestion.mwu_on_slices g (slices ps d) d).routing in
  pin "fat-tree cold"
    "37fc7a7d691e1c11 3ffc51eb851eb852 f4000e5a0cb61ed0a42387ef15e5fc0e"
    (traced_stage4 (fun () -> Min_congestion.mwu_on_slices g (slices ps d) d));
  (* Warm from the cold routing of every other pair: the solve has seeded
     and unseeded pairs. *)
  let warm = every_other cold (Demand.support d) in
  pin "fat-tree warm"
    "a12d7e47ce39b97a 3fff4e81b4e81b4e 2f9a11db00c7a5fe3c51eac2e4118401"
    (traced_stage4 (fun () ->
         Min_congestion.mwu_on_slices ~warm:(warm, 60) g (slices ps d) d));
  (* Fail the first edge of two pairs' first candidates; pairs left with
     no candidate leave the demand. *)
  let down =
    List.filteri (fun i _ -> i < 2) (Demand.support d)
    |> List.map (fun (s, t) -> (List.hd (Path_system.paths ps s t)).Path.edges.(0))
  in
  let view = Path_system.filter (fun a i -> not (Arena.exists a i (fun e -> List.mem e down))) ps in
  let d_view =
    Demand.of_list
      (List.filter_map
         (fun (s, t) ->
           if Path_system.slice_count view s t > 0 then Some (s, t, Demand.get d s t) else None)
         (Demand.support d))
  in
  pin "fat-tree filter view"
    "fade79f48ca6e782 4000000000000000 8c358500b06522b80b082c2ec41394ec"
    (traced_stage4 (fun () -> Min_congestion.mwu_on_slices g (slices view d_view) d_view));
  let cube = Gen.hypercube 4 in
  let cube_ps = Sampler.alpha_sample (Rng.create 4) (Valiant.routing cube) ~alpha:6 in
  let perm = Demand.random_permutation (Rng.create 5) (Graph.n cube) in
  Alcotest.(check int) "hypercube candidates: every edge" (Graph.m cube) (covered cube_ps perm);
  pin "hypercube valiant"
    "e8d57981407159d2 3ff8e81b4e81b4e8 8a3cc35d50ea291ef65c56a77f4ecb12"
    (traced_stage4 (fun () ->
         Min_congestion.mwu_on_slices cube (slices cube_ps perm) perm))

(* Golden pins for the exact Stage-4 LP through [Semi_oblivious.route]:
   the routing codec's FNV digest and the congestion's bits, recorded
   while the LP still read boxed per-pair path lists.  Variable order,
   row order and the emitted paths all move them. *)
let test_lp_golden () =
  let module Semi_oblivious = Sso_core.Semi_oblivious in
  let module Lower_bound = Sso_core.Lower_bound in
  let lp g ps d =
    let r, c = Semi_oblivious.route ~solver:Semi_oblivious.Lp g ps d in
    Printf.sprintf "%Lx %Lx" (Codec.fnv1a64 (Codec.encode_routing r)) (Int64.bits_of_float c)
  in
  let pin label want got = Alcotest.(check string) label want got in
  let c = Gen.c_graph 12 6 in
  List.iter
    (fun (alpha, want) ->
      let base = Ksp.routing ~k:12 c.Gen.c_graph in
      let ps = Sampler.alpha_sample (Rng.create (300 + alpha)) base ~alpha in
      let attack = Lower_bound.attack c ps in
      pin (Printf.sprintf "C(12,6) alpha %d" alpha) want
        (lp c.Gen.c_graph ps attack.Lower_bound.demand))
    [
      (1, "1f111078c9b57fa8 4018000000000000");
      (2, "6cd43fa42f4c0f39 4014000000000000");
      (3, "35b63991c3273902 4008000000000000");
      (4, "961bd30b5b394204 4000000000000000");
    ];
  let rng = Rng.create 29 in
  List.iteri
    (fun trial want ->
      let g = Gen.erdos_renyi rng 14 0.3 in
      let d = Demand.random_pairs rng ~n:14 ~pairs:6 in
      let ps = Sampler.alpha_sample (Rng.split rng) (Ksp.routing ~k:4 g) ~alpha:3 in
      pin (Printf.sprintf "G(14,0.3) trial %d" trial) want (lp g ps d))
    [
      "d82c1f81263547dd 4000000000000000";
      "f288fc2749f449cb 3ff0000000000000";
      "4ded1db4af602572 3ff8000000000000";
      "30361187a2ed9ac2 3ff0000000000000";
      "837b6a861aa0c772 3ff6666666666666";
    ];
  let cube = Gen.hypercube 4 in
  let cube_ps = Sampler.alpha_sample (Rng.create 41) (Valiant.routing cube) ~alpha:3 in
  pin "hypercube valiant bit-reversal" "535fdf754c9a92fa 3ff924924924924a"
    (lp cube cube_ps (Demand.bit_reversal 4));
  let cliques = Gen.two_cliques 6 in
  let rng = Rng.create 43 in
  let cut_ps =
    Sampler.alpha_cut_sample (Rng.split rng) (Racke.routing (Rng.split rng) cliques) ~alpha:1
  in
  pin "two cliques (alpha+cut)-sample" "2ddccda2c29d9f29 4000000000000000"
    (lp cliques cut_ps (Demand.single_pair 0 11 6.0))

(* No index holds a path twice within a pair: whatever built the path
   system — an α-sample, a failure view, a union, or a preload of a
   decoded payload — [lookup] maps each candidate's slice, in the index's
   own arena (by handle) or copied into another arena (byte for byte),
   back to that candidate and no other. *)
let prop_lookup_inverts_slice =
  QCheck.Test.make ~name:"index lookup inverts slice" ~count:40
    QCheck.(triple small_nat bool (int_bound 3))
    (fun (seed, racke, source) ->
      let module Slice_candidates = Sso_flow.Slice_candidates in
      let rng = Rng.create seed in
      let g = Gen.grid (3 + Rng.int rng 2) (3 + Rng.int rng 3) in
      let base = if racke then Racke.routing (Rng.split rng) g else Ksp.routing ~k:4 g in
      let sample () = Sampler.alpha_sample (Rng.split rng) base ~alpha:(1 + Rng.int rng 4) in
      let d = Demand.random_pairs rng ~n:(Graph.n g) ~pairs:(1 + Rng.int rng 6) in
      let support = Demand.support d in
      let ps =
        match source with
        | 0 -> sample ()
        | 1 ->
            let down = List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng (Graph.m g)) in
            Path_system.filter
              (fun a i -> not (Arena.exists a i (fun e -> List.mem e down)))
              (sample ())
        | 2 -> Path_system.union (sample ()) (sample ())
        | _ ->
            let cold = sample () in
            let ranges =
              List.map (fun (s, t) -> ((s, t), Path_system.slice_range cold s t)) support
            in
            let arena, ranges =
              Codec.decode_path_system_slices g
                (Codec.encode_path_system_slices (Path_system.arena cold) ranges)
            in
            let warm = Path_system.of_generator g (fun _ _ -> []) in
            Path_system.preload warm arena ranges;
            warm
      in
      let sc = Path_system.to_slice_candidates ps support in
      let a = Slice_candidates.arena sc and other = Arena.create g in
      List.for_all
        (fun i ->
          let first, count = Slice_candidates.range sc i in
          List.for_all
            (fun c ->
              let h = Slice_candidates.slice sc c in
              let copy = Arena.append_slice other a h in
              Slice_candidates.lookup sc i a h = c && Slice_candidates.lookup sc i other copy = c)
            (List.init count (fun k -> first + k)))
        (List.init (List.length support) Fun.id))

(* A candidate store's slots are exactly the sorted distinct union of its
   pairs' candidate edges, and a response under per-slot weights is the
   path a left-to-right scan of the pair's candidates under the same
   per-edge weights picks (strict [<], first wins), its edges read back
   through the slots.  Grids and random 3-regular graphs, Ksp and Räcke
   samples, random failure views (pairs may lose every candidate), and
   empty demands. *)
let prop_store_edges_are_candidate_edges =
  QCheck.Test.make ~name:"store edge set = distinct union of candidate edges" ~count:40
    QCheck.(triple small_nat bool bool)
    (fun (seed, on_grid, racke) ->
      let rng = Rng.create seed in
      let g =
        if on_grid then Gen.grid (3 + Rng.int rng 2) (3 + Rng.int rng 3)
        else Gen.random_regular rng (8 + (2 * Rng.int rng 4)) 3
      in
      let n = Graph.n g and m = Graph.m g in
      let base = if racke then Racke.routing (Rng.split rng) g else Ksp.routing ~k:3 g in
      let ps = Sampler.alpha_sample (Rng.split rng) base ~alpha:(1 + Rng.int rng 3) in
      let down = List.init (Rng.int rng 4) (fun _ -> Rng.int rng m) in
      let view = Path_system.filter (fun a i -> not (Arena.exists a i (fun e -> List.mem e down))) ps in
      let d = Demand.random_pairs rng ~n ~pairs:(Rng.int rng 7) in
      let support = Demand.support d in
      let sc = Path_system.to_slice_candidates view support in
      let store = Best_response.candidates sc (Array.of_list support) in
      let union =
        List.concat_map
          (fun (s, t) ->
            List.concat_map (fun (p : Path.t) -> Array.to_list p.Path.edges) (Path_system.paths view s t))
          support
        |> List.sort_uniq Int.compare
      in
      let edges = Best_response.edges store in
      let w = Array.init m (fun _ -> 0.5 +. Rng.float rng) in
      let scanned (s, t) =
        List.fold_left
          (fun best (p : Path.t) ->
            let c = Array.fold_left (fun acc e -> acc +. w.(e)) 0.0 p.Path.edges in
            match best with Some (bc, _) when not (c < bc) -> best | _ -> Some (c, p))
          None (Path_system.paths view s t)
        |> Option.map (fun (_, (p : Path.t)) -> Array.to_list p.Path.edges)
      in
      let answered h =
        if h < 0 then None
        else begin
          let acc = ref [] in
          Sso_flow.Slice_candidates.iter_edges sc h (fun k -> acc := edges.(k) :: !acc);
          Some (List.rev !acc)
        end
      in
      let handles = Array.make (List.length support) 0 in
      ignore (Best_response.respond_all store (Array.map (Array.get w) edges) handles);
      Array.to_list edges = union
      && List.map answered (Array.to_list handles) = List.map scanned support
      && (support <> []
         || (Min_congestion.mwu_on_slices g (Path_system.to_slice_candidates view []) d).congestion
            = 0.0))

(* ---------- Candidate pricing ---------- *)

(* [Slice_candidates.cheapest] stops summing a candidate once its partial
   sum reaches the best; the reference sums every candidate in full and
   keeps the first strict [<] minimum.  Weights come from a palette with
   zeros, +inf and small exact values (so equal sums tie exactly) besides
   random ones; α = 1 samples give single-candidate pairs and failure
   views give pairs with no candidate. *)
let full_fold sc ~weights i =
  let module Slice_candidates = Sso_flow.Slice_candidates in
  let first, count = Slice_candidates.range sc i in
  let best = ref (-1) and bw = ref 0.0 in
  for c = first to first + count - 1 do
    let w = ref 0.0 in
    Slice_candidates.iter_edges sc c (fun e -> w := !w +. weights.(e));
    if !best < 0 || !w < !bw then begin
      best := c;
      bw := !w
    end
  done;
  !best

let prop_cheapest_matches_full_fold =
  QCheck.Test.make ~name:"cheapest = full-sum strict-< fold" ~count:60
    QCheck.(triple small_nat bool bool)
    (fun (seed, on_grid, racke) ->
      let module Slice_candidates = Sso_flow.Slice_candidates in
      let rng = Rng.create seed in
      let g =
        if on_grid then Gen.grid (3 + Rng.int rng 2) (3 + Rng.int rng 3)
        else Gen.random_regular rng (8 + (2 * Rng.int rng 4)) 3
      in
      let n = Graph.n g and m = Graph.m g in
      let base = if racke then Racke.routing (Rng.split rng) g else Ksp.routing ~k:4 g in
      let ps = Sampler.alpha_sample (Rng.split rng) base ~alpha:(1 + Rng.int rng 4) in
      let down = List.init (Rng.int rng 4) (fun _ -> Rng.int rng m) in
      let view = Path_system.filter (fun a i -> not (Arena.exists a i (fun e -> List.mem e down))) ps in
      let support = Demand.support (Demand.random_pairs rng ~n ~pairs:(1 + Rng.int rng 8)) in
      let sc = Path_system.to_slice_candidates view support in
      let palette = [| 0.0; infinity; 1.0; 0.5; 2.0 |] in
      let weight () =
        match Rng.int rng 7 with k when k < 5 -> palette.(k) | _ -> Rng.float rng
      in
      List.for_all
        (fun _ ->
          let weights = Array.init (Array.length (Slice_candidates.edges sc)) (fun _ -> weight ()) in
          List.for_all
            (fun i ->
              let priced = ref 0 in
              let first, count = Slice_candidates.range sc i in
              let all = ref 0 in
              for c = first to first + count - 1 do
                Slice_candidates.iter_edges sc c (fun _ -> incr all)
              done;
              Slice_candidates.cheapest sc ~weights ~priced i = full_fold sc ~weights i
              && !priced <= !all)
            (List.init (List.length support) Fun.id))
        (List.init 8 Fun.id))

(* Two boundary cases on the square's two routes, 0-1-3 (edges 0, 1)
   then 0-2-3 (edges 2, 3), whose slots are their edge ids: equal sums
   keep the first candidate, and a later candidate whose partial sum
   equals the best before a zero-weight tail stops there and loses.  A
   weight array shorter than the slots is rejected, not read past. *)
let test_cheapest_boundaries () =
  let module Slice_candidates = Sso_flow.Slice_candidates in
  let g = square () in
  let ps = Path_system.of_generator g (fun _ _ -> square_paths g) in
  let sc = Path_system.to_slice_candidates ps [ (0, 3) ] in
  let first, count = Slice_candidates.range sc 0 in
  Alcotest.(check (pair int int)) "two candidates" (0, 2) (first, count);
  Alcotest.(check (array int)) "slots are edge ids" [| 0; 1; 2; 3 |] (Slice_candidates.edges sc);
  let price weights =
    let priced = ref 0 in
    let c = Slice_candidates.cheapest sc ~weights ~priced 0 in
    (c, !priced)
  in
  Alcotest.(check (pair int int)) "equal sums keep the first" (0, 4) (price [| 1.0; 1.0; 1.0; 1.0 |]);
  Alcotest.(check (pair int int)) "equal partial before a zero tail loses" (0, 3)
    (price [| 1.0; 1.0; 2.0; 0.0 |]);
  Alcotest.(check (pair int int)) "a strictly cheaper later candidate wins" (1, 4)
    (price [| 1.0; 1.0; 1.0; 0.5 |]);
  Alcotest.check_raises "fewer weights than slots"
    (Invalid_argument "Slice_candidates.cheapest: fewer weights than slots") (fun () ->
      ignore (price [| 1.0; 1.0; 1.0 |]))

(* [mwu.edges_priced] counts the candidate edges pricing read: the same
   at any job count, pinned on the k=8 fat-tree cold solve, and below
   the full sums of every candidate in the probe and every round. *)
let test_edges_priced_counter () =
  let priced = Obs.counter "mwu.edges_priced" in
  let g, ps, d = fat_tree_instance () in
  let iters = 300 in
  let count jobs =
    Support.with_jobs jobs @@ fun () ->
    let sc = Path_system.to_slice_candidates ps (Demand.support d) in
    let before = Obs.counter_value priced in
    ignore (Min_congestion.mwu_on_slices ~iters g sc d);
    Obs.counter_value priced - before
  in
  let at1 = count 1 in
  Alcotest.(check int) "jobs 4" at1 (count 4);
  Alcotest.(check int) "k=8 fat-tree cold solve" 42281 at1;
  let full =
    (iters + 1)
    * Sso_flow.Slice_candidates.crossings (Path_system.to_slice_candidates ps (Demand.support d))
  in
  Alcotest.(check bool) (Printf.sprintf "early exit reads fewer (%d < %d)" at1 full) true (at1 < full)

(* ---------- Slot classes ---------- *)

(* A per-slot Stage-4 MWU, written against the public store API: the
   round loop as it ran before slot classes, one [cum], one [exp] weight
   and one [Float.max] step per slot.  Returns the routing, its
   congestion and the [mwu.round] attribute stream in the format of
   [traced_stage4]. *)
let per_slot_mwu ~iters ?warm g sc demand =
  let support = Array.of_list (Demand.support demand) in
  let pairs = Array.length support in
  let store = Best_response.candidates sc support in
  let edges = Best_response.edges store in
  let slots = Array.length edges in
  let amounts = Array.map (fun (s, t) -> Demand.get demand s t) support in
  let caps = Array.map (Graph.cap g) edges in
  let warr = Array.map (fun c -> 1.0 /. c) caps in
  let responses = Array.make pairs 0 in
  let add_load loads h x =
    Sso_flow.Slice_candidates.iter_edges sc h (fun e -> loads.(e) <- loads.(e) +. x)
  in
  (* The reference keeps its own per-candidate tally. *)
  let ncands = Sso_flow.Slice_candidates.ncands sc in
  let tallied = Array.make ncands 0.0 and seen = Array.make ncands false in
  let credit h x =
    tallied.(h) <- tallied.(h) +. x;
    seen.(h) <- true
  in
  let seen_count () = Array.fold_left (fun n s -> if s then n + 1 else n) 0 seen in
  ignore (Best_response.respond_all store warr responses);
  let loads = Array.make slots 0.0 in
  Array.iteri (fun i h -> add_load loads h amounts.(i)) responses;
  let u_norm = ref 1e-12 in
  Array.iteri (fun e l -> if l /. caps.(e) > !u_norm then u_norm := l /. caps.(e)) loads;
  let u_norm = !u_norm in
  let eta = Float.sqrt (4.0 *. Float.log (float_of_int (max 2 (Graph.m g))) /. float_of_int iters) in
  let cum = Array.make slots 0.0 in
  let fresh = Array.make pairs true in
  let base_plays =
    match warm with
    | None -> 0
    | Some (previous, weight) ->
        let wf = float_of_int weight in
        let seeded = ref false in
        Array.iteri
          (fun i (s, t) ->
            let dist =
              match Routing.position previous s t with
              | -1 -> []
              | j ->
                  List.init (previous.off.(j + 1) - previous.off.(j)) (fun k ->
                      let e = previous.off.(j) + k in
                      (previous.weights.(e), previous.slices.(e)))
            in
            let kept =
              List.filter_map
                (fun (w, slice) ->
                  let h = Best_response.lookup store i previous.arena slice in
                  if h < 0 then None else Some (w, h))
                dist
            in
            let kept =
              if List.compare_lengths kept dist = 0 then kept
              else
                let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 kept in
                List.map (fun (w, h) -> (w /. total, h)) kept
            in
            List.iter
              (fun (w, h) ->
                seeded := true;
                fresh.(i) <- false;
                credit h (w *. wf);
                Sso_flow.Slice_candidates.iter_edges sc h (fun e ->
                    cum.(e) <- cum.(e) +. (wf *. w *. amounts.(i) /. (caps.(e) *. u_norm))))
              kept)
          support;
        if !seeded then weight else 0
  in
  let fresh_loads = Array.make slots 0.0 in
  let round_loads = Array.make slots 0.0 in
  let b = Buffer.create 4096 in
  (* An empty demand plays no round. *)
  for round = 1 to if pairs = 0 then 0 else iters do
    let max_cum = Array.fold_left Float.max 0.0 cum in
    Array.iteri (fun e c -> warr.(e) <- Float.exp (eta *. (c -. max_cum)) /. caps.(e)) cum;
    let settled = Best_response.respond_all store warr responses in
    Array.fill round_loads 0 slots 0.0;
    Array.iteri
      (fun i h ->
        credit h 1.0;
        add_load round_loads h amounts.(i))
      responses;
    Array.iteri (fun e l -> cum.(e) <- cum.(e) +. (l /. (caps.(e) *. u_norm))) round_loads;
    let round_peak = ref 0.0 and cum_peak = ref 0.0 in
    for e = 0 to slots - 1 do
      round_peak := Float.max !round_peak (round_loads.(e) /. caps.(e));
      cum_peak := Float.max !cum_peak cum.(e)
    done;
    let plays = float_of_int (base_plays + round) in
    let avg =
      if base_plays = 0 then !cum_peak *. u_norm /. plays
      else begin
        Array.iteri (fun i h -> if fresh.(i) then add_load fresh_loads h amounts.(i)) responses;
        let peak = ref 0.0 in
        for e = 0 to slots - 1 do
          let total = cum.(e) *. u_norm *. caps.(e) in
          let load =
            ((total -. fresh_loads.(e)) /. plays) +. (fresh_loads.(e) /. float_of_int round)
          in
          peak := Float.max !peak (load /. caps.(e))
        done;
        !peak
      end
    in
    Printf.bprintf b
      "solver=%s;round=%d;round_congestion=%Lx;avg_congestion=%Lx;potential=%Lx;support_paths=%d;sssp_settled=%d;\n"
      (if Option.is_none warm then "on_paths" else "on_paths_warm")
      round (Int64.bits_of_float !round_peak) (Int64.bits_of_float avg)
      (Int64.bits_of_float !cum_peak) (seen_count ()) settled
  done;
  (* Emission through [Routing.make], the constructor that merges and
     normalizes, fed each pair's credited paths in descending path order;
     its congestion from scratch. *)
  let credited i =
    let first, count = Sso_flow.Slice_candidates.range sc i in
    List.init count (fun k -> first + k)
    |> List.filter_map (fun c ->
           if seen.(c) then
             Some
               ( tallied.(c),
                 Arena.to_path (Sso_flow.Slice_candidates.arena sc) (Sso_flow.Slice_candidates.slice sc c)
               )
           else None)
    |> List.sort (fun (_, p) (_, q) -> Path.compare q p)
  in
  let routing =
    if pairs = 0 then Routing.make g []
    else Routing.make g (Array.to_list (Array.mapi (fun i pair -> (pair, credited i)) support))
  in
  Printf.sprintf "%Lx %Lx %s"
    (Codec.fnv1a64 (Codec.encode_routing routing))
    (Int64.bits_of_float (Routing.congestion g routing demand))
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* [g] with each edge's capacity drawn from a fractional, non-uniform set
   (or left at 1.0), ids kept. *)
let with_random_caps rng g =
  let b = Graph.Builder.create (Graph.n g) in
  let choices = [| 1.0; 1.0; 0.5; 2.5; 1.25 |] in
  let uniform = Rng.int rng 3 = 0 in
  Array.iter
    (fun (e : Graph.edge) ->
      let cap = if uniform then 1.0 else choices.(Rng.int rng (Array.length choices)) in
      ignore (Graph.Builder.add_edge ~cap b e.Graph.u e.Graph.v))
    (Graph.edges g);
  Graph.Builder.build b

(* A random Stage-4 instance: a grid or random 3-regular graph with
   random capacities, a Ksp or Räcke α-sample, a random failure view,
   and a demand with fractional amounts over the pairs the view keeps. *)
let class_instance seed ~on_grid ~racke =
  let rng = Rng.create seed in
  let g =
    with_random_caps rng
      (if on_grid then Gen.grid (3 + Rng.int rng 2) (3 + Rng.int rng 3)
       else Gen.random_regular rng (8 + (2 * Rng.int rng 4)) 3)
  in
  let n = Graph.n g and m = Graph.m g in
  let base = if racke then Racke.routing (Rng.split rng) g else Ksp.routing ~k:3 g in
  let ps = Sampler.alpha_sample (Rng.split rng) base ~alpha:(1 + Rng.int rng 4) in
  let down = List.init (Rng.int rng 4) (fun _ -> Rng.int rng m) in
  let view = Path_system.filter (fun a i -> not (Arena.exists a i (fun e -> List.mem e down))) ps in
  let pairs = Demand.support (Demand.random_pairs rng ~n ~pairs:(1 + Rng.int rng 8)) in
  let amount () = 0.5 *. float_of_int (1 + Rng.int rng 5) in
  let d = Demand.of_list (List.map (fun (s, t) -> (s, t, amount ())) pairs) in
  let d_view =
    Demand.of_list
      (List.filter_map
         (fun (s, t) ->
           if Path_system.slice_count view s t > 0 then Some (s, t, Demand.get d s t) else None)
         pairs)
  in
  (rng, g, ps, d, view, d_view)

let candidate_edges ps d =
  List.fold_left
    (fun acc (s, t) ->
      List.fold_left (fun acc p -> acc + Path.hops p) acc (Path_system.paths ps s t))
    0 (Demand.support d)

(* The class MWU ([mwu_on_slices]) equals the per-slot reference bit for
   bit — routing digest, congestion bits and [mwu.round] stream — cold on
   the full system and warm on a failure view from the cold routing
   (pairs lose some or all of their warm paths), at an iteration count
   below the refinement guard (identity classes) and one above it. *)
let prop_class_mwu_matches_per_slot =
  QCheck.Test.make ~name:"class MWU = per-slot MWU, bit for bit" ~count:60
    QCheck.(triple small_nat bool bool)
    (fun (seed, on_grid, racke) ->
      let rng, g, ps, d, view, d_view = class_instance seed ~on_grid ~racke in
      let slices ps d = Path_system.to_slice_candidates ps (Demand.support d) in
      let guarded ps d =
        let store = Best_response.candidates (slices ps d) (Array.of_list (Demand.support d)) in
        let slots = Array.length (Best_response.edges store) in
        let caps = Array.map (Graph.cap g) (Best_response.edges store) in
        (* The largest count below the guard ([rounds * slots] under eight
           times the candidate edges), when there is one, and one above. *)
        let below = ((8 * candidate_edges ps d) - 1) / max 1 slots in
        if below >= 1 then
          assert (Best_response.classes store ~rounds:below ~caps = None);
        List.filter (fun i -> i >= 1) [ below; max (below + 1) (30 + Rng.int rng 40) ]
      in
      let same ?warm ps d iters =
        let sc () = slices ps d in
        traced_stage4 (fun () -> Min_congestion.mwu_on_slices ~iters ?warm g (sc ()) d)
        = per_slot_mwu ~iters ?warm g (sc ()) d
      in
      List.for_all (same ps d) (guarded ps d)
      &&
      let cold = (Min_congestion.mwu_on_slices ~iters:40 g (slices ps d) d).routing in
      let warm = (cold, 1 + Rng.int rng 80) in
      List.for_all (same ~warm view d_view) (guarded view d_view))

(* Two slots share a class iff the same candidates cross them, each the
   same number of times, and their capacities are equal; classes are
   numbered by lowest slot.  Checked against brute-force membership on
   the random instances and on a walk that crosses one edge twice. *)
let partition_agrees g sc support =
  let store = Best_response.candidates sc (Array.of_list support) in
  let edges = Best_response.edges store in
  let slots = Array.length edges in
  let caps = Array.map (Graph.cap g) edges in
  let crossing = Array.make slots [] in
  for c = Sso_flow.Slice_candidates.ncands sc - 1 downto 0 do
    Sso_flow.Slice_candidates.iter_edges sc c (fun e -> crossing.(e) <- c :: crossing.(e))
  done;
  let key e = (List.sort Int.compare crossing.(e), caps.(e)) in
  let cls, firsts = Sso_flow.Slice_candidates.classes sc ~caps in
  let numbered =
    Array.for_all (fun k -> k >= 0) cls
    && Array.to_list firsts
       = List.filter (fun e -> not (List.exists (fun e' -> cls.(e') = cls.(e)) (List.init e Fun.id)))
           (List.init slots Fun.id)
  in
  numbered
  && List.for_all
       (fun e ->
         List.for_all (fun e' -> cls.(e) = cls.(e') = (key e = key e')) (List.init slots Fun.id))
       (List.init slots Fun.id)

let prop_classes_are_exact =
  QCheck.Test.make ~name:"slot classes = brute-force candidate membership" ~count:40
    QCheck.(triple small_nat bool bool)
    (fun (seed, on_grid, racke) ->
      let _, g, ps, d, view, d_view = class_instance seed ~on_grid ~racke in
      let agrees ps d =
        let support = Demand.support d in
        partition_agrees g (Path_system.to_slice_candidates ps support) support
      in
      agrees ps d && agrees view d_view)

let test_classes_count_walks () =
  (* On the 8-cycle, the walk 0→1→2→1→2→3→4 crosses edge 1-2 twice and
     0-1, 2-3, 3-4 once: one candidate crosses all four, yet 1-2 lands
     apart from the others, while the four edges of 0→7→6→5→4 share a
     class.  The class MWU still matches the per-slot one. *)
  let g = Gen.cycle 8 in
  let walk = Path.of_vertices g [ 0; 1; 2; 1; 2; 3; 4 ] in
  let other = Path.of_vertices g [ 0; 7; 6; 5; 4 ] in
  let d = Demand.of_list [ (0, 4, 1.5) ] in
  let ps = Path_system.of_pairs g [ ((0, 4), [ walk; other ]) ] in
  let sc = Path_system.to_slice_candidates ps (Demand.support d) in
  Alcotest.(check bool) "partition" true (partition_agrees g sc (Demand.support d));
  let store = Best_response.candidates sc (Array.of_list (Demand.support d)) in
  let caps = Array.map (Graph.cap g) (Best_response.edges store) in
  Alcotest.(check (option (pair (array int) (array int)))) "classes"
    (Some ([| 0; 1; 0; 0; 2; 2; 2; 2 |], [| 0; 1; 4 |]))
    (Best_response.classes store ~rounds:50 ~caps);
  Alcotest.(check string) "class MWU = per-slot" (per_slot_mwu ~iters:50 g sc d)
    (traced_stage4 (fun () -> Min_congestion.mwu_on_slices ~iters:50 g sc d))

(* A warm Stage-4 re-solve at service scale, shaped like one wan-churn
   tick: a random 4-regular graph, an α=4 sample of a 4-tree mixture, a
   cold 40-round solve over 360 pairs, then six failed edges and churn
   (a sixth of the pairs depart, 40 arrive) re-solved warm for 20 rounds
   on the surviving candidates.  Above 256 pairs every per-pair array of
   the solve is a major-heap block. *)
let large_warm_instance () =
  let rng = Rng.create 4101 in
  let n = 128 in
  let g = Gen.random_regular (Rng.split_at rng 0) n 4 in
  let ps =
    Sampler.alpha_sample (Rng.split_at rng 2)
      (Sso_oblivious.Trees.uniform (Rng.split_at rng 1) ~count:4 g)
      ~alpha:4
  in
  let amount () = 0.5 *. float_of_int (1 + Rng.int rng 5) in
  let d =
    Demand.of_list
      (List.map (fun (s, t) -> (s, t, amount ()))
         (Demand.support (Demand.random_pairs rng ~n ~pairs:360)))
  in
  let slices ps d = Path_system.to_slice_candidates ps (Demand.support d) in
  let cold = (Min_congestion.mwu_on_slices ~iters:40 g (slices ps d) d).routing in
  let perm = Rng.permutation rng (Graph.m g) in
  let down = List.init 6 (fun i -> perm.(i)) in
  let view = Path_system.filter (fun a i -> not (Arena.exists a i (fun e -> List.mem e down))) ps in
  let kept = List.filteri (fun i _ -> i mod 6 <> 0) (Demand.support d) in
  let arrivals = Demand.support (Demand.random_pairs rng ~n ~pairs:40) in
  let d_new =
    Demand.of_list
      (List.filter_map
         (fun (s, t) ->
           if Path_system.slice_count view s t = 0 then None
           else Some (s, t, if Demand.mem d s t then Demand.get d s t else amount ()))
         (List.sort_uniq Demand.Pair.compare (kept @ arrivals)))
  in
  let lost =
    List.length
      (List.filter
         (fun (s, t) -> Path_system.slice_count view s t < Path_system.slice_count ps s t)
         (Demand.support d_new))
  in
  (g, (fun () -> slices view d_new), (cold, 60), d_new, lost)

(* Golden pin for the warm re-solve above, recorded before the solve's
   per-pair bookkeeping (support and amounts, response handles, warm
   seeding and emission) moved to flat arrays. *)
let test_large_warm_golden () =
  let g, sc, warm, d, lost = large_warm_instance () in
  Alcotest.(check bool) (Printf.sprintf "over 300 pairs (%d)" (Demand.support_size d)) true
    (Demand.support_size d > 300);
  Alcotest.(check bool) (Printf.sprintf "pairs lost candidates (%d)" lost) true (lost >= 10);
  Alcotest.(check string) "warm re-solve" "99334ddbf396a241a9a1af2d98bc6548"
    (stage5_digest (Min_congestion.mwu_on_slices ~iters:20 ~warm g (sc ()) d))

(* The minor words one warm re-solve of that instance allocates: 6,176
   measured, bounded at about 1.5x that, so a per-pair, per-round
   allocation fails it. *)
let test_large_warm_minor_words () =
  let g, sc, warm, d, _ = large_warm_instance () in
  let sc = sc () in
  ignore (Min_congestion.mwu_on_slices ~iters:20 ~warm g sc d);
  let before = Gc.minor_words () in
  ignore (Min_congestion.mwu_on_slices ~iters:20 ~warm g sc d);
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "minor words %.0f < 9000" words) true (words < 9_000.)

(* The k=8 fat-tree golden instance's 300-round cold solve runs on fewer
   classes than slots: a silent fallback to one class per slot fails. *)
let test_fat_tree_classes () =
  let g, ps, d = fat_tree_instance () in
  let support = Array.of_list (Demand.support d) in
  let store = Best_response.candidates (Path_system.to_slice_candidates ps (Demand.support d)) support in
  let caps = Array.map (Graph.cap g) (Best_response.edges store) in
  Alcotest.(check int) "slots" 114 (Array.length caps);
  Alcotest.(check (option int)) "classes" (Some 57)
    (Option.map (fun (_, first) -> Array.length first)
       (Best_response.classes store ~rounds:300 ~caps))

(* Every solver returns a congestion that is its routing's, over a
   routing that covers the demand: bit for bit for the MWU solves (cold,
   warm from a full and from a half routing, avoiding edges), which sum
   their loads in [Routing.congestion]'s order, and within 1e-9 relative
   for the LPs, which return the simplex objective. *)
let prop_solution_congestion_is_its_routings =
  QCheck.Test.make ~name:"every solver's congestion is its routing's" ~count:30 QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (9500 + seed) in
      let g, d = random_instance rng seed ~pairs:(1 + (seed mod 5)) in
      let sc = index g (random_candidates rng g 3 d) in
      let close (s : Min_congestion.solution) =
        let c = Routing.congestion g s.routing d in
        Routing.covers s.routing d && Float.abs (c -. s.congestion) <= 1e-9 *. Float.max 1.0 c
      in
      let exact (s : Min_congestion.solution) =
        Routing.covers s.routing d
        && Int64.equal
             (Int64.bits_of_float s.congestion)
             (Int64.bits_of_float (Routing.congestion g s.routing d))
      in
      let lp = Min_congestion.lp_on_slices g sc d in
      let half = every_other lp.routing (Demand.support d) in
      close lp
      && close (Min_congestion.lp_unrestricted g d)
      && exact (Min_congestion.mwu_on_slices ~iters:30 g sc d)
      && exact (Min_congestion.mwu_on_slices ~iters:10 ~warm:(lp.routing, 20) g sc d)
      && exact (Min_congestion.mwu_on_slices ~iters:10 ~warm:(half, 20) g sc d)
      && exact (Option.get (Min_congestion.mwu_unrestricted ~iters:30 g d))
      &&
      match Min_congestion.mwu_unrestricted ~iters:30 ~avoid:(fun e -> e mod 4 = seed mod 4) g d with
      | Some s -> exact s
      | None -> true)

(* A warm start matches its entries to candidates by handle when the
   routing shares the index's arena, and byte for byte otherwise.  The
   same warm solve is seeded from a cold routing over the system's arena,
   from that routing decoded from its codec bytes (a fresh arena), and
   from the same cold solve over a keep-all filter view (the view's
   arena): all three give one routing digest and one congestion, bit for
   bit, on the full index and on a failure view's, where some pairs lose
   candidates. *)
let prop_warm_start_any_arena =
  QCheck.Test.make ~name:"warm start is the same from any arena" ~count:25 QCheck.small_nat
    (fun seed ->
      let rng = Rng.create (7300 + seed) in
      let g = Gen.grid (3 + Rng.int rng 2) (3 + Rng.int rng 3) in
      let ps = Sampler.alpha_sample (Rng.split rng) (Ksp.routing ~k:4 g) ~alpha:(2 + Rng.int rng 3) in
      let d = Demand.random_pairs rng ~n:(Graph.n g) ~pairs:(2 + Rng.int rng 6) in
      let index ps d = Path_system.to_slice_candidates ps (Demand.support d) in
      let cold ps = (Min_congestion.mwu_on_slices ~iters:20 g (index ps d) d).routing in
      let r = cold ps in
      let decoded = Codec.decode_routing g (Codec.encode_routing r) in
      let viewed = cold (Path_system.filter (fun _ _ -> true) ps) in
      let down = Rng.int rng (Graph.m g) in
      let failed = Path_system.filter (fun a i -> not (Arena.exists a i (( = ) down))) ps in
      let d_failed = Demand.filter (fun s t _ -> Path_system.slice_count failed s t > 0) d in
      let warm ps d seed =
        let s = Min_congestion.mwu_on_slices ~iters:10 ~warm:(seed, 30) g (index ps d) d in
        (Codec.encode_routing s.routing, Int64.bits_of_float s.congestion)
      in
      viewed.arena != r.arena
      && Codec.encode_routing viewed = Codec.encode_routing r
      && List.for_all
           (fun (ps, d) ->
             let want = warm ps d r in
             warm ps d decoded = want && warm ps d viewed = want)
           [ (ps, d); (failed, d_failed) ])

let () =
  Alcotest.run "flow"
    [
      ( "routing",
        [
          Alcotest.test_case "normalizes" `Quick test_routing_normalizes;
          Alcotest.test_case "merges duplicates" `Quick test_routing_merges_duplicates;
          Alcotest.test_case "rejects bad input" `Quick test_routing_rejects;
          Alcotest.test_case "congestion" `Quick test_routing_congestion;
          Alcotest.test_case "capacity" `Quick test_routing_respects_capacity;
          Alcotest.test_case "dilation" `Quick test_routing_dilation;
          Alcotest.test_case "merge convex (Lemma 5.15)" `Quick test_merge_convex_bound;
          Alcotest.test_case "sample path" `Quick test_sample_path;
        ] );
      ( "lp",
        [
          Alcotest.test_case "splits" `Quick test_lp_splits;
          Alcotest.test_case "single candidate" `Quick test_lp_single_candidate;
          Alcotest.test_case "competing pairs" `Quick test_lp_competing_pairs;
          Alcotest.test_case "missing candidates" `Quick test_lp_missing_candidates;
          Alcotest.test_case "empty demand" `Quick test_lp_empty_demand;
          Alcotest.test_case "unrestricted known value" `Quick test_lp_unrestricted_known_value;
          Alcotest.test_case "unrestricted pins" `Quick test_unrestricted_pins;
          Support.to_alcotest prop_column_generation_matches_edge_lp;
        ] );
      ( "mwu",
        [
          Support.to_alcotest prop_lookup_inverts_slice;
          Alcotest.test_case "matches lp" `Slow test_mwu_matches_lp;
          Alcotest.test_case "square" `Quick test_mwu_on_square;
          Alcotest.test_case "unrestricted square" `Quick test_mwu_unrestricted_square;
          Alcotest.test_case "unrestricted vs lp" `Slow test_unrestricted_lp_matches_mwu;
          Alcotest.test_case "unrestricted jobs-invariant" `Quick
            test_mwu_unrestricted_jobs_invariant;
          Alcotest.test_case "sssp settled counter" `Quick test_sssp_settled_counter;
          Alcotest.test_case "lower bound sound" `Slow test_lower_bound_sound;
          Alcotest.test_case "lower bound bottleneck" `Quick test_lower_bound_tight_on_bottleneck;
          Alcotest.test_case "stage 5 golden pins" `Quick test_stage5_golden;
          Alcotest.test_case "warm golden pins" `Quick test_warm_golden;
          Alcotest.test_case "stage 4 golden pins" `Quick test_stage4_golden;
          Alcotest.test_case "lp golden pins" `Quick test_lp_golden;
          Alcotest.test_case "respects capacities" `Quick test_mwu_respects_capacities;
          Alcotest.test_case "grid matches lp" `Slow test_mwu_grid_matches_lp;
          Alcotest.test_case "empty demand" `Quick test_mwu_empty_demand;
          Alcotest.test_case "missing candidates" `Quick test_mwu_missing_candidates;
          Alcotest.test_case "classes count walks" `Quick test_classes_count_walks;
          Alcotest.test_case "fat-tree classes" `Quick test_fat_tree_classes;
          Alcotest.test_case "edges priced counter" `Quick test_edges_priced_counter;
          Alcotest.test_case "cheapest boundaries" `Quick test_cheapest_boundaries;
          Alcotest.test_case "large warm golden pin" `Quick test_large_warm_golden;
          Alcotest.test_case "large warm minor words" `Quick test_large_warm_minor_words;
        ] );
      ( "routing extra",
        [
          Alcotest.test_case "covers" `Quick test_routing_covers;
          Alcotest.test_case "volume lower bound" `Quick test_lower_bound_volume_on_long_path;
        ] );
      ( "warm start",
        [
          Alcotest.test_case "preserves good solution" `Quick
            test_warm_start_preserves_good_solution;
          Alcotest.test_case "recovers from bad seed" `Quick
            test_warm_start_recovers_from_bad_seed;
          Alcotest.test_case "handles new pairs" `Quick test_warm_start_handles_new_pairs;
          Alcotest.test_case "rejects bad weight" `Quick test_warm_start_rejects_bad_weight;
        ] );
      ( "rounding",
        [
          Alcotest.test_case "integral" `Quick test_round_is_integral;
          Alcotest.test_case "rejects fractional" `Quick test_round_rejects_fractional_demand;
          Alcotest.test_case "Lemma 6.3 bound" `Slow test_rounding_lemma_bound;
          Alcotest.test_case "local search improves" `Quick test_local_search_improves;
          Alcotest.test_case "local search preserves demand" `Quick
            test_local_search_preserves_demand;
        ] );
      ( "properties",
        List.map Support.to_alcotest
          [
            prop_round_preserves_counts;
            prop_store_edges_are_candidate_edges;
            prop_cheapest_matches_full_fold;
            prop_class_mwu_matches_per_slot;
            prop_classes_are_exact;
            prop_solution_congestion_is_its_routings;
            prop_warm_start_any_arena;
          ] );
    ]
