(* Tests for the paper's core: path systems, α-samples, semi-oblivious
   evaluation, integral routing, the Lemma 5.6 process, completion time,
   the special-demand reduction, and the Section 8 lower-bound adversary. *)

module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Gen = Sso_graph.Gen
module Maxflow = Sso_graph.Maxflow
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Oblivious = Sso_oblivious.Oblivious
module Valiant = Sso_oblivious.Valiant
module Deterministic = Sso_oblivious.Deterministic
module Ksp = Sso_oblivious.Ksp
module Racke = Sso_oblivious.Racke
module Trees = Sso_oblivious.Trees
module Path_system = Sso_core.Path_system
module Sampler = Sso_core.Sampler
module Semi_oblivious = Sso_core.Semi_oblivious
module Integral = Sso_core.Integral
module Process = Sso_core.Process
module Completion = Sso_core.Completion
module Lower_bound = Sso_core.Lower_bound
module Special = Sso_core.Special
module Sweep = Sso_fault.Sweep

let all_pairs n =
  List.concat_map
    (fun s -> List.filter_map (fun t -> if s = t then None else Some (s, t)) (List.init n Fun.id))
    (List.init n Fun.id)

(* [count] distinct ordered pairs of [0, n), drawn in order. *)
let distinct_pairs rng n count =
  let seen = Hashtbl.create count in
  let rec draw acc c =
    if c = 0 then List.rev acc
    else
      let s = Rng.int rng n and t = Rng.int rng n in
      if s = t || Hashtbl.mem seen (s, t) then draw acc c
      else begin
        Hashtbl.add seen (s, t) ();
        draw ((s, t) :: acc) (c - 1)
      end
  in
  draw [] count

(* Path systems *)

let test_path_system_of_pairs () =
  let g = Gen.cycle 4 in
  let p = Path.of_vertices g [ 0; 1; 2 ] in
  let q = Path.of_vertices g [ 0; 3; 2 ] in
  let ps = Path_system.of_pairs g [ ((0, 2), [ p; q ]) ] in
  Alcotest.(check int) "two candidates" 2 (List.length (Path_system.paths ps 0 2));
  Alcotest.(check int) "no candidates elsewhere" 0 (List.length (Path_system.paths ps 1 3));
  Alcotest.(check int) "sparsity" 2 (Path_system.sparsity_on ps [ (0, 2); (1, 3) ]);
  Alcotest.(check bool) "2-sparse" true (Path_system.is_alpha_sparse ps ~alpha:2 [ (0, 2) ]);
  Alcotest.(check bool) "not 1-sparse" false (Path_system.is_alpha_sparse ps ~alpha:1 [ (0, 2) ])

let test_path_system_validates () =
  let g = Gen.cycle 4 in
  let p = Path.of_vertices g [ 0; 1; 2 ] in
  Alcotest.check_raises "endpoint mismatch"
    (Invalid_argument "Path_system: path endpoints do not match pair") (fun () ->
      ignore (Path_system.of_pairs g [ ((1, 2), [ p ]) ]));
  Alcotest.check_raises "duplicate path"
    (Invalid_argument "Path_system: duplicate path in candidate set") (fun () ->
      ignore (Path_system.of_pairs g [ ((0, 2), [ p; p ]) ]))

let test_path_system_generator_memoizes () =
  let g = Gen.cycle 4 in
  let calls = ref 0 in
  let ps =
    Path_system.of_generator g (fun s t ->
        incr calls;
        match Sso_graph.Shortest.bfs_path g s t with Some p -> [ p ] | None -> [])
  in
  ignore (Path_system.paths ps 0 2);
  ignore (Path_system.paths ps 0 2);
  Alcotest.(check int) "one call" 1 !calls;
  Alcotest.(check (list (pair int int))) "known pairs" [ (0, 2) ] (Path_system.known_pairs ps)

(* A generator that raises leaves the system's lock free: the next query
   (here the same pair, now answered) succeeds, and so does a hit. *)
let test_path_system_generator_raises () =
  let g = Gen.cycle 4 in
  let p = Path.of_vertices g [ 0; 1; 2 ] in
  let fail = ref true in
  let ps =
    Path_system.of_generator g (fun _ _ ->
        if !fail then begin
          fail := false;
          failwith "generator down"
        end
        else [ p ])
  in
  Alcotest.check_raises "the generator's exception" (Failure "generator down") (fun () ->
      ignore (Path_system.slice_count ps 0 2));
  Alcotest.(check int) "second query installs" 1 (Path_system.slice_count ps 0 2);
  Alcotest.(check int) "a hit" 1 (Path_system.slice_count ps 0 2);
  Alcotest.(check bool) "installed" true (Path_system.installed ps 0 2)

(* The arena layout both bulk callers (service admission, the α-sample
   cache's save) rely on: a pair new to the system starts where the arena
   ended at its first occurrence in the list; a repeat or an installed
   pair appends nothing. *)
let test_materialize_layout () =
  let g = Gen.grid 5 5 in
  let ps = Sampler.alpha_sample (Rng.create 7) (Ksp.routing ~k:4 g) ~alpha:3 in
  let arena = Path_system.arena ps in
  let before = Path_system.slice_range ps 6 18 in
  let pairs = [ (0, 24); (3, 21); (0, 24); (6, 18); (12, 2); (3, 21); (24, 0) ] in
  let start = Sso_graph.Arena.length arena in
  Path_system.materialize ps pairs;
  let next = ref start and seen = Hashtbl.create 8 in
  List.iter
    (fun (s, t) ->
      if not (Hashtbl.mem seen (s, t)) then begin
        Hashtbl.add seen (s, t) ();
        let first, count = Path_system.slice_range ps s t in
        if (s, t) = (6, 18) then
          Alcotest.(check (pair int int)) "installed pair keeps its slices" before
            (first, count)
        else begin
          Alcotest.(check int) (Printf.sprintf "%d->%d starts at the arena's end" s t) !next
            first;
          Alcotest.(check bool) "has candidates" true (count > 0);
          next := first + count
        end
      end)
    pairs;
  Alcotest.(check int) "nothing else appended" !next (Sso_graph.Arena.length arena)

let test_path_system_union () =
  let g = Gen.cycle 4 in
  let p = Path.of_vertices g [ 0; 1; 2 ] in
  let q = Path.of_vertices g [ 0; 3; 2 ] in
  let a = Path_system.of_pairs g [ ((0, 2), [ p ]) ] in
  let b = Path_system.of_pairs g [ ((0, 2), [ q; p ]) ] in
  let u = Path_system.union a b in
  Alcotest.(check int) "union dedupes" 2 (List.length (Path_system.paths u 0 2))

let test_path_system_restrict_hops () =
  let g = Gen.multi_path [ 1; 3 ] in
  let direct = Path.of_vertices g [ 0; 1 ] in
  let detour = Path.of_vertices g [ 0; 2; 3; 1 ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ direct; detour ]) ] in
  let short = Path_system.filter (fun a i -> Sso_graph.Arena.hops a i <= 1) ps in
  Alcotest.(check int) "only the direct edge" 1 (List.length (Path_system.paths short 0 1))

let test_path_system_preload () =
  (* Preloaded slices are copied in order and checked with the install
     contract; a rejected call installs nothing, so later pairs still come
     from the generator. *)
  let g = Gen.cycle 4 in
  let p = Path.of_vertices g [ 0; 1; 2 ] and q = Path.of_vertices g [ 0; 3; 2 ] in
  let r = Path.of_vertices g [ 1; 2 ] in
  let a = Sso_graph.Arena.create g in
  List.iter (fun x -> ignore (Sso_graph.Arena.append_path a x)) [ q; p; p; r ];
  let fresh () = Path_system.of_generator g (fun _ _ -> []) in
  let rejects msg ranges =
    let ps = fresh () in
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        Path_system.preload ps a ranges);
    Alcotest.(check (list (pair int int))) (msg ^ ": nothing installed") []
      (Path_system.known_pairs ps)
  in
  rejects "Path_system: duplicate path in candidate set"
    [ ((1, 2), (3, 1)); ((0, 2), (1, 2)) ];
  rejects "Path_system: path endpoints do not match pair" [ ((0, 2), (2, 2)) ];
  let other = Path_system.of_generator (Gen.cycle 4) (fun _ _ -> []) in
  Alcotest.check_raises "another graph"
    (Invalid_argument "Path_system.preload: arena over another graph") (fun () ->
      Path_system.preload other a []);
  let ps = fresh () in
  Path_system.preload ps a [ ((0, 2), (0, 2)); ((1, 2), (3, 1)) ];
  Alcotest.(check bool) "copied in slice order" true
    (List.equal Path.equal [ q; p ] (Path_system.paths ps 0 2));
  Alcotest.(check int) "other pairs from the generator" 0 (Path_system.slice_count ps 0 3);
  Alcotest.check_raises "already installed"
    (Invalid_argument "Path_system.preload: duplicate pair") (fun () ->
      Path_system.preload ps a [ ((1, 2), (3, 1)) ])

let test_path_system_rejects_cleanly () =
  (* A rejected generator list installs nothing, not even arena bytes; a
     list with both defects reports the one a scan in list order meets
     first; a repeat is found in a full support of hundreds of paths. *)
  let g = Gen.cycle 4 in
  let p = Path.of_vertices g [ 0; 1; 2 ] and q = Path.of_vertices g [ 0; 3; 2 ] in
  let bad = Path.of_vertices g [ 0; 1 ] in
  let ps = Path_system.of_generator g (fun _ _ -> [ p; q; p ]) in
  Alcotest.check_raises "repeat"
    (Invalid_argument "Path_system: duplicate path in candidate set") (fun () ->
      ignore (Path_system.slice_count ps 0 2));
  Alcotest.(check int) "no arena bytes" 0 (Sso_graph.Arena.length (Path_system.arena ps));
  Alcotest.(check (list (pair int int))) "no entry" [] (Path_system.known_pairs ps);
  (* Index keys are s·n + t, so a pair outside the graph must not alias
     one inside it. *)
  Alcotest.check_raises "pair out of range"
    (Invalid_argument "Path_system: pair out of range") (fun () ->
      ignore (Path_system.slice_count ps 0 4));
  Alcotest.check_raises "repeat before the bad endpoint"
    (Invalid_argument "Path_system: duplicate path in candidate set") (fun () ->
      ignore (Path_system.of_pairs g [ ((0, 2), [ p; p; bad ]) ]));
  Alcotest.check_raises "bad endpoint before the repeat"
    (Invalid_argument "Path_system: path endpoints do not match pair") (fun () ->
      ignore (Path_system.of_pairs g [ ((0, 2), [ p; bad; p ]) ]));
  let cube = Gen.hypercube 6 in
  let full = Path_system.paths (Path_system.of_oblivious_support (Valiant.routing cube)) 0 63 in
  Alcotest.(check bool) "a large support" true (List.length full > 50);
  Alcotest.check_raises "repeat in a large support"
    (Invalid_argument "Path_system: duplicate path in candidate set") (fun () ->
      ignore (Path_system.of_pairs cube [ ((0, 63), full @ [ List.nth full 17 ]) ]))

(* The install check scans lists of up to 8 candidates pairwise and sorts
   longer ones by hash: both must report the same defects, whether the
   list arrives as boxed paths ([of_pairs]) or as decoded slices
   ([preload]). *)
let test_path_system_check_cutoff () =
  let cube = Gen.hypercube 6 in
  let full = Path_system.paths (Path_system.of_oblivious_support (Valiant.routing cube)) 0 63 in
  let bad = Path.of_vertices cube [ 0; 1 ] in
  let dup = "Path_system: duplicate path in candidate set" in
  let endpoint = "Path_system: path endpoints do not match pair" in
  List.iter
    (fun k ->
      let cands = List.filteri (fun i _ -> i < k) full in
      let c0 = List.hd cands in
      let name what = Printf.sprintf "%d candidates: %s" k what in
      let decoded paths =
        let a = Sso_graph.Arena.create cube in
        List.iter (fun p -> ignore (Sso_graph.Arena.append_path a p)) paths;
        (a, [ ((0, 63), (0, List.length paths)) ])
      in
      Alcotest.(check int) (name "distinct paths install") k
        (Path_system.slice_count (Path_system.of_pairs cube [ ((0, 63), cands) ]) 0 63);
      let rejects what msg paths =
        Alcotest.check_raises (name what) (Invalid_argument msg) (fun () ->
            ignore (Path_system.of_pairs cube [ ((0, 63), paths) ]));
        let a, ranges = decoded paths in
        Alcotest.check_raises (name (what ^ ", preloaded")) (Invalid_argument msg) (fun () ->
            Path_system.preload (Path_system.of_generator cube (fun _ _ -> [])) a ranges)
      in
      rejects "a repeat" dup (cands @ [ List.nth cands (k / 2) ]);
      rejects "a bad endpoint" endpoint (cands @ [ bad ]);
      rejects "both copies before the bad endpoint" dup (cands @ [ c0; bad ]);
      rejects "the bad endpoint between the copies" endpoint ((c0 :: bad :: List.tl cands) @ [ c0 ]);
      rejects "the bad endpoint first" endpoint ((bad :: cands) @ [ c0 ]))
    [ 3; 20 ]

let test_slice_view_matches_paths () =
  (* The arena slice index and the boxed compatibility view describe the
     same candidate sets: counts, generation order, and edge content. *)
  let g = Gen.grid 4 4 in
  let obl = Ksp.routing ~k:4 g in
  let ps = Sampler.alpha_sample (Rng.create 9) obl ~alpha:3 in
  let pairs = [ (0, 15); (3, 12); (5, 10) ] in
  let arena = Path_system.arena ps in
  List.iter
    (fun (s, t) ->
      let boxed = Path_system.paths ps s t in
      Alcotest.(check int)
        (Printf.sprintf "count %d-%d" s t)
        (List.length boxed)
        (Path_system.slice_count ps s t);
      let first, count = Path_system.slice_range ps s t in
      Alcotest.(check int) "range width" (List.length boxed) count;
      let k = ref 0 in
      Path_system.iter_slices ps s t (fun i ->
          Alcotest.(check int) "handles are contiguous" (first + !k) i;
          let p = List.nth boxed !k in
          Alcotest.(check (array int))
            "slice edges" p.Path.edges
            (Sso_graph.Arena.suffix_edges arena i ~from_hop:0);
          incr k);
      Alcotest.(check int) "iter count" count !k)
    pairs;
  let expected_sparsity =
    List.fold_left
      (fun acc (s, t) -> max acc (List.length (Path_system.paths ps s t)))
      0 pairs
  in
  Alcotest.(check int) "sparsity_on = max count" expected_sparsity
    (Path_system.sparsity_on ps pairs);
  (* A trivial s = t candidate stores a zero-hop slice, not nothing. *)
  let tps = Path_system.of_pairs g [ ((2, 2), [ Path.trivial 2 ]) ] in
  Alcotest.(check int) "trivial pair count" 1 (Path_system.slice_count tps 2 2);
  let tarena = Path_system.arena tps in
  let i22, _ = Path_system.slice_range tps 2 2 in
  Alcotest.(check int) "trivial hops" 0 (Sso_graph.Arena.hops tarena i22);
  Alcotest.(check bool) "trivial round-trip" true
    (Path.equal (Path.trivial 2) (List.hd (Path_system.paths tps 2 2)))

(* The packed arena against the boxed list-of-[Path.t] view of the same
   candidate sets, the representation it replaced: an α = 4 sample of a
   4-tree Wilson mixture on a k = 16 fat-tree, 256 distinct random pairs.
   [Obj.reachable_words] measures the boxed structure exactly (paths share
   nothing with the graph); the arena must be at least 4x smaller. *)
let test_arena_smaller_than_boxed () =
  let seeded k = Rng.split_at (Rng.create 0) k in
  let g = Gen.fat_tree 16 in
  let n = Graph.n g in
  let obl = Trees.uniform (seeded 131) ~count:4 g in
  let pairs = distinct_pairs (seeded 132) n 256 in
  let ps = Sampler.alpha_sample (seeded 133) obl ~alpha:4 in
  Path_system.materialize ps pairs;
  let arena_bytes = Sso_graph.Arena.memory_bytes (Path_system.arena ps) in
  let boxed = List.map (fun (s, t) -> ((s, t), Path_system.paths ps s t)) pairs in
  let boxed_bytes = Obj.reachable_words (Obj.repr boxed) * (Sys.word_size / 8) in
  let reduction = float_of_int boxed_bytes /. float_of_int arena_bytes in
  Alcotest.(check bool)
    (Printf.sprintf "arena %d B is %.2fx under boxed %d B (floor 4x)" arena_bytes
       reduction boxed_bytes)
    true (reduction >= 4.0)

let test_of_oblivious_support () =
  let g = Gen.grid 3 3 in
  let obl = Ksp.routing ~k:3 g in
  let ps = Path_system.of_oblivious_support obl in
  Alcotest.(check int) "matches distribution" 3 (List.length (Path_system.paths ps 0 8))

let test_of_oblivious_support_tree_mixture () =
  (* Eight spanning trees of a 4x4 torus share many (s,t) paths, so the
     mixture's distribution repeats them; the support lists each path
     once, in first-occurrence order. *)
  let g = Gen.torus 4 4 in
  let obl = Trees.uniform (Rng.create 1) ~count:8 g in
  let ps = Path_system.of_oblivious_support obl in
  let dist = List.map snd (Oblivious.distribution obl 0 1) in
  let first_seen =
    List.rev
      (List.fold_left
         (fun acc p -> if List.exists (Path.equal p) acc then acc else p :: acc)
         [] dist)
  in
  Alcotest.(check bool) "the mixture repeats a path" true
    (List.length first_seen < List.length dist);
  Alcotest.(check bool) "deduplicated, first-occurrence order" true
    (List.equal Path.equal first_seen (Path_system.paths ps 0 1))

(* Sampler *)

let test_alpha_sample_sparsity () =
  let g = Gen.hypercube 4 in
  let obl = Valiant.routing g in
  let rng = Rng.create 3 in
  let ps = Sampler.alpha_sample rng obl ~alpha:3 in
  let pairs = all_pairs (Graph.n g) in
  Alcotest.(check bool) "3-sparse" true (Path_system.is_alpha_sparse ps ~alpha:3 pairs)

let test_alpha_sample_from_support () =
  let g = Gen.grid 3 3 in
  let obl = Ksp.routing ~k:4 g in
  let rng = Rng.create 5 in
  let ps = Sampler.alpha_sample rng obl ~alpha:2 in
  let support = List.map snd (Oblivious.distribution obl 0 8) in
  List.iter
    (fun p ->
      Alcotest.(check bool) "sampled from support" true (List.exists (Path.equal p) support))
    (Path_system.paths ps 0 8)

let test_alpha_sample_deterministic_base () =
  (* Sampling from a 1-support routing always yields that single path. *)
  let g = Gen.grid 3 3 in
  let obl = Deterministic.shortest_path g in
  let rng = Rng.create 7 in
  let ps = Sampler.alpha_sample rng obl ~alpha:5 in
  Alcotest.(check int) "single path" 1 (List.length (Path_system.paths ps 0 8))

let test_cnt_and_cut_sample () =
  let g = Gen.cycle 6 in
  Alcotest.(check int) "cnt = alpha + cut" (3 + 2) (Sampler.cnt g ~alpha:3 0 3);
  let obl = Ksp.routing ~k:8 g in
  let rng = Rng.create 9 in
  let ps = Sampler.alpha_cut_sample rng obl ~alpha:3 in
  (* Cycle pairs have cut 2 but only 2 simple paths exist, so the set has
     at most 2 distinct paths — and at most α+cut by definition. *)
  Alcotest.(check bool) "within bound" true (List.length (Path_system.paths ps 0 3) <= 5)

let test_sample_reproducible () =
  let g = Gen.hypercube 4 in
  let obl = Valiant.routing g in
  let ps1 = Sampler.alpha_sample (Rng.create 42) (Valiant.routing g) ~alpha:3 in
  let ps2 = Sampler.alpha_sample (Rng.create 42) obl ~alpha:3 in
  let paths1 = Path_system.paths ps1 0 15 and paths2 = Path_system.paths ps2 0 15 in
  Alcotest.(check bool) "same seed, same sample" true
    (List.for_all2 Path.equal paths1 paths2)

(* Semi-oblivious evaluation *)

let test_route_adapts_to_demand () =
  (* Candidates: both square routes.  Stage 4 splits; a fixed single path
     could not. *)
  let g = Gen.multi_path [ 2; 2 ] in
  let a = Path.of_vertices g [ 0; 2; 1 ] in
  let b = Path.of_vertices g [ 0; 3; 1 ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ a; b ]) ] in
  let d = Demand.single_pair 0 1 2.0 in
  let _, cong = Semi_oblivious.route ~solver:Semi_oblivious.Lp g ps d in
  Alcotest.(check (float 1e-6)) "splits perfectly" 1.0 cong

let test_mwu_solver_variant () =
  (* The same instance through the MWU solver, Stage 4 and Stage 5: both
     values are congestions of feasible routings, so they sit at or above
     the optimum 1. *)
  let g = Gen.multi_path [ 2; 2 ] in
  let a = Path.of_vertices g [ 0; 2; 1 ] in
  let b = Path.of_vertices g [ 0; 3; 1 ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ a; b ]) ] in
  let d = Demand.single_pair 0 1 2.0 in
  let cong = Semi_oblivious.congestion ~solver:(Semi_oblivious.Mwu 300) g ps d in
  Alcotest.(check bool) (Printf.sprintf "mwu near 1 (%.3f)" cong) true
    (cong >= 1.0 -. 1e-9 && cong <= 1.1);
  let opt = Semi_oblivious.opt ~solver:(Semi_oblivious.Mwu 300) g d in
  Alcotest.(check bool) (Printf.sprintf "mwu opt sane (%.3f)" opt) true
    (opt >= 1.0 -. 1e-9 && opt <= 1.1)

let test_congestion_solvers_agree () =
  let rng = Rng.create 11 in
  let g = Gen.grid 3 3 in
  let obl = Ksp.routing ~k:3 g in
  let ps = Sampler.alpha_sample rng obl ~alpha:3 in
  let d = Demand.random_pairs rng ~n:9 ~pairs:4 in
  let lp = Semi_oblivious.congestion ~solver:Semi_oblivious.Lp g ps d in
  let mwu = Semi_oblivious.congestion ~solver:(Semi_oblivious.Mwu 600) g ps d in
  Alcotest.(check bool)
    (Printf.sprintf "lp %.3f vs mwu %.3f" lp mwu)
    true
    (mwu >= lp -. 1e-6 && mwu <= (lp *. 1.2) +. 0.05)

let test_full_support_is_1_competitive_with_base () =
  (* Using the oblivious routing's entire support can only do better than
     the oblivious routing itself. *)
  let rng = Rng.create 13 in
  let g = Gen.grid 3 3 in
  let obl = Ksp.routing ~k:3 g in
  let ps = Path_system.of_oblivious_support obl in
  let d = Demand.random_pairs rng ~n:9 ~pairs:5 in
  let ratio = Semi_oblivious.competitive_with ~solver:Semi_oblivious.Lp obl ps d in
  Alcotest.(check bool) "at most 1" true (ratio <= 1.0 +. 1e-6)

let test_competitive_ratio_at_least_one_with_lp () =
  let rng = Rng.create 17 in
  let g = Gen.grid 3 3 in
  let obl = Ksp.routing ~k:2 g in
  let ps = Sampler.alpha_sample rng obl ~alpha:2 in
  let d = Demand.random_pairs rng ~n:9 ~pairs:4 in
  let ratio = Semi_oblivious.competitive_ratio ~solver:Semi_oblivious.Lp g ps d in
  Alcotest.(check bool) "restricted ≥ unrestricted" true (ratio >= 1.0 -. 1e-6)

let test_empty_demand_ratio () =
  let g = Gen.cycle 4 in
  let ps = Path_system.of_pairs g [] in
  Alcotest.(check (float 1e-9)) "empty demand" 1.0
    (Semi_oblivious.competitive_ratio g ps Demand.empty)

(* Theorem 2.3 at test scale: a Θ(log n)-sample of Valiant routes random
   permutations on the hypercube with small competitive ratio. *)
let test_log_sample_competitive_on_hypercube () =
  let dim = 5 in
  let g = Gen.hypercube dim in
  let obl = Valiant.routing g in
  let rng = Rng.create 23 in
  let ps = Sampler.alpha_sample rng obl ~alpha:dim in
  let worst = ref 0.0 in
  for _ = 1 to 3 do
    let d = Demand.random_permutation rng (Graph.n g) in
    let ratio = Semi_oblivious.competitive_ratio ~solver:(Semi_oblivious.Mwu 200) g ps d in
    worst := Float.max !worst ratio
  done;
  Alcotest.(check bool)
    (Printf.sprintf "polylog-ish ratio %.2f" !worst)
    true (!worst <= 8.0)

(* Theorem 2.5 shape at test scale: more sampled paths → no worse
   worst-case congestion on a fixed demand set. *)
let test_sparsity_monotonicity () =
  let g = Gen.hypercube 4 in
  let obl = Valiant.routing g in
  let demand = Demand.bit_reversal 4 in
  let cong_at alpha =
    let rng = Rng.create 100 in
    let ps = Sampler.alpha_sample rng obl ~alpha in
    Semi_oblivious.congestion ~solver:(Semi_oblivious.Mwu 200) g ps demand
  in
  let c1 = cong_at 1 and c4 = cong_at 4 and c8 = cong_at 8 in
  Alcotest.(check bool)
    (Printf.sprintf "c1=%.2f c4=%.2f c8=%.2f" c1 c4 c8)
    true
    (c4 <= c1 +. 0.3 && c8 <= c4 +. 0.3)

(* Integral routing *)

let test_integral_upper_is_integral () =
  let rng = Rng.create 29 in
  let g = Gen.grid 3 3 in
  let obl = Ksp.routing ~k:3 g in
  let ps = Sampler.alpha_sample rng obl ~alpha:3 in
  let d = Demand.random_pairs rng ~n:9 ~pairs:4 in
  let assignment, cong = Integral.congestion_upper ~solver:Semi_oblivious.Lp rng g ps d in
  Alcotest.(check bool) "congestion positive" true (cong >= 1.0 -. 1e-9);
  Alcotest.(check (list (pair int int))) "every pair routed" (Demand.support d)
    (List.sort compare (Array.to_list (Array.map fst assignment)));
  Alcotest.(check bool) "one whole path per unit of demand" true
    (Array.for_all
       (fun ((s, t), paths) -> float_of_int (Array.length paths) = Demand.get d s t)
       assignment)

let test_integral_upper_vs_brute_force () =
  let rng = Rng.create 31 in
  let g = Gen.grid 3 3 in
  let obl = Ksp.routing ~k:2 g in
  let ps = Sampler.alpha_sample rng obl ~alpha:2 in
  let d = Demand.random_pairs rng ~n:9 ~pairs:4 in
  let exact = Integral.brute_force g ps d in
  let _, upper = Integral.congestion_upper ~solver:Semi_oblivious.Lp ~tries:20 rng g ps d in
  Alcotest.(check bool)
    (Printf.sprintf "upper %.2f ≥ exact %.2f" upper exact)
    true (upper >= exact -. 1e-9);
  (* Rounding + local search should be close to exact at this scale. *)
  Alcotest.(check bool) "close to exact" true (upper <= (2.0 *. exact) +. 3.0)

let test_brute_force_known () =
  let g = Gen.multi_path [ 2; 2 ] in
  let a = Path.of_vertices g [ 0; 2; 1 ] in
  let b = Path.of_vertices g [ 0; 3; 1 ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ a; b ]) ] in
  (* One packet: congestion 1 regardless. *)
  Alcotest.(check (float 1e-9)) "single packet" 1.0
    (Integral.brute_force g ps (Demand.single_pair 0 1 1.0))

let test_brute_force_forced_collision () =
  let g = Gen.multi_path [ 2; 2 ] in
  let a = Path.of_vertices g [ 0; 2; 1 ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ a ]) ] in
  Alcotest.check_raises "rejects non-01"
    (Invalid_argument "Integral.brute_force: demand must be a {0,1}-demand") (fun () ->
      ignore (Integral.brute_force g ps (Demand.single_pair 0 1 2.0)))

let test_integral_rounding_bound_cor64 () =
  (* Corollary 6.4: cong_Z(P,d) ≤ 2·cong_R(P,d) + 3 ln m. *)
  let rng = Rng.create 37 in
  let g = Gen.hypercube 4 in
  let obl = Valiant.routing g in
  let ps = Sampler.alpha_sample rng obl ~alpha:4 in
  let d = Demand.random_permutation rng (Graph.n g) in
  let frac = Semi_oblivious.congestion ~solver:(Semi_oblivious.Mwu 300) g ps d in
  let _, integral = Integral.congestion_upper ~tries:20 rng g ps d in
  let bound = (2.0 *. frac) +. (3.0 *. Float.log (float_of_int (Graph.m g))) in
  Alcotest.(check bool)
    (Printf.sprintf "cor 6.4 (%.2f ≤ %.2f)" integral bound)
    true (integral <= bound +. 1e-6)

(* The Lemma 5.6 dynamic process *)

let test_weak_route_survives_on_good_sample () =
  (* Hypercube, α = dim sample of Valiant, permutation demand, generous
     allowance: at least half the demand must survive (whp). *)
  let dim = 5 in
  let g = Gen.hypercube dim in
  let obl = Valiant.routing g in
  let rng = Rng.create 41 in
  let ps = Sampler.alpha_sample rng obl ~alpha:(2 * dim) in
  let d = Demand.random_permutation rng (Graph.n g) in
  let outcome = Process.weak_route ~gamma:8.0 g ps d in
  Alcotest.(check bool)
    (Printf.sprintf "survived %.2f" outcome.Process.survived_fraction)
    true
    (outcome.Process.survived_fraction >= 0.5);
  match outcome.Process.kept_routing with
  | None -> Alcotest.fail "expected a routing"
  | Some r ->
      Alcotest.(check bool) "kept congestion within gamma" true
        (Routing.congestion g r outcome.Process.kept_demand <= 8.0 +. 1e-9)

let test_weak_route_deletes_under_tight_gamma () =
  (* With allowance below 1 and a single forced path, the process must
     delete everything. *)
  let g = Gen.path_graph 3 in
  let p = Path.of_vertices g [ 0; 1; 2 ] in
  let ps = Path_system.of_pairs g [ ((0, 2), [ p ]) ] in
  let d = Demand.single_pair 0 2 2.0 in
  let outcome = Process.weak_route ~gamma:1.0 g ps d in
  Alcotest.(check (float 1e-9)) "all deleted" 0.0 outcome.Process.survived_fraction;
  Alcotest.(check bool) "deletions recorded" true (outcome.Process.deletions <> [])

let test_weak_route_keeps_everything_when_loose () =
  let g = Gen.path_graph 3 in
  let p = Path.of_vertices g [ 0; 1; 2 ] in
  let ps = Path_system.of_pairs g [ ((0, 2), [ p ]) ] in
  let d = Demand.single_pair 0 2 2.0 in
  let outcome = Process.weak_route ~gamma:5.0 g ps d in
  Alcotest.(check (float 1e-9)) "everything survives" 1.0 outcome.Process.survived_fraction;
  Alcotest.(check (list (pair int (float 1e-9)))) "no deletions" [] outcome.Process.deletions

let test_route_by_halving_routes_everything () =
  let dim = 4 in
  let g = Gen.hypercube dim in
  let obl = Valiant.routing g in
  let rng = Rng.create 43 in
  let ps = Sampler.alpha_sample rng obl ~alpha:(2 * dim) in
  let d = Demand.random_permutation rng (Graph.n g) in
  let routing, cong = Process.route_by_halving ~gamma:6.0 g ps d in
  Alcotest.(check bool) "covers demand" true (Routing.covers routing d);
  (* Lemma 5.8 shape: O(gamma log m). *)
  let bound = 4.0 *. 6.0 *. Float.log (float_of_int (Graph.m g)) in
  Alcotest.(check bool)
    (Printf.sprintf "halving congestion %.2f ≤ %.2f" cong bound)
    true (cong <= bound)

(* Completion time *)

let test_completion_route_prefers_balanced_tradeoff () =
  (* multi_path [1;8;8;8]: min-congestion spreads over the 8-hop detours
     (dilation 8); min-completion for a small demand keeps短 paths. *)
  let g = Gen.multi_path [ 1; 8; 8; 8 ] in
  let direct = Path.of_vertices g [ 0; 1 ] in
  let detours =
    List.init 3 (fun i ->
        let base = 2 + (i * 7) in
        Path.of_vertices g ((0 :: List.init 7 (fun j -> base + j)) @ [ 1 ]))
  in
  let ps = Path_system.of_pairs g [ ((0, 1), direct :: detours) ] in
  let d = Demand.single_pair 0 1 2.0 in
  let _, cong, dil = Completion.route ~solver:Semi_oblivious.Lp g ps d in
  let value = cong +. float_of_int dil in
  (* Using only the direct edge: cong 2, dil 1 → 3.  Spreading over all
     four: cong 0.5, dil 8 → 8.5.  The router must find value ≤ 3. *)
  Alcotest.(check bool) (Printf.sprintf "value %.2f" value) true (value <= 3.0 +. 1e-6)

let test_ladder_hops_cover_diameter () =
  let g = Gen.grid 4 4 in
  let hops = Completion.ladder_hops g in
  Alcotest.(check bool) "starts at 1" true (List.hd hops = 1);
  Alcotest.(check bool) "covers diameter" true
    (List.exists (fun h -> h >= Sso_graph.Shortest.diameter g) hops)

let test_ladder_system_feasible () =
  let rng = Rng.create 47 in
  let g = Gen.grid 3 3 in
  let ps = Completion.ladder_system rng g ~alpha:2 in
  let d = Demand.of_list [ (0, 8, 1.0); (2, 6, 1.0) ] in
  let _, cong, dil = Completion.route ~solver:(Semi_oblivious.Mwu 150) g ps d in
  Alcotest.(check bool) "feasible" true (cong > 0.0 && dil > 0)

(* Special demands and bucketing *)

let test_special_of_support () =
  let g = Gen.cycle 6 in
  let d = Special.special_of_support g ~alpha:3 [ (0, 3); (1, 4) ] in
  Alcotest.(check bool) "is special" true (Demand.is_special g ~alpha:3 d);
  Alcotest.(check (float 1e-9)) "value alpha+cut" 5.0 (Demand.get d 0 3)

let test_buckets_partition () =
  let g = Gen.cycle 6 in
  let d = Demand.of_list [ (0, 3, 0.5); (1, 4, 7.0); (2, 5, 40.0) ] in
  let buckets = Special.buckets g ~alpha:2 d in
  let total = List.fold_left (fun acc (_, b) -> Demand.add acc b) Demand.empty buckets in
  Alcotest.(check bool) "buckets sum to demand" true (Support.demand_equal total d);
  (* Within a bucket, ratios are within a factor 2. *)
  List.iter
    (fun (_, b) ->
      let ratios =
        Demand.fold (fun s t v acc -> (v /. float_of_int (Sampler.cnt g ~alpha:2 s t)) :: acc) b []
      in
      match ratios with
      | [] -> ()
      | r0 :: rest ->
          let lo = List.fold_left Float.min r0 rest in
          let hi = List.fold_left Float.max r0 rest in
          Alcotest.(check bool) "dyadic width" true (hi < (2.0 *. lo) +. 1e-9))
    buckets

(* Lower bound adversary (Section 8) *)

let test_middles_hit () =
  (* Every left-right candidate crosses the same middle, so that middle
     alone is the bottleneck the attack finds. *)
  let c = Gen.c_graph 4 3 in
  let g = c.Gen.c_graph in
  let mid = c.Gen.c_middles.(1) in
  let ps =
    Path_system.of_generator g (fun s t ->
        [ Path.of_vertices g [ s; c.Gen.c_center1; mid; c.Gen.c_center2; t ] ])
  in
  let attack = Lower_bound.attack c ps in
  Alcotest.(check (list int)) "hits the middle" [ mid ] attack.Lower_bound.bottleneck

let test_attack_on_1_sparse () =
  (* A deterministic (1-sparse) system on C(n,k) must funnel many pairs
     through one middle: predicted congestion ≥ k with opt 1. *)
  let n = 9 and k = 3 in
  let c = Gen.c_graph n k in
  let obl = Deterministic.shortest_path c.Gen.c_graph in
  let ps = Sso_core.Path_system.of_oblivious_support obl in
  let attack = Lower_bound.attack c ps in
  Alcotest.(check bool) "permutation demand" true (Support.is_permutation attack.Lower_bound.demand);
  Alcotest.(check bool)
    (Printf.sprintf "predicted %.2f ≥ k" attack.Lower_bound.predicted_congestion)
    true
    (attack.Lower_bound.predicted_congestion >= float_of_int k -. 1e-9);
  let measured =
    Semi_oblivious.congestion ~solver:Semi_oblivious.Lp c.Gen.c_graph ps
      attack.Lower_bound.demand
  in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.2f ≥ predicted %.2f" measured
       attack.Lower_bound.predicted_congestion)
    true
    (measured >= attack.Lower_bound.predicted_congestion -. 1e-6)

let test_attack_weaker_on_sparse_samples () =
  (* α-samples with larger α leave the adversary a smaller certified bound:
     score k/α decreases.  Check predicted bound for α = k is ≤ k/1. *)
  let n = 16 and k = 4 in
  let c = Gen.c_graph n k in
  let g = c.Gen.c_graph in
  let obl = Ksp.routing ~k:8 g in
  let rng = Rng.create 59 in
  let ps1 = Sampler.alpha_sample (Rng.split rng) obl ~alpha:1 in
  let ps4 = Sampler.alpha_sample (Rng.split rng) obl ~alpha:4 in
  let a1 = Lower_bound.attack c ps1 in
  let a4 = Lower_bound.attack c ps4 in
  Alcotest.(check bool)
    (Printf.sprintf "sparser is more attackable (%.2f ≥ %.2f)"
       a1.Lower_bound.predicted_congestion a4.Lower_bound.predicted_congestion)
    true
    (a1.Lower_bound.predicted_congestion >= a4.Lower_bound.predicted_congestion -. 1e-9)

let test_attack_verified_measured_bound () =
  let n = 9 and k = 3 in
  let c = Gen.c_graph n k in
  let g = c.Gen.c_graph in
  let obl = Ksp.routing ~k:6 g in
  let rng = Rng.create 61 in
  let ps = Sampler.alpha_sample rng obl ~alpha:2 in
  let attack = Lower_bound.attack c ps in
  let measured =
    Semi_oblivious.congestion ~solver:Semi_oblivious.Lp g ps attack.Lower_bound.demand
  in
  Alcotest.(check bool)
    (Printf.sprintf "measured %.3f ≥ predicted %.3f" measured
       attack.Lower_bound.predicted_congestion)
    true
    (measured >= attack.Lower_bound.predicted_congestion -. 1e-6)

(* Lazy mixture sampling *)

module Codec = Sso_artifact.Codec

(* The FNV digest of an α-sample's candidate sets over [pairs], in the
   artifact slice encoding. *)
let alpha_sample_digest rng obl ~alpha pairs =
  let pairs = List.sort_uniq compare pairs in
  let ps = Sampler.alpha_sample rng obl ~alpha in
  Path_system.materialize ps pairs;
  let ranges = List.map (fun (s, t) -> ((s, t), Path_system.slice_range ps s t)) pairs in
  Codec.hex_of_key
    (Codec.fnv1a64 (Codec.encode_path_system_slices (Path_system.arena ps) ranges))

(* Golden pins, recorded while the samplers still built every pair's full
   distribution before drawing: sampling only the drawn mixture components
   must leave every sampled path where it was. *)
let test_mixture_sample_goldens () =
  (* Valiant on hypercube 6 over the pairs of the cube-ratio benchmark's
     seed-1 demands: bit reversal, transpose and 28 random permutations. *)
  let master = Rng.create 1 in
  let demand_rng = Rng.split_at master 2 in
  let cube = Gen.hypercube 6 in
  let cube_pairs =
    List.init 30 (fun i ->
        match i with
        | 0 -> Demand.bit_reversal 6
        | 1 -> Demand.transpose 6
        | i -> Demand.random_permutation (Rng.split_at demand_rng i) 64)
    |> List.concat_map Demand.support
  in
  Alcotest.(check string) "valiant hypercube-6, alpha 6" "32f95193bf9babb7"
    (alpha_sample_digest (Rng.split_at master 1) (Valiant.routing cube) ~alpha:6 cube_pairs);
  let rr = Gen.random_regular (Rng.create 11) 256 4 in
  Alcotest.(check string) "4 Wilson trees on a 4-regular n=256, alpha 4" "92d5aba73b1e80f1"
    (alpha_sample_digest (Rng.create 13)
       (Trees.uniform (Rng.create 12) ~count:4 rr)
       ~alpha:4
       (distinct_pairs (Rng.create 14) 256 500));
  let ft = Gen.fat_tree 8 in
  Alcotest.(check string) "racke fat-tree k=8, alpha 4" "0148ea09dd7ecbc6"
    (alpha_sample_digest (Rng.create 16)
       (Racke.routing (Rng.create 15) ft)
       ~alpha:4
       (all_pairs (Graph.n ft)))

(* A 64-component mixture whose routes are counted: α-sampling a pair
   routes at most the α components it draws, the pair's full
   distribution routes all 64 once, and asking again routes nothing. *)
let test_mixture_routes_only_drawn () =
  let g = Gen.hypercube 6 in
  let calls = ref 0 in
  let obl =
    Oblivious.mixture ~name:"counted" g (Array.make 64 1.0) (fun s t r ->
        incr calls;
        Path.concat g (Valiant.bitfix_path g s r) (Valiant.bitfix_path g r t))
  in
  let ps = Sampler.alpha_sample (Rng.create 5) obl ~alpha:6 in
  let drawn = Path_system.slice_count ps 0 63 in
  Alcotest.(check bool) (Printf.sprintf "alpha 6 routes %d <= 6" !calls) true (!calls <= 6);
  Alcotest.(check bool) "at least one route per distinct path" true (!calls >= drawn);
  calls := 0;
  ignore (Oblivious.distribution obl 0 63);
  Alcotest.(check int) "distribution routes every component" 64 !calls;
  calls := 0;
  ignore (Oblivious.distribution obl 0 63);
  ignore (Path_system.paths (Sampler.alpha_sample (Rng.create 6) obl ~alpha:6) 0 63);
  Alcotest.(check int) "cached pair routes nothing" 0 !calls;
  (* A sampler routes a component once, however often it draws it. *)
  calls := 0;
  let two =
    Oblivious.mixture ~name:"two" g [| 1.0; 1.0 |] (fun s t r ->
        incr calls;
        Path.concat g (Valiant.bitfix_path g s r) (Valiant.bitfix_path g r t))
  in
  ignore (Path_system.paths (Sampler.alpha_sample (Rng.create 7) two ~alpha:8) 5 9);
  Alcotest.(check bool) (Printf.sprintf "8 draws of 2 components route %d <= 2" !calls) true
    (!calls <= 2)

(* Extra coverage *)

let test_sampler_respects_base_distribution () =
  (* Sampling α=1 from a uniform 2-path routing must pick each path about
     half the time across independent samples. *)
  let g = Gen.multi_path [ 2; 2 ] in
  let a = Path.of_vertices g [ 0; 2; 1 ] in
  let obl = Ksp.routing ~k:2 g in
  let trials = 2000 in
  let hits = ref 0 in
  for seed = 1 to trials do
    let ps = Sampler.alpha_sample (Rng.create seed) obl ~alpha:1 in
    match Path_system.paths ps 0 1 with
    | [ p ] -> if Path.equal p a then incr hits
    | _ -> Alcotest.fail "expected exactly one path"
  done;
  let frac = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "near half (%.3f)" frac)
    true
    (Float.abs (frac -. 0.5) < 0.05)

let test_sampler_dedupes_with_replacement () =
  (* With α much larger than the support, the sample set size caps at the
     support size. *)
  let g = Gen.multi_path [ 2; 2 ] in
  let obl = Ksp.routing ~k:2 g in
  let ps = Sampler.alpha_sample (Rng.create 3) obl ~alpha:50 in
  Alcotest.(check int) "capped at support" 2 (List.length (Path_system.paths ps 0 1))

let test_completion_ladder_geometric () =
  let g = Gen.grid 5 5 in
  let hops = Completion.ladder_hops g in
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "at most doubling" true (b <= 2 * a + 1);
        Alcotest.(check bool) "strictly increasing" true (b > a);
        check rest
    | _ -> ()
  in
  check hops;
  Alcotest.(check bool) "O(log diam) rungs" true (List.length hops <= 6)

let test_lower_bound_middles_hit_empty_for_inner_path () =
  (* A gadget view whose "right" leaf sits in the left star: the one
     candidate stays inside that star and crosses no middle, which the
     attack refuses. *)
  let c = Gen.c_graph 4 3 in
  let g = c.Gen.c_graph in
  let s = c.Gen.c_leaves1.(0) and t = c.Gen.c_leaves1.(1) in
  let view = { c with Gen.c_leaves1 = [| s |]; c_leaves2 = [| t |] } in
  let ps = Path_system.of_pairs g [ ((s, t), [ Path.of_vertices g [ s; c.Gen.c_center1; t ] ]) ] in
  Alcotest.check_raises "no middles on a same-star path"
    (Invalid_argument "Lower_bound.attack: a left-right candidate avoids all middles")
    (fun () -> ignore (Lower_bound.attack view ps))

let test_semi_oblivious_opt_lp_exact () =
  let g = Gen.multi_path [ 2; 2 ] in
  let d = Demand.single_pair 0 1 2.0 in
  Alcotest.(check (float 1e-6)) "exact optimum" 1.0
    (Semi_oblivious.opt ~solver:Semi_oblivious.Lp g d)

(* Two components, 0-1 and 2-3, and a demand across them: the MWU
   optimum names itself and what it found, no path. *)
let test_semi_oblivious_optimum_no_path () =
  let b = Graph.Builder.create 4 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 2 3);
  let g = Graph.Builder.build b in
  Alcotest.check_raises "across components"
    (Invalid_argument "Semi_oblivious.optimum: a demanded pair has no path") (fun () ->
      ignore (Semi_oblivious.optimum g (Demand.of_list [ (0, 1, 1.0); (1, 2, 1.0) ])))

let test_process_deterministic () =
  (* The dynamic process has no internal randomness: same inputs, same
     outcome. *)
  let g = Gen.grid 3 3 in
  let obl = Ksp.routing ~k:3 g in
  let ps = Sampler.alpha_sample (Rng.create 7) obl ~alpha:3 in
  let d = Demand.random_pairs (Rng.create 8) ~n:9 ~pairs:4 in
  let o1 = Process.weak_route ~gamma:1.5 g ps d in
  let o2 = Process.weak_route ~gamma:1.5 g ps d in
  Alcotest.(check (float 1e-12)) "same survival" o1.Process.survived_fraction
    o2.Process.survived_fraction;
  Alcotest.(check int) "same deletions" (List.length o1.Process.deletions)
    (List.length o2.Process.deletions)

let test_certified_bucket_count_logarithmic () =
  (* Ratios spanning R octaves produce at most R+2 buckets. *)
  let g = Gen.cycle 8 in
  let d =
    Demand.of_list [ (0, 4, 1.0); (1, 5, 4.0); (2, 6, 16.0); (3, 7, 64.0) ]
  in
  let count = List.length (Special.buckets g ~alpha:2 d) in
  Alcotest.(check bool) (Printf.sprintf "buckets %d" count) true (count <= 8);
  Alcotest.(check bool) "at least distinct octaves" true (count >= 4)

(* Theorem 5.3 pipeline (constructive) *)

module Theorem53 = Sso_core.Theorem53

let test_certified_routes_permutation () =
  let dim = 5 in
  let g = Gen.hypercube dim in
  let obl = Valiant.routing g in
  let rng = Rng.create 97 in
  let ps = Sampler.alpha_cut_sample rng obl ~alpha:(2 * dim) in
  let d = Demand.random_permutation rng (Graph.n g) in
  let routing, cong = Theorem53.route ~gamma:60.0 ~alpha:(2 * dim) g ps d in
  Alcotest.(check bool) "covers" true (Routing.covers routing d);
  (* Solver-free pipeline should land within a moderate factor of the
     solver-based Stage 4. *)
  let solver_cong = Semi_oblivious.congestion ~solver:(Semi_oblivious.Mwu 200) g ps d in
  Alcotest.(check bool)
    (Printf.sprintf "certified %.2f within 30x of solver %.2f" cong solver_cong)
    true
    (cong <= 30.0 *. solver_cong +. 1.0)

let test_certified_arbitrary_demand () =
  (* Mixed magnitudes exercise the bucketing. *)
  let g = Gen.grid 4 4 in
  let obl = Ksp.routing ~k:4 g in
  let rng = Rng.create 101 in
  let ps = Sampler.alpha_cut_sample rng obl ~alpha:3 in
  let d = Demand.of_list [ (0, 15, 0.3); (3, 12, 4.0); (5, 10, 17.0) ] in
  Alcotest.(check bool) "several buckets" true (List.length (Special.buckets g ~alpha:3 d) >= 2);
  let routing, cong = Theorem53.route ~gamma:40.0 ~alpha:3 g ps d in
  Alcotest.(check bool) "covers" true (Routing.covers routing d);
  Alcotest.(check bool) "finite congestion" true (Float.is_finite cong && cong > 0.0)

let test_certified_empty () =
  let g = Gen.grid 3 3 in
  let ps = Path_system.of_pairs g [] in
  let _, cong = Theorem53.route ~gamma:10.0 ~alpha:2 g ps Demand.empty in
  Alcotest.(check (float 1e-9)) "empty" 0.0 cong

let test_certified_single_bucket_for_uniform () =
  let g = Gen.cycle 6 in
  (* All ratios equal → exactly one bucket. *)
  let d = Special.special_of_support g ~alpha:2 [ (0, 3); (1, 4) ] in
  Alcotest.(check int) "one bucket" 1 (List.length (Special.buckets g ~alpha:2 d))

(* Theory: closed-form bound calculators *)

module Theory = Sso_core.Theory

let test_theory_sample_competitiveness_monotone () =
  (* More paths → better guarantee; more edges → worse. *)
  let c2 = Theory.sample_competitiveness ~m:100 ~alpha:2 ~h:1 in
  let c8 = Theory.sample_competitiveness ~m:100 ~alpha:8 ~h:1 in
  Alcotest.(check bool) "decreasing in alpha" true (c8 < c2);
  let c_small = Theory.sample_competitiveness ~m:10 ~alpha:4 ~h:1 in
  let c_big = Theory.sample_competitiveness ~m:1000 ~alpha:4 ~h:1 in
  Alcotest.(check bool) "increasing in m" true (c_big > c_small)

let test_theory_failure_probabilities () =
  let p1 = Theory.weak_route_failure_probability ~m:100 ~supp:1 ~h:1 in
  Alcotest.(check (float 1e-12)) "m^-(h+3)" 1e-8 p1;
  let p5 = Theory.weak_route_failure_probability ~m:100 ~supp:5 ~h:1 in
  Alcotest.(check bool) "exponential in support" true (p5 < p1 *. p1);
  Alcotest.(check (float 1e-12)) "union bound" 0.01 (Theory.union_bound_failure ~m:100 ~h:1)

let test_theory_bad_patterns () =
  (* Lemma 5.13: log10 count = (4D/alpha) log10 m. *)
  Alcotest.(check (float 1e-9)) "log10 formula" 16.0
    (Theory.log10_bad_pattern_count ~m:100 ~d_size:10.0 ~alpha:5);
  Alcotest.(check (float 1e-3)) "small case exact" 100.0
    (Theory.bad_pattern_count_bound ~m:10 ~d_size:2.0 ~alpha:4)

let test_theory_rounding_matches_lemma () =
  Alcotest.(check (float 1e-9)) "2c + 3 ln m"
    ((2.0 *. 1.5) +. (3.0 *. Float.log 64.0))
    (Theory.rounding_bound ~m:64 ~frac_congestion:1.5)

let test_theory_sparsity_shape () =
  (* log n / log log n is sublogarithmic but unbounded. *)
  let s16 = Theory.theorem_2_3_sparsity ~n:16 in
  let s65536 = Theory.theorem_2_3_sparsity ~n:65536 in
  Alcotest.(check int) "n=16" 2 s16;
  Alcotest.(check int) "n=65536" 4 s65536;
  Alcotest.(check bool) "grows" true (s65536 > s16);
  Alcotest.(check bool) "below log n" true (s65536 <= 16)

let test_theory_trade_off_consistency () =
  (* The Thm 2.5 upper shape must dominate the Cor 8.3 lower shape. *)
  List.iter
    (fun (n, alpha) ->
      let upper = Theory.theorem_2_5_competitiveness ~n ~alpha in
      let lower = Theory.lower_bound_cor_8_3 ~n ~alpha in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d a=%d: %.2f >= %.2f" n alpha upper lower)
        true (upper >= lower))
    [ (64, 1); (64, 2); (1024, 3); (4096, 4) ]

let test_theory_gadget_k () =
  Alcotest.(check int) "sqrt" 8 (Theory.lower_bound_gadget_k ~n:64 ~alpha:1);
  Alcotest.(check int) "fourth root" 2 (Theory.lower_bound_gadget_k ~n:64 ~alpha:2);
  Alcotest.(check int) "floors to 1" 1 (Theory.lower_bound_gadget_k ~n:4 ~alpha:4)

let test_theory_kkt91 () =
  (* Hypercube: sqrt(n)/log n — the E4 scale. *)
  Alcotest.(check (float 1e-9)) "d=8 cube" (16.0 /. 8.0)
    (Theory.kkt91_bound ~n:256 ~max_degree:8)

let test_theory_validates_input () =
  Alcotest.(check bool) "rejects zero" true
    (try
       ignore (Theory.sample_competitiveness ~m:0 ~alpha:1 ~h:1);
       false
     with Invalid_argument _ -> true)

(* Every single-link failure, evaluated by the fault sweep. *)
let single_failures g ps d =
  Sweep.run ~solver:(Semi_oblivious.Mwu 100) g ps d (Sweep.singles g)

(* A report as its exact bits: reports carry nan fields, so [=] between
   two identical report lists is false. *)
let report_bits (r : Sweep.report) =
  Printf.sprintf "%s %b %b %Lx %Lx %Lx %d %Lx" r.Sweep.scenario.Sso_fault.Scenario.label
    r.Sweep.connected r.Sweep.survivable
    (Int64.bits_of_float r.Sweep.achieved)
    (Int64.bits_of_float r.Sweep.post_opt)
    (Int64.bits_of_float r.Sweep.ratio)
    r.Sweep.recovery_rounds
    (Int64.bits_of_float r.Sweep.warm_congestion)

let test_robustness_agrees_with_bridges () =
  (* Failures the network itself cannot survive are exactly the bridges
     separating some demanded pair. *)
  let gg = Gen.c_graph 4 2 in
  let g = gg.Gen.c_graph in
  let s = gg.Gen.c_leaves1.(0) and t = gg.Gen.c_leaves2.(0) in
  let d = Demand.single_pair s t 1.0 in
  let base = Ksp.routing ~k:4 g in
  let system = Sso_core.Path_system.of_oblivious_support base in
  let reports = single_failures g system d in
  let bridges = Sso_graph.Bridges.find g in
  List.iteri
    (fun e (r : Sweep.report) ->
      let network_dead = not (Float.is_finite r.Sweep.post_opt) in
      let is_separating_bridge =
        List.mem e bridges
        &&
        (* The bridge must separate s from t, i.e., lie on every (s,t)
           path: in C(n,k) those are exactly the two leaf edges. *)
        (let u, v = Graph.endpoints g e in
         u = s || v = s || u = t || v = t)
      in
      Alcotest.(check bool) (Printf.sprintf "edge %d" e) is_separating_bridge network_dead)
    reports

(* Oracle (demand-aware baseline) *)

module Oracle = Sso_core.Oracle

let test_oracle_top_paths () =
  (* A capacity-3 direct edge beside a unit-capacity detour: the optimum
     sends 3/4 of the demand direct. *)
  let b = Graph.Builder.create 3 in
  ignore (Graph.Builder.add_edge ~cap:3.0 b 0 1);
  ignore (Graph.Builder.add_edge b 0 2);
  ignore (Graph.Builder.add_edge b 2 1);
  let g = Graph.Builder.build b in
  let direct = Path.of_vertices g [ 0; 1 ] in
  let d = Demand.single_pair 0 1 4.0 in
  let top ~alpha = Oracle.demand_aware_system ~solver:Semi_oblivious.Lp g d ~alpha in
  Alcotest.(check bool) "keeps the heavy path" true
    (Path.equal direct (List.hd (Path_system.paths (top ~alpha:1) 0 1)));
  Alcotest.(check int) "keeps both" 2 (List.length (Path_system.paths (top ~alpha:2) 0 1))

let test_oracle_beats_or_matches_sample () =
  (* A clairvoyant α-path selection is never worse than an oblivious
     α-sample on the demand it was built for. *)
  let g = Gen.grid 4 4 in
  let rng = Rng.create 83 in
  let d = Demand.random_pairs (Rng.split rng) ~n:16 ~pairs:6 in
  let alpha = 2 in
  let oracle = Oracle.demand_aware_system ~solver:(Semi_oblivious.Mwu 400) g d ~alpha in
  let base = Ksp.routing ~k:4 g in
  let sample = Sampler.alpha_sample (Rng.split rng) base ~alpha in
  let oracle_cong = Semi_oblivious.congestion ~solver:Semi_oblivious.Lp g oracle d in
  let sample_cong = Semi_oblivious.congestion ~solver:Semi_oblivious.Lp g sample d in
  Alcotest.(check bool)
    (Printf.sprintf "oracle %.3f <= sample %.3f (+tol)" oracle_cong sample_cong)
    true
    (oracle_cong <= sample_cong +. 0.15)

let test_oracle_lp_keeps_the_optimum () =
  (* With the exact solver and α at least every pair's support, the
     demand-aware system holds the whole optimal routing, so the exact
     Stage-4 LP on it reaches opt_{G,ℝ}(d). *)
  let g = Gen.grid 4 4 in
  let d = Demand.random_pairs (Rng.create 87) ~n:16 ~pairs:6 in
  let opt = Semi_oblivious.opt ~solver:Semi_oblivious.Lp g d in
  let oracle = Oracle.demand_aware_system ~solver:Semi_oblivious.Lp g d ~alpha:64 in
  Alcotest.(check (float 1e-9)) "Stage 4 on the oracle = opt" opt
    (Semi_oblivious.congestion ~solver:Semi_oblivious.Lp g oracle d)

let test_oracle_only_covers_demand () =
  let g = Gen.grid 3 3 in
  let d = Demand.single_pair 0 8 1.0 in
  let oracle = Oracle.demand_aware_system g d ~alpha:2 in
  Alcotest.(check bool) "demanded pair covered" true (Path_system.paths oracle 0 8 <> []);
  Alcotest.(check int) "others empty" 0 (List.length (Path_system.paths oracle 1 7))

(* Lemma 8.2: the composite family graph *)

let test_attack_in_family () =
  let gg = Gen.g_graph 16 in
  let g = gg.Gen.g_graph in
  let base = Ksp.routing ~k:8 g in
  let rng = Rng.create 89 in
  let alpha = 1 in
  let system = Sampler.alpha_sample rng base ~alpha in
  let attack = Lower_bound.attack_in_family gg ~alpha system in
  Alcotest.(check bool) "permutation" true (Support.is_permutation attack.Lower_bound.demand);
  (* Copy for alpha=1 has k = 4 middles; a 1-sparse system is forced. *)
  Alcotest.(check bool)
    (Printf.sprintf "certified %.2f >= 2" attack.Lower_bound.predicted_congestion)
    true
    (attack.Lower_bound.predicted_congestion >= 2.0);
  let measured =
    Semi_oblivious.congestion ~solver:Semi_oblivious.Lp g system attack.Lower_bound.demand
  in
  Alcotest.(check bool) "measured >= certified" true
    (measured >= attack.Lower_bound.predicted_congestion -. 1e-6)

let test_attack_in_family_unknown_alpha () =
  let gg = Gen.g_graph 16 in
  let base = Ksp.routing ~k:2 gg.Gen.g_graph in
  let system = Sampler.alpha_sample (Rng.create 1) base ~alpha:1 in
  (* The error must name the missing alpha and the available ones. *)
  Alcotest.(check bool) "raises with a descriptive message" true
    (try
       ignore (Lower_bound.attack_in_family gg ~alpha:99 system);
       false
     with Invalid_argument msg ->
       let contains needle =
         let nl = String.length needle and ml = String.length msg in
         let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
         go 0
       in
       contains "alpha = 99" && contains "available")

(* Single-link failures, evaluated by the fault sweep *)

let test_without_edge_filters () =
  let g = Gen.multi_path [ 2; 2 ] in
  let a = Path.of_vertices g [ 0; 2; 1 ] in
  let b = Path.of_vertices g [ 0; 3; 1 ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ a; b ]) ] in
  let failed = a.Path.edges.(0) in
  let survivors = Path_system.filter (fun a i -> not (Sso_graph.Arena.exists a i (( = ) failed))) ps in
  Alcotest.(check int) "one survivor" 1 (List.length (Path_system.paths survivors 0 1));
  Alcotest.(check bool) "the right one" true
    (Path.equal b (List.hd (Path_system.paths survivors 0 1)))

let test_filter_by_hops () =
  let g = Gen.multi_path [ 1; 3 ] in
  let direct = Path.of_vertices g [ 0; 1 ] in
  let detour = Path.of_vertices g [ 0; 2; 3; 1 ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ direct; detour ]) ] in
  let long_only = Path_system.filter (fun a i -> Sso_graph.Arena.hops a i > 1) ps in
  Alcotest.(check int) "kept the detour" 1 (List.length (Path_system.paths long_only 0 1))

let test_robustness_redundant_candidates_survive () =
  (* Two disjoint candidate routes: every single failure is survivable and
     near-optimal afterwards. *)
  let g = Gen.multi_path [ 2; 2 ] in
  let a = Path.of_vertices g [ 0; 2; 1 ] in
  let b = Path.of_vertices g [ 0; 3; 1 ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ a; b ]) ] in
  let d = Demand.single_pair 0 1 1.0 in
  let reports = single_failures g ps d in
  Alcotest.(check int) "all edges tested" (Graph.m g) (List.length reports);
  List.iter
    (fun (r : Sweep.report) ->
      Alcotest.(check bool) "survivable" true r.Sweep.survivable;
      Alcotest.(check bool) "near optimal" true (r.Sweep.ratio <= 1.2))
    reports;
  let s = Sweep.summary reports in
  Alcotest.(check int) "none unsurvivable" 0 s.Sweep.unsurvivable

let test_robustness_single_candidate_fails () =
  (* One candidate path only: failing its edges strands the pair even
     though the network still connects it. *)
  let g = Gen.multi_path [ 2; 2 ] in
  let a = Path.of_vertices g [ 0; 2; 1 ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ a ]) ] in
  let d = Demand.single_pair 0 1 1.0 in
  let s = Sweep.summary (single_failures g ps d) in
  Alcotest.(check int) "two stranding failures" 2 s.Sweep.unsurvivable

let test_robustness_bridge_is_networks_fault () =
  (* Failing a bridge disconnects the network itself; such failures are
     excluded from the unsurvivable count. *)
  let g = Gen.path_graph 3 in
  let p = Path.of_vertices g [ 0; 1; 2 ] in
  let ps = Path_system.of_pairs g [ ((0, 2), [ p ]) ] in
  let d = Demand.single_pair 0 2 1.0 in
  let reports = single_failures g ps d in
  List.iter
    (fun (r : Sweep.report) ->
      Alcotest.(check bool) "network-level failure" false (Float.is_finite r.Sweep.post_opt))
    reports;
  let s = Sweep.summary reports in
  Alcotest.(check int) "not charged to the system" 0 s.Sweep.unsurvivable

let test_robustness_summary_degenerate_is_nan () =
  (* No reports at all: both aggregates are nan, not a vacuous 0. *)
  let empty = Sweep.summary [] in
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan empty.Sweep.mean_ratio);
  Alcotest.(check bool) "empty worst nan" true (Float.is_nan empty.Sweep.worst_ratio);
  (* All-unsurvivable: the single-candidate fixture strands the pair on
     its two path edges; keep only those stranding reports. *)
  let g = Gen.multi_path [ 2; 2 ] in
  let a = Path.of_vertices g [ 0; 2; 1 ] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ a ]) ] in
  let d = Demand.single_pair 0 1 1.0 in
  let reports = single_failures g ps d in
  let stranded = List.filter (fun (r : Sweep.report) -> not r.Sweep.survivable) reports in
  Alcotest.(check bool) "fixture strands something" true (stranded <> []);
  let s = Sweep.summary stranded in
  Alcotest.(check bool) "no survivors: mean nan" true (Float.is_nan s.Sweep.mean_ratio);
  Alcotest.(check bool) "no survivors: worst nan" true (Float.is_nan s.Sweep.worst_ratio)

(* Two parallel (0,1) edges plus a 2-hop detour; the system routes over
   one parallel edge and the detour. *)
let parallel_edge_fixture () =
  let b = Graph.Builder.create 3 in
  let e0 = Graph.Builder.add_edge ~cap:1.0 b 0 1 in
  let _e1 = Graph.Builder.add_edge ~cap:1.0 b 0 1 in
  let e2 = Graph.Builder.add_edge ~cap:1.0 b 0 2 in
  let e3 = Graph.Builder.add_edge ~cap:1.0 b 2 1 in
  let g = Graph.Builder.build b in
  let direct = Path.of_edges g ~src:0 ~dst:1 [| e0 |] in
  let detour = Path.of_edges g ~src:0 ~dst:1 [| e2; e3 |] in
  let ps = Path_system.of_pairs g [ ((0, 1), [ direct; detour ]) ] in
  (g, ps, Demand.single_pair 0 1 1.0)

let test_robustness_parallel_edges_share_solves () =
  let g, ps, d = parallel_edge_fixture () in
  let reports = single_failures g ps d in
  Alcotest.(check int) "one report per edge" 4 (List.length reports);
  (* Failing either parallel edge damages isomorphic networks: the same
     optimum, to the bit. *)
  let r0 = List.nth reports 0 and r1 = List.nth reports 1 in
  Alcotest.(check int64) "shared post_opt"
    (Int64.bits_of_float r0.Sweep.post_opt)
    (Int64.bits_of_float r1.Sweep.post_opt);
  (* Both survivable: losing either parallel edge leaves the other. *)
  Alcotest.(check bool) "e0 survivable" true r0.Sweep.survivable;
  Alcotest.(check bool) "e1 survivable" true r1.Sweep.survivable;
  (* And the report list is bit-identical at any job count. *)
  let at_jobs jobs =
    Support.with_jobs jobs (fun () -> List.map report_bits (single_failures g ps d))
  in
  Alcotest.(check (list string)) "jobs-invariant" (at_jobs 1) (at_jobs 4)

(* Auxiliary graph (Corollary 6.2) *)

module Auxiliary = Sso_core.Auxiliary

let test_aux_terminal_cuts_are_one () =
  let g = Gen.grid 3 3 in
  let pairs = [ (0, 8); (2, 6) ] in
  let exp = Auxiliary.expand g ~pairs in
  let g2 = Auxiliary.graph exp in
  Alcotest.(check int) "vertices" (9 + 4) (Graph.n g2);
  Alcotest.(check int) "edges" (Graph.m g + 4) (Graph.m g2);
  List.iter
    (fun (s, t) ->
      let v1, v2 = Auxiliary.terminals exp s t in
      Alcotest.(check int) "unit cut" 1 (Maxflow.cut g2 v1 v2))
    pairs

let test_aux_lifted_congestion_identity () =
  (* cong_{G2}(R2, d2) = max(cong_G(R, d), max entry) — the identity the
     proof of Corollary 6.2 rests on. *)
  let g = Gen.grid 3 3 in
  let d = Demand.of_list [ (0, 8, 3.0); (2, 6, 1.0) ] in
  let exp = Auxiliary.expand g ~pairs:(Demand.support d) in
  let base = Ksp.routing ~k:3 g in
  let lifted = Auxiliary.lift_oblivious exp base in
  let d2 = Auxiliary.lift_demand exp d in
  let max_entry = Demand.fold (fun _ _ v acc -> Float.max v acc) d 0.0 in
  let expected = Float.max (Oblivious.congestion base d) max_entry in
  Alcotest.(check (float 1e-9)) "identity" expected (Oblivious.congestion lifted d2)

let test_aux_sample_projects_to_alpha () =
  let g = Gen.grid 3 3 in
  let pairs = [ (0, 8); (1, 7); (3, 5) ] in
  let exp = Auxiliary.expand g ~pairs in
  let base = Ksp.routing ~k:4 g in
  let rng = Rng.create 67 in
  let alpha = 3 in
  let projected = Auxiliary.alpha_sample_via_expansion rng exp base ~alpha in
  List.iter
    (fun (s, t) ->
      let paths = Path_system.paths projected s t in
      Alcotest.(check bool) "at most alpha" true (List.length paths <= alpha);
      Alcotest.(check bool) "non-empty" true (paths <> []);
      let support = List.map snd (Oblivious.distribution base s t) in
      List.iter
        (fun (p : Path.t) ->
          Alcotest.(check int) "src" s p.Path.src;
          Alcotest.(check int) "dst" t p.Path.dst;
          Alcotest.(check bool) "from base support" true
            (List.exists (Path.equal p) support))
        paths)
    pairs

let test_aux_deterministic_base_projects_identity () =
  (* With a single-path base routing, the projected sample must be exactly
     that path. *)
  let g = Gen.grid 3 3 in
  let exp = Auxiliary.expand g ~pairs:[ (0, 8) ] in
  let base = Deterministic.shortest_path g in
  let rng = Rng.create 71 in
  let projected = Auxiliary.alpha_sample_via_expansion rng exp base ~alpha:4 in
  let expected = List.map snd (Oblivious.distribution base 0 8) in
  let got = Path_system.paths projected 0 8 in
  Alcotest.(check int) "single path" 1 (List.length got);
  Alcotest.(check bool) "same path" true
    (Path.equal (List.hd got) (List.hd expected))

let test_aux_distribution_matches_direct_sample () =
  (* Corollary 6.2's key claim: the projected (α−1+cut)-sample through G₂
     has the same distribution as a direct α-sample.  Compare empirical
     frequencies of the resulting candidate sets over many seeds. *)
  let g = Gen.multi_path [ 2; 2 ] in
  let base = Ksp.routing ~k:2 g in
  let exp = Auxiliary.expand g ~pairs:[ (0, 1) ] in
  let alpha = 2 in
  let trials = 800 in
  let key ps =
    List.map
      (fun (p : Path.t) -> Array.to_list p.Path.edges)
      (List.sort Path.compare (Path_system.paths ps 0 1))
  in
  let tally sample_fn =
    let table = Hashtbl.create 4 in
    for seed = 1 to trials do
      let k = key (sample_fn (Rng.create seed)) in
      Hashtbl.replace table k (1 + try Hashtbl.find table k with Not_found -> 0)
    done;
    table
  in
  let direct = tally (fun rng -> Sampler.alpha_sample rng base ~alpha) in
  let via_aux = tally (fun rng -> Auxiliary.alpha_sample_via_expansion rng exp base ~alpha) in
  (* Same support of outcomes, and each outcome's frequency within 6%. *)
  Hashtbl.iter
    (fun k count ->
      let other = try Hashtbl.find via_aux k with Not_found -> 0 in
      let f1 = float_of_int count /. float_of_int trials in
      let f2 = float_of_int other /. float_of_int trials in
      Alcotest.(check bool)
        (Printf.sprintf "outcome frequency %.3f vs %.3f" f1 f2)
        true
        (Float.abs (f1 -. f2) < 0.06))
    direct

let test_aux_rejects_diagonal () =
  let g = Gen.grid 3 3 in
  Alcotest.check_raises "diagonal" (Invalid_argument "Auxiliary.expand: diagonal pair")
    (fun () -> ignore (Auxiliary.expand g ~pairs:[ (2, 2) ]))

(* Properties *)

(* Failure and hop views run over slices.  Reference: the boxed
   [List.filter] over the parent's paths, which the views replaced. *)
let prop_filter_views_match_boxed_filter =
  QCheck.Test.make ~name:"filter views = boxed List.filter, same Stage-4 digest"
    ~count:40
    QCheck.(triple small_nat bool bool)
    (fun (seed, use_grid, use_racke) ->
      let rng = Rng.create seed in
      let g =
        if use_grid then Gen.grid (3 + (seed mod 3)) 4
        else Gen.random_regular (Rng.split rng) (8 + (2 * (seed mod 4))) 3
      in
      let base =
        if use_racke then Racke.routing (Rng.split rng) ~trees:3 g else Ksp.routing ~k:4 g
      in
      let ps = Sampler.alpha_sample (Rng.split rng) base ~alpha:3 in
      let n = Graph.n g in
      let pairs =
        List.sort_uniq compare
          (List.init 6 (fun _ ->
               let s = Rng.int rng n in
               (s, (s + 1 + Rng.int rng (n - 1)) mod n)))
      in
      let failed = Array.init (Graph.m g) (fun _ -> Rng.float rng < 0.15) in
      let down e = failed.(e) in
      let cap = 1 + Rng.int rng 6 in
      let views =
        [
          ( (fun (p : Path.t) -> not (Array.exists down p.Path.edges)),
            Path_system.filter (fun a i -> not (Sso_graph.Arena.exists a i down)) ps );
          ( (fun p -> Path.hops p <= cap),
            Path_system.filter (fun a i -> Sso_graph.Arena.hops a i <= cap) ps );
        ]
      in
      let digest system d =
        let r, _ = Semi_oblivious.route ~solver:(Semi_oblivious.Mwu 30) g system d in
        Sso_artifact.Codec.fnv1a64 (Sso_artifact.Codec.encode_routing r)
      in
      List.for_all
        (fun (keep, view) ->
          let expected =
            List.map (fun (s, t) -> ((s, t), List.filter keep (Path_system.paths ps s t))) pairs
          in
          List.for_all
            (fun ((s, t), paths) -> List.equal Path.equal paths (Path_system.paths view s t))
            expected
          &&
          let routable = List.filter (fun (_, paths) -> paths <> []) expected in
          routable = []
          ||
          let d = Demand.of_list (List.map (fun ((s, t), _) -> (s, t, 1.0)) routable) in
          digest view d = digest (Path_system.of_pairs g routable) d)
        views)

(* The lazy mixture sampler against the eager one it replaced: an
   [Oblivious.make] over the same backend's full distributions (built
   from a second, identical instance, so the lazy one's cache stays
   empty).  Every mixture here has a power-of-two number of equal
   components, so re-normalizing the eager copy's weights is exact.  The
   pairs in [cached] have their distribution requested before sampling,
   which makes the lazy sampler draw from the cached list. *)
let prop_lazy_mixture_sample_equals_eager =
  QCheck.Test.make ~name:"lazy mixture α-sample = eager α-sample" ~count:40
    QCheck.(triple (int_range 1 8) small_nat (int_bound 3))
    (fun (alpha, seed, backend) ->
      let build () =
        let rng = Rng.create (seed + 101) in
        match backend with
        | 0 -> Valiant.routing (Gen.hypercube 4)
        | 1 -> Valiant.generalized ~base:(Deterministic.shortest_path (Gen.torus 4 4))
        | 2 -> Trees.uniform rng ~count:4 (Gen.grid 4 4)
        | _ -> Racke.routing rng ~trees:4 (Gen.grid 4 4)
      in
      let lazy_obl = build () and other = build () in
      let g = Oblivious.graph other in
      let eager = Oblivious.make ~name:"eager" g (Oblivious.distribution other) in
      let pairs = all_pairs (Graph.n g) in
      let cached = List.filteri (fun i _ -> (i + seed) mod 3 = 0) pairs in
      List.iter (fun (s, t) -> ignore (Oblivious.distribution lazy_obl s t)) cached;
      let lazy_ps = Sampler.alpha_sample (Rng.create seed) lazy_obl ~alpha in
      let eager_ps = Sampler.alpha_sample (Rng.create seed) eager ~alpha in
      List.for_all
        (fun (s, t) ->
          List.equal Path.equal (Path_system.paths lazy_ps s t) (Path_system.paths eager_ps s t))
        pairs)

let prop_alpha_sample_always_sparse =
  QCheck.Test.make ~name:"α-samples are α-sparse" ~count:30
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, alpha) ->
      let g = Gen.grid 3 3 in
      let obl = Ksp.routing ~k:4 g in
      let rng = Rng.create seed in
      let ps = Sampler.alpha_sample rng obl ~alpha in
      Path_system.is_alpha_sparse ps ~alpha (all_pairs 9))

let prop_stage4_never_beats_unrestricted =
  QCheck.Test.make ~name:"cong_R(P,d) ≥ opt(d) under the exact solver" ~count:20
    QCheck.small_int
    (fun seed ->
      let g = Gen.grid 3 3 in
      let obl = Ksp.routing ~k:2 g in
      let rng = Rng.create seed in
      let ps = Sampler.alpha_sample rng obl ~alpha:2 in
      let d = Demand.random_pairs rng ~n:9 ~pairs:3 in
      let restricted = Semi_oblivious.congestion ~solver:Semi_oblivious.Lp g ps d in
      let unrestricted = (Sso_flow.Min_congestion.lp_unrestricted g d).congestion in
      restricted >= unrestricted -. 1e-6)

let prop_certified_never_beats_exact_stage4 =
  QCheck.Test.make ~name:"certified pipeline congestion ≥ exact Stage-4 optimum" ~count:10
    QCheck.small_int
    (fun seed ->
      let g = Gen.grid 3 3 in
      let obl = Ksp.routing ~k:3 g in
      let rng = Rng.create (seed + 77) in
      let ps = Sampler.alpha_cut_sample rng obl ~alpha:3 in
      let d = Demand.random_pairs rng ~n:9 ~pairs:3 in
      let _, pipeline = Sso_core.Theorem53.route ~gamma:10.0 ~alpha:3 g ps d in
      let exact = Semi_oblivious.congestion ~solver:Semi_oblivious.Lp g ps d in
      pipeline >= exact -. 1e-6)

let prop_weak_route_kept_within_gamma =
  QCheck.Test.make ~name:"weak_route's kept routing respects gamma" ~count:20
    QCheck.(pair small_int (float_range 0.5 4.0))
    (fun (seed, gamma) ->
      let g = Gen.grid 3 3 in
      let obl = Ksp.routing ~k:3 g in
      let rng = Rng.create seed in
      let ps = Sampler.alpha_sample rng obl ~alpha:3 in
      let d = Demand.random_pairs rng ~n:9 ~pairs:4 in
      let outcome = Process.weak_route ~gamma g ps d in
      match outcome.Process.kept_routing with
      | None -> true
      | Some r ->
          Routing.congestion g r outcome.Process.kept_demand <= gamma +. 1e-6)

let () =
  Alcotest.run "core"
    [
      ( "path system",
        [
          Alcotest.test_case "of_pairs" `Quick test_path_system_of_pairs;
          Alcotest.test_case "validates" `Quick test_path_system_validates;
          Alcotest.test_case "generator memoizes" `Quick test_path_system_generator_memoizes;
          Alcotest.test_case "union" `Quick test_path_system_union;
          Alcotest.test_case "restrict hops" `Quick test_path_system_restrict_hops;
          Alcotest.test_case "oblivious support" `Quick test_of_oblivious_support;
          Alcotest.test_case "tree-mixture support deduplicates" `Quick
            test_of_oblivious_support_tree_mixture;
          Alcotest.test_case "slice view matches paths" `Quick
            test_slice_view_matches_paths;
          Alcotest.test_case "arena 4x smaller than boxed paths" `Quick
            test_arena_smaller_than_boxed;
          Alcotest.test_case "preload checks before installing" `Quick
            test_path_system_preload;
          Alcotest.test_case "rejected lists install nothing" `Quick
            test_path_system_rejects_cleanly;
          Alcotest.test_case "check on both sides of the pairwise cutoff" `Quick
            test_path_system_check_cutoff;
          Alcotest.test_case "a raising generator frees the lock" `Quick
            test_path_system_generator_raises;
          Alcotest.test_case "materialize lays pairs out in first-occurrence order"
            `Quick test_materialize_layout;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "alpha sparsity" `Quick test_alpha_sample_sparsity;
          Alcotest.test_case "from support" `Quick test_alpha_sample_from_support;
          Alcotest.test_case "deterministic base" `Quick test_alpha_sample_deterministic_base;
          Alcotest.test_case "cnt and cut sample" `Quick test_cnt_and_cut_sample;
          Alcotest.test_case "reproducible" `Quick test_sample_reproducible;
          Alcotest.test_case "mixture sample goldens" `Quick test_mixture_sample_goldens;
          Alcotest.test_case "mixture routes only drawn components" `Quick
            test_mixture_routes_only_drawn;
        ] );
      ( "semi-oblivious",
        [
          Alcotest.test_case "adapts to demand" `Quick test_route_adapts_to_demand;
          Alcotest.test_case "mwu solver variant" `Quick test_mwu_solver_variant;
          Alcotest.test_case "solvers agree" `Slow test_congestion_solvers_agree;
          Alcotest.test_case "full support ≤ base" `Slow
            test_full_support_is_1_competitive_with_base;
          Alcotest.test_case "ratio ≥ 1 (exact)" `Quick
            test_competitive_ratio_at_least_one_with_lp;
          Alcotest.test_case "empty demand" `Quick test_empty_demand_ratio;
          Alcotest.test_case "Thm 2.3 shape (hypercube)" `Slow
            test_log_sample_competitive_on_hypercube;
          Alcotest.test_case "Thm 2.5 shape (monotone in α)" `Slow
            test_sparsity_monotonicity;
        ] );
      ( "integral",
        [
          Alcotest.test_case "upper is integral" `Slow test_integral_upper_is_integral;
          Alcotest.test_case "upper vs brute force" `Slow test_integral_upper_vs_brute_force;
          Alcotest.test_case "brute force known" `Quick test_brute_force_known;
          Alcotest.test_case "brute force validates" `Quick test_brute_force_forced_collision;
          Alcotest.test_case "Cor 6.4 bound" `Slow test_integral_rounding_bound_cor64;
        ] );
      ( "process (Lemma 5.6/5.8)",
        [
          Alcotest.test_case "weak route survives" `Slow test_weak_route_survives_on_good_sample;
          Alcotest.test_case "tight gamma deletes" `Quick test_weak_route_deletes_under_tight_gamma;
          Alcotest.test_case "loose gamma keeps" `Quick test_weak_route_keeps_everything_when_loose;
          Alcotest.test_case "halving routes all" `Slow test_route_by_halving_routes_everything;
        ] );
      ( "completion (Section 7)",
        [
          Alcotest.test_case "balanced tradeoff" `Quick
            test_completion_route_prefers_balanced_tradeoff;
          Alcotest.test_case "ladder hops" `Quick test_ladder_hops_cover_diameter;
          Alcotest.test_case "ladder system" `Slow test_ladder_system_feasible;
        ] );
      ( "special (Lemma 5.9)",
        [
          Alcotest.test_case "of support" `Quick test_special_of_support;
          Alcotest.test_case "buckets partition" `Quick test_buckets_partition;
        ] );
      ( "lower bound (Section 8)",
        [
          Alcotest.test_case "middles hit" `Quick test_middles_hit;
          Alcotest.test_case "attack 1-sparse" `Slow test_attack_on_1_sparse;
          Alcotest.test_case "attack vs sparsity" `Slow test_attack_weaker_on_sparse_samples;
          Alcotest.test_case "attack verified" `Slow test_attack_verified_measured_bound;
        ] );
      ( "extra",
        [
          Alcotest.test_case "sampler distribution" `Slow test_sampler_respects_base_distribution;
          Alcotest.test_case "sampler dedupes" `Quick test_sampler_dedupes_with_replacement;
          Alcotest.test_case "ladder geometric" `Quick test_completion_ladder_geometric;
          Alcotest.test_case "inner path no middles" `Quick
            test_lower_bound_middles_hit_empty_for_inner_path;
          Alcotest.test_case "opt lp exact" `Quick test_semi_oblivious_opt_lp_exact;
          Alcotest.test_case "optimum without a path" `Quick test_semi_oblivious_optimum_no_path;
          Alcotest.test_case "process deterministic" `Quick test_process_deterministic;
          Alcotest.test_case "bucket count logarithmic" `Quick
            test_certified_bucket_count_logarithmic;
        ] );
      ( "certified (Thm 5.3 pipeline)",
        [
          Alcotest.test_case "routes permutation" `Slow test_certified_routes_permutation;
          Alcotest.test_case "arbitrary demand" `Quick test_certified_arbitrary_demand;
          Alcotest.test_case "empty" `Quick test_certified_empty;
          Alcotest.test_case "single bucket" `Quick test_certified_single_bucket_for_uniform;
        ] );
      ( "theory",
        [
          Alcotest.test_case "sample competitiveness" `Quick
            test_theory_sample_competitiveness_monotone;
          Alcotest.test_case "failure probabilities" `Quick test_theory_failure_probabilities;
          Alcotest.test_case "bad patterns" `Quick test_theory_bad_patterns;
          Alcotest.test_case "rounding" `Quick test_theory_rounding_matches_lemma;
          Alcotest.test_case "sparsity shape" `Quick test_theory_sparsity_shape;
          Alcotest.test_case "trade-off consistency" `Quick test_theory_trade_off_consistency;
          Alcotest.test_case "gadget k" `Quick test_theory_gadget_k;
          Alcotest.test_case "kkt91" `Quick test_theory_kkt91;
          Alcotest.test_case "validates input" `Quick test_theory_validates_input;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "top paths" `Quick test_oracle_top_paths;
          Alcotest.test_case "beats sample" `Slow test_oracle_beats_or_matches_sample;
          Alcotest.test_case "covers demand only" `Quick test_oracle_only_covers_demand;
          Alcotest.test_case "lp keeps the optimum" `Quick test_oracle_lp_keeps_the_optimum;
        ] );
      ( "family graph (Lemma 8.2)",
        [
          Alcotest.test_case "attack in family" `Slow test_attack_in_family;
          Alcotest.test_case "unknown alpha" `Quick test_attack_in_family_unknown_alpha;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "without edge" `Quick test_without_edge_filters;
          Alcotest.test_case "filter by hops" `Quick test_filter_by_hops;
          Alcotest.test_case "redundancy survives" `Quick
            test_robustness_redundant_candidates_survive;
          Alcotest.test_case "single candidate strands" `Quick
            test_robustness_single_candidate_fails;
          Alcotest.test_case "bridge excluded" `Quick test_robustness_bridge_is_networks_fault;
          Alcotest.test_case "agrees with bridge analysis" `Quick
            test_robustness_agrees_with_bridges;
          Alcotest.test_case "degenerate summary is nan" `Quick
            test_robustness_summary_degenerate_is_nan;
          Alcotest.test_case "parallel edges share solves" `Quick
            test_robustness_parallel_edges_share_solves;
        ] );
      ( "auxiliary (Cor 6.2)",
        [
          Alcotest.test_case "terminal cuts" `Quick test_aux_terminal_cuts_are_one;
          Alcotest.test_case "congestion identity" `Quick test_aux_lifted_congestion_identity;
          Alcotest.test_case "projects to alpha" `Quick test_aux_sample_projects_to_alpha;
          Alcotest.test_case "deterministic identity" `Quick
            test_aux_deterministic_base_projects_identity;
          Alcotest.test_case "rejects diagonal" `Quick test_aux_rejects_diagonal;
          Alcotest.test_case "distribution matches direct sample" `Slow
            test_aux_distribution_matches_direct_sample;
        ] );
      ( "properties",
        List.map Support.to_alcotest
          [
            prop_alpha_sample_always_sparse;
            prop_stage4_never_beats_unrestricted;
            prop_certified_never_beats_exact_stage4;
            prop_weak_route_kept_within_gamma;
            prop_filter_views_match_boxed_filter;
            prop_lazy_mixture_sample_equals_eager;
          ] );
    ]
