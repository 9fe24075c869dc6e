(* Tests for the oblivious routings: Valiant, deterministic baselines,
   KSP spread, FRT embeddings, the Räcke-style construction, and the
   hop-constrained substitute. *)

module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Gen = Sso_graph.Gen
module Shortest = Sso_graph.Shortest
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Min_congestion = Sso_flow.Min_congestion
module Oblivious = Sso_oblivious.Oblivious
module Valiant = Sso_oblivious.Valiant
module Deterministic = Sso_oblivious.Deterministic
module Ksp = Sso_oblivious.Ksp
module Frt = Sso_oblivious.Frt
module Racke = Sso_oblivious.Racke
module Hop_constrained = Sso_oblivious.Hop_constrained
module Obs = Sso_obs.Obs
module Codec = Sso_artifact.Codec

let check_distribution_valid g obl pairs =
  List.iter
    (fun (s, t) ->
      let dist = Oblivious.distribution obl s t in
      Alcotest.(check bool) "non-empty" true (dist <> []);
      let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 dist in
      Alcotest.(check (float 1e-6)) "normalized" 1.0 total;
      List.iter
        (fun ((_, p) : float * Path.t) ->
          Alcotest.(check int) "src" s p.Path.src;
          Alcotest.(check int) "dst" t p.Path.dst;
          Alcotest.(check bool) "simple" true (Path.is_simple g p))
        dist)
    pairs

(* Oblivious wrapper *)

let test_wrapper_memoizes () =
  let g = Gen.cycle 5 in
  let calls = ref 0 in
  let obl =
    Oblivious.make ~name:"test" g (fun s t ->
        incr calls;
        match Shortest.bfs_path g s t with Some p -> [ (1.0, p) ] | None -> [])
  in
  ignore (Oblivious.distribution obl 0 2);
  ignore (Oblivious.distribution obl 0 2);
  Alcotest.(check int) "generator called once" 1 !calls

let test_wrapper_rejects_diagonal () =
  let g = Gen.cycle 5 in
  let obl = Deterministic.shortest_path g in
  Alcotest.check_raises "s = t" (Invalid_argument "Oblivious.distribution: s = t")
    (fun () -> ignore (Oblivious.distribution obl 1 1))

(* Valiant *)

let test_bitfix_path () =
  let g = Gen.hypercube 3 in
  let p = Valiant.bitfix_path g 0 7 in
  Alcotest.(check int) "three hops" 3 (Path.hops p);
  Alcotest.(check (array int)) "lowest bit first" [| 0; 1; 3; 7 |] (Path.vertices g p)

let test_valiant_valid () =
  let g = Gen.hypercube 3 in
  let obl = Valiant.routing g in
  check_distribution_valid g obl [ (0, 7); (1, 6); (2, 3) ]

let test_valiant_rejects_non_hypercube () =
  let g = Gen.cycle 5 in
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "Valiant: vertex count is not a power of two") (fun () ->
      ignore (Valiant.routing g))

let test_valiant_competitive_on_permutations () =
  (* Valiant's trick keeps expected congestion O(1) on permutations. *)
  let g = Gen.hypercube 5 in
  let obl = Valiant.routing g in
  let rng = Rng.create 7 in
  let worst = ref 0.0 in
  for _ = 1 to 3 do
    let d = Demand.random_permutation rng (Graph.n g) in
    worst := Float.max !worst (Oblivious.congestion obl d)
  done;
  Alcotest.(check bool) "bounded congestion" true (!worst <= 4.0)

let test_valiant_beats_ecube_on_bit_reversal () =
  (* The KKT91 separation: deterministic e-cube suffers Θ(√n) on
     bit-reversal, Valiant stays polylog. *)
  let d_dim = 6 in
  let g = Gen.hypercube d_dim in
  let demand = Demand.bit_reversal d_dim in
  let ecube_cong = Oblivious.congestion (Deterministic.ecube g) demand in
  let valiant_cong = Oblivious.congestion (Valiant.routing g) demand in
  Alcotest.(check bool)
    (Printf.sprintf "ecube %.1f >> valiant %.2f" ecube_cong valiant_cong)
    true
    (ecube_cong >= 2.0 *. valiant_cong);
  (* e-cube on bit reversal funnels 2^{d/2} packets through middle edges. *)
  Alcotest.(check bool) "ecube sqrt-n-ish" true (ecube_cong >= 4.0)

let test_generalized_valiant_matches_classic_shape () =
  (* On the hypercube, generalized Valiant over e-cube IS Valiant's trick. *)
  let g = Gen.hypercube 4 in
  let classic = Valiant.routing g in
  let general = Valiant.generalized ~base:(Deterministic.ecube g) in
  let d = Demand.bit_reversal 4 in
  let c1 = Oblivious.congestion classic d in
  let c2 = Oblivious.congestion general d in
  Alcotest.(check (float 1e-9)) "identical congestion" c1 c2

let test_generalized_valiant_on_torus () =
  (* Random-intermediate routing on a torus spreads the ring-shift load
     that dimension-order routing concentrates. *)
  let g = Gen.torus 4 4 in
  let base = Deterministic.xy_grid ~cols:4 (Gen.grid 4 4) in
  ignore base;
  let det = Deterministic.shortest_path g in
  let general = Valiant.generalized ~base:det in
  check_distribution_valid g general [ (0, 10); (3, 12) ];
  let d = Demand.ring_shift ~n:16 ~shift:8 in
  Alcotest.(check bool) "spreads at least as well" true
    (Oblivious.congestion general d <= Oblivious.congestion det d +. 1e-9)

(* Deterministic baselines *)

let test_ecube_single_path () =
  let g = Gen.hypercube 4 in
  let obl = Deterministic.ecube g in
  Alcotest.(check int) "1-sparse" 1 (Oblivious.support_sparsity obl [ (0, 15); (3, 12) ])

let test_shortest_path_routing () =
  let g = Gen.grid 3 3 in
  let obl = Deterministic.shortest_path g in
  check_distribution_valid g obl [ (0, 8); (2, 6) ];
  let dist = Oblivious.distribution obl 0 8 in
  List.iter (fun (_, p) -> Alcotest.(check int) "shortest" 4 (Path.hops p)) dist

let test_xy_grid_routing () =
  let g = Gen.grid 4 4 in
  let obl = Deterministic.xy_grid ~cols:4 g in
  check_distribution_valid g obl [ (0, 15); (3, 12); (5, 10) ];
  (* Row first, then column: 0 -> 3 -> 15. *)
  let _, p = List.hd (Oblivious.distribution obl 0 15) in
  Alcotest.(check (array int)) "row then column" [| 0; 1; 2; 3; 7; 11; 15 |]
    (Path.vertices g p)

let test_xy_grid_transpose_congestion () =
  (* XY routing on the transpose-like demand concentrates on the corners'
     rows/columns; a sampled semi-oblivious beats it. *)
  let side = 5 in
  let g = Gen.grid side side in
  let obl = Deterministic.xy_grid ~cols:side g in
  (* Transpose demand on the grid: (r,c) -> (c,r). *)
  let d =
    Demand.of_list
      (List.concat_map
         (fun r ->
           List.filter_map
             (fun c -> if r = c then None else Some ((r * side) + c, (c * side) + r, 1.0))
             (List.init side Fun.id))
         (List.init side Fun.id))
  in
  let xy_cong = Oblivious.congestion obl d in
  Alcotest.(check bool) "transpose hurts xy" true (xy_cong >= 3.0)

(* KSP *)

let test_ksp_spread () =
  let g = Gen.grid 3 3 in
  let obl = Ksp.routing ~k:4 g in
  let dist = Oblivious.distribution obl 0 8 in
  Alcotest.(check int) "four paths" 4 (List.length dist);
  List.iter (fun (w, _) -> Alcotest.(check (float 1e-9)) "uniform" 0.25 w) dist

let test_ksp_handles_scarce_paths () =
  let g = Gen.path_graph 4 in
  let obl = Ksp.routing ~k:5 g in
  Alcotest.(check int) "only one simple path" 1
    (List.length (Oblivious.distribution obl 0 3))

(* FRT *)

let unit_lengths g = Array.make (Graph.m g) 1.0

let test_frt_routes_valid () =
  (* Every route is an s->t walk [Path.of_edges] accepts, and simple —
     over every ordered pair of several topologies. *)
  List.iter
    (fun (name, g) ->
      let tree = Frt.build (Rng.create 3) g ~lengths:(unit_lengths g) in
      Alcotest.(check bool) "levels positive" true (Frt.levels tree >= 1);
      let n = Graph.n g in
      for s = 0 to n - 1 do
        for t = 0 to n - 1 do
          let p = Frt.route tree s t in
          let walk = Path.of_edges g ~src:s ~dst:t p.Path.edges in
          if not (Path.equal walk p && Path.is_simple g p) then
            Alcotest.failf "%s: route %d->%d is not a simple s-t walk" name s t
        done
      done)
    [
      ("grid 4x4", Gen.grid 4 4);
      ("fat-tree 4", Gen.fat_tree 4);
      ("hypercube 4", Gen.hypercube 4);
      ("random regular 40", Gen.random_regular (Rng.create 12) 40 3);
    ]

let test_frt_trivial_pair () =
  let rng = Rng.create 3 in
  let g = Gen.cycle 5 in
  let tree = Frt.build rng g ~lengths:(unit_lengths g) in
  Alcotest.(check int) "self route empty" 0 (Path.hops (Frt.route tree 2 2))

let test_frt_consistent_routing () =
  (* Same tree → same route every time (it is deterministic given the tree). *)
  let rng = Rng.create 11 in
  let g = Gen.grid 3 3 in
  let tree = Frt.build rng g ~lengths:(unit_lengths g) in
  let p1 = Frt.route tree 0 8 and p2 = Frt.route tree 0 8 in
  Alcotest.(check bool) "deterministic" true (Path.equal p1 p2)

let test_frt_stretch_reasonable () =
  (* Expected stretch is O(log n); check the average over pairs is modest
     for a fixed seed. *)
  let rng = Rng.create 5 in
  let g = Gen.grid 4 4 in
  let tree = Frt.build rng g ~lengths:(unit_lengths g) in
  let hops = Array.init (Graph.n g) (Shortest.bfs_dist g) in
  let total_stretch = ref 0.0 and count = ref 0 in
  for s = 0 to 15 do
    for t = 0 to 15 do
      if s <> t then begin
        let p = Frt.route tree s t in
        total_stretch := !total_stretch +. (float_of_int (Path.hops p) /. float_of_int hops.(s).(t));
        incr count
      end
    done
  done;
  let avg = !total_stretch /. float_of_int !count in
  Alcotest.(check bool) (Printf.sprintf "avg stretch %.2f" avg) true (avg <= 8.0)

let test_frt_rejects_disconnected () =
  let b = Graph.Builder.create 4 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 2 3);
  let g = Graph.Builder.build b in
  Alcotest.check_raises "disconnected"
    (Invalid_argument
       "Frt.build: graph is disconnected (vertex 2 is unreachable from \
        vertex 0)")
    (fun () -> ignore (Frt.build (Rng.create 1) g ~lengths:(unit_lengths g)))

let test_frt_checks_lengths () =
  (* Lengths are checked once, before the first ball: a NaN or negative
     one is refused in the build's words, and zero clamps. *)
  let g = Gen.grid 4 4 in
  let with_length l =
    let lengths = unit_lengths g in
    lengths.(3) <- l;
    Frt.build (Rng.create 1) g ~lengths
  in
  Alcotest.check_raises "NaN" (Invalid_argument "Frt.build: NaN edge length") (fun () ->
      ignore (with_length Float.nan));
  Alcotest.check_raises "negative" (Invalid_argument "Frt.build: negative edge length")
    (fun () -> ignore (with_length (-5.0)));
  let p = Frt.to_parts (with_length 0.0) in
  Alcotest.(check (float 0.0)) "zero clamps" 1e-9 p.Frt.p_lengths.(3);
  Alcotest.check_raises "size" (Invalid_argument "Frt.build: lengths size mismatch")
    (fun () -> ignore (Frt.build (Rng.create 1) g ~lengths:[| 1.0 |]))

let test_frt_allocation () =
  (* Bounds, not pins, on the k=24 fat-tree under non-uniform lengths
     (both warm).  When the kernel passed each settled vertex's distance
     and each relaxation's tentative distance to closures, one build
     allocated ~110,700 minor words and one ball pruned by FRT's
     earlier-center records ~15,300. *)
  let g = Gen.fat_tree 24 in
  let lengths = Array.init (Graph.m g) (fun e -> 1.0 +. (float_of_int ((e * 7) mod 5) /. 3.0)) in
  let words f =
    f ();
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let build = words (fun () -> ignore (Sys.opaque_identity (Frt.build (Rng.create 1) g ~lengths))) in
  Alcotest.(check bool) (Printf.sprintf "build: %.0f words <= 80000" build) true (build <= 80_000.0);
  let ws = Shortest.Workspace.for_current_domain () in
  let bound = Array.make (Graph.n g) infinity and sources = [| 5 |] in
  let ball =
    words (fun () ->
        Array.fill bound 0 (Graph.n g) infinity;
        Shortest.dijkstra_ball_into ws g ~weights:lengths ~radius:infinity ~bound ~sources ignore)
  in
  Alcotest.(check bool) (Printf.sprintf "ball: %.0f words <= 1000" ball) true (ball <= 1_000.0)

(* Digests over a forest's parts (lengths as raw float bits) and over the
   routes of every ordered pair in every tree. *)
let forest_parts_digest forest =
  let b = Buffer.create 65536 in
  let ints = Array.iter (fun x -> Printf.bprintf b "%d," x) in
  List.iter
    (fun tree ->
      let p = Frt.to_parts tree in
      Printf.bprintf b "L%d;" p.Frt.p_levels;
      Array.iter ints p.Frt.p_chain;
      Array.iter ints p.Frt.p_cluster_id;
      Array.iter
        (fun l -> Printf.bprintf b "%Lx," (Int64.bits_of_float l))
        p.Frt.p_lengths)
    forest;
  Digest.to_hex (Digest.string (Buffer.contents b))

let forest_routes_digest g forest =
  let b = Buffer.create 65536 in
  let n = Graph.n g in
  List.iter
    (fun tree ->
      for s = 0 to n - 1 do
        for t = 0 to n - 1 do
          Array.iter (fun e -> Printf.bprintf b "%d," e) (Frt.route tree s t).Path.edges;
          Buffer.add_char b ';'
        done
      done)
    forest;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_racke_fat_tree_golden () =
  (* Pinned from the segment-by-segment route and the table-backed tree
     loads that the single-erasure route and dense load sums replaced: the
     default forest on the k=8 fat-tree, and every route through it. *)
  let g = Gen.fat_tree 8 in
  let forest = Racke.forest (Rng.create 1) g in
  Alcotest.(check int) "default tree count" 18 (List.length forest);
  Alcotest.(check string) "parts digest" "2faeb7a5d4ec77e4043072af8af05a56"
    (forest_parts_digest forest);
  Alcotest.(check string) "routes digest" "6475b718e7307d1cc9e8dd7cf86a9e62"
    (forest_routes_digest g forest)

let test_racke_fat_tree_24_golden () =
  (* The forest the fattree-install benchmark builds (k=24, default tree
     count, the workload's seed-1 RNG child), pinned with the per-route
     walk arrays and the sorted chunk merge that the streamed routes and
     the chunk-order merge replaced: its parts and every tree's loads,
     as raw float bits. *)
  let g = Gen.fat_tree 24 in
  let forest = Racke.forest (Rng.split_at (Rng.create 1) 0) g in
  Alcotest.(check int) "default tree count" 24 (List.length forest);
  Alcotest.(check string) "parts digest" "bb154ad68eaf7a864a4ab571612c285f"
    (forest_parts_digest forest);
  let b = Buffer.create 65536 in
  List.iter
    (fun tree ->
      Array.iter
        (fun l -> Printf.bprintf b "%Lx," (Int64.bits_of_float l))
        (Racke.tree_loads g tree);
      Buffer.add_char b ';')
    forest;
  Alcotest.(check string) "tree-load digest" "675cf49a9d7840215cb4be3df8bc756e"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* The load pass as it stood with a materialized path per route: 64 fixed
   edge chunks, each summing its routes' capacities per edge and emitting
   its touched edges sorted by id as (edge, partial) pairs, merged in
   chunk order. *)
let reference_tree_loads g tree =
  let m = Graph.m g in
  let loads = Array.make m 0.0 in
  let edges = Graph.edges g in
  let chunks = min 64 m in
  for k = 0 to chunks - 1 do
    let lo = k * m / chunks and hi = (k + 1) * m / chunks in
    let sums = Array.make m 0.0 and touched = ref [] in
    for idx = lo to hi - 1 do
      let e : Graph.edge = edges.(idx) in
      Array.iter
        (fun e' ->
          if sums.(e') = 0.0 then touched := e' :: !touched;
          sums.(e') <- sums.(e') +. e.cap)
        (Frt.route tree e.u e.v).Path.edges
    done;
    List.sort Int.compare !touched
    |> List.map (fun e' -> (e', sums.(e')))
    |> List.iter (fun (e', partial) -> loads.(e') <- loads.(e') +. partial)
  done;
  Array.mapi (fun e load -> load /. Graph.cap g e) loads

(* [g] with capacities drawn from [0.1, 3.1): sums of such partials round,
   so they depend on the order in which they are added. *)
let with_fractional_caps rng g =
  let b = Graph.Builder.create (Graph.n g) in
  Graph.fold_edges
    (fun _ u v _ () ->
      ignore (Graph.Builder.add_edge ~cap:(0.1 +. (Rng.float rng *. 3.0)) b u v))
    g ();
  Graph.Builder.build b

let test_tree_loads_scratch_and_jobs () =
  (* Dense per-domain sums: bit-identical to the reference pass at 1 and
     4 jobs and across back-to-back calls (each chunk leaves its scratch
     zeroed), on graphs with fewer than 64 edges and with m not a multiple
     of 64. *)
  let bits a = Array.map Int64.bits_of_float a in
  let loads jobs g tree = Support.with_jobs jobs (fun () -> bits (Racke.tree_loads g tree)) in
  List.iter
    (fun (name, g) ->
      let lengths = Array.init (Graph.m g) (fun e -> 1.0 +. (float_of_int ((e * 7) mod 5) /. 3.0)) in
      let tree = Frt.build (Rng.create 21) g ~lengths in
      let want = bits (reference_tree_loads g tree) in
      let serial = loads 1 g tree in
      let again = loads 1 g tree in
      let par = loads 4 g tree in
      Alcotest.(check bool) (name ^ ": jobs 1 = reference") true (serial = want);
      Alcotest.(check bool) (name ^ ": back-to-back identical") true (serial = again);
      Alcotest.(check bool) (name ^ ": jobs 4 = reference") true (par = want))
    [
      ("cycle 6 (m=6)", Gen.cycle 6);
      ("grid 5x5 (m=40)", Gen.grid 5 5);
      ("hypercube 5 (m=80)", Gen.hypercube 5);
      ("grid 9x9 (m=144)", Gen.grid 9 9);
      ("fat-tree 8", Gen.fat_tree 8);
      ("two cliques 7", Gen.two_cliques 7);
      ("grid 9x9, fractional caps", with_fractional_caps (Rng.create 10) (Gen.grid 9 9));
      ( "random 3-regular 200, fractional caps",
        with_fractional_caps (Rng.create 11) (Gen.random_regular (Rng.create 12) 200 3) );
    ]

(* Structurally damaged parts: each violation [route] relies on is refused
   by [of_parts]. *)
let test_frt_of_parts_rejects_bad_structure () =
  let g = Gen.grid 4 4 in
  let n = Graph.n g in
  let tree = Frt.build (Rng.create 5) g ~lengths:(unit_lengths g) in
  let levels = Frt.levels tree in
  let damaged what reason damage =
    let p = Frt.to_parts tree in
    damage p;
    match Frt.of_parts g p with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument msg ->
        Alcotest.(check string) what ("Frt.of_parts: " ^ reason) msg
  in
  ignore (Frt.of_parts g (Frt.to_parts tree));
  damaged "level-0 ids collapsed" "level-0 cluster ids repeat" (fun p ->
      Array.iter (fun row -> row.(0) <- 0) p.Frt.p_cluster_id);
  damaged "level-0 center moved" "level-0 cluster not centered at its vertex"
    (fun p -> p.Frt.p_chain.(0).(0) <- 1);
  let top = "more than one top-level cluster or center" in
  damaged "second top cluster" top (fun p ->
      p.Frt.p_cluster_id.(n - 1).(levels) <- p.Frt.p_cluster_id.(n - 1).(levels) + 1000);
  damaged "second top center" top (fun p ->
      let c = p.Frt.p_chain.(0).(levels) in
      p.Frt.p_chain.(n - 1).(levels) <- (c + 1) mod n);
  (* Nesting: find two vertices in different level-i clusters.  Merging
     v's level-i cluster id into w's without its center breaks "shared
     cluster, shared center"; merging id and center while v and w sit in
     different level-(i+1) clusters breaks "shared parent". *)
  let p0 = Frt.to_parts tree in
  let cid = p0.Frt.p_cluster_id and chain = p0.Frt.p_chain in
  let find pred =
    let found = ref None in
    for i = 1 to levels - 1 do
      for v = 0 to n - 1 do
        for w = 0 to n - 1 do
          if !found = None && cid.(v).(i) <> cid.(w).(i) && pred i v w then
            found := Some (i, v, w)
        done
      done
    done;
    match !found with Some x -> x | None -> Alcotest.fail "no fixture pair"
  in
  let i, v, w = find (fun i v w -> chain.(v).(i) <> chain.(w).(i)) in
  damaged "shared cluster, two centers" "clusters do not nest" (fun p ->
      p.Frt.p_cluster_id.(v).(i) <- cid.(w).(i));
  let i, v, w = find (fun i v w -> cid.(v).(i + 1) <> cid.(w).(i + 1)) in
  damaged "shared cluster, two parents" "clusters do not nest" (fun p ->
      p.Frt.p_cluster_id.(v).(i) <- cid.(w).(i);
      p.Frt.p_chain.(v).(i) <- chain.(w).(i))

let test_frt_segment_index_fills () =
  (* The segment index fills lazily, from pool workers and in whatever
     order pairs are routed; none of that may change a route or a load.
     Fresh trees keep the index cold, so jobs 4 races its fills. *)
  let bits a = Array.map Int64.bits_of_float a in
  List.iter
    (fun (name, g) ->
      let lengths = Array.init (Graph.m g) (fun e -> 1.0 +. float_of_int (e mod 3)) in
      let build () = Frt.build (Rng.create 31) g ~lengths in
      let loads jobs =
        Support.with_jobs jobs (fun () -> bits (Racke.tree_loads g (build ())))
      in
      Alcotest.(check bool) (name ^ ": cold-index loads, jobs 1 = jobs 4") true
        (loads 1 = loads 4);
      let n = Graph.n g in
      let pairs = List.init (n * n) (fun k -> (k / n, k mod n)) in
      let tree = build () in
      let forward = List.map (fun (s, t) -> Frt.route tree s t) pairs in
      let rebuilt = Frt.of_parts g (Frt.to_parts (build ())) in
      let backward =
        List.rev_map (fun (s, t) -> Frt.route rebuilt s t) (List.rev pairs)
      in
      Alcotest.(check bool) (name ^ ": of_parts, reverse order, same routes") true
        (List.for_all2 Path.equal forward backward))
    [
      ("fat-tree 4", Gen.fat_tree 4);
      ("grid 5x5", Gen.grid 5 5);
      ("random 3-regular 30", Gen.random_regular (Rng.create 8) 30 3);
    ]

(* Räcke *)

let test_racke_valid () =
  let rng = Rng.create 13 in
  let g = Gen.grid 3 3 in
  let obl = Racke.routing rng ~trees:6 g in
  check_distribution_valid g obl [ (0, 8); (1, 7); (3, 5) ]

let test_racke_support_bounded_by_trees () =
  let rng = Rng.create 13 in
  let g = Gen.grid 3 3 in
  let obl = Racke.routing rng ~trees:5 g in
  Alcotest.(check bool) "support ≤ trees" true
    (Oblivious.support_sparsity obl [ (0, 8) ] <= 5)

let test_racke_competitive_small () =
  (* On a 3x3 grid with a handful of demands, Räcke should stay within a
     moderate factor of optimal. *)
  let rng = Rng.create 17 in
  let g = Gen.grid 3 3 in
  let obl = Racke.routing rng g in
  let d = Demand.of_list [ (0, 8, 1.0); (2, 6, 1.0); (1, 7, 1.0) ] in
  let cong = Oblivious.congestion obl d in
  let opt = snd (Min_congestion.lp_unrestricted g d) in
  Alcotest.(check bool)
    (Printf.sprintf "racke %.2f vs opt %.2f" cong opt)
    true
    (cong <= 8.0 *. opt)

let test_racke_spreads_on_two_cliques () =
  (* On the two-cliques gadget a capacity-aware routing must spread the
     cross traffic over many bridge edges; a single shortest path cannot. *)
  let rng = Rng.create 19 in
  let n = 6 in
  let g = Gen.two_cliques n in
  let obl = Racke.routing rng g in
  let d = Demand.single_pair 0 (n + 1) (float_of_int n) in
  let racke_cong = Oblivious.congestion obl d in
  let det_cong = Oblivious.congestion (Deterministic.shortest_path g) d in
  Alcotest.(check bool)
    (Printf.sprintf "racke %.2f < deterministic %.2f" racke_cong det_cong)
    true (racke_cong < det_cong)

let test_tree_loads_positive () =
  let rng = Rng.create 23 in
  let g = Gen.cycle 6 in
  let tree = Frt.build rng g ~lengths:(unit_lengths g) in
  let loads = Racke.tree_loads g tree in
  Alcotest.(check int) "per edge" (Graph.m g) (Array.length loads);
  Alcotest.(check bool) "some edge carries load" true
    (Array.exists (fun l -> l > 0.0) loads)

(* Spanning-tree routings *)

module Trees = Sso_oblivious.Trees
module Tree = Sso_graph.Tree

let test_single_tree_routing_valid () =
  let g = Gen.grid 3 3 in
  let tree = Tree.bfs_tree g 4 in
  let obl = Trees.single g tree in
  check_distribution_valid g obl [ (0, 8); (2, 6) ];
  Alcotest.(check int) "1-sparse" 1 (Oblivious.support_sparsity obl [ (0, 8) ])

let test_single_tree_congests () =
  (* On a cycle, tree routing must send some adjacent pair the long way
     around or funnel everything through shared edges: routing the full
     rotation costs more than the optimal 1. *)
  let g = Gen.cycle 8 in
  let tree = Tree.bfs_tree g 0 in
  let obl = Trees.single g tree in
  let d = Demand.ring_shift ~n:8 ~shift:1 in
  Alcotest.(check bool) "tree pays" true (Oblivious.congestion obl d >= 2.0)

let test_uniform_trees_routing_valid () =
  let rng = Rng.create 29 in
  let g = Gen.grid 3 3 in
  let obl = Trees.uniform rng ~count:5 g in
  check_distribution_valid g obl [ (0, 8); (3, 5) ];
  Alcotest.(check bool) "support ≤ trees" true
    (Oblivious.support_sparsity obl [ (0, 8) ] <= 5)

let test_uniform_trees_beat_single () =
  let rng = Rng.create 31 in
  let g = Gen.torus 4 4 in
  let single = Trees.single g (Tree.bfs_tree g 0) in
  let mixture = Trees.uniform rng ~count:8 g in
  let d = Demand.ring_shift ~n:16 ~shift:5 in
  Alcotest.(check bool) "mixture spreads better" true
    (Oblivious.congestion mixture d <= Oblivious.congestion single d)

(* Hop-constrained *)

let test_hop_constrained_respects_budget () =
  let g = Gen.grid 4 4 in
  let h = 6 in
  let obl = Hop_constrained.routing ~max_hops:h g in
  List.iter
    (fun (s, t) ->
      List.iter
        (fun (_, p) ->
          Alcotest.(check bool) "within stretched budget" true (Path.hops p <= 2 * h))
        (Oblivious.distribution obl s t))
    [ (0, 15); (3, 12); (0, 5) ]

let test_hop_constrained_diverse () =
  (* On multi_path [3;3;3] the three disjoint routes should all appear. *)
  let g = Gen.multi_path [ 3; 3; 3 ] in
  let obl = Hop_constrained.routing ~max_hops:3 g in
  let dist = Oblivious.distribution obl 0 1 in
  Alcotest.(check int) "three disjoint routes found" 3 (List.length dist)

let test_hop_constrained_unreachable () =
  (* 0 -> 5 takes 5 hops, past the budget of 2 · 2. *)
  let g = Gen.path_graph 6 in
  let obl = Hop_constrained.routing ~max_hops:2 g in
  Alcotest.(check bool) "raises for unreachable pair" true
    (try
       ignore (Oblivious.distribution obl 0 5);
       false
     with Invalid_argument _ -> true)

(* Extra coverage *)

let test_valiant_support_bounded () =
  let g = Gen.hypercube 4 in
  let obl = Valiant.routing g in
  let dist = Oblivious.distribution obl 0 15 in
  (* One path per intermediate, before dedup: at most n. *)
  Alcotest.(check bool) "support <= n" true (List.length dist <= 16);
  Alcotest.(check bool) "support substantial" true (List.length dist >= 8)

let test_racke_deterministic_given_seed () =
  let g = Gen.grid 3 3 in
  let r1 = Racke.routing (Rng.create 5) ~trees:4 g in
  let r2 = Racke.routing (Rng.create 5) ~trees:4 g in
  let d1 = Oblivious.distribution r1 0 8 and d2 = Oblivious.distribution r2 0 8 in
  Alcotest.(check int) "same support size" (List.length d1) (List.length d2);
  List.iter2
    (fun (w1, p1) (w2, p2) ->
      Alcotest.(check (float 1e-12)) "same weight" w1 w2;
      Alcotest.(check bool) "same path" true (Path.equal p1 p2))
    d1 d2

let test_frt_levels_bounded () =
  (* Levels ~ log2(diameter) + O(1) with unit lengths. *)
  let rng = Rng.create 9 in
  let g = Gen.grid 5 5 in
  let tree = Frt.build rng g ~lengths:(unit_lengths g) in
  Alcotest.(check bool) "levels sane" true (Frt.levels tree >= 3 && Frt.levels tree <= 8)

let test_hop_constrained_path_count_bounded () =
  let g = Gen.grid 4 4 in
  let obl = Hop_constrained.routing ~max_hops:6 g in
  Alcotest.(check bool) "at most 8 paths" true
    (List.length (Oblivious.distribution obl 0 15) <= 8)

let test_ecube_is_shortest_on_cube () =
  let g = Gen.hypercube 4 in
  let obl = Deterministic.ecube g in
  for t = 1 to 15 do
    let _, p = List.hd (Oblivious.distribution obl 0 t) in
    (* e-cube paths have exactly popcount(t) hops from vertex 0. *)
    let rec popcount v = if v = 0 then 0 else (v land 1) + popcount (v lsr 1) in
    Alcotest.(check int) "greedy is shortest" (popcount t) (Path.hops p)
  done

let test_racke_forest_rejects_bad_counts () =
  let g = Gen.grid 3 3 in
  Alcotest.check_raises "no trees"
    (Invalid_argument "Racke.forest: need at least one tree") (fun () ->
      ignore (Racke.forest (Rng.create 1) ~trees:0 g))

let test_frt_forest_jobs_invariant () =
  (* Bit-identical forests at any job count: FRT builds are serial, so
     this checks the one fan-out left in the construction — the
     tree-load edge chunks, whose sums set the next round's lengths. *)
  let g = Gen.random_regular (Rng.create 51) 1000 4 in
  let build jobs = Support.with_jobs jobs (fun () -> Racke.forest (Rng.create 52) ~trees:5 g) in
  let f1 = build 1 and f4 = build 4 in
  Alcotest.(check bool) "forests bit-identical across job counts" true
    (List.map Frt.to_parts f1 = List.map Frt.to_parts f4)

(* Pins of the shortest-path-based routings, recorded before their
   searches moved to flat weight arrays: FNV digests over every ordered
   pair's full support (weights as raw float bits, then path edges). *)
let support_digest g obl =
  let b = Buffer.create 65536 in
  let n = Graph.n g in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t then begin
        List.iter
          (fun (w, (p : Path.t)) ->
            Printf.bprintf b "%Lx:" (Int64.bits_of_float w);
            Array.iter (fun e -> Printf.bprintf b "%d," e) p.Path.edges;
            Buffer.add_char b '|')
          (Oblivious.distribution obl s t);
        Buffer.add_char b ';'
      end
    done
  done;
  Codec.hex_of_key (Codec.fnv1a64 (Buffer.contents b))

let test_ksp_golden () =
  let g = Gen.grid 4 5 in
  Alcotest.(check string) "support digest" "7c65dff3f3fa9024"
    (support_digest g (Ksp.routing ~k:4 g))

let test_hop_constrained_golden () =
  let g = with_fractional_caps (Rng.create 62) (Gen.random_regular (Rng.create 61) 20 3) in
  Alcotest.(check string) "support digest" "9ec5a83306d7356b"
    (support_digest g (Hop_constrained.routing ~max_hops:3 g))

let test_frt_golden () =
  (* One tree under non-uniform lengths: its parts and every route. *)
  let g = Gen.random_regular (Rng.create 71) 60 4 in
  let lr = Rng.create 72 in
  let lengths = Array.init (Graph.m g) (fun _ -> 0.1 +. (Rng.float lr *. 4.0)) in
  let tree = Frt.build (Rng.create 73) g ~lengths in
  let b = Buffer.create 65536 in
  let p = Frt.to_parts tree in
  let ints = Array.iter (fun x -> Printf.bprintf b "%d," x) in
  Printf.bprintf b "L%d;" p.Frt.p_levels;
  Array.iter ints p.Frt.p_chain;
  Array.iter ints p.Frt.p_cluster_id;
  Array.iter (fun l -> Printf.bprintf b "%Lx," (Int64.bits_of_float l)) p.Frt.p_lengths;
  for s = 0 to Graph.n g - 1 do
    for t = 0 to Graph.n g - 1 do
      ints (Frt.route tree s t).Path.edges;
      Buffer.add_char b ';'
    done
  done;
  Alcotest.(check string) "parts and routes digest" "8ba0b5e34908b653"
    (Codec.hex_of_key (Codec.fnv1a64 (Buffer.contents b)))

(* Cross-cutting properties *)

(* Executable spec for Frt.build: the historical all-pairs construction —
   full distance matrix, per-vertex scan of the permutation for the first
   center within the level radius.  Replays the exact draw order and
   arithmetic of the ball-growing build, so chains and cluster ids must
   match it bitwise. *)
let reference_frt_parts seed g ~lengths =
  let n = Graph.n g in
  let rng = Rng.create seed in
  let clamped = Array.map (Float.max 1e-9) lengths in
  let ws = Shortest.Workspace.for_current_domain () in
  let dist =
    Array.init n (fun s ->
        Shortest.dijkstra_ball_into ws g ~weights:clamped ~radius:infinity ~sources:[| s |] ignore;
        Array.init n (Shortest.Workspace.dist ws))
  in
  let delta = Array.fold_left Float.min infinity clamped in
  (* The build shortcuts delta_min to the minimum clamped edge length;
     check that against the real minimum pairwise distance. *)
  let min_pair = ref infinity in
  for s = 0 to n - 1 do
    for t = 0 to n - 1 do
      if s <> t && dist.(s).(t) < !min_pair then min_pair := dist.(s).(t)
    done
  done;
  assert (!min_pair = delta);
  let ecc src =
    let best = ref 0.0 and far = ref src in
    for v = 0 to n - 1 do
      if dist.(src).(v) > !best then begin
        best := dist.(src).(v);
        far := v
      end
    done;
    (!best, !far)
  in
  let diameter_ub =
    if n <= 1 then 0.0
    else
      let ecc0, far = ecc 0 in
      let ecc1, _ = ecc far in
      2.0 *. Float.min ecc0 ecc1
  in
  let diameter = diameter_ub /. delta in
  let beta = 1.0 +. Rng.float rng in
  let levels =
    let rec go i r = if r >= diameter then i else go (i + 1) (r *. 2.0) in
    go 1 beta
  in
  let pi = Rng.permutation rng n in
  let chain = Array.init n (fun v -> Array.make (levels + 1) v) in
  let cluster_id = Array.init n (fun v -> Array.make (levels + 1) v) in
  let next_id = ref n in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let top_id = fresh () in
  for v = 0 to n - 1 do
    chain.(v).(levels) <- pi.(0);
    cluster_id.(v).(levels) <- top_id
  done;
  for i = levels - 1 downto 1 do
    let radius = beta *. Float.pow 2.0 (float_of_int (i - 1)) *. delta in
    for v = 0 to n - 1 do
      let rec first k =
        if dist.(pi.(k)).(v) <= radius then pi.(k) else first (k + 1)
      in
      chain.(v).(i) <- first 0
    done;
    let ids = Hashtbl.create 64 in
    for v = 0 to n - 1 do
      let key = (cluster_id.(v).(i + 1), chain.(v).(i)) in
      let id =
        match Hashtbl.find_opt ids key with
        | Some id -> id
        | None ->
            let id = fresh () in
            Hashtbl.add ids key id;
            id
      in
      cluster_id.(v).(i) <- id
    done
  done;
  (levels, chain, cluster_id)

let prop_frt_ball_growing_matches_all_pairs =
  QCheck.Test.make
    ~name:"ball-growing FRT equals the all-pairs construction" ~count:25
    QCheck.small_int (fun seed ->
      let g =
        if seed mod 2 = 0 then Gen.grid 4 4
        else Gen.erdos_renyi (Rng.create (seed + 900)) 14 0.35
      in
      if not (Graph.is_connected g) then true
      else begin
        let lr = Rng.create (seed + 1000) in
        let lengths = Array.init (Graph.m g) (fun _ -> Rng.float lr *. 3.0) in
        let tree = Frt.build (Rng.create seed) g ~lengths in
        let parts = Frt.to_parts tree in
        let levels, chain, cluster_id = reference_frt_parts seed g ~lengths in
        parts.Frt.p_levels = levels
        && parts.Frt.p_chain = chain
        && parts.Frt.p_cluster_id = cluster_id
      end)

let prop_iter_route_matches_route =
  (* The streamed route visits exactly the routed path's edges, in order,
     on random connected graphs under random lengths, for every ordered
     pair including s = d; the tree is fresh, so streaming also fills the
     segment index that [route] then reads. *)
  QCheck.Test.make ~name:"iter_route visits route's edges in order" ~count:40
    QCheck.small_int (fun seed ->
      let gr = Rng.create (seed + 2000) in
      let g =
        match seed mod 3 with
        | 0 -> Gen.random_regular gr (8 + (2 * Rng.int gr 8)) 3
        | 1 -> Gen.erdos_renyi gr (6 + Rng.int gr 14) 0.3
        | _ -> Gen.grid (2 + Rng.int gr 4) (2 + Rng.int gr 4)
      in
      if not (Graph.is_connected g) then true
      else begin
        let lengths = Array.init (Graph.m g) (fun _ -> 0.1 +. (Rng.float gr *. 4.0)) in
        let tree = Frt.build (Rng.create seed) g ~lengths in
        let n = Graph.n g in
        let ok = ref true in
        for s = 0 to n - 1 do
          for d = 0 to n - 1 do
            let seen = ref [] in
            Frt.iter_route tree s d (fun e -> seen := e :: !seen);
            let streamed = Array.of_list (List.rev !seen) in
            if streamed <> (Frt.route tree s d).Path.edges then ok := false
          done
        done;
        !ok
      end)

let prop_sample_matches_support =
  QCheck.Test.make ~name:"samples always come from the declared support" ~count:40
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.grid 3 3 in
      let obl = Ksp.routing ~k:3 g in
      let s = Rng.int rng 9 in
      let t = (s + 1 + Rng.int rng 8) mod 9 in
      if s = t then true
      else begin
        let support = List.map snd (Oblivious.distribution obl s t) in
        let p = Oblivious.sampler obl s t rng in
        List.exists (Path.equal p) support
      end)

let prop_to_routing_congestion_matches =
  QCheck.Test.make ~name:"Oblivious.congestion agrees with Routing.congestion" ~count:30
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.grid 3 3 in
      let obl = Ksp.routing ~k:2 g in
      let d = Demand.random_pairs rng ~n:9 ~pairs:4 in
      let via_routing =
        Routing.congestion g
          (Routing.make
             (List.map (fun (s, t) -> ((s, t), Oblivious.distribution obl s t)) (Demand.support d)))
          d
      in
      Float.abs (Oblivious.congestion obl d -. via_routing) < 1e-9)

let () =
  Alcotest.run "oblivious"
    [
      ( "wrapper",
        [
          Alcotest.test_case "memoizes" `Quick test_wrapper_memoizes;
          Alcotest.test_case "rejects diagonal" `Quick test_wrapper_rejects_diagonal;
        ] );
      ( "valiant",
        [
          Alcotest.test_case "bitfix path" `Quick test_bitfix_path;
          Alcotest.test_case "valid distributions" `Quick test_valiant_valid;
          Alcotest.test_case "rejects non-hypercube" `Quick test_valiant_rejects_non_hypercube;
          Alcotest.test_case "competitive on permutations" `Slow
            test_valiant_competitive_on_permutations;
          Alcotest.test_case "beats ecube on bit reversal" `Slow
            test_valiant_beats_ecube_on_bit_reversal;
          Alcotest.test_case "generalized = classic on cube" `Quick
            test_generalized_valiant_matches_classic_shape;
          Alcotest.test_case "generalized on torus" `Quick test_generalized_valiant_on_torus;
        ] );
      ( "deterministic",
        [
          Alcotest.test_case "ecube 1-sparse" `Quick test_ecube_single_path;
          Alcotest.test_case "shortest path" `Quick test_shortest_path_routing;
          Alcotest.test_case "xy grid" `Quick test_xy_grid_routing;
          Alcotest.test_case "xy transpose congestion" `Quick
            test_xy_grid_transpose_congestion;
        ] );
      ( "ksp",
        [
          Alcotest.test_case "spread" `Quick test_ksp_spread;
          Alcotest.test_case "scarce paths" `Quick test_ksp_handles_scarce_paths;
          Alcotest.test_case "golden" `Quick test_ksp_golden;
        ] );
      ( "frt",
        [
          Alcotest.test_case "routes valid" `Quick test_frt_routes_valid;
          Alcotest.test_case "trivial pair" `Quick test_frt_trivial_pair;
          Alcotest.test_case "consistent" `Quick test_frt_consistent_routing;
          Alcotest.test_case "stretch reasonable" `Quick test_frt_stretch_reasonable;
          Alcotest.test_case "rejects disconnected" `Quick test_frt_rejects_disconnected;
          Alcotest.test_case "segment index fills" `Quick test_frt_segment_index_fills;
          Alcotest.test_case "of_parts rejects bad structure" `Quick
            test_frt_of_parts_rejects_bad_structure;
          Alcotest.test_case "golden" `Quick test_frt_golden;
          Alcotest.test_case "checks lengths" `Quick test_frt_checks_lengths;
          Alcotest.test_case "allocation" `Quick test_frt_allocation;
        ] );
      ( "racke",
        [
          Alcotest.test_case "valid" `Quick test_racke_valid;
          Alcotest.test_case "support bounded" `Quick test_racke_support_bounded_by_trees;
          Alcotest.test_case "competitive small" `Slow test_racke_competitive_small;
          Alcotest.test_case "spreads on two cliques" `Slow test_racke_spreads_on_two_cliques;
          Alcotest.test_case "tree loads" `Quick test_tree_loads_positive;
          Alcotest.test_case "tree loads scratch and jobs" `Quick
            test_tree_loads_scratch_and_jobs;
          Alcotest.test_case "fat-tree golden" `Quick test_racke_fat_tree_golden;
          Alcotest.test_case "fat-tree k=24 golden" `Quick test_racke_fat_tree_24_golden;
          Alcotest.test_case "forest jobs invariant" `Quick
            test_frt_forest_jobs_invariant;
          Alcotest.test_case "forest rejects bad counts" `Quick
            test_racke_forest_rejects_bad_counts;
        ] );
      ( "trees",
        [
          Alcotest.test_case "single valid" `Quick test_single_tree_routing_valid;
          Alcotest.test_case "single congests" `Quick test_single_tree_congests;
          Alcotest.test_case "uniform valid" `Quick test_uniform_trees_routing_valid;
          Alcotest.test_case "mixture beats single" `Quick test_uniform_trees_beat_single;
        ] );
      ( "hop constrained",
        [
          Alcotest.test_case "respects budget" `Quick test_hop_constrained_respects_budget;
          Alcotest.test_case "diverse" `Quick test_hop_constrained_diverse;
          Alcotest.test_case "unreachable" `Quick test_hop_constrained_unreachable;
          Alcotest.test_case "golden" `Quick test_hop_constrained_golden;
        ] );
      ( "extra",
        [
          Alcotest.test_case "valiant support" `Quick test_valiant_support_bounded;
          Alcotest.test_case "racke deterministic" `Quick test_racke_deterministic_given_seed;
          Alcotest.test_case "frt levels" `Quick test_frt_levels_bounded;
          Alcotest.test_case "hop-constrained count" `Quick
            test_hop_constrained_path_count_bounded;
          Alcotest.test_case "ecube shortest" `Quick test_ecube_is_shortest_on_cube;
        ] );
      ( "properties",
        List.map Support.to_alcotest
          [
            prop_frt_ball_growing_matches_all_pairs;
            prop_iter_route_matches_route;
            prop_sample_matches_support;
            prop_to_routing_congestion_matches;
          ] );
    ]
