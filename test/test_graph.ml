(* Tests for the graph substrate: construction, shortest paths, k-shortest
   paths, max-flow/min-cut, matching, generators, serialization. *)

module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Shortest = Sso_graph.Shortest
module Yen = Sso_graph.Yen
module Maxflow = Sso_graph.Maxflow
module Matching = Sso_graph.Matching
module Gen = Sso_graph.Gen
module Gio = Sso_graph.Gio
module Arena = Sso_graph.Arena

let degree g v = Array.length (Graph.adj g v)
let arena_edges a i = Arena.suffix_edges a i ~from_hop:0

(* Center 0 joined to leaves 1..n. *)
let star_graph n =
  let b = Graph.Builder.create (n + 1) in
  for leaf = 1 to n do
    ignore (Graph.Builder.add_edge b 0 leaf)
  done;
  Graph.Builder.build b

let triangle () =
  let b = Graph.Builder.create 3 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 1 2);
  ignore (Graph.Builder.add_edge b 0 2);
  Graph.Builder.build b

(* Graph basics *)

let test_builder_basics () =
  let g = triangle () in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check (pair int int)) "endpoints" (0, 1) (Graph.endpoints g 0);
  Alcotest.(check int) "other end" 1 (Graph.other_end g 0 0);
  Alcotest.(check int) "degree" 2 (degree g 1);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_builder_rejects_self_loop () =
  let b = Graph.Builder.create 2 in
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph.Builder.add_edge: self-loop")
    (fun () -> ignore (Graph.Builder.add_edge b 1 1))

let test_builder_rejects_bad_cap () =
  let b = Graph.Builder.create 2 in
  Alcotest.check_raises "bad cap"
    (Invalid_argument "Graph.Builder.add_edge: capacity must be positive") (fun () ->
      ignore (Graph.Builder.add_edge ~cap:0.0 b 0 1))

let test_parallel_edges () =
  let b = Graph.Builder.create 2 in
  let e1 = Graph.Builder.add_edge b 0 1 in
  let e2 = Graph.Builder.add_edge b 0 1 in
  let g = Graph.Builder.build b in
  Alcotest.(check bool) "distinct ids" true (e1 <> e2);
  Alcotest.(check int) "m" 2 (Graph.m g);
  Alcotest.(check int) "degree counts multiplicity" 2 (degree g 0)

let test_disconnected () =
  let b = Graph.Builder.create 4 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 2 3);
  Alcotest.(check bool) "disconnected" false (Graph.is_connected (Graph.Builder.build b))

let test_total_capacity () =
  let b = Graph.Builder.create 3 in
  ignore (Graph.Builder.add_edge ~cap:2.0 b 0 1);
  ignore (Graph.Builder.add_edge ~cap:3.5 b 1 2);
  Alcotest.(check (float 1e-9)) "sum" 5.5 (Graph.total_capacity (Graph.Builder.build b))

(* Paths *)

let test_path_of_vertices () =
  let g = Gen.path_graph 5 in
  let p = Path.of_vertices g [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "hops" 3 (Path.hops p);
  Alcotest.(check (array int)) "vertices" [| 0; 1; 2; 3 |] (Path.vertices g p);
  Alcotest.(check bool) "simple" true (Path.is_simple g p)

let test_path_trivial () =
  let g = triangle () in
  let p = Path.trivial 1 in
  Alcotest.(check int) "hops" 0 (Path.hops p);
  Alcotest.(check bool) "simple" true (Path.is_simple g p)

let test_path_of_edges_validates () =
  let g = Gen.path_graph 4 in
  Alcotest.check_raises "broken walk"
    (Invalid_argument "Path.of_edges: edges do not form a walk") (fun () ->
      ignore (Path.of_edges g ~src:0 ~dst:3 [| 0; 2 |]))

let test_path_simplify () =
  let g = Gen.cycle 4 in
  (* Walk 0-1-2-1-0-3: should simplify to 0-3. *)
  let e01 = 0 and e12 = 1 and e30 = 3 in
  let walk = Path.of_edges g ~src:0 ~dst:3 [| e01; e12; e12; e01; e30 |] in
  let simple = Path.simplify g walk in
  Alcotest.(check bool) "simple" true (Path.is_simple g simple);
  Alcotest.(check int) "direct" 1 (Path.hops simple);
  Alcotest.(check (array int)) "vertices" [| 0; 3 |] (Path.vertices g simple)

let test_path_simplify_identity () =
  let g = Gen.grid 3 3 in
  let p = Path.of_vertices g [ 0; 1; 2; 5; 8 ] in
  Alcotest.(check bool) "unchanged" true (Path.equal p (Path.simplify g p))

let test_path_concat () =
  let g = Gen.path_graph 5 in
  let p = Path.of_vertices g [ 0; 1; 2 ] in
  let q = Path.of_vertices g [ 2; 3; 4 ] in
  let r = Path.concat g p q in
  Alcotest.(check int) "hops" 4 (Path.hops r);
  Alcotest.(check bool) "simple" true (Path.is_simple g r)

let test_path_concat_cancels () =
  let g = Gen.path_graph 5 in
  let p = Path.of_vertices g [ 0; 1; 2; 3 ] in
  let q = Path.of_vertices g [ 3; 2; 1 ] in
  let r = Path.concat g p q in
  Alcotest.(check (array int)) "back-tracking removed" [| 0; 1 |] (Path.vertices g r)

(* The table-backed eraser [Path.simplify] replaced, kept here as the
   reference: a last-seen table over the vertex sequence and a list of the
   retained (vertex, edge) prefix. *)
let reference_simplify g (p : Path.t) =
  let vs = Path.vertices g p in
  let keep = ref [] and depth = ref 0 in
  let last_seen = Hashtbl.create (Array.length vs) in
  Hashtbl.add last_seen vs.(0) 0;
  for i = 1 to Array.length vs - 1 do
    let v = vs.(i) in
    match Hashtbl.find_opt last_seen v with
    | Some d ->
        while !depth > d do
          match !keep with
          | (u, _) :: rest ->
              Hashtbl.remove last_seen u;
              keep := rest;
              decr depth
          | [] -> assert false
        done
    | None ->
        keep := (v, p.edges.(i - 1)) :: !keep;
        incr depth;
        Hashtbl.replace last_seen v !depth
  done;
  Array.of_list (List.rev_map snd !keep)

(* A connected multigraph (a spanning path plus random extra edges,
   parallel ones included) and a random walk on it; short graphs and long
   walks make loops, nested loops and revisits of erased vertices common. *)
let random_walk_instance seed =
  let rng = Rng.create seed in
  let n = 2 + Rng.int rng 30 in
  let b = Graph.Builder.create n in
  for v = 1 to n - 1 do
    ignore (Graph.Builder.add_edge b (v - 1) v)
  done;
  for _ = 1 to Rng.int rng (2 * n) do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then ignore (Graph.Builder.add_edge b u v)
  done;
  let g = Graph.Builder.build b in
  let src = Rng.int rng n in
  let steps = Rng.int rng (if Rng.int rng 4 = 0 then 400 else 20) in
  let cur = ref src in
  let edges =
    Array.init steps (fun _ ->
        let adj = Graph.adj g !cur in
        let e, w = adj.(Rng.int rng (Array.length adj)) in
        cur := w;
        e)
  in
  (g, Path.of_edges g ~src ~dst:!cur edges)

let prop_simplify_matches_reference =
  QCheck.Test.make ~name:"simplify = table-backed loop erasure" ~count:500
    QCheck.small_int (fun seed ->
      let g, walk = random_walk_instance seed in
      let simple = Path.simplify g walk in
      simple.Path.src = walk.Path.src
      && simple.Path.dst = walk.Path.dst
      && simple.Path.edges = reference_simplify g walk
      && Path.is_simple g simple
      && Path.equal simple
           (Path.of_edges g ~src:walk.Path.src ~dst:walk.Path.dst
              simple.Path.edges))

let test_path_weight () =
  let g = Gen.path_graph 4 in
  let p = Path.of_vertices g [ 0; 1; 2; 3 ] in
  Alcotest.(check (float 1e-9)) "weight" 6.0
    (Path.weight [| 1.0; 2.0; 3.0 |] p)

(* Shortest paths *)

(* A full single-source run: every distance and predecessor edge. *)
let full_run g weights src =
  let ws = Shortest.Workspace.for_current_domain () in
  Shortest.dijkstra_ball_into ws g ~weights ~radius:infinity ~sources:[| src |] ignore;
  let n = Graph.n g in
  (Array.init n (Shortest.Workspace.dist ws), Array.init n (Shortest.Workspace.pred_edge ws))

let path_to g ~weights src dst = (Shortest.dijkstra_targets g ~weights src [| dst |]).(0)

let test_bfs_dist () =
  let g = Gen.grid 3 3 in
  let dist = Shortest.bfs_dist g 0 in
  Alcotest.(check int) "corner to corner" 4 dist.(8);
  Alcotest.(check int) "self" 0 dist.(0)

let test_bfs_path () =
  let g = Gen.grid 3 3 in
  match Shortest.bfs_path g 0 8 with
  | None -> Alcotest.fail "expected a path"
  | Some p ->
      Alcotest.(check int) "min hops" 4 (Path.hops p);
      Alcotest.(check bool) "simple" true (Path.is_simple g p)

let test_dijkstra_weighted () =
  (* Square 0-1-3 and 0-2-3; make the 0-1 edge heavy. *)
  let b = Graph.Builder.create 4 in
  let e01 = Graph.Builder.add_edge b 0 1 in
  ignore (Graph.Builder.add_edge b 1 3);
  ignore (Graph.Builder.add_edge b 0 2);
  ignore (Graph.Builder.add_edge b 2 3);
  let g = Graph.Builder.build b in
  let weights = Array.init (Graph.m g) (fun e -> if e = e01 then 10.0 else 1.0) in
  match path_to g ~weights 0 3 with
  | None -> Alcotest.fail "expected a path"
  | Some p -> Alcotest.(check (array int)) "avoids heavy edge" [| 0; 2; 3 |] (Path.vertices g p)

let test_dijkstra_dist_matches_bfs () =
  let rng = Rng.create 5 in
  let g = Gen.erdos_renyi rng 40 0.15 in
  let dist, _ = full_run g (Array.make (Graph.m g) 1.0) 0 in
  let hops = Shortest.bfs_dist g 0 in
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check (float 1e-9))
      "unit dijkstra = bfs"
      (float_of_int hops.(v))
      dist.(v)
  done

let test_hop_limited_loose () =
  let g = Gen.grid 3 3 in
  (* With enough hops the hop-limited path matches the shortest path. *)
  match Shortest.hop_limited_path g ~weights:(Array.make (Graph.m g) 1.0) ~max_hops:10 0 8 with
  | None -> Alcotest.fail "expected a path"
  | Some p -> Alcotest.(check int) "hops" 4 (Path.hops p)

let test_hop_limited_tight () =
  (* Two routes 0→3: cheap long (3 hops, weight 0.3) vs pricey short
     (1 hop, weight 5).  Budget 2 forces the direct edge. *)
  let b = Graph.Builder.create 4 in
  let direct = Graph.Builder.add_edge b 0 3 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 1 2);
  ignore (Graph.Builder.add_edge b 2 3);
  let g = Graph.Builder.build b in
  let weights = Array.init (Graph.m g) (fun e -> if e = direct then 5.0 else 0.1) in
  (match Shortest.hop_limited_path g ~weights ~max_hops:2 0 3 with
  | None -> Alcotest.fail "expected a path"
  | Some p ->
      Alcotest.(check int) "forced direct" 1 (Path.hops p));
  match Shortest.hop_limited_path g ~weights ~max_hops:3 0 3 with
  | None -> Alcotest.fail "expected a path"
  | Some p -> Alcotest.(check int) "relaxed budget takes cheap route" 3 (Path.hops p)

let test_hop_limited_infeasible () =
  let g = Gen.path_graph 5 in
  Alcotest.(check bool)
    "budget too small" true
    (Shortest.hop_limited_path g ~weights:(Array.make (Graph.m g) 1.0) ~max_hops:3 0 4 = None)

let test_diameter () =
  Alcotest.(check int) "path graph" 4 (Shortest.diameter (Gen.path_graph 5));
  Alcotest.(check int) "hypercube" 4 (Shortest.diameter (Gen.hypercube 4))

let test_all_pairs_hops () =
  (* One BFS per source, as [diameter] runs them. *)
  let g = Gen.cycle 6 in
  for s = 0 to 5 do
    let d = Shortest.bfs_dist g s in
    Alcotest.(check int) "opposite" 3 d.((s + 3) mod 6);
    Alcotest.(check int) "adjacent" 1 d.((s + 1) mod 6)
  done;
  Alcotest.(check int) "diameter" 3 (Shortest.diameter g)

(* Truncated / multi-source Dijkstra balls *)

let test_ball_matches_full_dijkstra () =
  (* At every radius, the ball settles exactly the vertices the full run
     puts within it, with bit-identical distances. *)
  let g = Gen.random_regular (Rng.create 31) 40 4 in
  let wr = Rng.create 32 in
  let weights = Array.init (Graph.m g) (fun _ -> 0.25 +. Rng.float wr) in
  let full, _ = full_run g weights 5 in
  let ws = Shortest.Workspace.for_current_domain () in
  List.iter
    (fun radius ->
      let settled = Hashtbl.create 64 in
      Shortest.dijkstra_ball_into ws g ~weights ~radius ~sources:[| 5 |]
        (fun v -> Hashtbl.replace settled v (Shortest.Workspace.dist ws v));
      for v = 0 to Graph.n g - 1 do
        match Hashtbl.find_opt settled v with
        | Some d ->
            Alcotest.(check bool) "within radius" true (d <= radius);
            Alcotest.(check (float 0.0)) "distance bit-identical" full.(v) d
        | None -> Alcotest.(check bool) "outside radius" true (full.(v) > radius)
      done)
    [ 0.0; 0.7; 1.9; infinity ]

let test_ball_multi_source () =
  (* Multi-source distances are the pointwise minimum over the sources. *)
  let g = Gen.grid 5 5 in
  let weights = Array.make (Graph.m g) 1.0 in
  let d0, _ = full_run g weights 0 in
  let d24, _ = full_run g weights 24 in
  let ws = Shortest.Workspace.for_current_domain () in
  let settled = Array.make 25 infinity in
  Shortest.dijkstra_ball_into ws g ~weights ~radius:infinity
    ~sources:[| 0; 24 |] (fun v -> settled.(v) <- Shortest.Workspace.dist ws v);
  for v = 0 to 24 do
    Alcotest.(check (float 0.0)) "min over sources"
      (Float.min d0.(v) d24.(v))
      settled.(v)
  done

let test_ball_negative_radius_empty () =
  let g = Gen.grid 3 3 in
  let weights = Array.make (Graph.m g) 1.0 in
  let ws = Shortest.Workspace.for_current_domain () in
  let count = ref 0 in
  Shortest.dijkstra_ball_into ws g ~weights ~radius:(-1.0) ~sources:[| 0 |]
    (fun _ -> incr count);
  Alcotest.(check int) "settles nothing" 0 !count

let test_ball_prune_equals_radius () =
  (* A bound of [succ r] at every vertex under an infinite radius drops
     exactly the candidates past r: the same run as radius r with no
     bound.  Settling lowers the bound to each settled distance, so
     afterwards it holds the ball's distances and [succ r] elsewhere. *)
  let g = Gen.random_regular (Rng.create 33) 30 4 in
  let wr = Rng.create 34 in
  let weights = Array.init (Graph.m g) (fun _ -> 0.5 +. Rng.float wr) in
  let ws = Shortest.Workspace.for_current_domain () in
  let r = 2.0 in
  let a = Hashtbl.create 32 and b = Hashtbl.create 32 in
  Shortest.dijkstra_ball_into ws g ~weights ~radius:r ~sources:[| 3 |]
    (fun v -> Hashtbl.replace a v (Shortest.Workspace.dist ws v));
  let bound = Array.make (Graph.n g) (Float.succ r) in
  Shortest.dijkstra_ball_into ws g ~weights ~radius:infinity ~bound ~sources:[| 3 |]
    (fun v -> Hashtbl.replace b v (Shortest.Workspace.dist ws v));
  Alcotest.(check int) "same ball size" (Hashtbl.length a) (Hashtbl.length b);
  Hashtbl.iter
    (fun v d ->
      Alcotest.(check (float 0.0)) "same distance" d (Hashtbl.find b v);
      Alcotest.(check (float 0.0)) "bound lowered to the distance" d bound.(v))
    a;
  Array.iteri
    (fun v x ->
      if not (Hashtbl.mem a v) then
        Alcotest.(check (float 0.0)) "bound kept off the ball" (Float.succ r) x)
    bound

(* Yen's k shortest paths *)

let test_yen_counts_and_order () =
  let g = Gen.grid 3 3 in
  let paths = Yen.k_shortest g ~k:6 0 8 in
  Alcotest.(check int) "found 6" 6 (List.length paths);
  let weights = List.map (Path.weight (Array.make (Graph.m g) 1.0)) paths in
  let sorted = List.sort compare weights in
  Alcotest.(check (list (float 1e-9))) "non-decreasing" sorted weights;
  (* The 3x3 grid has exactly 6 monotone shortest paths of 4 hops. *)
  List.iter (fun p -> Alcotest.(check int) "all shortest" 4 (Path.hops p)) paths

let test_yen_distinct_and_simple () =
  let g = Gen.grid 3 4 in
  let paths = Yen.k_shortest g ~k:12 0 11 in
  let module PS = Set.Make (Path) in
  Alcotest.(check int) "all distinct" (List.length paths) (PS.cardinal (PS.of_list paths));
  List.iter
    (fun p ->
      Alcotest.(check bool) "simple" true (Path.is_simple g p);
      let vs = Path.vertices g p in
      Alcotest.(check int) "src" 0 vs.(0);
      Alcotest.(check int) "dst" 11 vs.(Array.length vs - 1))
    paths

let test_yen_exhausts () =
  let g = Gen.cycle 5 in
  (* Only two simple paths between any pair on a cycle. *)
  let paths = Yen.k_shortest g ~k:10 0 2 in
  Alcotest.(check int) "exactly two" 2 (List.length paths)

let test_yen_trivial () =
  let g = triangle () in
  Alcotest.(check int) "s = t" 1 (List.length (Yen.k_shortest g ~k:3 1 1))

(* Max-flow / min-cut *)

let test_cut_path () =
  let g = Gen.path_graph 5 in
  Alcotest.(check int) "path cut" 1 (Maxflow.cut g 0 4)

let test_cut_cycle () =
  let g = Gen.cycle 6 in
  Alcotest.(check int) "cycle cut" 2 (Maxflow.cut g 0 3)

let test_cut_hypercube () =
  let g = Gen.hypercube 3 in
  Alcotest.(check int) "hypercube cut = degree" 3 (Maxflow.cut g 0 7)

let test_cut_two_cliques () =
  let n = 6 in
  let g = Gen.two_cliques n in
  Alcotest.(check int) "cross-clique cut" n (Maxflow.cut g 0 (n + 1));
  Alcotest.(check int) "same-clique cut" (n - 1 + 1) (Maxflow.cut g 0 1)

let test_cut_parallel_edges () =
  let b = Graph.Builder.create 2 in
  for _ = 1 to 4 do
    ignore (Graph.Builder.add_edge b 0 1)
  done;
  let g = Graph.Builder.build b in
  Alcotest.(check int) "parallel multiplicity" 4 (Maxflow.cut g 0 1)

let test_cut_self () =
  let g = triangle () in
  Alcotest.(check int) "cut(v,v) = 0" 0 (Maxflow.cut g 1 1)

let test_max_flow_capacities () =
  let b = Graph.Builder.create 3 in
  ignore (Graph.Builder.add_edge ~cap:2.0 b 0 1);
  ignore (Graph.Builder.add_edge ~cap:1.0 b 1 2);
  ignore (Graph.Builder.add_edge ~cap:0.5 b 0 2);
  let g = Graph.Builder.build b in
  Alcotest.(check (float 1e-6)) "bottleneck respected" 1.5 (Maxflow.max_flow g 0 2)

(* Matching *)

let test_matching_perfect () =
  let adj l = [ l; (l + 1) mod 4 ] in
  let pairs = Matching.maximum ~left:4 ~right:4 adj in
  Alcotest.(check int) "perfect" 4 (Array.length pairs);
  let rs = Array.map snd pairs in
  Array.sort compare rs;
  Alcotest.(check (array int)) "right side covered" [| 0; 1; 2; 3 |] rs

let test_matching_partial () =
  (* Three left vertices all pointing at right vertex 0. *)
  let adj _ = [ 0 ] in
  let pairs = Matching.maximum ~left:3 ~right:1 adj in
  Alcotest.(check int) "only one match" 1 (Array.length pairs)

let test_matching_empty () =
  let pairs = Matching.maximum ~left:3 ~right:3 (fun _ -> []) in
  Alcotest.(check int) "no edges" 0 (Array.length pairs)

let prop_matching_valid =
  QCheck.Test.make ~name:"matching is a valid partial matching" ~count:100
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, size) ->
      let rng = Rng.create seed in
      let adjs =
        Array.init size (fun _ ->
            List.filter (fun _ -> Rng.int rng 2 = 0) (List.init size Fun.id))
      in
      let pairs = Matching.maximum ~left:size ~right:size (fun l -> adjs.(l)) in
      let ls = Array.to_list (Array.map fst pairs) in
      let rs = Array.to_list (Array.map snd pairs) in
      List.length (List.sort_uniq compare ls) = List.length ls
      && List.length (List.sort_uniq compare rs) = List.length rs
      && Array.for_all (fun (l, r) -> List.mem r adjs.(l)) pairs)

(* Generators *)

let test_gen_hypercube () =
  let g = Gen.hypercube 4 in
  Alcotest.(check int) "n" 16 (Graph.n g);
  Alcotest.(check int) "m" 32 (Graph.m g);
  Alcotest.(check int) "regular" 4 (Graph.max_degree g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* 1 lsl 64 = 1 on a 64-bit host: a vertex count passed as the dimension
   used to build a 1-vertex (64), empty (63) or failing (62) graph. *)
let test_gen_hypercube_rejects_vertex_count () =
  List.iter
    (fun d ->
      match Gen.hypercube d with
      | _ -> Alcotest.failf "hypercube %d accepted" d
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "hypercube %d names the dimension" d)
            true
            (contains msg "not the vertex count"))
    [ 62; 63; 64 ]

let test_gen_grid () =
  let g = Gen.grid 4 5 in
  Alcotest.(check int) "n" 20 (Graph.n g);
  Alcotest.(check int) "m" 31 (Graph.m g)

let test_gen_torus () =
  let g = Gen.torus 4 4 in
  Alcotest.(check int) "n" 16 (Graph.n g);
  Alcotest.(check int) "m" 32 (Graph.m g);
  Alcotest.(check int) "4-regular" 4 (Graph.max_degree g)

let test_gen_complete () =
  let g = Gen.complete 6 in
  Alcotest.(check int) "m" 15 (Graph.m g)

let test_gen_random_regular () =
  let rng = Rng.create 3 in
  let g = Gen.random_regular rng 24 4 in
  Alcotest.(check int) "n" 24 (Graph.n g);
  Alcotest.(check int) "m" 48 (Graph.m g);
  for v = 0 to 23 do
    Alcotest.(check int) "regular" 4 (degree g v)
  done;
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_gen_two_cliques () =
  let g = Gen.two_cliques 5 in
  Alcotest.(check int) "n" 10 (Graph.n g);
  Alcotest.(check int) "m" ((2 * 10) + 5) (Graph.m g)

let test_gen_c_graph () =
  let { Gen.c_graph = g; c_center1; c_leaves1; c_center2; c_leaves2; c_middles } =
    Gen.c_graph 6 3
  in
  Alcotest.(check int) "n" ((2 * 6) + 2 + 3) (Graph.n g);
  Alcotest.(check int) "m" ((2 * 6) + (2 * 3)) (Graph.m g);
  Alcotest.(check int) "leaves1" 6 (Array.length c_leaves1);
  Alcotest.(check int) "leaves2" 6 (Array.length c_leaves2);
  Alcotest.(check int) "middles" 3 (Array.length c_middles);
  Alcotest.(check int) "center1 degree" (6 + 3) (degree g c_center1);
  Alcotest.(check int) "center2 degree" (6 + 3) (degree g c_center2);
  Array.iter
    (fun mid -> Alcotest.(check int) "middle degree" 2 (degree g mid))
    c_middles;
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_gen_g_graph () =
  let { Gen.g_graph = g; g_copies } = Gen.g_graph 16 in
  Alcotest.(check int) "copies = floor log n" 4 (List.length g_copies);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  (* Copy for alpha = 1 has k = floor(sqrt 16) = 4 middles. *)
  let _, view1 = List.hd g_copies in
  Alcotest.(check int) "alpha=1 middles" 4 (Array.length view1.Gen.v_middles)

let test_gen_multi_path () =
  let g = Gen.multi_path [ 1; 3; 3 ] in
  Alcotest.(check int) "n" (2 + 0 + 2 + 2) (Graph.n g);
  Alcotest.(check int) "m" (1 + 3 + 3) (Graph.m g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check int) "three disjoint routes" 3 (Maxflow.cut g 0 1)

let test_gen_abilene () =
  let g, cities = Gen.abilene () in
  Alcotest.(check int) "n" 11 (Graph.n g);
  Alcotest.(check int) "m" 14 (Graph.m g);
  Alcotest.(check int) "labels" 11 (Array.length cities);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_gen_fat_tree () =
  let k = 4 in
  let g = Gen.fat_tree k in
  (* k=4: 4 cores + 4 pods x 4 switches = 20 vertices; per pod 4+4 edges. *)
  Alcotest.(check int) "n" 20 (Graph.n g);
  Alcotest.(check int) "m" 32 (Graph.m g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  (* Rich path diversity between edge switches in different pods. *)
  let edge_sw pod i = 4 + (pod * 4) + 2 + i in
  Alcotest.(check int) "cross-pod cut" 2 (Maxflow.cut g (edge_sw 0 0) (edge_sw 1 0))

let test_gen_b4 () =
  let g, sites = Gen.b4 () in
  Alcotest.(check int) "n" 12 (Graph.n g);
  Alcotest.(check int) "m" 19 (Graph.m g);
  Alcotest.(check int) "labels" 12 (Array.length sites);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check bool) "2-edge-connected" true (Maxflow.cut g 0 11 >= 2)

(* Heap: the Dijkstra core keeps its binary heap in the workspace and
   sifts it in place, so its pop order is observed as settle order —
   a star from vertex 0 settles its leaves in key order. *)

let star weights =
  let b = Graph.Builder.create (List.length weights + 1) in
  List.iteri (fun i _ -> ignore (Graph.Builder.add_edge b 0 (i + 1))) weights;
  let weights = Array.of_list weights in
  (Graph.Builder.build b, weights)

let settle_order g weights src =
  let ws = Shortest.Workspace.for_current_domain () in
  let order = ref [] in
  Shortest.dijkstra_ball_into ws g ~weights ~radius:infinity ~sources:[| src |]
    (fun v -> order := (v, Shortest.Workspace.dist ws v) :: !order);
  List.rev !order

let test_heap_ordering () =
  let g, weights = star [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  let order = settle_order g weights 0 in
  Alcotest.(check (list int)) "leaves by key" [ 0; 2; 4; 3; 5; 1 ] (List.map fst order);
  Alcotest.(check (list (float 0.0))) "ascending keys"
    [ 0.0; 1.0; 2.0; 3.0; 4.0; 5.0 ] (List.map snd order)

let test_heap_interleaved () =
  (* Vertex 3 enters the heap after two pops and still beats vertex 1,
     which was pushed first. *)
  let b = Graph.Builder.create 4 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 0 2);
  ignore (Graph.Builder.add_edge b 2 3);
  let g = Graph.Builder.build b in
  let order = settle_order g [| 2.0; 1.0; 0.5 |] 0 in
  Alcotest.(check (list int)) "settle order" [ 0; 2; 3; 1 ] (List.map fst order)

let test_heap_duplicates () =
  let g, weights = star (List.init 10 (fun _ -> 1.0)) in
  let order = settle_order g weights 0 in
  Alcotest.(check int) "all ten leaves settle" 11 (List.length order);
  List.iter
    (fun (v, d) -> if v > 0 then Alcotest.(check (float 0.0)) "tied key" 1.0 d)
    order

let test_heap_clear () =
  (* A target-bounded run stops with entries still in the heap; the next
     run on the same workspace must start from an empty one. *)
  let g = Gen.random_regular (Rng.create 41) 30 4 in
  let wr = Rng.create 42 in
  let weights = Array.init (Graph.m g) (fun _ -> 0.25 +. Rng.float wr) in
  ignore (Shortest.dijkstra_targets g ~weights 0 [| 1 |]);
  let after_stop = full_run g weights 7 in
  let after_drain = full_run g weights 7 in
  Alcotest.(check (array (float 0.0))) "dist" (fst after_drain) (fst after_stop);
  Alcotest.(check (array int)) "pred" (snd after_drain) (snd after_stop)

let test_heap_int_clear () =
  (* Vertex-keyed reuse: a run stopped at its first target leaves the
     star's leaves queued; the next run from leaf 3 must pop its own
     source first and settle every vertex exactly once. *)
  let g, weights = star [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  let ws = Shortest.Workspace.for_current_domain () in
  ignore (Shortest.dijkstra_targets g ~weights 0 [| 2 |]);
  let order = ref [] in
  Shortest.dijkstra_ball_into ws g ~weights ~radius:infinity ~sources:[| 3 |]
    (fun v -> order := (v, Shortest.Workspace.dist ws v) :: !order);
  match List.rev !order with
  | (v, d) :: _ as all ->
      Alcotest.(check int) "min value" 3 v;
      Alcotest.(check (float 0.0)) "min key" 0.0 d;
      Alcotest.(check (list int)) "drained, each vertex once" [ 0; 1; 2; 3; 4; 5 ]
        (List.sort compare (List.map fst all));
      Alcotest.(check int) "settled count" (Graph.n g) (Shortest.Workspace.settled_count ws)
  | [] -> Alcotest.fail "expected the source to settle"

let prop_settle_order_sorted =
  QCheck.Test.make ~name:"Dijkstra settles in distance order" ~count:100
    QCheck.(pair small_int (int_range 4 40))
    (fun (seed, n) ->
      let rng = Rng.create (3000 + seed) in
      let g = Gen.random_regular rng (max 5 n) 4 in
      let weights = Array.init (Graph.m g) (fun _ -> Float.round (4.0 *. Rng.float rng)) in
      let ds = List.map snd (settle_order g weights 0) in
      List.length ds = Graph.n g && ds = List.sort Float.compare ds)

(* The historical implementation, kept here as the reference the core
   must match bit for bit: a lazy-deletion Dijkstra over [Graph.adj] on
   a standalone array heap with the same swap-based sift.  [run] follows
   the rules of every [Shortest] entry point: all [sources] start at 0,
   a candidate is admitted only within [radius] and below [bound] at its
   vertex, settling a vertex lowers [bound] there to its distance, and
   the run stops once every vertex of [targets] has settled. *)
module Reference = struct
  type heap = { mutable keys : float array; mutable vals : int array; mutable size : int }

  let swap h i j =
    let k = h.keys.(i) and x = h.vals.(i) in
    h.keys.(i) <- h.keys.(j);
    h.vals.(i) <- h.vals.(j);
    h.keys.(j) <- k;
    h.vals.(j) <- x

  let push h key v =
    if h.size = Array.length h.keys then begin
      h.keys <- Array.append h.keys (Array.make (h.size + 1) 0.0);
      h.vals <- Array.append h.vals (Array.make (h.size + 1) 0)
    end;
    h.keys.(h.size) <- key;
    h.vals.(h.size) <- v;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && h.keys.((!i - 1) / 2) > h.keys.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    let key = h.keys.(0) and v = h.vals.(0) in
    h.size <- h.size - 1;
    h.keys.(0) <- h.keys.(h.size);
    h.vals.(0) <- h.vals.(h.size);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.size && h.keys.(l) < h.keys.(!smallest) then smallest := l;
      if r < h.size && h.keys.(r) < h.keys.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap h !i !smallest;
        i := !smallest
      end
    done;
    (key, v)

  (* Returns the settled [dist]/[pred] (unsettled vertices read as
     unreached, as the core's do) and the settle order with keys. *)
  let run ?bound g weights ~sources ~radius ~targets =
    let below w nd = match bound with None -> true | Some b -> nd < b.(w) in
    let n = Graph.n g in
    let dist = Array.make n infinity and pred = Array.make n (-1) in
    let settled = Array.make n false and order = ref [] in
    let wanted = Array.make n false and remaining = ref 0 in
    (match targets with
    | None -> remaining := max_int
    | Some ts ->
        Array.iter
          (fun t ->
            if not wanted.(t) then begin
              wanted.(t) <- true;
              incr remaining
            end)
          ts);
    let h = { keys = [||]; vals = [||]; size = 0 } in
    Array.iter
      (fun s ->
        if dist.(s) = infinity then begin
          dist.(s) <- 0.0;
          push h 0.0 s
        end)
      sources;
    if 0.0 <= radius then
      while h.size > 0 && !remaining > 0 do
        let d, v = pop h in
        if not settled.(v) then begin
          settled.(v) <- true;
          (match bound with Some b when d < b.(v) -> b.(v) <- d | _ -> ());
          order := (v, d) :: !order;
          if wanted.(v) then decr remaining;
          if !remaining > 0 then
            Array.iter
              (fun (e, w) ->
                if not settled.(w) then begin
                  let nd = d +. weights.(e) in
                  if nd <= radius && below w nd && nd < dist.(w) then begin
                    dist.(w) <- nd;
                    pred.(w) <- e;
                    push h nd w
                  end
                end)
              (Graph.adj g v)
        end
      done;
    let dist = Array.mapi (fun v d -> if settled.(v) then d else infinity) dist in
    let pred = Array.mapi (fun v e -> if settled.(v) then e else -1) pred in
    (dist, pred, List.rev !order)

  let path g pred src t =
    let rec walk v acc =
      if v = src then acc else walk (Graph.other_end g pred.(v) v) (pred.(v) :: acc)
    in
    Path.of_edges g ~src ~dst:t (Array.of_list (walk t []))
end

(* Every entry point against the reference on tie-heavy weights (zeros
   included).  One workspace serves a large dense graph first, whose
   first scan outgrows the initial heap by more than one doubling, and
   then a small graph, whose heap holds stale keys past its live
   entries. *)
let prop_core_matches_reference =
  QCheck.Test.make ~name:"core pops like the reference heap" ~count:200
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let rng = Rng.create (4000 + seed) in
      let ws = Shortest.Workspace.for_current_domain () in
      let agrees g =
        let n = Graph.n g in
        let weights = Array.init (Graph.m g) (fun _ -> Float.round (3.0 *. Rng.float rng)) in
        let read () =
          (Array.init n (Shortest.Workspace.dist ws), Array.init n (Shortest.Workspace.pred_edge ws))
        in
        let ball ?bound ~radius sources =
          let order = ref [] in
          Shortest.dijkstra_ball_into ws g ~weights ~radius ?bound ~sources (fun v ->
              order := (v, Shortest.Workspace.dist ws v) :: !order);
          List.rev !order
        in
        let src = Rng.int rng n in
        let rdist, rpred, rorder =
          Reference.run g weights ~sources:[| src |] ~radius:infinity ~targets:None
        in
        let full =
          ball ~radius:infinity [| src |] = rorder && read () = (rdist, rpred)
        in
        (* Target-bounded: the same early stop, settled count and paths. *)
        let targets = Array.init (Rng.int rng 5) (fun _ -> Rng.int rng n) in
        let _, rpred, rorder =
          Reference.run g weights ~sources:[| src |] ~radius:infinity ~targets:(Some targets)
        in
        let got = Shortest.dijkstra_targets g ~weights src targets in
        let want =
          Array.map
            (fun t ->
              if List.mem_assoc t rorder then Some (Reference.path g rpred src t) else None)
            targets
        in
        let targeted =
          Shortest.Workspace.settled_count ws = List.length rorder
          && Array.for_all2 (Option.equal Path.equal) got want
        in
        (* Multi-source ball with a finite radius and a random bound
           (ties with the weights' half-integer distances, zeros and
           gaps included); both runs lower their copy of it. *)
        let sources = Array.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng n) in
        let radius = 0.5 *. float_of_int (Rng.int rng 8) in
        let bound =
          Array.init n (fun _ ->
              match Rng.int rng 4 with
              | 0 -> infinity
              | 1 -> 0.0
              | _ -> 0.5 *. float_of_int (Rng.int rng 8))
        in
        let rbound = Array.copy bound in
        let rdist, rpred, rorder =
          Reference.run ~bound:rbound g weights ~sources ~radius ~targets:None
        in
        let balled =
          ball ~bound ~radius sources = rorder && read () = (rdist, rpred) && bound = rbound
        in
        full && targeted && balled
      in
      let big = Gen.erdos_renyi rng (60 + (seed mod 20)) 0.6 in
      let small = Gen.random_regular rng (max 5 n) 4 in
      agrees big && agrees small)

(* CSR layer: packed arrays must list each vertex's incidences in exactly
   [Graph.adj] order — traversal-order (and hence output) compatibility of
   every CSR-based kernel depends on it. *)
let prop_csr_matches_adj =
  QCheck.Test.make ~name:"CSR arrays mirror adj order" ~count:100
    QCheck.(pair small_int (int_range 4 40))
    (fun (seed, n) ->
      let rng = Rng.create (1000 + seed) in
      let g = Gen.erdos_renyi rng n 0.3 in
      let off = Graph.csr_offsets g
      and eids = Graph.csr_edge_ids g
      and dsts = Graph.csr_targets g in
      Array.length off = Graph.n g + 1
      && off.(Graph.n g) = 2 * Graph.m g
      && List.for_all
           (fun v ->
             let adj = Graph.adj g v in
             off.(v + 1) - off.(v) = Array.length adj
             && List.for_all
                  (fun i ->
                    let e, w = adj.(i) in
                    eids.(off.(v) + i) = e && dsts.(off.(v) + i) = w)
                  (List.init (Array.length adj) Fun.id))
           (List.init (Graph.n g) Fun.id))

let test_iter_adj_matches_adj () =
  let rng = Rng.create 77 in
  let g = Gen.erdos_renyi rng 12 0.4 in
  for v = 0 to Graph.n g - 1 do
    let seen = ref [] in
    Graph.iter_adj g v (fun e w -> seen := (e, w) :: !seen);
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "vertex %d" v)
      (Array.to_list (Graph.adj g v))
      (List.rev !seen)
  done

let test_dijkstra_rejects_negative_weight () =
  let g = Gen.grid 3 3 in
  (* The negative edge sits at the far corner, away from the source: it
     is checked when a search first relaxes it, which a full run and a
     run to the far corner both do. *)
  let weights = Array.init (Graph.m g) (fun e -> if e = Graph.m g - 1 then -1.0 else 1.0) in
  let ws = Shortest.Workspace.for_current_domain () in
  Alcotest.check_raises "ball raises"
    (Invalid_argument "Shortest.dijkstra_ball: negative edge weight") (fun () ->
      Shortest.dijkstra_ball_into ws g ~weights ~radius:infinity ~sources:[| 0 |] ignore);
  Alcotest.check_raises "targets raise"
    (Invalid_argument "Shortest.dijkstra_targets: negative edge weight") (fun () ->
      ignore (Shortest.dijkstra_targets g ~weights 0 [| 8 |]));
  Alcotest.check_raises "hop_limited raises"
    (Invalid_argument "Shortest.hop_limited_path: negative edge weight")
    (fun () -> ignore (Shortest.hop_limited_path g ~weights ~max_hops:4 0 1))

(* Extra shortest-path coverage *)

(* Target-bounded oracle: every answer is exactly the full run's. *)

let prop_targets_match_full_run =
  QCheck.Test.make ~name:"dijkstra_targets = full run + path" ~count:300
    QCheck.(triple small_int (int_range 5 30) (list_of_size (QCheck.Gen.int_range 0 8) small_nat))
    (fun (seed, n, raw) ->
      let rng = Rng.create (5000 + seed) in
      let g = Gen.random_regular rng (max 5 n) 4 in
      let n = Graph.n g in
      let src = Rng.int rng n in
      (* Ties, zeros and masked edges; sometimes a vertex is cut off
         entirely, so its answer must be [None]. *)
      let cut = if seed mod 4 = 1 then (src + 1) mod n else -1 in
      let weights =
        Array.init (Graph.m g) (fun e ->
            let u, v = Graph.endpoints g e in
            if u = cut || v = cut then infinity
            else
              match Rng.int rng 6 with
              | 0 -> 0.0
              | 1 -> infinity
              | 2 -> 1.0
              | _ -> Float.round (3.0 *. Rng.float rng))
      in
      let targets = List.map (fun t -> t mod n) raw in
      let targets = if cut >= 0 then cut :: targets else targets in
      let targets = if seed mod 3 = 0 then src :: (targets @ [ src ]) else targets in
      let targets = Array.of_list (targets @ targets) in
      let got = Shortest.dijkstra_targets g ~weights src targets in
      let ws = Shortest.Workspace.for_current_domain () in
      Shortest.dijkstra_ball_into ws g ~weights ~radius:infinity ~sources:[| src |] ignore;
      let want = Array.map (Shortest.Workspace.path ws g) targets in
      got = want
      && (cut < 0 || Shortest.dijkstra_targets g ~weights src [| cut |] = [| None |]))

let test_targets_stop_early () =
  let g = Gen.path_graph 6 in
  let weights = Array.make (Graph.m g) 1.0 in
  let ws = Shortest.Workspace.for_current_domain () in
  (match Shortest.dijkstra_targets g ~weights 0 [| 2 |] with
  | [| Some p |] -> Alcotest.(check int) "two hops" 2 (Path.hops p)
  | _ -> Alcotest.fail "expected one path");
  Alcotest.(check int) "settled through the target only" 3
    (Shortest.Workspace.settled_count ws);
  Alcotest.(check (float 0.0)) "settled vertex reads" 2.0 (Shortest.Workspace.dist ws 2);
  Alcotest.check_raises "unsettled vertex is not read as unreachable"
    (Invalid_argument "Shortest.Workspace: vertex not settled by a run that stopped early")
    (fun () -> ignore (Shortest.Workspace.dist ws 4));
  Alcotest.check_raises "short weights"
    (Invalid_argument "Shortest.dijkstra_targets: weights shorter than edge count")
    (fun () -> ignore (Shortest.dijkstra_targets g ~weights:[| 1.0 |] 0 [| 1 |]));
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Shortest.dijkstra_targets: negative edge weight") (fun () ->
      ignore (Shortest.dijkstra_targets g ~weights:(Array.make 5 (-1.0)) 0 [| 1 |]))

let test_targets_allocation () =
  (* Warm single-target calls on the 64-node hypercube allocate only
     their results (~22 words: the answer array, a path record and its
     edge array).  A boxed float in the kernel costs words per pop or
     relaxation: one per pop alone adds ~70 words at the ~35 vertices a
     call settles here (the closure-weight version allocated ~800). *)
  let g = Gen.hypercube 6 in
  let n = Graph.n g in
  let rng = Rng.create 43 in
  let weights = Array.init (Graph.m g) (fun _ -> 0.1 +. Rng.float rng) in
  let targets = Array.init n (fun s -> [| ((s * 37) + 11) mod n |]) in
  let calls = 2000 in
  let run () =
    for i = 0 to calls - 1 do
      let s = i mod n in
      ignore (Sys.opaque_identity (Shortest.dijkstra_targets g ~weights s targets.(s)))
    done
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per call < 32" per_call)
    true (per_call < 32.0)

(* A NaN weight fails [nd <= radius], so without its own check its edge
   would silently vanish: vertex 0's NaN edges cut it off, and a search
   to the far corner answered [None].  Every entry point rejects it. *)
let nan_grid () =
  let g = Gen.grid 3 3 in
  let weights =
    Array.init (Graph.m g) (fun e ->
        let u, v = Graph.endpoints g e in
        if u = 0 || v = 0 then Float.nan else 1.0)
  in
  (g, weights)

let rejects_nan context f =
  Alcotest.check_raises context (Invalid_argument (context ^ ": NaN edge weight")) f

let test_dijkstra_rejects_nan () =
  (* Searches from the far corner meet the NaN edges last. *)
  let g, weights = nan_grid () in
  let ws = Shortest.Workspace.for_current_domain () in
  rejects_nan "Shortest.dijkstra_ball" (fun () ->
      Shortest.dijkstra_ball_into ws g ~weights ~radius:infinity ~sources:[| 8 |] ignore);
  rejects_nan "Shortest.dijkstra_targets" (fun () ->
      ignore (Shortest.dijkstra_targets g ~weights 8 [| 0 |]))

let test_targets_reject_nan () =
  let g, weights = nan_grid () in
  rejects_nan "Shortest.dijkstra_targets" (fun () ->
      ignore (Shortest.dijkstra_targets g ~weights 0 [| 8 |]))

let test_ball_rejects_nan () =
  let g, weights = nan_grid () in
  let ws = Shortest.Workspace.for_current_domain () in
  rejects_nan "Shortest.dijkstra_ball" (fun () ->
      Shortest.dijkstra_ball_into ws g ~weights ~radius:infinity ~sources:[| 0 |] ignore)

let test_hop_limited_rejects_nan () =
  let g, weights = nan_grid () in
  rejects_nan "Shortest.hop_limited_path" (fun () ->
      ignore (Shortest.hop_limited_path g ~weights ~max_hops:4 0 8))

let test_dijkstra_infinite_weight_masks () =
  let g = Gen.cycle 4 in
  (* Mask edge 0 (between vertices 0 and 1): the path must go the other
     way around. *)
  let weights = Array.init (Graph.m g) (fun e -> if e = 0 then infinity else 1.0) in
  match path_to g ~weights 0 1 with
  | None -> Alcotest.fail "expected a path"
  | Some p -> Alcotest.(check int) "went the long way" 3 (Path.hops p)

let test_hop_limited_equals_dijkstra_when_loose () =
  let rng = Rng.create 55 in
  for _ = 1 to 5 do
    let g = Gen.erdos_renyi rng 15 0.3 in
    let weights = Array.init (Graph.m g) (fun e -> 1.0 +. (0.1 *. float_of_int (e mod 7))) in
    let budget = Graph.n g in
    for t = 1 to Graph.n g - 1 do
      let d1 =
        match path_to g ~weights 0 t with
        | Some p -> Path.weight weights p
        | None -> infinity
      in
      let d2 =
        match Shortest.hop_limited_path g ~weights ~max_hops:budget 0 t with
        | Some p -> Path.weight weights p
        | None -> infinity
      in
      Alcotest.(check (float 1e-9)) "same optimal weight" d1 d2
    done
  done

let test_eccentricity_bounds_diameter () =
  let g = Gen.grid 3 4 in
  let diameter = Shortest.diameter g in
  let eccentricity v = Array.fold_left max 0 (Shortest.bfs_dist g v) in
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check bool) "ecc <= diam" true (eccentricity v <= diameter)
  done;
  Alcotest.(check bool) "diam achieved" true
    (List.exists (fun v -> eccentricity v = diameter) (List.init (Graph.n g) Fun.id))

(* Extra max-flow coverage *)

let test_max_flow_symmetric () =
  let rng = Rng.create 77 in
  let g = Gen.erdos_renyi rng 12 0.35 in
  for _ = 1 to 10 do
    let s = Rng.int rng 12 and t = Rng.int rng 12 in
    Alcotest.(check (float 1e-6)) "flow(s,t) = flow(t,s)" (Maxflow.max_flow g s t)
      (Maxflow.max_flow g t s)
  done

let test_max_flow_capacitated_triangle () =
  let b = Graph.Builder.create 3 in
  ignore (Graph.Builder.add_edge ~cap:5.0 b 0 1);
  ignore (Graph.Builder.add_edge ~cap:2.0 b 1 2);
  ignore (Graph.Builder.add_edge ~cap:4.0 b 0 2);
  let g = Graph.Builder.build b in
  Alcotest.(check (float 1e-6)) "0->2: direct 4 + via-1 min(5,2)" 6.0
    (Maxflow.max_flow g 0 2)

let test_fat_tree_cross_pod_diversity () =
  let g = Gen.fat_tree 4 in
  (* Edge switches in pods 0 and 1. *)
  let e0 = 4 + 2 and e1 = 4 + 4 + 2 in
  let paths = Yen.k_shortest g ~k:4 e0 e1 in
  Alcotest.(check int) "four equal-cost cross-pod routes" 4 (List.length paths);
  List.iter (fun p -> Alcotest.(check int) "all 4-hop" 4 (Path.hops p)) paths

module Tree = Sso_graph.Tree

let tree_edges (t : Tree.t) =
  List.filter (fun e -> e >= 0) (Array.to_list t.Tree.parent_edge)

let count_tree_edges t = List.length (tree_edges t)

let test_bfs_tree_structure () =
  let g = Gen.grid 3 3 in
  let t = Tree.bfs_tree g 0 in
  Alcotest.(check int) "n-1 edges" 8 (count_tree_edges t);
  Alcotest.(check int) "root depth" 0 t.Tree.depth.(0);
  Alcotest.(check int) "corner depth = bfs dist" 4 t.Tree.depth.(8)

let test_bfs_tree_disconnected () =
  let b = Graph.Builder.create 4 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 2 3);
  let g = Graph.Builder.build b in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Tree.bfs_tree: graph is disconnected") (fun () ->
      ignore (Tree.bfs_tree g 0))

let test_wilson_is_spanning_tree () =
  let rng = Rng.create 3 in
  for _ = 1 to 5 do
    let g = Gen.erdos_renyi rng 20 0.25 in
    let t = Tree.wilson rng g in
    Alcotest.(check int) "n-1 edges" (Graph.n g - 1) (count_tree_edges t);
    (* Every vertex reaches the root: depth terminates and paths exist. *)
    for v = 0 to Graph.n g - 1 do
      Alcotest.(check bool) "depth finite" true (t.Tree.depth.(v) < Graph.n g)
    done
  done

let test_wilson_uniformity_on_triangle () =
  (* A triangle has 3 spanning trees, each omitting one edge; Wilson must
     hit each about a third of the time. *)
  let g = triangle () in
  let rng = Rng.create 7 in
  let counts = Array.make 3 0 in
  let trials = 3000 in
  for _ = 1 to trials do
    let t = Tree.wilson rng g in
    let used = tree_edges t in
    for e = 0 to 2 do
      if not (List.mem e used) then counts.(e) <- counts.(e) + 1
    done
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int trials in
      Alcotest.(check bool) "near uniform" true (Float.abs (frac -. (1.0 /. 3.0)) < 0.05))
    counts

let test_tree_path () =
  let g = Gen.grid 3 3 in
  let t = Tree.bfs_tree g 0 in
  let p = Tree.path t 6 2 in
  Alcotest.(check bool) "simple" true (Path.is_simple g p);
  let vs = Path.vertices g p in
  Alcotest.(check int) "src" 6 vs.(0);
  Alcotest.(check int) "dst" 2 vs.(Array.length vs - 1);
  Alcotest.(check int) "self" 0 (Path.hops (Tree.path t 4 4))

let prop_tree_path_valid =
  QCheck.Test.make ~name:"tree paths are valid simple paths" ~count:40
    QCheck.(triple small_int (int_range 0 19) (int_range 0 19))
    (fun (seed, s, t) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng 20 0.25 in
      let tree = Tree.wilson rng g in
      let p = Tree.path tree s t in
      Path.is_simple g p
      && p.Path.src = s && p.Path.dst = t)

(* The construction [Tree.path] replaced, kept here as the reference:
   both endpoints' walks to the root joined at the root, the shared
   segment excised by [Path.simplify]. *)
let reference_tree_path g (tree : Tree.t) s dst =
  let to_root v =
    let rec go v acc =
      let e = tree.Tree.parent_edge.(v) in
      if e < 0 then List.rev acc else go (Graph.other_end g e v) (e :: acc)
    in
    go v []
  in
  if s = dst then Path.trivial s
  else
    Path.simplify g
      (Path.of_edges g ~src:s ~dst
         (Array.of_list (to_root s @ List.rev (to_root dst))))

let prop_tree_path_matches_root_walk =
  QCheck.Test.make ~name:"tree path = loop-erased root walk" ~count:60
    QCheck.(triple small_int (int_range 2 30) bool)
    (fun (seed, n, use_wilson) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n 0.3 in
      let tree =
        if use_wilson then Tree.wilson rng g else Tree.bfs_tree g (Rng.int rng n)
      in
      let vertices = List.init n Fun.id in
      let walked v = Path.hops (reference_tree_path g tree v tree.Tree.root) in
      List.for_all (fun v -> tree.Tree.depth.(v) = walked v) vertices
      && List.for_all
           (fun s ->
             List.for_all
               (fun t ->
                 Path.equal (Tree.path tree s t) (reference_tree_path g tree s t))
               vertices)
           vertices)

(* Bridges *)

module Bridges = Sso_graph.Bridges

let test_bridges_path () =
  let g = Gen.path_graph 5 in
  Alcotest.(check (list int)) "every edge" [ 0; 1; 2; 3 ] (Bridges.find g)

let test_bridges_cycle () =
  let g = Gen.cycle 6 in
  Alcotest.(check (list int)) "none" [] (Bridges.find g)

let test_bridges_parallel_edges () =
  let b = Graph.Builder.create 3 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 1 2);
  let g = Graph.Builder.build b in
  Alcotest.(check (list int)) "only the single edge" [ 2 ] (Bridges.find g);
  Alcotest.(check bool) "is_bridge" true (Bridges.is_bridge g 2);
  Alcotest.(check bool) "parallel not bridge" false (Bridges.is_bridge g 0)

let test_bridges_c_graph () =
  (* In C(n,k) with k >= 2 the 2n star edges are bridges; the 2k middle
     edges are not. *)
  let n = 5 and k = 3 in
  let c = Gen.c_graph n k in
  Alcotest.(check int) "count" (2 * n) (Bridges.count c.Gen.c_graph)

let test_bridges_barbell () =
  (* Two triangles joined by one edge: exactly that edge is a bridge. *)
  let b = Graph.Builder.create 6 in
  ignore (Graph.Builder.add_edge b 0 1);
  ignore (Graph.Builder.add_edge b 1 2);
  ignore (Graph.Builder.add_edge b 0 2);
  ignore (Graph.Builder.add_edge b 3 4);
  ignore (Graph.Builder.add_edge b 4 5);
  ignore (Graph.Builder.add_edge b 3 5);
  let bridge = Graph.Builder.add_edge b 2 3 in
  let g = Graph.Builder.build b in
  Alcotest.(check (list int)) "the connector" [ bridge ] (Bridges.find g)

let prop_bridges_match_cut_of_one =
  QCheck.Test.make ~name:"an edge is a bridge iff removing it disconnects its endpoints"
    ~count:40 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng 12 0.22 in
      let bridges = Bridges.find g in
      List.for_all
        (fun e ->
          let u, v = Graph.endpoints g e in
          let weights = Array.init (Graph.m g) (fun e' -> if e' = e then infinity else 1.0) in
          let dist, _ = full_run g weights u in
          let disconnected = dist.(v) = infinity in
          disconnected = List.mem e bridges)
        (List.init (Graph.m g) Fun.id))

(* Serialization *)

let test_gio_roundtrip () =
  let g = Gen.grid 3 3 in
  let g' = Gio.of_string (Gio.to_string g) in
  Alcotest.(check int) "n" (Graph.n g) (Graph.n g');
  Alcotest.(check int) "m" (Graph.m g) (Graph.m g');
  Graph.fold_edges
    (fun id u v cap () ->
      let u', v' = Graph.endpoints g' id in
      Alcotest.(check (pair int int)) "endpoints" (u, v) (u', v');
      Alcotest.(check (float 1e-9)) "cap" cap (Graph.cap g' id))
    g ()

let test_gio_caps_roundtrip () =
  let b = Graph.Builder.create 3 in
  ignore (Graph.Builder.add_edge ~cap:2.5 b 0 1);
  ignore (Graph.Builder.add_edge b 1 2);
  let g = Graph.Builder.build b in
  let g' = Gio.of_string (Gio.to_string g) in
  Alcotest.(check (float 1e-9)) "cap preserved" 2.5 (Graph.cap g' 0)

let test_gio_rejects_garbage () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Gio.of_string "hello world");
       false
     with Failure _ -> true)

let test_gio_comments () =
  let g = Gio.of_string "# a comment\nn 2\n0 1\n" in
  Alcotest.(check int) "m" 1 (Graph.m g)

let prop_gio_roundtrip =
  QCheck.Test.make
    ~name:"Gio round-trips random graphs (edges, caps, adjacency)" ~count:50
    QCheck.(pair small_int (int_range 5 30))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n 0.3 in
      let g' = Gio.of_string (Gio.to_string g) in
      (* The edge multiset (with per-edge ids, endpoints, and capacities)
         pins down multiplicities and the full adjacency structure. *)
      let per_edge =
        List.for_all
          (fun e ->
            Graph.endpoints g e = Graph.endpoints g' e
            && Graph.cap g e = Graph.cap g' e)
          (List.init (Graph.m g) Fun.id)
      in
      let adjacency =
        List.for_all
          (fun v ->
            let sorted h =
              List.sort compare (Array.to_list (Graph.adj h v))
            in
            sorted g = sorted g')
          (List.init (Graph.n g) Fun.id)
      in
      Graph.n g = Graph.n g' && Graph.m g = Graph.m g' && per_edge && adjacency)

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"bfs distances satisfy the triangle inequality" ~count:50
    QCheck.(small_int)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng 25 0.25 in
      let n = Graph.n g in
      let d = Array.init n (Shortest.bfs_dist g) in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          for c = 0 to n - 1 do
            if d.(a).(b) <> max_int && d.(b).(c) <> max_int then
              if d.(a).(c) > d.(a).(b) + d.(b).(c) then ok := false
          done
        done
      done;
      !ok)

let prop_cut_symmetric =
  QCheck.Test.make ~name:"min cut is symmetric" ~count:50
    QCheck.(triple small_int (int_range 0 14) (int_range 0 14))
    (fun (seed, s, t) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng 15 0.3 in
      Maxflow.cut g s t = Maxflow.cut g t s)

let prop_cut_bounded_by_degree =
  QCheck.Test.make ~name:"min cut at most min endpoint degree" ~count:50
    QCheck.(triple small_int (int_range 0 14) (int_range 0 14))
    (fun (seed, s, t) ->
      QCheck.assume (s <> t);
      let rng = Rng.create (seed + 1000) in
      let g = Gen.erdos_renyi rng 15 0.3 in
      Maxflow.cut g s t <= min (degree g s) (degree g t))

let prop_yen_sorted =
  QCheck.Test.make ~name:"yen output is sorted and simple" ~count:30
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, k) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng 15 0.3 in
      let paths = Yen.k_shortest g ~k 0 (Graph.n g - 1) in
      let ws = List.map (Path.weight (Array.make (Graph.m g) 1.0)) paths in
      ws = List.sort compare ws && List.for_all (Path.is_simple g) paths)

(* Path arena *)

(* A deterministic random walk of [len] hops from [s]: at each step take a
   uniformly random incident edge.  Walks (repeated vertices and edges) are
   exactly what the arena must accept. *)
let random_walk rng g s len =
  let cur = ref s in
  let edges =
    Array.init len (fun _ ->
        let row = Graph.adj g !cur in
        let e, w = row.(Rng.int rng (Array.length row)) in
        cur := w;
        e)
  in
  Path.of_edges g ~src:s ~dst:!cur edges

let test_arena_empty_and_trivial () =
  let g = triangle () in
  let a = Arena.create g in
  Alcotest.(check int) "empty length" 0 (Arena.length a);
  Alcotest.(check int) "empty bytes" 0 (Arena.memory_bytes a);
  let i = Arena.append_path a (Path.trivial 1) in
  Alcotest.(check int) "trivial handle" 0 i;
  Alcotest.(check int) "trivial hops" 0 (Arena.hops a i);
  Alcotest.(check int) "trivial src" 1 (Arena.src a i);
  Alcotest.(check int) "trivial dst" 1 (Arena.dst a i);
  Alcotest.(check (array int)) "trivial edges" [||] (arena_edges a i);
  Alcotest.(check (array int)) "trivial vertices" [| 1 |] (Arena.vertices a i);
  let visited = ref 0 in
  Arena.iter_edges_vertices a i (fun _ _ -> incr visited);
  Alcotest.(check int) "trivial iter" 0 !visited;
  Alcotest.(check bool) "trivial round-trip" true
    (Path.equal (Path.trivial 1) (Arena.to_path a i))

let test_arena_basics () =
  let g = triangle () in
  let a = Arena.create g in
  let p = Path.of_vertices g [ 0; 1; 2 ] in
  let q = Path.of_vertices g [ 0; 2 ] in
  let ip = Arena.append_path a p in
  let iq = Arena.append_path a q in
  Alcotest.(check int) "length" 2 (Arena.length a);
  Alcotest.(check int) "hops p" 2 (Arena.hops a ip);
  Alcotest.(check int) "hops q" 1 (Arena.hops a iq);
  Alcotest.(check (array int)) "edges p" p.Path.edges (arena_edges a ip);
  Alcotest.(check (array int)) "vertices p" [| 0; 1; 2 |] (Arena.vertices a ip);
  Alcotest.(check bool) "to_path p" true (Path.equal p (Arena.to_path a ip));
  Alcotest.(check bool) "to_path q" true (Path.equal q (Arena.to_path a iq));
  Alcotest.(check bool) "memory" true (Arena.memory_bytes a > 0);
  (* Kernels agree with the boxed path. *)
  Alcotest.(check bool) "for_all" true (Arena.for_all a ip (fun e -> e >= 0));
  Alcotest.(check bool) "exists" false (Arena.exists a ip (fun e -> e > 100));
  (* Canonical candidate order: shorter path first for equal endpoints. *)
  let p02 = Arena.append_path a (Path.of_vertices g [ 0; 1; 2 ]) in
  Alcotest.(check bool) "compare_within_pair" true
    (Arena.compare_within_pair a iq p02 < 0)

let test_arena_rejects_non_walk () =
  let g = Gen.grid 3 3 in
  let a = Arena.create g in
  Alcotest.check_raises "not incident"
    (Invalid_argument "Arena.append_walk: edge not incident to walk vertex") (fun () ->
      ignore (Arena.append_path a (Path.unsafe_of_edges ~src:0 ~dst:8 [| Graph.m g - 1 |])));
  Alcotest.check_raises "wrong dst"
    (Invalid_argument "Arena.append_walk: walk does not end at dst") (fun () ->
      let e0, _ = (Graph.adj g 0).(0) in
      ignore (Arena.append_path a (Path.unsafe_of_edges ~src:0 ~dst:8 [| e0 |])))

let test_arena_merge () =
  let g = Gen.grid 3 3 in
  let rng = Rng.create 5 in
  let builders =
    List.init 3 (fun _ ->
        let b = Arena.create g in
        for _ = 1 to 4 do
          ignore (Arena.append_path b (random_walk rng g (Rng.int rng 9) 5))
        done;
        b)
  in
  let merged = Arena.create g in
  let firsts = List.map (fun b -> Arena.append_range merged b 0 (Arena.length b)) builders in
  Alcotest.(check (list int)) "merge offsets" [ 0; 4; 8 ] firsts;
  Alcotest.(check int) "merge length" 12 (Arena.length merged);
  List.iteri
    (fun k b ->
      for i = 0 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "merged path %d/%d" k i)
          true
          (Path.equal (Arena.to_path b i) (Arena.to_path merged ((k * 4) + i)))
      done)
    builders;
  (* Arenas are bound to their graph: cross-graph blits are rejected. *)
  let other = Arena.create (Gen.grid 3 3) in
  Alcotest.check_raises "graph mismatch"
    (Invalid_argument "Arena.append_slice: arenas are over different graphs")
    (fun () -> ignore (Arena.append_slice other (List.hd builders) 0))

let test_arena_unpack () =
  let g = Gen.grid 3 3 in
  let rng = Rng.create 6 in
  let a = Arena.create g in
  let paths = List.init 5 (fun i -> random_walk rng g (i mod 9) i) in
  let ids = Array.of_list (List.map (Arena.append_path a) paths) in
  let off, fedges, fverts = Arena.unpack_with_vertices a ids in
  Array.iteri
    (fun i id ->
      let h = Arena.hops a id in
      Alcotest.(check int) "unpack width" h (off.(i + 1) - off.(i));
      Alcotest.(check (array int))
        "unpack edges" (arena_edges a id)
        (Array.sub fedges off.(i) h);
      Alcotest.(check (array int))
        "unpack vertices" (Arena.vertices a id)
        (Array.sub fverts (off.(i) + i) (h + 1));
      (* suffix_edges = the boxed tail. *)
      let from_hop = h / 2 in
      Alcotest.(check (array int))
        "suffix"
        (Array.sub (arena_edges a id) from_hop (h - from_hop))
        (Arena.suffix_edges a id ~from_hop))
    ids

let prop_arena_path_roundtrip =
  QCheck.Test.make ~name:"arena slice round-trips any walk" ~count:200
    QCheck.(triple small_int (int_range 0 24) (int_range 0 30))
    (fun (seed, s, len) ->
      let rng = Rng.create seed in
      let g = Gen.grid 5 5 in
      let p = random_walk rng g s len in
      let a = Arena.create g in
      let i = Arena.append_path a p in
      let q = Arena.to_path a i in
      Path.equal p q
      && Arena.hops a i = Array.length p.Path.edges
      && Arena.src a i = p.Path.src
      && Arena.dst a i = p.Path.dst
      && arena_edges a i = p.Path.edges)

let prop_arena_equal_slices =
  QCheck.Test.make ~name:"arena equal_slices iff paths equal" ~count:100
    QCheck.(pair small_int bool)
    (fun (seed, wide) ->
      (* A 140-leaf star stores the hub's slots as two-byte varints. *)
      let g = if wide then star_graph 140 else Gen.grid 3 3 in
      let rng = Rng.create seed in
      let fill () =
        let a = Arena.create g in
        for _ = 1 to 10 do
          let s = if wide then 0 else Rng.int rng 9 in
          ignore (Arena.append_path a (random_walk rng g s (Rng.int rng 4)))
        done;
        a
      in
      let a = fill () and b = fill () in
      List.for_all
        (fun i ->
          List.for_all
            (fun j ->
              Arena.equal_slices a i b j
              = Path.equal (Arena.to_path a i) (Arena.to_path b j))
            (List.init 10 Fun.id))
        (List.init 10 Fun.id))

(* [equal_path] agrees with boxed equality, like [equal_slices], over
   random walks on both one-byte and two-byte slot encodings. *)
let prop_arena_equal_path =
  QCheck.Test.make ~name:"arena equal_path iff paths equal" ~count:100
    QCheck.(pair small_int bool)
    (fun (seed, wide) ->
      let g = if wide then star_graph 140 else Gen.grid 3 3 in
      let rng = Rng.create seed in
      let walks =
        List.init 10 (fun _ ->
            let s = if wide then 0 else Rng.int rng 9 in
            random_walk rng g s (Rng.int rng 4))
      in
      let a = Arena.create g in
      let ids = List.map (Arena.append_path a) walks in
      List.for_all
        (fun i ->
          List.for_all
            (fun p -> Arena.equal_path a i p = Path.equal (Arena.to_path a i) p)
            walks)
        ids)

(* The comparison kernels run once per candidate when a path system
   checks or verifies a pair, so they must not allocate. *)
let test_arena_kernels_allocate_nothing () =
  let g = star_graph 140 in
  let a = Arena.create g in
  let p = Path.of_vertices g [ 1; 0; 139 ] and q = Path.of_vertices g [ 1; 0; 138 ] in
  let ip = Arena.append_path a p and iq = Arena.append_path a q in
  let check name f =
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Alcotest.(check (float 0.0)) (name ^ ": minor words over 1000 calls") 0.0
      (Gc.minor_words () -. before)
  in
  check "equal_slices" (fun () -> Arena.equal_slices a ip a iq);
  check "equal_slices (equal)" (fun () -> Arena.equal_slices a ip a ip);
  check "equal_path" (fun () -> Arena.equal_path a ip p);
  check "equal_path (unequal)" (fun () -> Arena.equal_path a ip q);
  check "hash_slice" (fun () -> Arena.hash_slice a ip)

let test_arena_append_range () =
  let g = Gen.grid 3 3 in
  let rng = Rng.create 8 in
  let src = Arena.create g in
  for i = 0 to 5 do
    ignore (Arena.append_path src (random_walk rng g (i mod 9) (1 + i)))
  done;
  let dst = Arena.create g in
  ignore (Arena.append_slice dst src 5);
  Alcotest.(check int) "first handle" 1 (Arena.append_range dst src 2 3);
  Alcotest.(check int) "empty range" 4 (Arena.append_range dst src 6 0);
  Alcotest.(check int) "length" 4 (Arena.length dst);
  List.iter
    (fun (i, j) ->
      Alcotest.(check bool) (Printf.sprintf "slice %d is source %d" i j) true
        (Arena.equal_slices dst i src j))
    [ (0, 5); (1, 2); (2, 3); (3, 4) ];
  let size i =
    let one = Arena.create g in
    ignore (Arena.append_slice one src i);
    Arena.memory_bytes one
  in
  Alcotest.(check int) "bytes" (size 5 + size 2 + size 3 + size 4) (Arena.memory_bytes dst);
  Alcotest.check_raises "past the end" (Invalid_argument "Arena.append_range: bad range")
    (fun () -> ignore (Arena.append_range dst src 4 3));
  Alcotest.check_raises "graph mismatch"
    (Invalid_argument "Arena.append_range: arenas are over different graphs")
    (fun () -> ignore (Arena.append_range (Arena.create (Gen.grid 3 3)) src 0 1))

let test_arena_truncate () =
  let g = Gen.grid 3 3 in
  let a = Arena.create g in
  let p = Path.of_vertices g [ 0; 1; 2 ] and q = Path.of_vertices g [ 0; 3; 6 ] in
  ignore (Arena.append_path a p);
  let bytes = Arena.memory_bytes a in
  ignore (Arena.append_path a q);
  ignore (Arena.append_path a p);
  Arena.truncate a 1;
  Alcotest.(check int) "length" 1 (Arena.length a);
  Alcotest.(check int) "bytes dropped" bytes (Arena.memory_bytes a);
  Alcotest.(check bool) "kept slice intact" true (Path.equal p (Arena.to_path a 0));
  let iq = Arena.append_path a q in
  Alcotest.(check bool) "appends reuse the space" true (Path.equal q (Arena.to_path a iq));
  Arena.truncate a 2;
  Alcotest.check_raises "past the end" (Invalid_argument "Arena.truncate: bad length")
    (fun () -> Arena.truncate a 3)

let prop_arena_byte_regions_contiguous =
  QCheck.Test.make ~name:"arena byte regions tile the buffer" ~count:100
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, k) ->
      let rng = Rng.create seed in
      let g = Gen.grid 4 4 in
      let a = Arena.create g in
      for _ = 1 to k do
        ignore (Arena.append_path a (random_walk rng g (Rng.int rng 16) (Rng.int rng 10)))
      done;
      let size i =
        let one = Arena.create g in
        ignore (Arena.append_slice one a i);
        Arena.memory_bytes one
      in
      Arena.memory_bytes a = List.fold_left (fun acc i -> acc + size i) 0 (List.init (Arena.length a) Fun.id))

let () =
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "builder basics" `Quick test_builder_basics;
          Alcotest.test_case "rejects self-loop" `Quick test_builder_rejects_self_loop;
          Alcotest.test_case "rejects bad cap" `Quick test_builder_rejects_bad_cap;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "total capacity" `Quick test_total_capacity;
        ] );
      ( "path",
        [
          Alcotest.test_case "of_vertices" `Quick test_path_of_vertices;
          Alcotest.test_case "trivial" `Quick test_path_trivial;
          Alcotest.test_case "of_edges validates" `Quick test_path_of_edges_validates;
          Alcotest.test_case "simplify" `Quick test_path_simplify;
          Alcotest.test_case "simplify identity" `Quick test_path_simplify_identity;
          Alcotest.test_case "concat" `Quick test_path_concat;
          Alcotest.test_case "concat cancels" `Quick test_path_concat_cancels;
          Alcotest.test_case "weight" `Quick test_path_weight;
          Support.to_alcotest prop_simplify_matches_reference;
        ] );
      ( "shortest",
        [
          Alcotest.test_case "bfs dist" `Quick test_bfs_dist;
          Alcotest.test_case "bfs path" `Quick test_bfs_path;
          Alcotest.test_case "dijkstra weighted" `Quick test_dijkstra_weighted;
          Alcotest.test_case "dijkstra vs bfs" `Quick test_dijkstra_dist_matches_bfs;
          Alcotest.test_case "hop-limited loose" `Quick test_hop_limited_loose;
          Alcotest.test_case "hop-limited tight" `Quick test_hop_limited_tight;
          Alcotest.test_case "hop-limited infeasible" `Quick test_hop_limited_infeasible;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "all pairs hops" `Quick test_all_pairs_hops;
          Alcotest.test_case "ball vs full run" `Quick test_ball_matches_full_dijkstra;
          Alcotest.test_case "ball multi-source" `Quick test_ball_multi_source;
          Alcotest.test_case "ball negative radius" `Quick
            test_ball_negative_radius_empty;
          Alcotest.test_case "ball prune = radius" `Quick
            test_ball_prune_equals_radius;
        ] );
      ( "yen",
        [
          Alcotest.test_case "counts and order" `Quick test_yen_counts_and_order;
          Alcotest.test_case "distinct and simple" `Quick test_yen_distinct_and_simple;
          Alcotest.test_case "exhausts" `Quick test_yen_exhausts;
          Alcotest.test_case "trivial" `Quick test_yen_trivial;
        ] );
      ( "maxflow",
        [
          Alcotest.test_case "path" `Quick test_cut_path;
          Alcotest.test_case "cycle" `Quick test_cut_cycle;
          Alcotest.test_case "hypercube" `Quick test_cut_hypercube;
          Alcotest.test_case "two cliques" `Quick test_cut_two_cliques;
          Alcotest.test_case "parallel edges" `Quick test_cut_parallel_edges;
          Alcotest.test_case "self" `Quick test_cut_self;
          Alcotest.test_case "capacities" `Quick test_max_flow_capacities;
        ] );
      ( "matching",
        [
          Alcotest.test_case "perfect" `Quick test_matching_perfect;
          Alcotest.test_case "partial" `Quick test_matching_partial;
          Alcotest.test_case "empty" `Quick test_matching_empty;
        ] );
      ( "gen",
        [
          Alcotest.test_case "hypercube" `Quick test_gen_hypercube;
          Alcotest.test_case "hypercube dimension bound" `Quick
            test_gen_hypercube_rejects_vertex_count;
          Alcotest.test_case "grid" `Quick test_gen_grid;
          Alcotest.test_case "torus" `Quick test_gen_torus;
          Alcotest.test_case "complete" `Quick test_gen_complete;
          Alcotest.test_case "random regular" `Quick test_gen_random_regular;
          Alcotest.test_case "two cliques" `Quick test_gen_two_cliques;
          Alcotest.test_case "c_graph" `Quick test_gen_c_graph;
          Alcotest.test_case "g_graph" `Quick test_gen_g_graph;
          Alcotest.test_case "multi_path" `Quick test_gen_multi_path;
          Alcotest.test_case "abilene" `Quick test_gen_abilene;
          Alcotest.test_case "fat tree" `Quick test_gen_fat_tree;
          Alcotest.test_case "b4" `Quick test_gen_b4;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "int clear" `Quick test_heap_int_clear;
        ] );
      ( "csr",
        [
          Alcotest.test_case "iter_adj matches adj" `Quick test_iter_adj_matches_adj;
          Alcotest.test_case "dijkstra rejects negative weight" `Quick
            test_dijkstra_rejects_negative_weight;
        ] );
      ( "shortest extra",
        [
          Alcotest.test_case "infinite weight masks" `Quick test_dijkstra_infinite_weight_masks;
          Alcotest.test_case "targets stop early" `Quick test_targets_stop_early;
          Alcotest.test_case "targets allocation" `Quick test_targets_allocation;
          Alcotest.test_case "dijkstra rejects NaN" `Quick test_dijkstra_rejects_nan;
          Alcotest.test_case "targets reject NaN" `Quick test_targets_reject_nan;
          Alcotest.test_case "ball rejects NaN" `Quick test_ball_rejects_nan;
          Alcotest.test_case "hop-limited rejects NaN" `Quick test_hop_limited_rejects_nan;
          Alcotest.test_case "hop-limited = dijkstra when loose" `Quick
            test_hop_limited_equals_dijkstra_when_loose;
          Alcotest.test_case "eccentricity vs diameter" `Quick test_eccentricity_bounds_diameter;
        ] );
      ( "maxflow extra",
        [
          Alcotest.test_case "symmetric" `Quick test_max_flow_symmetric;
          Alcotest.test_case "capacitated triangle" `Quick test_max_flow_capacitated_triangle;
          Alcotest.test_case "fat tree diversity" `Quick test_fat_tree_cross_pod_diversity;
        ] );
      ( "tree",
        [
          Alcotest.test_case "bfs tree" `Quick test_bfs_tree_structure;
          Alcotest.test_case "bfs disconnected" `Quick test_bfs_tree_disconnected;
          Alcotest.test_case "wilson spanning" `Quick test_wilson_is_spanning_tree;
          Alcotest.test_case "wilson uniform" `Slow test_wilson_uniformity_on_triangle;
          Alcotest.test_case "tree path" `Quick test_tree_path;
        ] );
      ( "bridges",
        [
          Alcotest.test_case "path" `Quick test_bridges_path;
          Alcotest.test_case "cycle" `Quick test_bridges_cycle;
          Alcotest.test_case "parallel" `Quick test_bridges_parallel_edges;
          Alcotest.test_case "c_graph" `Quick test_bridges_c_graph;
          Alcotest.test_case "barbell" `Quick test_bridges_barbell;
        ] );
      ( "gio",
        [
          Alcotest.test_case "roundtrip" `Quick test_gio_roundtrip;
          Alcotest.test_case "caps roundtrip" `Quick test_gio_caps_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_gio_rejects_garbage;
          Alcotest.test_case "comments" `Quick test_gio_comments;
        ] );
      ( "arena",
        [
          Alcotest.test_case "empty and trivial" `Quick test_arena_empty_and_trivial;
          Alcotest.test_case "basics" `Quick test_arena_basics;
          Alcotest.test_case "rejects non-walk" `Quick test_arena_rejects_non_walk;
          Alcotest.test_case "merge" `Quick test_arena_merge;
          Alcotest.test_case "unpack" `Quick test_arena_unpack;
          Alcotest.test_case "truncate" `Quick test_arena_truncate;
          Alcotest.test_case "append range" `Quick test_arena_append_range;
          Alcotest.test_case "kernels allocate nothing" `Quick
            test_arena_kernels_allocate_nothing;
        ] );
      ( "properties",
        List.map Support.to_alcotest
          [
            prop_matching_valid;
            prop_arena_path_roundtrip;
            prop_arena_byte_regions_contiguous;
            prop_gio_roundtrip;
            prop_bfs_triangle_inequality;
            prop_cut_symmetric;
            prop_cut_bounded_by_degree;
            prop_yen_sorted;
            prop_tree_path_valid;
            prop_tree_path_matches_root_walk;
            prop_arena_equal_slices;
            prop_arena_equal_path;
            prop_settle_order_sorted;
            prop_core_matches_reference;
            prop_targets_match_full_run;
            prop_csr_matches_adj;
            prop_bridges_match_cut_of_one;
          ] );
    ]
