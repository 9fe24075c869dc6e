module Rng = Sso_prng.Rng

let hypercube d =
  if d < 1 then invalid_arg "Gen.hypercube: dimension must be >= 1";
  if d > 30 then
    invalid_arg
      (Printf.sprintf
         "Gen.hypercube: dimension %d exceeds 30 (the argument is the dimension d, not \
          the vertex count 2^d)"
         d);
  let n = 1 lsl d in
  let b = Graph.Builder.create n in
  for v = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let w = v lxor (1 lsl bit) in
      if v < w then ignore (Graph.Builder.add_edge b v w)
    done
  done;
  Graph.Builder.build b

let grid rows cols =
  if rows < 1 || cols < 1 then invalid_arg "Gen.grid: sides must be >= 1";
  let id r c = (r * cols) + c in
  let b = Graph.Builder.create (rows * cols) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then ignore (Graph.Builder.add_edge b (id r c) (id r (c + 1)));
      if r + 1 < rows then ignore (Graph.Builder.add_edge b (id r c) (id (r + 1) c))
    done
  done;
  Graph.Builder.build b

let torus rows cols =
  if rows < 3 || cols < 3 then invalid_arg "Gen.torus: sides must be >= 3";
  let id r c = (r * cols) + c in
  let b = Graph.Builder.create (rows * cols) in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      ignore (Graph.Builder.add_edge b (id r c) (id r ((c + 1) mod cols)));
      ignore (Graph.Builder.add_edge b (id r c) (id ((r + 1) mod rows) c))
    done
  done;
  Graph.Builder.build b

let complete n =
  if n < 2 then invalid_arg "Gen.complete: need >= 2 vertices";
  let b = Graph.Builder.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      ignore (Graph.Builder.add_edge b u v)
    done
  done;
  Graph.Builder.build b

let path_graph n =
  if n < 2 then invalid_arg "Gen.path_graph: need >= 2 vertices";
  let b = Graph.Builder.create n in
  for v = 0 to n - 2 do
    ignore (Graph.Builder.add_edge b v (v + 1))
  done;
  Graph.Builder.build b

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: need >= 3 vertices";
  let b = Graph.Builder.create n in
  for v = 0 to n - 1 do
    ignore (Graph.Builder.add_edge b v ((v + 1) mod n))
  done;
  Graph.Builder.build b

let erdos_renyi rng n p =
  if n < 2 then invalid_arg "Gen.erdos_renyi: need >= 2 vertices";
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Gen.erdos_renyi: p out of range";
  let rec attempt tries =
    if tries > 1000 then
      invalid_arg "Gen.erdos_renyi: could not draw a connected graph (p too small?)";
    let b = Graph.Builder.create n in
    let any = ref false in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Rng.float rng < p then begin
          ignore (Graph.Builder.add_edge b u v);
          any := true
        end
      done
    done;
    if not !any then attempt (tries + 1)
    else
      let g = Graph.Builder.build b in
      if Graph.is_connected g then g else attempt (tries + 1)
  in
  attempt 0

let random_regular rng n d =
  if d < 3 || d >= n then invalid_arg "Gen.random_regular: need 3 <= d < n";
  if n * d mod 2 <> 0 then invalid_arg "Gen.random_regular: n * d must be even";
  (* Configuration model: pair up d stubs per vertex, reject self-loops and
     multi-edges, retry.  For d >= 3 the success probability is constant. *)
  let rec attempt tries =
    if tries > 2000 then
      invalid_arg "Gen.random_regular: rejection sampling failed (d too large?)";
    let stubs = Array.make (n * d) 0 in
    for i = 0 to (n * d) - 1 do
      stubs.(i) <- i / d
    done;
    Rng.shuffle rng stubs;
    let seen = Hashtbl.create (n * d) in
    let ok = ref true in
    let pairs = ref [] in
    let i = ref 0 in
    while !ok && !i < n * d do
      let u = stubs.(!i) and v = stubs.(!i + 1) in
      let key = (min u v, max u v) in
      if u = v || Hashtbl.mem seen key then ok := false
      else begin
        Hashtbl.add seen key ();
        pairs := (u, v) :: !pairs;
        i := !i + 2
      end
    done;
    if not !ok then attempt (tries + 1)
    else begin
      let b = Graph.Builder.create n in
      List.iter (fun (u, v) -> ignore (Graph.Builder.add_edge b u v)) !pairs;
      let g = Graph.Builder.build b in
      if Graph.is_connected g then g else attempt (tries + 1)
    end
  in
  attempt 0

let two_cliques n =
  if n < 2 then invalid_arg "Gen.two_cliques: need >= 2 vertices per clique";
  let b = Graph.Builder.create (2 * n) in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      ignore (Graph.Builder.add_edge b u v);
      ignore (Graph.Builder.add_edge b (n + u) (n + v))
    done
  done;
  for i = 0 to n - 1 do
    ignore (Graph.Builder.add_edge b i (n + i))
  done;
  Graph.Builder.build b

type c_graph = {
  c_graph : Graph.t;
  c_center1 : int;
  c_leaves1 : int array;
  c_center2 : int;
  c_leaves2 : int array;
  c_middles : int array;
}

(* Vertex layout for C(n,k): center1 = 0, leaves1 = 1..n,
   center2 = n+1, leaves2 = n+2..2n+1, middles = 2n+2..2n+1+k. *)
let c_graph_into b ~offset n k =
  let center1 = offset in
  let leaves1 = Array.init n (fun i -> offset + 1 + i) in
  let center2 = offset + n + 1 in
  let leaves2 = Array.init n (fun i -> offset + n + 2 + i) in
  let middles = Array.init k (fun i -> offset + (2 * n) + 2 + i) in
  Array.iter (fun leaf -> ignore (Graph.Builder.add_edge b center1 leaf)) leaves1;
  Array.iter (fun leaf -> ignore (Graph.Builder.add_edge b center2 leaf)) leaves2;
  Array.iter
    (fun mid ->
      ignore (Graph.Builder.add_edge b center1 mid);
      ignore (Graph.Builder.add_edge b mid center2))
    middles;
  (center1, leaves1, center2, leaves2, middles)

let c_graph n k =
  if n < 1 || k < 1 then invalid_arg "Gen.c_graph: need n >= 1 and k >= 1";
  let b = Graph.Builder.create ((2 * n) + 2 + k) in
  let c_center1, c_leaves1, c_center2, c_leaves2, c_middles =
    c_graph_into b ~offset:0 n k
  in
  { c_graph = Graph.Builder.build b; c_center1; c_leaves1; c_center2; c_leaves2; c_middles }

type c_graph_view = {
  v_center1 : int;
  v_leaves1 : int array;
  v_center2 : int;
  v_leaves2 : int array;
  v_middles : int array;
}

type g_graph = { g_graph : Graph.t; g_copies : (int * c_graph_view) list }

let log2_floor n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
  go 0 n

let g_graph n =
  if n < 2 then invalid_arg "Gen.g_graph: need n >= 2";
  let amax = max 1 (log2_floor n) in
  let k_of alpha =
    let k = int_of_float (Float.pow (float_of_int n) (1.0 /. (2.0 *. float_of_int alpha))) in
    max 1 k
  in
  let sizes = List.init amax (fun i -> (2 * n) + 2 + k_of (i + 1)) in
  let total = List.fold_left ( + ) 0 sizes in
  let b = Graph.Builder.create total in
  let offset = ref 0 in
  let copies =
    List.init amax (fun i ->
        let alpha = i + 1 in
        let v_center1, v_leaves1, v_center2, v_leaves2, v_middles =
          c_graph_into b ~offset:!offset n (k_of alpha)
        in
        offset := !offset + (2 * n) + 2 + k_of alpha;
        (alpha, { v_center1; v_leaves1; v_center2; v_leaves2; v_middles }))
  in
  (* Chain consecutive copies with a bridge between leaf vertices. *)
  let rec bridge = function
    | (_, a) :: ((_, b') :: _ as rest) ->
        ignore (Graph.Builder.add_edge b a.v_leaves2.(0) b'.v_leaves1.(0));
        bridge rest
    | _ -> ()
  in
  bridge copies;
  { g_graph = Graph.Builder.build b; g_copies = copies }

let multi_path lens =
  if lens = [] then invalid_arg "Gen.multi_path: need at least one path";
  List.iter (fun l -> if l < 1 then invalid_arg "Gen.multi_path: lengths must be >= 1") lens;
  let internal = List.fold_left (fun acc l -> acc + (l - 1)) 0 lens in
  let b = Graph.Builder.create (2 + internal) in
  let next = ref 2 in
  List.iter
    (fun l ->
      if l = 1 then ignore (Graph.Builder.add_edge b 0 1)
      else begin
        let prev = ref 0 in
        for _ = 1 to l - 1 do
          ignore (Graph.Builder.add_edge b !prev !next);
          prev := !next;
          incr next
        done;
        ignore (Graph.Builder.add_edge b !prev 1)
      end)
    lens;
  Graph.Builder.build b

let abilene () =
  let cities =
    [|
      "Seattle"; "Sunnyvale"; "LosAngeles"; "Denver"; "KansasCity"; "Houston";
      "Chicago"; "Indianapolis"; "Atlanta"; "WashingtonDC"; "NewYork";
    |]
  in
  let links =
    [
      (0, 1); (0, 3); (1, 2); (1, 3); (2, 5); (3, 4); (4, 5); (4, 6); (5, 8);
      (6, 7); (6, 10); (7, 8); (8, 9); (9, 10);
    ]
  in
  let b = Graph.Builder.create (Array.length cities) in
  List.iter (fun (u, v) -> ignore (Graph.Builder.add_edge ~cap:10.0 b u v)) links;
  (Graph.Builder.build b, cities)

let fat_tree k =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Gen.fat_tree: k must be even and >= 2";
  let half = k / 2 in
  let cores = half * half in
  (* Layout: cores [0, cores), then pod p's aggregation switches
     [cores + p*k, cores + p*k + half) and edge switches
     [cores + p*k + half, cores + (p+1)*k). *)
  let n = cores + (k * k) in
  let b = Graph.Builder.create n in
  for p = 0 to k - 1 do
    let agg i = cores + (p * k) + i in
    let edge i = cores + (p * k) + half + i in
    (* Full bipartite pod fabric. *)
    for a = 0 to half - 1 do
      for e = 0 to half - 1 do
        ignore (Graph.Builder.add_edge b (agg a) (edge e))
      done
    done;
    (* Aggregation switch a connects to core group a. *)
    for a = 0 to half - 1 do
      for c = 0 to half - 1 do
        ignore (Graph.Builder.add_edge b (agg a) ((a * half) + c))
      done
    done
  done;
  Graph.Builder.build b

let b4 () =
  let sites =
    [|
      "US-West1"; "US-West2"; "US-Central"; "US-East1"; "US-East2"; "Europe1";
      "Europe2"; "Europe3"; "Asia1"; "Asia2"; "Asia3"; "SouthAmerica";
    |]
  in
  let links =
    [
      (0, 1); (0, 2); (0, 8); (1, 2); (1, 9); (2, 3); (2, 4); (3, 4); (3, 5);
      (4, 5); (4, 11); (5, 6); (5, 7); (6, 7); (6, 8); (7, 10); (8, 9);
      (9, 10); (10, 11);
    ]
  in
  let b = Graph.Builder.create (Array.length sites) in
  List.iter (fun (u, v) -> ignore (Graph.Builder.add_edge ~cap:10.0 b u v)) links;
  (Graph.Builder.build b, sites)
