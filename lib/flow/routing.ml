module Graph = Sso_graph.Graph
module Arena = Sso_graph.Arena
module Demand = Sso_demand.Demand
module Rng = Sso_prng.Rng

(* Pairs strictly ascending, each with a range of entries: a lookup is a
   binary search, and a solver that emits its pairs in order builds a
   routing from arrays it already holds. *)
type t = {
  arena : Arena.t;
  pairs : (int * int) array;
  off : int array;
  weights : float array;
  slices : int array;
}

let of_sorted arena pairs off weights slices = { arena; pairs; off; weights; slices }

(* Rows sorted by pair, a repeated pair refused, each pair's entries
   mapped through [f], then flattened. *)
let build name arena f entries =
  let rows = List.stable_sort (fun (p, _) (q, _) -> Demand.Pair.compare p q) entries in
  let pairs = Array.of_list (List.map fst rows) in
  Array.iteri
    (fun i p ->
      if i > 0 && Demand.Pair.compare pairs.(i - 1) p = 0 then invalid_arg (name ^ ": duplicate pair"))
    pairs;
  let dists = List.map (fun (pair, dist) -> f pair dist) rows in
  let off = Array.make (Array.length pairs + 1) 0 in
  List.iteri (fun i dist -> off.(i + 1) <- off.(i) + List.length dist) dists;
  let entries = List.concat dists in
  let weights = Array.of_list (List.map fst entries) in
  { arena; pairs; off; weights; slices = Array.of_list (List.map snd entries) }

(* A pair's weights, summed in list order, each entry checked. *)
let weigh name ~positive arena (s, t) dist =
  List.fold_left
    (fun acc (w, h) ->
      if (if positive then not (w > 0.0) else w < 0.0) then
        invalid_arg (name ^ if positive then ": weights must be positive" else ": negative weight");
      if Arena.src arena h <> s || Arena.dst arena h <> t then
        invalid_arg (name ^ ": path endpoints do not match pair");
      acc +. w)
    0.0 dist

(* One pair's entries: repeated paths merged (their weights summed in
   list order), then the positive ones descending by path, each divided
   by the pair's sum. *)
let normalize arena pair entries =
  let total = weigh "Routing.make" ~positive:false arena pair entries in
  if not (total > 0.0) then invalid_arg "Routing.make: weights must have positive sum";
  let order (_, h1) (_, h2) = Arena.compare_within_pair arena h1 h2 in
  let rec merge = function
    | ((w1, h) as e1) :: ((w2, _) as e2) :: rest when order e1 e2 = 0 -> merge ((w1 +. w2, h) :: rest)
    | e :: rest -> e :: merge rest
    | [] -> []
  in
  List.fold_left
    (fun acc (w, h) -> if w > 0.0 then (w /. total, h) :: acc else acc)
    [] (merge (List.stable_sort order entries))

let of_slices arena entries = build "Routing.make" arena (normalize arena) entries

let make g entries =
  let arena = Arena.create g in
  of_slices arena
    (List.map
       (fun (pair, dist) -> (pair, List.map (fun (w, p) -> (w, Arena.append_path arena p)) dist))
       entries)

let of_normalized arena entries =
  build "Routing.of_normalized" arena
    (fun pair dist ->
      if Float.abs (weigh "Routing.of_normalized" ~positive:true arena pair dist -. 1.0) > 1e-6 then
        invalid_arg "Routing.of_normalized: weights must sum to 1";
      dist)
    entries

let position r s t =
  let pairs = r.pairs in
  let lo = ref 0 and hi = ref (Array.length pairs) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let s', t' = pairs.(mid) in
    if s' < s || (s' = s && t' < t) then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length pairs && (let s', t' = pairs.(!lo) in s' = s && t' = t) then !lo else -1

let distribution r s t =
  match position r s t with
  | -1 -> []
  | i ->
      List.init (r.off.(i + 1) - r.off.(i)) (fun k ->
          let e = r.off.(i) + k in
          (r.weights.(e), Arena.to_path r.arena r.slices.(e)))

let pairs r = Array.to_list r.pairs

let covers r d = List.for_all (fun (s, t) -> position r s t >= 0) (Demand.support d)

let congestion g r d =
  let loads = Array.make (Graph.m g) 0.0 in
  Demand.fold
    (fun s t amount () ->
      match position r s t with
      | -1 -> invalid_arg "Routing.congestion: demanded pair missing from routing"
      | i ->
          for k = r.off.(i) to r.off.(i + 1) - 1 do
            let x = amount *. r.weights.(k) in
            Arena.iter_edges_vertices r.arena r.slices.(k) (fun e _ -> loads.(e) <- loads.(e) +. x)
          done)
    d ();
  let best = ref 0.0 in
  Array.iteri
    (fun e load ->
      let c = load /. Graph.cap g e in
      if c > !best then best := c)
    loads;
  !best

let dilation r d =
  Demand.fold
    (fun s t _ acc ->
      match position r s t with
      | -1 -> acc
      | i ->
          let acc = ref acc in
          for k = r.off.(i) to r.off.(i + 1) - 1 do
            if r.weights.(k) > 0.0 then acc := max !acc (Arena.hops r.arena r.slices.(k))
          done;
          !acc)
    d 0

(* Every pair of either part, its paths blitted into a fresh arena: a
   pair in one part keeps its distribution, a pair in both mixes the two
   in proportion to its demands. *)
let merge_two (d1, r1) (d2, r2) =
  let arena = Arena.create (Arena.graph r1.arena) in
  let copy r x i =
    List.init (r.off.(i + 1) - r.off.(i)) (fun k ->
        let e = r.off.(i) + k in
        (r.weights.(e) *. x, Arena.append_slice arena r.arena r.slices.(e)))
  in
  let mix ((s, t) as pair) () =
    match (position r1 s t, position r2 s t) with
    | i, -1 -> copy r1 1.0 i
    | -1, j -> copy r2 1.0 j
    | i, j ->
        let a = Demand.get d1 s t and b = Demand.get d2 s t in
        if a +. b <= 0.0 then copy r1 1.0 i else normalize arena pair (copy r1 a i @ copy r2 b j)
  in
  Array.append r1.pairs r2.pairs |> Array.to_list |> List.sort_uniq Demand.Pair.compare
  |> List.map (fun pair -> (pair, ()))
  |> build "Routing.merge_convex" arena mix

let merge_convex = function
  | [] -> invalid_arg "Routing.merge_convex: no parts"
  | first :: rest ->
      snd
        (List.fold_left
           (fun ((dacc, _) as acc) ((d, _) as part) ->
             (Demand.add dacc d, merge_two acc part))
           first rest)

let sample_path rng r s t =
  match position r s t with
  | -1 -> invalid_arg "Routing.sample_path: pair missing from routing"
  | i ->
      let lo = r.off.(i) in
      let k = Rng.discrete rng (Array.sub r.weights lo (r.off.(i + 1) - lo)) in
      Arena.to_path r.arena r.slices.(lo + k)
