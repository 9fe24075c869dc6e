module Path = Sso_graph.Path
module Graph = Sso_graph.Graph
module Demand = Sso_demand.Demand
module Rng = Sso_prng.Rng

module Pair_map = Map.Make (Demand.Pair)

module Path_map = Map.Make (Path)

(* Pairs strictly ascending, and each pair's distribution at the same
   position: a lookup is a binary search, and a solver that emits its
   pairs in order builds a routing without a per-pair insertion. *)
type t = { keys : (int * int) array; dists : (float * Path.t) list array }

let normalize pair entries =
  let s, t = pair in
  let total =
    List.fold_left
      (fun acc (w, (p : Path.t)) ->
        if w < 0.0 then invalid_arg "Routing.make: negative weight";
        if p.Path.src <> s || p.Path.dst <> t then
          invalid_arg "Routing.make: path endpoints do not match pair";
        acc +. w)
      0.0 entries
  in
  if not (total > 0.0) then invalid_arg "Routing.make: weights must have positive sum";
  (* Merge duplicate paths and normalize. *)
  let merged =
    List.fold_left
      (fun acc (w, p) ->
        Path_map.update p (function None -> Some w | Some w' -> Some (w +. w')) acc)
      Path_map.empty entries
  in
  Path_map.fold
    (fun p w acc -> if w > 0.0 then (w /. total, p) :: acc else acc)
    merged []

let of_map m =
  let n = Pair_map.cardinal m in
  let keys = Array.make n (0, 0) and dists = Array.make n [] in
  ignore
    (Pair_map.fold
       (fun pair dist i ->
         keys.(i) <- pair;
         dists.(i) <- dist;
         i + 1)
       m 0);
  { keys; dists }

let of_sorted keys dists = { keys; dists }

let make entries =
  List.fold_left
    (fun acc (pair, dist) ->
      if Pair_map.mem pair acc then invalid_arg "Routing.make: duplicate pair";
      Pair_map.add pair (normalize pair dist) acc)
    Pair_map.empty entries
  |> of_map

let of_normalized entries =
  List.fold_left
    (fun acc ((pair, dist) : (int * int) * (float * Path.t) list) ->
      if Pair_map.mem pair acc then invalid_arg "Routing.of_normalized: duplicate pair";
      let s, t = pair in
      let total =
        List.fold_left
          (fun sum (w, (p : Path.t)) ->
            if not (w > 0.0) then
              invalid_arg "Routing.of_normalized: weights must be positive";
            if p.Path.src <> s || p.Path.dst <> t then
              invalid_arg "Routing.of_normalized: path endpoints do not match pair";
            sum +. w)
          0.0 dist
      in
      if Float.abs (total -. 1.0) > 1e-6 then
        invalid_arg "Routing.of_normalized: weights must sum to 1";
      Pair_map.add pair dist acc)
    Pair_map.empty entries
  |> of_map

(* Position of [(s, t)] in [keys], or [-1]. *)
let find r s t =
  let keys = r.keys in
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let s', t' = keys.(mid) in
    if s' < s || (s' = s && t' < t) then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length keys && (let s', t' = keys.(!lo) in s' = s && t' = t) then !lo else -1

let distribution r s t = match find r s t with -1 -> [] | i -> r.dists.(i)

let fold f r acc =
  let acc = ref acc in
  Array.iteri (fun i pair -> acc := f pair r.dists.(i) !acc) r.keys;
  !acc

let pairs r = Array.to_list r.keys

let covers r d = List.for_all (fun (s, t) -> find r s t >= 0) (Demand.support d)

let edge_loads g r d =
  let loads = Array.make (Graph.m g) 0.0 in
  Demand.fold
    (fun s t amount () ->
      match find r s t with
      | -1 -> invalid_arg "Routing.edge_loads: demanded pair missing from routing"
      | i ->
          List.iter
            (fun (w, p) ->
              Array.iter
                (fun e -> loads.(e) <- loads.(e) +. (amount *. w))
                p.Path.edges)
            r.dists.(i))
    d ();
  loads

let congestion g r d =
  let loads = edge_loads g r d in
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
      List.fold_left
        (fun acc (w, p) -> if w > 0.0 then max acc (Path.hops p) else acc)
        acc (distribution r s t))
    d 0

let to_map r = fold Pair_map.add r Pair_map.empty

let merge_two (d1, r1) (d2, r2) =
  Pair_map.merge
    (fun pair dist1 dist2 ->
      match (dist1, dist2) with
      | None, None -> None
      | Some dist, None | None, Some dist -> Some dist
      | Some dist1, Some dist2 ->
          let s, t = pair in
          let a = Demand.get d1 s t and b = Demand.get d2 s t in
          if a +. b <= 0.0 then Some dist1
          else begin
            let scaled1 = List.map (fun (w, p) -> (w *. a, p)) dist1 in
            let scaled2 = List.map (fun (w, p) -> (w *. b, p)) dist2 in
            Some (normalize pair (scaled1 @ scaled2))
          end)
    (to_map r1) (to_map r2)
  |> of_map

let merge_convex = function
  | [] -> of_map Pair_map.empty
  | first :: rest ->
      snd
        (List.fold_left
           (fun ((dacc, _) as acc) ((d, _) as part) ->
             (Demand.add dacc d, merge_two acc part))
           first rest)

let sample_path rng r s t =
  match distribution r s t with
  | [] -> invalid_arg "Routing.sample_path: pair missing from routing"
  | dist ->
      let weights = Array.of_list (List.map fst dist) in
      let paths = Array.of_list (List.map snd dist) in
      paths.(Rng.discrete rng weights)
