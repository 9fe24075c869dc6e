module Path = Sso_graph.Path
module Graph = Sso_graph.Graph
module Demand = Sso_demand.Demand
module Rng = Sso_prng.Rng

module Pair_map = Map.Make (Demand.Pair)

module Path_map = Map.Make (Path)

type t = (float * Path.t) list Pair_map.t

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

let make entries =
  List.fold_left
    (fun acc (pair, dist) ->
      if Pair_map.mem pair acc then invalid_arg "Routing.make: duplicate pair";
      Pair_map.add pair (normalize pair dist) acc)
    Pair_map.empty entries

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

let distribution r s t =
  match Pair_map.find_opt (s, t) r with Some d -> d | None -> []

let pairs r = List.map fst (Pair_map.bindings r)

let covers r d =
  List.for_all (fun (s, t) -> Pair_map.mem (s, t) r) (Demand.support d)

let edge_loads g r d =
  let loads = Array.make (Graph.m g) 0.0 in
  Demand.fold
    (fun s t amount () ->
      match Pair_map.find_opt (s, t) r with
      | None -> invalid_arg "Routing.edge_loads: demanded pair missing from routing"
      | Some dist ->
          List.iter
            (fun (w, p) ->
              Array.iter
                (fun e -> loads.(e) <- loads.(e) +. (amount *. w))
                p.Path.edges)
            dist)
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
    r1 r2

let merge_convex = function
  | [] -> Pair_map.empty
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
