module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Rng = Sso_prng.Rng

type t = {
  name : string;
  graph : Graph.t;
  generate : int -> int -> (float * Path.t) list;
  cache : (int * int, (float * Path.t) list) Hashtbl.t;
  (* Guards [cache] and serializes [generate]: distributions are queried
     from pool workers (sampling, congestion sweeps), and generators may
     memoize internally. *)
  lock : Mutex.t;
}

let make ~name graph generate =
  { name; graph; generate; cache = Hashtbl.create 256; lock = Mutex.create () }

let name r = r.name

let graph r = r.graph

let distribution r s t =
  if s = t then invalid_arg "Oblivious.distribution: s = t";
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) @@ fun () ->
  match Hashtbl.find_opt r.cache (s, t) with
  | Some dist -> dist
  | None ->
      let raw = r.generate s t in
      if raw = [] then
        invalid_arg
          (Printf.sprintf "Oblivious.distribution (%s): empty distribution for (%d,%d)"
             r.name s t);
      let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 raw in
      if not (total > 0.0) then
        invalid_arg "Oblivious.distribution: weights must have positive sum";
      List.iter
        (fun ((w, p) : float * Path.t) ->
          if w < 0.0 then invalid_arg "Oblivious.distribution: negative weight";
          if p.Path.src <> s || p.Path.dst <> t then
            invalid_arg "Oblivious.distribution: path endpoints do not match pair")
        raw;
      let dist =
        List.filter_map (fun (w, p) -> if w > 0.0 then Some (w /. total, p) else None) raw
      in
      Hashtbl.replace r.cache (s, t) dist;
      dist

let preload r entries =
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) @@ fun () ->
  List.iter
    (fun ((s, t), dist) ->
      if s = t then invalid_arg "Oblivious.preload: s = t";
      if dist = [] then invalid_arg "Oblivious.preload: empty distribution";
      List.iter
        (fun ((w, p) : float * Path.t) ->
          if not (w > 0.0) then invalid_arg "Oblivious.preload: non-positive weight";
          if p.Path.src <> s || p.Path.dst <> t then
            invalid_arg "Oblivious.preload: path endpoints do not match pair")
        dist;
      Hashtbl.replace r.cache (s, t) dist)
    entries

let sampler r s t =
  let dist = distribution r s t in
  let weights = Array.of_list (List.map fst dist) in
  let paths = Array.of_list (List.map snd dist) in
  fun rng -> paths.(Rng.discrete rng weights)

let sample rng r s t = sampler r s t rng

let to_routing r pairs =
  Routing.make
    (List.map (fun (s, t) -> ((s, t), distribution r s t)) (List.sort_uniq compare pairs))

let congestion r d =
  if Demand.support_size d = 0 then 0.0
  else Routing.congestion r.graph (to_routing r (Demand.support d)) d

let dilation r d =
  if Demand.support_size d = 0 then 0
  else Routing.dilation (to_routing r (Demand.support d)) d

let support_sparsity r pairs =
  List.fold_left (fun acc (s, t) -> max acc (List.length (distribution r s t))) 0 pairs
