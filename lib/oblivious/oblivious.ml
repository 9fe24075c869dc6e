module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Rng = Sso_prng.Rng

(* Where a pair's distribution comes from: one call that builds the whole
   weighted support, or a fixed mixture whose component [i] routes the
   pair on its own, so a sampler can route just the components it draws.
   A mixture's weights are positive and normalized once, when it is
   built. *)
type source =
  | Joint of (int -> int -> (float * Path.t) list)
  | Mixture of { weights : float array; route : int -> int -> int -> Path.t }

type t = {
  name : string;
  graph : Graph.t;
  source : source;
  cache : (int * int, (float * Path.t) list) Hashtbl.t;
  (* Guards [cache] and serializes the source's calls: distributions are
     queried and sampled from pool workers (sampling, congestion sweeps),
     and routes may memoize internally. *)
  lock : Mutex.t;
}

let create name graph source =
  { name; graph; source; cache = Hashtbl.create 256; lock = Mutex.create () }

let make ~name graph generate = create name graph (Joint generate)

let locked r f =
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) f

(* The one normalization, shared by both sources: each weight divided by
   the total, summed left to right. *)
let normalize weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if not (total > 0.0) then
    invalid_arg "Oblivious.distribution: weights must have positive sum";
  if Array.exists (fun w -> w < 0.0) weights then
    invalid_arg "Oblivious.distribution: negative weight";
  Array.map (fun w -> w /. total) weights

let mixture ~name graph weights route =
  if not (Array.length weights > 0 && Array.for_all (fun w -> w > 0.0) weights) then
    invalid_arg (Printf.sprintf "Oblivious.mixture (%s): weights must be positive" name);
  create name graph (Mixture { weights = normalize weights; route })

let name r = r.name

let graph r = r.graph

let check_pair s t = if s = t then invalid_arg "Oblivious.distribution: s = t"

let check_endpoints s t (p : Path.t) =
  if p.Path.src <> s || p.Path.dst <> t then
    invalid_arg "Oblivious.distribution: path endpoints do not match pair"

(* Lock held. *)
let build r s t =
  match r.source with
  | Joint generate ->
      let raw = generate s t in
      if raw = [] then
        invalid_arg
          (Printf.sprintf "Oblivious.distribution (%s): empty distribution for (%d,%d)"
             r.name s t);
      List.iter (fun (_, p) -> check_endpoints s t p) raw;
      let weights = normalize (Array.of_list (List.map fst raw)) in
      (* Zero-weight paths leave the support. *)
      List.concat (List.mapi (fun i (w, p) -> if w > 0.0 then [ (weights.(i), p) ] else []) raw)
  | Mixture m ->
      List.init (Array.length m.weights) (fun i ->
          let p = m.route s t i in
          check_endpoints s t p;
          (m.weights.(i), p))

let distribution r s t =
  check_pair s t;
  locked r @@ fun () ->
  match Hashtbl.find_opt r.cache (s, t) with
  | Some dist -> dist
  | None ->
      let dist = build r s t in
      Hashtbl.replace r.cache (s, t) dist;
      dist

let draw_from dist =
  let weights = Array.of_list (List.map fst dist) in
  let paths = Array.of_list (List.map snd dist) in
  fun rng -> paths.(Rng.discrete rng weights)

let sampler r s t =
  match r.source with
  | Joint _ -> draw_from (distribution r s t)
  | Mixture m -> (
      check_pair s t;
      match locked r (fun () -> Hashtbl.find_opt r.cache (s, t)) with
      | Some dist -> draw_from dist
      | None ->
          (* The same weights and one [Rng.discrete] call per draw, as
             over the full distribution, but only drawn components are
             routed, each once per sampler; the cache is left alone. *)
          let memo = Array.make (Array.length m.weights) None in
          fun rng ->
            let i = Rng.discrete rng m.weights in
            match memo.(i) with
            | Some p -> p
            | None ->
                let p = locked r (fun () -> m.route s t i) in
                check_endpoints s t p;
                memo.(i) <- Some p;
                p)

let to_routing r pairs =
  Routing.make r.graph
    (List.map (fun (s, t) -> ((s, t), distribution r s t)) (List.sort_uniq compare pairs))

let congestion r d =
  if Demand.support_size d = 0 then 0.0
  else Routing.congestion r.graph (to_routing r (Demand.support d)) d

let support_sparsity r pairs =
  List.fold_left (fun acc (s, t) -> max acc (List.length (distribution r s t))) 0 pairs
