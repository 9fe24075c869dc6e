module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Path_arena = Sso_graph.Arena
module Oblivious = Sso_oblivious.Oblivious
module Obs = Sso_obs.Obs
module PS = Set.Make (Path)

(* Where the slices of one pair live in the arena: [count] consecutive
   handles starting at [first], in generation order. *)
type entry = { first : int; count : int }

(* One pair's candidates as a generator hands them over: boxed paths (the
   samplers, [of_pairs]) or slice handles of another arena over the same
   graph (views, preloaded payloads). *)
type source = Paths of Path.t list | Slices of Path_arena.t * int list

(* The index keys pair [(s, t)] by the immediate [s * n + t] ([key]), so a
   lookup hashes one int rather than walking a tuple. *)
module Index = Hashtbl.Make (Int)

type t = {
  graph : Graph.t;
  generate : int -> int -> source;
  arena : Path_arena.t;
  index : entry Index.t;
  (* Guards [index] and arena appends, so systems can be queried from pool
     workers.  Every install generates under this lock, so a generator
     runs on one domain at a time; it must be per-pair deterministic, so
     that no result depends on which domain asks first.  The α-samplers
     qualify: each pair draws from its own RNG child.  Reads of installed
     slices are lock-free: arena regions are immutable once their entry
     is published. *)
  lock : Mutex.t;
}

let compare_pair = Sso_demand.Demand.Pair.compare

let key ps s t =
  let n = Graph.n ps.graph in
  if s < 0 || s >= n || t < 0 || t >= n then invalid_arg "Path_system: pair out of range";
  (s * n) + t

let locked ps f =
  Mutex.lock ps.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock ps.lock) f

(* Up to this many candidates, repeats are found by comparing every two
   slices: cheaper than hashing and sorting an α-sized list. *)
let pairwise_limit = 8

(* The candidate contract, checked on slices [first .. first + count - 1]
   of [a]: every slice runs s → t, and no path repeats.  Small lists are
   scanned pairwise with [Path_arena.equal_slices], allocating nothing;
   larger ones (full oblivious supports offer hundreds of paths per pair)
   sort their handles by byte hash ([Path_arena.hash_slice], ties broken
   by edge order), O(k log k).  A list with both defects reports the one
   a scan in list order meets first: the repeat only if both copies lie
   before the first bad endpoint. *)
let check a s t first count =
  (* Number of slices before the first bad endpoint, [count] if none. *)
  let good = ref 0 in
  while
    !good < count
    && Path_arena.src a (first + !good) = s
    && Path_arena.dst a (first + !good) = t
  do
    incr good
  done;
  let good = !good in
  let duplicate () = invalid_arg "Path_system: duplicate path in candidate set" in
  if good <= pairwise_limit then
    for j = first + 1 to first + good - 1 do
      for i = first to j - 1 do
        if Path_arena.equal_slices a i a j then duplicate ()
      done
    done
  else begin
    let keyed = Array.init good (fun k -> (Path_arena.hash_slice a (first + k), first + k)) in
    Array.sort
      (fun (h1, i1) (h2, i2) ->
        match Int.compare h1 h2 with 0 -> Path_arena.compare_within_pair a i1 i2 | c -> c)
      keyed;
    for k = 1 to good - 1 do
      let h1, i1 = keyed.(k - 1) and h2, i2 = keyed.(k) in
      if h1 = h2 && Path_arena.equal_slices a i1 a i2 then duplicate ()
    done
  end;
  if good < count then invalid_arg "Path_system: path endpoints do not match pair"

(* Lock held.  Append one pair's candidates to the arena, in source
   order, check them on their new slices (boxed paths are encoded, slices
   are copied as bytes), and publish the pair's entry.  A rejected list
   is truncated away before its entry is published, so it installs
   nothing. *)
let install_locked ps s t source =
  let a = ps.arena in
  let first = Path_arena.length a in
  let e =
    try
      (match source with
      | Paths paths -> List.iter (fun p -> ignore (Path_arena.append_path a p)) paths
      | Slices (b, handles) -> List.iter (fun i -> ignore (Path_arena.append_slice a b i)) handles);
      let count = Path_arena.length a - first in
      check a s t first count;
      { first; count }
    with e ->
      Path_arena.truncate a first;
      raise e
  in
  Index.replace ps.index (key ps s t) e;
  e

(* Asked per pair by every Stage-4 index build and service tick.  A hit
   cannot raise, so it takes the lock directly, as [installed] does; a
   miss calls the generator and the install check, which can raise, so
   it goes through [locked] and looks again (another domain may have
   installed the pair in between). *)
let entry ps s t =
  let k = key ps s t in
  Mutex.lock ps.lock;
  match Index.find_opt ps.index k with
  | Some e ->
      Mutex.unlock ps.lock;
      e
  | None ->
      Mutex.unlock ps.lock;
      locked ps (fun () ->
          match Index.find_opt ps.index k with
          | Some e -> e
          | None -> install_locked ps s t (ps.generate s t))

let of_source graph generate =
  {
    graph;
    generate;
    arena = Path_arena.create graph;
    index = Index.create 64;
    lock = Mutex.create ();
  }

let of_pairs graph entries =
  let ps = of_source graph (fun _ _ -> Paths []) in
  List.iter
    (fun ((s, t), paths) ->
      if Index.mem ps.index (key ps s t) then invalid_arg "Path_system.of_pairs: duplicate pair";
      ignore (install_locked ps s t (Paths paths)))
    entries;
  ps

let of_generator graph generate = of_source graph (fun s t -> Paths (generate s t))

(* Lock held.  The check-and-install pass of [preload] and [adopt], over
   ranges of an arena [a] that decoded a payload: one walk vets every pair
   ([vet] first, then the install check on its slices of [a]) and a second
   installs the pairs not yet in the index by copying their slices, so a
   rejection raises before anything is installed. *)
let vet_ranges ps a ranges vet =
  List.iter
    (fun (((s, t) as pair), (first, count)) ->
      vet pair (Index.find_opt ps.index (key ps s t)) first count;
      check a s t first count)
    ranges

let install_ranges ps a ranges =
  List.iter
    (fun ((s, t), (first, count)) ->
      let k = key ps s t in
      if not (Index.mem ps.index k) then
        Index.replace ps.index k
          { first = Path_arena.append_range ps.arena a first count; count })
    ranges

let same_graph name ps a =
  if not (Path_arena.graph a == ps.graph) then
    invalid_arg (Printf.sprintf "Path_system.%s: arena over another graph" name)

let preload ps a ranges =
  same_graph "preload" ps a;
  locked ps @@ fun () ->
  vet_ranges ps a ranges (fun _ installed _ _ ->
      if installed <> None then invalid_arg "Path_system.preload: duplicate pair");
  install_ranges ps a ranges

exception Disagree of (int * int)

(* Does the pair's candidate list equal slices [first .. first + count - 1]
   of [a]?  Installed pairs compare their installed slices; missing ones
   ask the generator, without installing its answer. *)
let agrees ps a (s, t) installed first count =
  let rec same k matches = function
    | [] -> k = count
    | x :: rest -> k < count && matches x (first + k) && same (k + 1) matches rest
  in
  let equal_slice b h i = Path_arena.equal_slices b h a i in
  match installed with
  | Some e -> same 0 (equal_slice ps.arena) (List.init e.count (fun k -> e.first + k))
  | None -> (
      match ps.generate s t with
      | Paths paths -> same 0 (fun p i -> Path_arena.equal_path a i p) paths
      | Slices (b, handles) -> same 0 (equal_slice b) handles)

let adopt ps a ranges =
  same_graph "adopt" ps a;
  locked ps @@ fun () ->
  match
    Obs.traced "restore.verify" (fun () ->
        vet_ranges ps a ranges (fun pair installed first count ->
            if not (agrees ps a pair installed first count) then raise (Disagree pair)))
  with
  | exception Disagree pair -> Error pair
  | () ->
      Obs.traced "restore.install" (fun () -> install_ranges ps a ranges);
      Ok ()

let graph ps = ps.graph
let arena ps = ps.arena

let slice_range ps s t =
  let e = entry ps s t in
  (e.first, e.count)

let slice_count ps s t = (entry ps s t).count

let iter_slices ps s t f =
  let e = entry ps s t in
  for k = e.first to e.first + e.count - 1 do
    f k
  done

let paths ps s t =
  let e = entry ps s t in
  List.init e.count (fun k -> Path_arena.to_path ps.arena (e.first + k))

let materialize ps pair_list = List.iter (fun (s, t) -> ignore (entry ps s t)) pair_list

(* Asked once per active pair per service tick.  [Index.mem] cannot
   raise, so the lock is taken directly: [locked]'s closure and unwind
   handler measurably slowed a tick. *)
let installed ps s t =
  let k = key ps s t in
  Mutex.lock ps.lock;
  let r = Index.mem ps.index k in
  Mutex.unlock ps.lock;
  r

let known_pairs ps =
  List.sort compare_pair
    (locked ps (fun () ->
         let n = Graph.n ps.graph in
         Index.fold (fun k _ acc -> (k / n, k mod n) :: acc) ps.index []))

let sparsity_on ps pair_list =
  List.fold_left (fun acc (s, t) -> max acc (slice_count ps s t)) 0 pair_list

let is_alpha_sparse ps ~alpha pair_list = sparsity_on ps pair_list <= alpha

let union a b =
  of_generator a.graph (fun s t ->
      PS.elements (PS.union (PS.of_list (paths a s t)) (PS.of_list (paths b s t))))

let filter keep ps =
  of_source ps.graph (fun s t ->
      let first, count = slice_range ps s t in
      let handles = List.init count (fun k -> first + k) in
      Slices (ps.arena, List.filter (keep ps.arena) handles))

(* A mixture can put the same path in several components (two trees that
   share an (s,t) path each contribute it), so the support keeps the first
   occurrence of each path, in distribution order. *)
let of_oblivious_support obl =
  of_generator (Oblivious.graph obl) (fun s t ->
      let _, support =
        List.fold_left
          (fun (seen, acc) (_, p) ->
            if PS.mem p seen then (seen, acc) else (PS.add p seen, p :: acc))
          (PS.empty, [])
          (Oblivious.distribution obl s t)
      in
      List.rev support)

let unpack_pair ps s t = Sso_flow.Slice_candidates.unpack ps.arena (slice_range ps s t)

let to_slice_candidates ps pair_list =
  let pairs = List.sort_uniq compare_pair pair_list in
  Sso_flow.Slice_candidates.concat ps.arena
    (List.map (fun (s, t) -> ((s, t), unpack_pair ps s t)) pairs)
