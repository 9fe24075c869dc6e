module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Path_arena = Sso_graph.Arena
module Oblivious = Sso_oblivious.Oblivious
module Pool = Sso_engine.Pool
module PS = Set.Make (Path)

(* Where the slices of one pair live in the arena: [count] consecutive
   handles starting at [first], in generation order. *)
type entry = { first : int; count : int }

(* One pair's candidates as a generator hands them over: boxed paths (the
   samplers, [of_pairs]) or slice handles of another arena over the same
   graph (views, preloaded payloads). *)
type source = Paths of Path.t list | Slices of Path_arena.t * int list

type t = {
  graph : Graph.t;
  generate : int -> int -> source;
  arena : Path_arena.t;
  index : (int * int, entry) Hashtbl.t;
  (* Guards [index] and arena appends, so systems can be queried from pool
     workers.  A single-pair query ([entry]) generates under this lock, but
     [materialize_parallel] calls [generate] from pool workers outside it:
     a generator must be safe to call concurrently and per-pair
     deterministic, so that no result depends on which domain asks first.
     The α-samplers qualify: each pair draws from its own RNG child, and
     [Oblivious] serializes its routes under its own lock.  Reads of
     installed slices are lock-free: arena regions are immutable once
     their entry is published. *)
  lock : Mutex.t;
}

let compare_pair = Sso_demand.Demand.Pair.compare

let locked ps f =
  Mutex.lock ps.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock ps.lock) f

(* The candidate contract, checked on slices of [a]: every slice runs
   s → t, and no path repeats.  Repeats are found by sorting the handles
   by their byte hash ([Path_arena.hash_slice], ties broken by edge
   order), O(k log k) for any list size: full oblivious supports offer
   hundreds of paths per pair.  A list with both defects reports the one
   a scan in list order meets first: the repeat only if both copies lie
   before the first bad endpoint. *)
let check a s t handles =
  let n = Array.length handles in
  (* Index of the first bad endpoint, [n] if none. *)
  let bad = ref 0 in
  while
    !bad < n && Path_arena.src a handles.(!bad) = s && Path_arena.dst a handles.(!bad) = t
  do
    incr bad
  done;
  let keyed = Array.init !bad (fun k -> (Path_arena.hash_slice a handles.(k), handles.(k))) in
  Array.sort
    (fun (h1, i1) (h2, i2) ->
      match Int.compare h1 h2 with 0 -> Path_arena.compare_within_pair a i1 i2 | c -> c)
    keyed;
  for k = 1 to !bad - 1 do
    let h1, i1 = keyed.(k - 1) and h2, i2 = keyed.(k) in
    if h1 = h2 && Path_arena.equal_slices a i1 a i2 then
      invalid_arg "Path_system: duplicate path in candidate set"
  done;
  if !bad < n then invalid_arg "Path_system: path endpoints do not match pair"

let copy_slices into a handles =
  let first = Path_arena.length into in
  Array.iter (fun i -> ignore (Path_arena.append_slice into a i)) handles;
  { first; count = Array.length handles }

(* Append one pair's candidates to [into], in source order, and check
   them.  Slices are checked where they live and then blitted; boxed
   paths are encoded first, checked on their new slices and truncated
   away if rejected.  Callers publish the entry only after this returns,
   so a rejected list installs nothing. *)
let append into s t = function
  | Slices (a, handles) ->
      let handles = Array.of_list handles in
      check a s t handles;
      copy_slices into a handles
  | Paths paths -> (
      let first = Path_arena.length into in
      try
        List.iter (fun p -> ignore (Path_arena.append_path into p)) paths;
        let count = Path_arena.length into - first in
        check into s t (Array.init count (fun k -> first + k));
        { first; count }
      with e ->
        Path_arena.truncate into first;
        raise e)

(* Lock held. *)
let install_locked ps s t source =
  let e = append ps.arena s t source in
  Hashtbl.replace ps.index (s, t) e;
  e

let entry ps s t =
  locked ps (fun () ->
      match Hashtbl.find_opt ps.index (s, t) with
      | Some e -> e
      | None -> install_locked ps s t (ps.generate s t))

let of_source graph generate =
  {
    graph;
    generate;
    arena = Path_arena.create graph;
    index = Hashtbl.create 64;
    lock = Mutex.create ();
  }

let of_pairs graph entries =
  let ps = of_source graph (fun _ _ -> Paths []) in
  List.iter
    (fun ((s, t), paths) ->
      if Hashtbl.mem ps.index (s, t) then invalid_arg "Path_system.of_pairs: duplicate pair";
      ignore (install_locked ps s t (Paths paths)))
    entries;
  ps

let of_generator graph generate = of_source graph (fun s t -> Paths (generate s t))

let preload ps a ranges =
  if not (Path_arena.graph a == ps.graph) then
    invalid_arg "Path_system.preload: arena over another graph";
  locked ps @@ fun () ->
  (* Check every range before installing any: a rejected payload leaves
     the system as it was. *)
  let checked =
    List.map
      (fun (((s, t) as pair), (first, count)) ->
        if Hashtbl.mem ps.index pair then invalid_arg "Path_system.preload: duplicate pair";
        let handles = Array.init count (fun k -> first + k) in
        check a s t handles;
        (pair, handles))
      ranges
  in
  List.iter
    (fun (pair, handles) -> Hashtbl.replace ps.index pair (copy_slices ps.arena a handles))
    checked

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

(* Chunk size for parallel materialization: fixed, so the chunk structure —
   and with it the merged arena layout and any per-chunk failure — depends
   only on the pair list, never on the job count. *)
let parallel_chunk = 16

let materialize_parallel ?pool ps pair_list =
  let seen = Hashtbl.create (List.length pair_list) in
  Mutex.lock ps.lock;
  let misses =
    List.filter
      (fun pair ->
        if Hashtbl.mem seen pair then false
        else begin
          Hashtbl.add seen pair ();
          not (Hashtbl.mem ps.index pair)
        end)
      pair_list
  in
  Mutex.unlock ps.lock;
  if misses <> [] then begin
    let arr = Array.of_list misses in
    let total = Array.length arr in
    let chunks = (total + parallel_chunk - 1) / parallel_chunk in
    (* Each worker fills a private builder arena; the merge below appends
       the builders in chunk order, so the shared arena's layout is
       identical at any job count. *)
    let built =
      Pool.parallel_init ?pool chunks (fun c ->
          let lo = c * parallel_chunk in
          let hi = min total (lo + parallel_chunk) in
          let builder = Path_arena.create ~capacity:(4 * (hi - lo)) ps.graph in
          let entries =
            Array.init (hi - lo) (fun k ->
                let s, t = arr.(lo + k) in
                ((s, t), append builder s t (ps.generate s t)))
          in
          (builder, entries))
    in
    locked ps (fun () ->
        Array.iter
          (fun (builder, entries) ->
            let base = Path_arena.append_all ps.arena builder in
            Array.iter
              (fun (pair, e) ->
                if not (Hashtbl.mem ps.index pair) then
                  Hashtbl.replace ps.index pair { e with first = base + e.first })
              entries)
          built)
  end

let known_pairs ps =
  List.sort compare_pair
    (locked ps (fun () -> Hashtbl.fold (fun pair _ acc -> pair :: acc) ps.index []))

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
  Sso_flow.Slice_candidates.concat ps.graph
    (List.map (fun (s, t) -> ((s, t), unpack_pair ps s t)) pairs)
