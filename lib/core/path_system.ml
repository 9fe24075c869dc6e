module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Path_arena = Sso_graph.Arena
module Routing = Sso_flow.Routing
module Oblivious = Sso_oblivious.Oblivious
module Pool = Sso_engine.Pool
module PS = Set.Make (Path)

(* Where the slices of one pair live in the arena: [count] consecutive
   handles starting at [first], in generation order. *)
type entry = { first : int; count : int }

type t = {
  graph : Graph.t;
  generate : int -> int -> Path.t list;
  arena : Path_arena.t;
  index : (int * int, entry) Hashtbl.t;
  (* Guards [index] and arena appends, and serializes [generate] so systems
     can be queried from pool workers.  Generation happens under the lock:
     generators may share an RNG or memoize internally, and per-pair results
     must not depend on which domain asks first.  Reads of installed slices
     are lock-free: arena regions are immutable once their entry is
     published. *)
  lock : Mutex.t;
}

let compare_pair (s1, t1) (s2, t2) =
  match Int.compare s1 s2 with 0 -> Int.compare t1 t2 | c -> c

let validate s t paths =
  let set =
    List.fold_left
      (fun acc (p : Path.t) ->
        if p.Path.src <> s || p.Path.dst <> t then
          invalid_arg "Path_system: path endpoints do not match pair";
        if PS.mem p acc then invalid_arg "Path_system: duplicate path in candidate set";
        PS.add p acc)
      PS.empty paths
  in
  ignore set;
  paths

(* Lock held.  Validation runs before any append so a rejected candidate
   list leaves no entry behind. *)
let install_locked ps s t path_list =
  let paths = validate s t path_list in
  let first = Path_arena.length ps.arena in
  List.iter (fun p -> ignore (Path_arena.append_path ps.arena p)) paths;
  let entry = { first; count = Path_arena.length ps.arena - first } in
  Hashtbl.replace ps.index (s, t) entry;
  entry

let entry ps s t =
  Mutex.lock ps.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock ps.lock)
    (fun () ->
      match Hashtbl.find_opt ps.index (s, t) with
      | Some e -> e
      | None -> install_locked ps s t (ps.generate s t))

let of_pairs graph entries =
  let ps =
    {
      graph;
      generate = (fun _ _ -> []);
      arena = Path_arena.create ~capacity:(4 * max 1 (List.length entries)) graph;
      index = Hashtbl.create (max 16 (List.length entries));
      lock = Mutex.create ();
    }
  in
  List.iter
    (fun ((s, t), paths) ->
      if Hashtbl.mem ps.index (s, t) then invalid_arg "Path_system.of_pairs: duplicate pair";
      ignore (install_locked ps s t paths))
    entries;
  ps

let of_generator graph generate =
  {
    graph;
    generate;
    arena = Path_arena.create graph;
    index = Hashtbl.create 64;
    lock = Mutex.create ();
  }

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
                let paths = validate s t (ps.generate s t) in
                let first = Path_arena.length builder in
                List.iter (fun p -> ignore (Path_arena.append_path builder p)) paths;
                ((s, t), first, Path_arena.length builder - first))
          in
          (builder, entries))
    in
    Mutex.lock ps.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock ps.lock)
      (fun () ->
        Array.iter
          (fun (builder, entries) ->
            let base = Path_arena.append_all ps.arena builder in
            Array.iter
              (fun (pair, first, count) ->
                if not (Hashtbl.mem ps.index pair) then
                  Hashtbl.replace ps.index pair { first = base + first; count })
              entries)
          built)
  end

let known_pairs ps =
  Mutex.lock ps.lock;
  let pairs = Hashtbl.fold (fun pair _ acc -> pair :: acc) ps.index [] in
  Mutex.unlock ps.lock;
  List.sort compare_pair pairs

let sparsity_on ps pair_list =
  List.fold_left (fun acc (s, t) -> max acc (slice_count ps s t)) 0 pair_list

let is_alpha_sparse ps ~alpha pair_list = sparsity_on ps pair_list <= alpha

let union a b =
  of_generator a.graph (fun s t ->
      PS.elements (PS.union (PS.of_list (paths a s t)) (PS.of_list (paths b s t))))

let restrict_hops ~max_hops ps =
  of_generator ps.graph (fun s t ->
      List.filter (fun p -> Path.hops p <= max_hops) (paths ps s t))

let filter_paths keep ps =
  of_generator ps.graph (fun s t -> List.filter keep (paths ps s t))

let of_routing_support g r =
  of_pairs g
    (List.map
       (fun (s, t) -> ((s, t), List.map snd (Routing.distribution r s t)))
       (Routing.pairs r))

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

let to_candidates ps pair_list =
  List.map
    (fun (s, t) -> ((s, t), paths ps s t))
    (List.sort_uniq compare_pair pair_list)

let to_slice_candidates ps pair_list =
  let pairs = List.sort_uniq compare_pair pair_list in
  let ranges = List.map (fun (s, t) -> ((s, t), slice_range ps s t)) pairs in
  Sso_flow.Min_congestion.slice_candidates_of_arena ps.arena ranges
