(* Best responses of the min-congestion game as int handles.

   A store answers, for pair [i] of a solve's support and a per-edge
   weight array, with the handle of the cheapest admissible path.  Two
   stores exist.  [Candidates] handles are the candidate indices of a
   slice index: the path set is fixed up front.  [Interned] handles
   name the paths the Dijkstra search has returned so far, slices of the
   store's own arena: the first sighting of a path for a pair appends
   it, and later sightings map back to the same handle.  The MWU loop
   tallies per-handle statistics in a [tally] and emits routings through
   [routing], so it never sees which store it runs on.  Both stores
   address edges by slot ([edges] maps a slot to its edge id): a
   candidate store's slots are its candidates' distinct edges, a search
   store's are all m edges in order. *)

module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Arena = Sso_graph.Arena
module Shortest = Sso_graph.Shortest
module Pool = Sso_engine.Pool
module Obs = Sso_obs.Obs

let sssp_batches = Obs.counter "mwu.sssp_batches"
let edges_priced = Obs.counter "mwu.edges_priced"

type interned = {
  graph : Graph.t;
  view : float array -> float array;  (* applied once per call, before the search *)
  groups : (int * int array) array;  (* source runs of the support *)
  arena : Arena.t;  (* handle [h] is slice [h] *)
  known : int array array;  (* support position -> its handles, ascending by path *)
}

type store = Candidates of Slice_candidates.t * int array | Interned of interned

type t = {
  support : (int * int) array;
  store : store;
  edges : int array;  (* slot -> edge id; weights and path edges are slots *)
}

let candidates sc support =
  {
    support;
    store = Candidates (sc, Slice_candidates.positions sc support);
    edges = Slice_candidates.edges sc;
  }

(* [Demand.support] is lexicographically sorted, so equal sources form
   consecutive runs; flattening the group answers in group order restores
   support order exactly. *)
let source_groups support =
  let pairs = Array.length support in
  let acc = ref [] in
  let i = ref 0 in
  while !i < pairs do
    let s = fst support.(!i) in
    let j = ref !i in
    while !j < pairs && fst support.(!j) = s do incr j done;
    acc := (s, Array.init (!j - !i) (fun k -> snd support.(!i + k))) :: !acc;
    i := !j
  done;
  Array.of_list (List.rev !acc)

let dijkstra ?avoid g support =
  let view =
    match avoid with
    | None -> Fun.id
    | Some avoid ->
        (* Avoided edges are masked to [infinity] once per call, into a
           second buffer, before any search reads the weights. *)
        let m = Graph.m g in
        let keep = Array.of_list (List.filter (fun e -> not (avoid e)) (List.init m Fun.id)) in
        let masked = Array.make m infinity in
        fun w ->
          Array.iter (fun e -> masked.(e) <- w.(e)) keep;
          masked
  in
  let store =
    {
      graph = g;
      view;
      groups = source_groups support;
      arena = Arena.create g;
      known = Array.make (Array.length support) [||];
    }
  in
  (* A search may load any edge, so slot [e] is edge [e]. *)
  { support; store = Interned store; edges = Array.init (Graph.m g) Fun.id }

(* A binary search of the pair's slices, ascending by path, each
   compared in place: O(log k) for [k] paths.  A new path is appended
   and its handle inserted. *)
let intern st i (p : Path.t) =
  let known = st.known.(i) in
  let n = Array.length known in
  let lo = ref 0 and hi = ref n and found = ref (-1) in
  while !found < 0 && !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = Arena.compare_path st.arena known.(mid) p in
    if c = 0 then found := known.(mid) else if c < 0 then lo := mid + 1 else hi := mid
  done;
  if !found >= 0 then !found
  else begin
    let at = !lo in
    let h = Arena.append_path st.arena p in
    st.known.(i) <-
      Array.init (n + 1) (fun k -> if k < at then known.(k) else if k = at then h else known.(k - 1));
    h
  end

let intern_answer st i = function None -> -1 | Some p -> intern st i p

(* A candidate answer is a few candidate sums (O(log n) candidates per
   pair in an α-sparse system), too little work to repay a pool task:
   candidates are priced serially, in support order.  Searches are
   independent within a call, so they fan out on the pool per source and
   come back in support order; interning then runs serially in that
   order, so handles — and everything the solvers derive from them — are
   the same for any job count.  Tiny supports search serially: the
   dispatch overhead would dominate (the cutoff is a constant, never the
   job count, to preserve determinism).  Keying it on source groups
   instead would fan out more two- and three-group supports, which do
   not pay.  [mwu_unrestricted] on hypercube-6, 300 rounds, medians of 7
   on a 2-core x86-64 host, jobs 1 -> 2: 2 sources x 2 targets 6.4 ->
   9.7 ms, 2 x 8 12.0 -> 16.4 ms, 3 x 2 11.8 -> 12.3 ms, 3 x 8 16.5 ->
   15.2 ms, and a 64-source permutation 145 -> 91 ms. *)
let respond_all t weights handles =
  match t.store with
  | Candidates (sc, positions) ->
      (* Edges read, summed in a local so that solves sharing [sc] on
         other domains do not race on a counter field. *)
      let priced = ref 0 in
      for i = 0 to Array.length t.support - 1 do
        let p = positions.(i) in
        handles.(i) <- (if p < 0 then -1 else Slice_candidates.cheapest sc ~weights ~priced p)
      done;
      Obs.incr ~by:!priced edges_priced;
      0
  | Interned st ->
      let weights = st.view weights in
      Obs.incr ~by:(Array.length st.groups) sssp_batches;
      (* One target-bounded search per source: it stops once the source's
         targets settle, and reports how many vertices it settled. *)
      let search (s, ts) =
        let paths = Shortest.dijkstra_targets st.graph ~weights s ts in
        (paths, Shortest.Workspace.settled_count (Shortest.Workspace.for_current_domain ()))
      in
      let answers =
        if Array.length t.support < 4 then Array.map search st.groups
        else Pool.parallel_map search st.groups
      in
      (* The groups' answers, in group order, are the support in order. *)
      let i = ref 0 and settled = ref 0 in
      Array.iter
        (fun (paths, k) ->
          settled := !settled + k;
          Array.iter
            (fun p ->
              handles.(!i) <- intern_answer st !i p;
              incr i)
            paths)
        answers;
      !settled

let edges t = t.edges

(* The pass costs ~10 ns per candidate edge; a round spends ~16 ns per
   slot on its max fold, weight fill and cum update, and a class repays
   only the slots it merges.  So the pass runs when the rounds' slot
   visits are at least eight times the candidate edges (it then costs at
   most about a tenth of what merging could save; slots crossed by many
   candidates rarely merge), and its classes are kept when they number
   at most three quarters of the slots: past that, copying weights out
   to the slots and loads back in costs about what the merged slots
   save.  A search store may load any edge and learns its paths as it
   goes, so it is never refined. *)
let classes t ~rounds ~caps =
  match t.store with
  | Interned _ -> None
  | Candidates (sc, _) ->
      let slots = Array.length t.edges in
      if rounds * slots < 8 * Slice_candidates.crossings sc then None
      else
        let ((_, first) as classes) = Slice_candidates.classes sc ~caps in
        if 4 * Array.length first > 3 * slots then None else Some classes

let add_loads t loads handles xs n =
  match t.store with
  | Candidates (sc, _) -> Slice_candidates.add_loads sc loads handles xs n
  | Interned st ->
      for k = 0 to n - 1 do
        let x = xs.(k) in
        Arena.iter_edges_vertices st.arena handles.(k) (fun e _ -> loads.(e) <- loads.(e) +. x)
      done

let add_shares t loads ~per_slot handles xs n =
  match t.store with
  | Candidates (sc, _) -> Slice_candidates.add_shares sc loads ~per_slot handles xs n
  | Interned st ->
      for k = 0 to n - 1 do
        let x = xs.(k) in
        Arena.iter_edges_vertices st.arena handles.(k) (fun e _ ->
            loads.(e) <- loads.(e) +. (x /. per_slot.(e)))
      done

let lookup t i a h =
  match t.store with
  | Candidates (sc, positions) ->
      let pos = positions.(i) in
      if pos < 0 then -1 else Slice_candidates.lookup sc pos a h
  | Interned st -> intern st i (Arena.to_path a h)

(* ---------- Per-handle statistics ---------- *)

type tally = { mutable weight : float array; mutable seen : bool array }

let tally t =
  let n = match t.store with Candidates (sc, _) -> Slice_candidates.ncands sc | Interned _ -> 16 in
  { weight = Array.make n 0.0; seen = Array.make n false }

let add tally h x =
  let n = Array.length tally.weight in
  if h >= n then begin
    let n' = max (h + 1) (2 * n) in
    let weight = Array.make n' 0.0 and seen = Array.make n' false in
    Array.blit tally.weight 0 weight 0 n;
    Array.blit tally.seen 0 seen 0 n;
    tally.weight <- weight;
    tally.seen <- seen
  end;
  tally.weight.(h) <- tally.weight.(h) +. x;
  tally.seen.(h) <- true

let credit tally handles n =
  for k = 0 to n - 1 do
    let h = handles.(k) in
    if h < 0 then invalid_arg "Best_response.credit: pair without a response";
    add tally h 1.0
  done

let seen tally h = h < Array.length tally.seen && tally.seen.(h)
let seen_count tally = Array.fold_left (fun n s -> if s then n + 1 else n) 0 tally.seen

(* Pair [i]'s handles with positive tallied weight, written into [buf]
   from [pos] on in descending path order; returns the end position. *)
let credited t tally i buf pos =
  match t.store with
  | Candidates (sc, positions) ->
      if positions.(i) < 0 then pos
      else Slice_candidates.descending sc positions.(i) ~weights:tally.weight buf pos
  | Interned st ->
      (* [known] ascends, so a right fold writes it descending. *)
      Array.fold_right
        (fun h k ->
          if seen tally h && tally.weight.(h) > 0.0 then begin
            buf.(k) <- h;
            k + 1
          end
          else k)
        st.known.(i) pos

(* Each pair's distribution is its credited handles in descending path
   order, weighted by their tally over its sum in that order: the
   distribution [Routing.of_slices] would build from the same entries
   (its merge finds the paths distinct and already ordered), with one
   sum and one division per path.  The loads are then added pair by pair
   in support order, in that path order within a pair:
   [Routing.congestion]'s order, over the slots.  Last, the handles
   become slices of the store's arena, in place. *)
let routing t tally amounts loads =
  let pairs = Array.length t.support in
  let entries = seen_count tally in
  let slices = Array.make entries 0 in
  let weights = Array.make entries 0.0 and xs = Array.make entries 0.0 in
  let off = Array.make (pairs + 1) 0 in
  for i = 0 to pairs - 1 do
    let lo = off.(i) in
    let hi = credited t tally i slices lo in
    let total = ref 0.0 in
    for k = lo to hi - 1 do
      total := !total +. tally.weight.(slices.(k))
    done;
    let total = !total in
    if not (total > 0.0) then invalid_arg "Best_response.routing: pair never credited";
    let amount = amounts.(i) in
    for k = lo to hi - 1 do
      let w = tally.weight.(slices.(k)) /. total in
      weights.(k) <- w;
      xs.(k) <- amount *. w
    done;
    off.(i + 1) <- hi
  done;
  let n = off.(pairs) in
  add_loads t loads slices xs n;
  let arena =
    match t.store with
    | Candidates (sc, _) ->
        for k = 0 to n - 1 do
          slices.(k) <- Slice_candidates.slice sc slices.(k)
        done;
        Slice_candidates.arena sc
    | Interned st -> st.arena
  in
  let fit a = if n = entries then a else Array.sub a 0 n in
  Routing.of_sorted arena t.support off (fit weights) (fit slices)
