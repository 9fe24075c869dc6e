module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Shortest = Sso_graph.Shortest
module Rng = Sso_prng.Rng
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace

(* Routing only ever walks tree edges: shortest paths from a cluster
   center down to the centers of its child clusters (level-0 children are
   the cluster's own vertices).  Those paths are memoized per
   (hub, parent level): on first use, one truncated Dijkstra from the hub
   harvests the paths to {e all} of that hub's children at once — the
   children are known from the chain table — so the number of Dijkstras a
   tree ever runs is bounded by its cluster count, not by its query count,
   and the cache stores one path per tree edge instead of n-word
   predecessor arrays.  Nothing is evicted: a tree has at most one tree
   edge per (vertex, level), so the cache never outgrows one path per
   entry of the chain table.

   [route] does not look hubs up per segment: a dense index with one slot
   per (vertex v, level i >= 1) holds the edges of the tree edge
   chain.(v).(i) -> chain.(v).(i-1), taken from the hub's paths on the
   slot's first use.  A hit is one array read — no lock, no table.  The
   children table and the hub cache use the same (vertex, level) slot
   numbering, so nothing here hashes a tuple. *)

module Int_tbl = Hashtbl.Make (Int)

type t = {
  graph : Graph.t;
  levels : int;
  chain : int array array; (* chain.(v).(i) = center of v's level-i cluster *)
  cluster_id : int array array; (* cluster_id.(v).(i): equal iff same cluster *)
  lengths : float array; (* clamped per-edge metric, indexed by edge id *)
  delta : float; (* min clamped edge length ([infinity] when m = 0) *)
  children : int array array;
      (* children.(hub·levels + l - 1): distinct child centers below the
         hub at parent level l (empty where none) *)
  segments : int array array;
      (* segments.(v·levels + i - 1): edges of the tree edge from
         chain.(v).(i) down to chain.(v).(i-1), [unfilled] until first use *)
  hub_cache : (int, int array) Hashtbl.t Int_tbl.t;
      (* hub·levels + l - 1 -> child center -> edges of the path
         hub -> child *)
  hub_lock : Mutex.t; (* guards [hub_cache]: trees route from pool workers *)
}

let min_length = 1e-9

(* The least of clamped lengths, [infinity] for none: a plain [<] loop,
   which boxes nothing and, on lengths >= [min_length] (no NaN, no signed
   zero), agrees bit for bit with a [Float.min] fold. *)
let min_length_of lengths =
  let d = ref infinity in
  for e = 0 to Array.length lengths - 1 do
    if lengths.(e) < !d then d := lengths.(e)
  done;
  !d

(* The empty-slot marker of [segments], told apart by physical equality: a
   trivial segment (hub = child) is the empty array. *)
let unfilled = [| -1 |]

let build_span = Obs.span "frt.build"
let metric_span = Obs.span "frt.metric"
let hub_fill_counter = Obs.counter "frt.hub_fill"

(* Enumerate the tree edges (hub at level i+1 -> child center at level i),
   grouped by hub.  O(n·levels); the same center can head several clusters
   of a level (one per parent cluster), hence the per-level dedup on
   hub·n + child. *)
let children_table ~levels ~chain n =
  let seen = Int_tbl.create 256 and groups = Array.make (n * levels) [] in
  for i = 0 to levels - 1 do
    Int_tbl.clear seen;
    for v = 0 to n - 1 do
      let hub = chain.(v).(i + 1) and child = chain.(v).(i) in
      let key = (hub * n) + child in
      if hub <> child && not (Int_tbl.mem seen key) then begin
        Int_tbl.add seen key ();
        let slot = (hub * levels) + i in
        groups.(slot) <- child :: groups.(slot)
      end
    done
  done;
  Array.map Array.of_list groups

let make_tree g ~levels ~chain ~cluster_id ~lengths ~delta =
  {
    graph = g;
    levels;
    chain;
    cluster_id;
    lengths;
    delta;
    children = children_table ~levels ~chain (Graph.n g);
    segments = Array.make (Graph.n g * levels) unfilled;
    hub_cache = Int_tbl.create 64;
    hub_lock = Mutex.create ();
  }

(* One BFS up front: the ball-growing construction never computes a
   distance it does not need, so unlike the historical all-pairs pass a
   disconnected graph would otherwise only surface deep inside the level
   loop as a cluster that never covers the graph. *)
let check_connected g =
  let n = Graph.n g in
  if n > 0 then begin
    let dist = Shortest.bfs_dist g 0 in
    for v = 0 to n - 1 do
      if dist.(v) = max_int then
        invalid_arg
          (Printf.sprintf
             "Frt.build: graph is disconnected (vertex %d is unreachable \
              from vertex 0)"
             v)
    done
  end

let build rng g ~length =
  let n = Graph.n g and m = Graph.m g in
  check_connected g;
  (* Snapshot the clamped metric: callers (the Räcke MWU loop) pass
     closures over mutable penalty state, and the tree must keep routing
     under the lengths it was built with — also what lets a tree
     round-trip through [to_parts]/[of_parts] bit-identically. *)
  let snapshot = Array.init m (fun e -> Float.max min_length (length e)) in
  (* delta_min: under a positive metric the closest pair of distinct
     vertices is always joined by a single edge (every path weighs at
     least its heaviest edge, and any multi-edge path at least two minimum
     lengths), so the minimum pairwise distance is the minimum clamped
     edge length — no all-pairs pass needed. *)
  let delta = min_length_of snapshot in
  let ws = Shortest.Workspace.for_current_domain () in
  (* Diameter upper bound: diam <= 2·ecc(0), from one unbounded ball
     around vertex 0 that reads the snapshot directly, boxing no weight
     per edge.  One Dijkstra replaces the exact all-pairs maximum; the
     bound is at most 2x the diameter, so it costs at most one extra
     (redundant, single-cluster) level at the top of the decomposition.
     A second sweep from the farthest vertex [far] could not tighten it:
     ecc(far) >= d(far, 0) = ecc(0). *)
  let diameter_ub =
    if n <= 1 then 0.0
    else
      Obs.with_span metric_span (fun () ->
          let ecc0 = ref 0.0 in
          Shortest.dijkstra_ball_into ws g ~weights:snapshot ~radius:infinity ~sources:[| 0 |]
            (fun _ d -> if d > !ecc0 then ecc0 := d);
          2.0 *. !ecc0)
  in
  let scale = delta in
  let diameter = diameter_ub /. scale in
  (* Radii: r_i = beta · 2^{i-1} with beta in [1,2).  r_0 < 1 keeps level-0
     clusters singletons; levels grows until the radius covers the
     diameter bound. *)
  let beta = 1.0 +. Rng.float rng in
  let levels =
    let rec go i r = if r >= diameter then i else go (i + 1) (r *. 2.0) in
    go 1 beta
  in
  let pi = Rng.permutation rng n in
  let chain = Array.init n (fun v -> Array.make (levels + 1) v) in
  let cluster_id = Array.init n (fun v -> Array.make (levels + 1) v) in
  let next_id = ref n in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  (* Top level: everything in one cluster centered at the first center in
     permutation order. *)
  let top_id = fresh () in
  for v = 0 to n - 1 do
    chain.(v).(levels) <- pi.(0);
    cluster_id.(v).(levels) <- top_id
  done;
  (* claim_stamp.(v) = i iff v has been claimed at level i: levels are
     processed top-down with distinct indices, so one array serves all of
     them without clearing.  best.(v) is the settle distance of v from the
     closest earlier center (per level): a ball reaching v at distance >=
     best.(v) stops expanding there, because everything beyond is at least
     as close to that earlier — hence higher-priority — center.  Each
     vertex improves its record O(log n) expected times under a random
     permutation, which is what makes a level near-linear instead of
     |balls| Dijkstras. *)
  let claim_stamp = Array.make n (-1) in
  let best = Array.make n infinity in
  let prune v d = d >= best.(v) in
  let ids = Int_tbl.create 64 in
  let attrs =
    if Obs.tracing () then
      [
        ("vertices", Trace.Int n);
        ("levels", Trace.Int levels);
        ("beta", Trace.Float beta);
      ]
    else []
  in
  Obs.with_span ~attrs build_span (fun () ->
      (* Refine level by level.  At level i the radius is beta·2^{i-1}·δ;
         each vertex joins the first permutation center within that
         radius, and two vertices share a level-i cluster iff they share
         the level-(i+1) cluster and the same chosen center.

         Instead of scanning an all-pairs matrix row per vertex, grow
         bounded-radius Dijkstra balls from the centers in permutation
         order: a ball claims every still-unclaimed vertex it settles, so a
         vertex ends up with the first center within radius — identical
         cluster semantics, touching only distances that are actually
         within radius.  A ball updates the records as it settles: the
         kernel never relaxes an edge into a settled vertex, so a ball's
         own records never prune it. *)
      for i = levels - 1 downto 1 do
        let radius = beta *. Float.pow 2.0 (float_of_int (i - 1)) *. scale in
        let level_sp = Obs.span (Printf.sprintf "frt.level.%02d" i) in
        let level_attrs =
          if Obs.tracing () then
            [ ("level", Trace.Int i); ("radius", Trace.Float radius) ]
          else []
        in
        Obs.with_span ~attrs:level_attrs level_sp (fun () ->
            Array.fill best 0 n infinity;
            let unclaimed = ref n and j = ref 0 in
            while !unclaimed > 0 && !j < n do
              let c = pi.(!j) in
              Shortest.dijkstra_ball_into ws g ~weights:snapshot ~radius ~prune
                ~sources:[| c |] (fun v d ->
                  if claim_stamp.(v) <> i then begin
                    claim_stamp.(v) <- i;
                    chain.(v).(i) <- c;
                    decr unclaimed
                  end;
                  if d < best.(v) then best.(v) <- d);
              incr j
            done;
            (* Cluster ids in vertex order — the same first-encounter
               numbering the serial matrix scan produced — keyed by
               parent cluster id · n + center. *)
            Int_tbl.clear ids;
            for v = 0 to n - 1 do
              let key = (cluster_id.(v).(i + 1) * n) + chain.(v).(i) in
              let id =
                match Int_tbl.find ids key with
                | id -> id
                | exception Not_found ->
                    let id = fresh () in
                    Int_tbl.add ids key id;
                    id
              in
              cluster_id.(v).(i) <- id
            done)
      done);
  (* Level 0 stays singleton: chain.(v).(0) = v, cluster_id.(v).(0) = v. *)
  make_tree g ~levels ~chain ~cluster_id ~lengths:snapshot ~delta

type parts = {
  p_levels : int;
  p_chain : int array array;
  p_cluster_id : int array array;
  p_lengths : float array;
}

let to_parts t =
  {
    p_levels = t.levels;
    p_chain = Array.map Array.copy t.chain;
    p_cluster_id = Array.map Array.copy t.cluster_id;
    p_lengths = Array.copy t.lengths;
  }

let of_parts g p =
  let n = Graph.n g and m = Graph.m g in
  if p.p_levels < 1 then invalid_arg "Frt.of_parts: levels must be >= 1";
  if Array.length p.p_lengths <> m then invalid_arg "Frt.of_parts: lengths size mismatch";
  Array.iter
    (fun l ->
      if not (l >= min_length) then invalid_arg "Frt.of_parts: length below clamp")
    p.p_lengths;
  let check_table name tbl =
    if Array.length tbl <> n then invalid_arg ("Frt.of_parts: " ^ name ^ " size mismatch");
    Array.iter
      (fun row ->
        if Array.length row <> p.p_levels + 1 then
          invalid_arg ("Frt.of_parts: " ^ name ^ " row size mismatch"))
      tbl
  in
  check_table "chain" p.p_chain;
  check_table "cluster_id" p.p_cluster_id;
  Array.iter
    (fun row -> Array.iter (fun c -> if c < 0 || c >= n then invalid_arg "Frt.of_parts: center out of range") row)
    p.p_chain;
  (* Structure, O(n·levels): level-0 clusters are the singletons {v}
     centered at v, there is one top cluster with one center, and clusters
     nest — vertices sharing a level-i cluster share its center and their
     level-(i+1) cluster.  [route] relies on all three: the meet level
     exists, and the up- and down-chains reach the same center. *)
  let levels = p.p_levels and chain = p.p_chain and cid = p.p_cluster_id in
  let bad what = invalid_arg ("Frt.of_parts: " ^ what) in
  let seen = Int_tbl.create n in
  for v = 0 to n - 1 do
    if chain.(v).(0) <> v then bad "level-0 cluster not centered at its vertex";
    if Int_tbl.mem seen cid.(v).(0) then bad "level-0 cluster ids repeat";
    Int_tbl.add seen cid.(v).(0) v
  done;
  for v = 1 to n - 1 do
    if cid.(v).(levels) <> cid.(0).(levels) || chain.(v).(levels) <> chain.(0).(levels)
    then bad "more than one top-level cluster or center"
  done;
  (* [seen] maps each level-i cluster id to the first vertex in it. *)
  for i = 1 to levels - 1 do
    Int_tbl.clear seen;
    for v = 0 to n - 1 do
      match Int_tbl.find seen cid.(v).(i) with
      | w ->
          if cid.(w).(i + 1) <> cid.(v).(i + 1) || chain.(w).(i) <> chain.(v).(i)
          then bad "clusters do not nest"
      | exception Not_found -> Int_tbl.add seen cid.(v).(i) v
    done
  done;
  let lengths = Array.copy p.p_lengths in
  let delta = min_length_of lengths in
  make_tree g ~levels:p.p_levels ~chain:(Array.map Array.copy p.p_chain)
    ~cluster_id:(Array.map Array.copy p.p_cluster_id)
    ~lengths ~delta

let levels t = t.levels

(* Truncation radius for a hub tree at parent level [l]: the hub claimed
   every vertex of its cluster within beta·2^{l-1}·δ, a child center sits
   within half that of some shared vertex, and beta < 2, so 2^{l+1}·δ
   covers any query with a 33% margin (ample against float rounding of
   path sums).  Crucially this is a function of [lengths] alone — not of
   the sampled beta — so a tree rebuilt by [of_parts] truncates, and hence
   tie-breaks, exactly like the original build and routes identically. *)
let hub_radius t plevel = Float.ldexp t.delta (plevel + 1)

(* Escalating uncached fallback for the (float-borderline) case where a
   child falls just outside the truncation radius: deterministic in
   (hub, radius) alone — never in cache state or scheduling. *)
let rec path_by_search t hub v ~radius =
  let ws = Shortest.Workspace.for_current_domain () in
  Shortest.dijkstra_ball_into ws t.graph ~weights:t.lengths ~radius
    ~sources:[| hub |] (fun _ _ -> ());
  match Shortest.Workspace.path ws t.graph v with
  | Some p -> p
  | None ->
      if radius = infinity then
        invalid_arg "Frt.route: graph is disconnected"
      else
        let radius = if radius > 1e300 then infinity else radius *. 4.0 in
        path_by_search t hub v ~radius

exception Filled

(* Per-domain want/got marks of [fill_hub]: [mark.(c) = want] while child
   center c is awaited, [= want + 1] once it settled.  Each fill takes two
   fresh epochs, so nothing is ever cleared. *)
type marks = { mutable mark : int array; mutable epoch : int }

let marks_key = Domain.DLS.new_key (fun () -> { mark = [||]; epoch = 0 })

(* One truncated Dijkstra from [hub], stopped as soon as every child has
   settled, then a path per child read off the predecessor chains.  Only
   children the visitor saw settle are read back — a vertex that was
   relaxed but not yet settled when the early exit fired still carries a
   tentative predecessor — so the handful that the truncation radius
   misses by a float hair fall back to the escalating uncached search. *)
let fill_hub t hub plevel =
  Obs.incr hub_fill_counter;
  let kids = t.children.((hub * t.levels) + plevel - 1) in
  let marks = Domain.DLS.get marks_key in
  let n = Graph.n t.graph in
  if Array.length marks.mark < n then marks.mark <- Array.make n 0;
  marks.epoch <- marks.epoch + 2;
  let mark = marks.mark and want = marks.epoch in
  let got = want + 1 in
  Array.iter (fun c -> mark.(c) <- want) kids;
  let remaining = ref (Array.length kids) in
  let ws = Shortest.Workspace.for_current_domain () in
  (try
     Shortest.dijkstra_ball_into ws t.graph ~weights:t.lengths
       ~radius:(hub_radius t plevel) ~sources:[| hub |] (fun v _ ->
         if mark.(v) = want then begin
           mark.(v) <- got;
           decr remaining;
           if !remaining = 0 then raise Filled
         end)
   with Filled -> ());
  let paths = Hashtbl.create (2 * Array.length kids) in
  let missing = ref [] in
  Array.iter
    (fun c ->
      if mark.(c) = got then
        match Shortest.Workspace.path ws t.graph c with
        | Some p -> Hashtbl.replace paths c p.Path.edges
        | None -> missing := c :: !missing
      else missing := c :: !missing)
    kids;
  (* Fallback searches reuse the workspace, so they run only after every
     settled child has been read back. *)
  List.iter
    (fun c ->
      Hashtbl.replace paths c
        (path_by_search t hub c ~radius:(4.0 *. hub_radius t plevel)).Path.edges)
    (List.rev !missing);
  paths

let hub_entry t hub plevel =
  let key = (hub * t.levels) + plevel - 1 in
  match Mutex.protect t.hub_lock (fun () -> Int_tbl.find_opt t.hub_cache key) with
  | Some paths -> paths
  | None ->
      (* The Dijkstra runs outside the lock; a racing duplicate computes
         the same paths (the fill is a function of the key), so whichever
         insert lands is equivalent.  Entries are immutable once
         published: concurrent readers never see writes. *)
      let paths = fill_hub t hub plevel in
      Mutex.protect t.hub_lock (fun () ->
          match Int_tbl.find_opt t.hub_cache key with
          | Some first -> first
          | None ->
              Int_tbl.replace t.hub_cache key paths;
              paths)

(* The edges of v's level-[i] tree edge, from the index.  A miss takes
   them from the hub's paths, which cover every child center of the
   [children] table; racing writers of a slot store equal arrays (the fill
   is a function of (hub, level) alone), so whichever lands is
   equivalent. *)
let segment t v i =
  let slot = (v * t.levels) + i - 1 in
  let seg = t.segments.(slot) in
  if seg != unfilled then seg
  else begin
    let hub = t.chain.(v).(i) and child = t.chain.(v).(i - 1) in
    let seg = if hub = child then [||] else Hashtbl.find (hub_entry t hub i) child in
    t.segments.(slot) <- seg;
    seg
  end

(* Loop-erase the walk s -> hub -> t_ on the domain's {!Path.Erasure}
   scratch, s <> t_.  Both chains root every segment at its parent (level
   i >= 1) center — a bounded set of hubs whose trees truncate to the
   cluster scale.  (Rooting the down-chain at the child, as the historical
   code did, makes every routed destination a hub: an O(n)-entry cache of
   full predecessor trees.)  The walk is the up-segments reversed, then
   the down-segments, erased once: chronological loop erasure satisfies
   LE(LE(a)·b) = LE(a·b), so this equals erasing segment by segment. *)
let erase_route t s t_ =
  (* Lowest level at which s and t share a cluster; vertices in a shared
     cluster also share its center, so the up- and down-chains meet. *)
  let j = ref 0 in
  while t.cluster_id.(s).(!j) <> t.cluster_id.(t_).(!j) do
    incr j
  done;
  let j = !j in
  (* A slot may fill between two pushes: fills read their paths straight
     off the Dijkstra workspace and never erase a walk. *)
  let er = Path.Erasure.start t.graph s in
  for i = 1 to j do
    Path.Erasure.push_edges er ~rev:true (segment t s i)
  done;
  for i = j downto 1 do
    Path.Erasure.push_edges er ~rev:false (segment t t_ i)
  done;
  er

let route t s t_ =
  if s = t_ then Path.trivial s
  else Path.unsafe_of_edges ~src:s ~dst:t_ (Path.Erasure.edges (erase_route t s t_))

let iter_route t s t_ f =
  if s <> t_ then begin
    let er = erase_route t s t_ in
    for d = 0 to Path.Erasure.length er - 1 do
      f (Path.Erasure.edge er d)
    done
  end
