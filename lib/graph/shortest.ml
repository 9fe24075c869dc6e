let bfs_dist g src =
  let off = Graph.csr_offsets g and dsts = Graph.csr_targets g in
  let dist = Array.make (Graph.n g) max_int in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    for i = off.(v) to off.(v + 1) - 1 do
      let w = dsts.(i) in
      if dist.(w) = max_int then begin
        dist.(w) <- dist.(v) + 1;
        Queue.add w queue
      end
    done
  done;
  dist

let bfs_path g src dst =
  if src = dst then Some (Path.trivial src)
  else begin
    let off = Graph.csr_offsets g
    and eids = Graph.csr_edge_ids g
    and dsts = Graph.csr_targets g in
    let pred = Array.make (Graph.n g) (-1) in
    let seen = Array.make (Graph.n g) false in
    seen.(src) <- true;
    let queue = Queue.create () in
    Queue.add src queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      for i = off.(v) to off.(v + 1) - 1 do
        let w = dsts.(i) in
        if not seen.(w) then begin
          seen.(w) <- true;
          pred.(w) <- eids.(i);
          if w = dst then found := true;
          Queue.add w queue
        end
      done
    done;
    if not !found then None
    else begin
      let rec collect v acc =
        if v = src then acc
        else
          let e = pred.(v) in
          collect (Graph.other_end g e v) (e :: acc)
      in
      let edge_ids = Array.of_list (collect dst []) in
      Some (Path.of_edges g ~src ~dst edge_ids)
    end
  end

(* ---------- Reusable Dijkstra workspace ---------- *)

module Workspace = struct
  (* Epoch-stamped state: [dist]/[pred] at [v] are valid only when
     [stamp.(v) = epoch], [v] is settled only when [settled.(v) = epoch],
     and [v] is a wanted target only when [target.(v) = epoch], so
     starting a new run is a single increment — no O(n) clearing, no
     per-call allocation.  The arrays grow to the largest graph seen and
     are reused across graphs (stale stamps from a previous graph can
     never equal a fresh epoch).  The heap is a binary min-heap stored as
     two parallel arrays ([keys]/[vals]) and sifted in place by the
     kernel itself, so no key ever crosses a call boundary as a boxed
     float. *)
  type t = {
    mutable dist : float array;
    mutable pred : int array;
    mutable stamp : int array;
    mutable settled : int array;
    mutable target : int array;
    mutable wbuf : float array; (* validated per-call edge weights *)
    mutable keys : float array; (* heap keys *)
    mutable vals : int array; (* heap payloads (vertices) *)
    mutable hsize : int;
    mutable epoch : int;
    mutable src : int; (* source of the last run *)
    mutable nsettled : int; (* vertices the last run settled *)
    mutable complete : bool;
        (* the last run settled everything it could reach: an unsettled
           vertex is then unreachable (or outside the ball) *)
  }

  let create () =
    {
      dist = [||];
      pred = [||];
      stamp = [||];
      settled = [||];
      target = [||];
      wbuf = [||];
      keys = Array.make 16 0.0;
      vals = Array.make 16 0;
      hsize = 0;
      epoch = 0;
      src = -1;
      nsettled = 0;
      complete = false;
    }

  let ensure ws n =
    if Array.length ws.dist < n then begin
      ws.dist <- Array.make n infinity;
      ws.pred <- Array.make n (-1);
      ws.stamp <- Array.make n (-1);
      ws.settled <- Array.make n (-1);
      ws.target <- Array.make n (-1)
    end

  let ensure_weights ws m =
    if Array.length ws.wbuf < m then ws.wbuf <- Array.make m 0.0

  let settled_count ws = ws.nsettled

  (* A vertex the last run did not settle is unreachable only if that run
     ran to completion; after an early exit its state is partial. *)
  let readable ws v =
    if ws.settled.(v) = ws.epoch then true
    else if ws.complete then false
    else invalid_arg "Shortest.Workspace: vertex not settled by a run that stopped early"

  let dist ws v = if readable ws v then ws.dist.(v) else infinity

  let pred_edge ws v = if readable ws v then ws.pred.(v) else -1

  (* Walk the settled predecessor chain twice: once to count hops, once to
     fill an exact-size edge array back to front. *)
  let build_path ws g dst =
    let src = ws.src and pred = ws.pred in
    let hops = ref 0 and v = ref dst in
    while !v <> src do
      if pred.(!v) < 0 then
        invalid_arg "Shortest.Workspace.path: vertex not reached from the first source";
      v := Graph.other_end g pred.(!v) !v;
      incr hops
    done;
    let edges = Array.make !hops 0 in
    v := dst;
    for i = !hops - 1 downto 0 do
      let e = pred.(!v) in
      edges.(i) <- e;
      v := Graph.other_end g e !v
    done;
    Path.unsafe_of_edges ~src ~dst edges

  let path ws g dst =
    if ws.src < 0 then invalid_arg "Shortest.Workspace.path: no completed run";
    if readable ws dst then Some (build_path ws g dst) else None

  (* One workspace per domain, created lazily: pool workers (and the
     submitting domain) each reuse their own across oracle calls, so MWU
     rounds allocate nothing proportional to n or m.  Safe because a
     domain runs one shortest-path computation at a time (nested
     parallel_* calls are serial) and results never depend on which
     workspace served them. *)
  let domain_key = Domain.DLS.new_key create

  let for_current_domain () = Domain.DLS.get domain_key
end

(* Validate the weight function once per edge per call (not once per edge
   visit) while snapshotting it into the workspace buffer; the traversal
   then reads a flat float array. *)
let fill_weights ws g ~weight ~context =
  let m = Graph.m g in
  Workspace.ensure_weights ws m;
  let wbuf = ws.Workspace.wbuf in
  for e = 0 to m - 1 do
    let we = weight e in
    if we < 0.0 then invalid_arg (context ^ ": negative edge weight");
    wbuf.(e) <- we
  done;
  wbuf

(* ---------- The Dijkstra core ---------- *)

(* Heap sifts take only arrays and int indices: keys are read and
   compared inside, never passed or returned, so nothing is boxed.  The
   sift logic (strict comparisons, swap-based, left child before right)
   fixes the pop order among tied keys, which every path this module
   returns depends on. *)
let sift_up (keys : float array) (vals : int array) i =
  let i = ref i in
  while !i > 0 && keys.((!i - 1) / 2) > keys.(!i) do
    let p = (!i - 1) / 2 in
    let k = keys.(!i) and x = vals.(!i) in
    keys.(!i) <- keys.(p);
    vals.(!i) <- vals.(p);
    keys.(p) <- k;
    vals.(p) <- x;
    i := p
  done

let sift_down (keys : float array) (vals : int array) size =
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < size && keys.(l) < keys.(!smallest) then smallest := l;
    if r < size && keys.(r) < keys.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let s = !smallest in
      let k = keys.(!i) and x = vals.(!i) in
      keys.(!i) <- keys.(s);
      vals.(!i) <- vals.(s);
      keys.(s) <- k;
      vals.(s) <- x;
      i := s
    end
  done

let grow_heap ws =
  let open Workspace in
  let cap = Array.length ws.keys in
  let keys = Array.make (2 * cap) 0.0 and vals = Array.make (2 * cap) 0 in
  Array.blit ws.keys 0 keys 0 cap;
  Array.blit ws.vals 0 vals 0 cap;
  ws.keys <- keys;
  ws.vals <- vals

(* Open a run: new epoch, empty heap. *)
let start ws g ~src =
  Workspace.ensure ws (Graph.n g);
  ws.Workspace.epoch <- ws.Workspace.epoch + 1;
  ws.Workspace.src <- src;
  ws.Workspace.hsize <- 0;
  ws.Workspace.nsettled <- 0;
  ws.Workspace.complete <- false

let push_source ws s =
  let open Workspace in
  if ws.stamp.(s) <> ws.epoch then begin
    ws.dist.(s) <- 0.0;
    ws.pred.(s) <- -1;
    ws.stamp.(s) <- ws.epoch;
    if ws.hsize = Array.length ws.keys then grow_heap ws;
    ws.keys.(ws.hsize) <- 0.0;
    ws.vals.(ws.hsize) <- s;
    sift_up ws.keys ws.vals ws.hsize;
    ws.hsize <- ws.hsize + 1
  end

(* Settle vertices in distance order until the heap drains or
   [remaining] wanted targets have all settled.  Relaxation admits a
   candidate only when it is within [radius] and survives [prune]; each
   edge weight is checked as it is relaxed.  [visit v d] runs at settle
   time.  The per-vertex state, settle order and predecessor edges are
   those of the historical full run (same CSR neighbor order, same heap,
   same strict improvement test): an early exit only stops the loop, and
   a settled vertex's predecessor chain is final. *)
let settle ws g (weights : float array) ~(radius : float) ~prune ~visit ~context
    ~remaining =
  let off = Graph.csr_offsets g
  and eids = Graph.csr_edge_ids g
  and dsts = Graph.csr_targets g in
  let open Workspace in
  let ep = ws.epoch in
  let dist = ws.dist
  and pred = ws.pred
  and stamp = ws.stamp
  and settled = ws.settled
  and target = ws.target in
  let keys = ref ws.keys and vals = ref ws.vals and size = ref ws.hsize in
  let remaining = ref remaining and count = ref 0 in
  while !size > 0 && !remaining > 0 do
    let d = !keys.(0) and v = !vals.(0) in
    decr size;
    !keys.(0) <- !keys.(!size);
    !vals.(0) <- !vals.(!size);
    sift_down !keys !vals !size;
    if settled.(v) <> ep then begin
      settled.(v) <- ep;
      incr count;
      (match visit with None -> () | Some f -> f v d);
      if target.(v) = ep then decr remaining;
      if !remaining > 0 then
        for i = off.(v) to off.(v + 1) - 1 do
          let w = dsts.(i) in
          if settled.(w) <> ep then begin
            let e = eids.(i) in
            let we = weights.(e) in
            if we < 0.0 then invalid_arg (context ^ ": negative edge weight");
            let nd = d +. we in
            if
              nd <= radius
              && (match prune with None -> true | Some p -> not (p w nd))
            then begin
              let cur = if stamp.(w) = ep then dist.(w) else infinity in
              if nd < cur then begin
                dist.(w) <- nd;
                pred.(w) <- e;
                stamp.(w) <- ep;
                if !size = Array.length !keys then begin
                  grow_heap ws;
                  keys := ws.keys;
                  vals := ws.vals
                end;
                !keys.(!size) <- nd;
                !vals.(!size) <- w;
                sift_up !keys !vals !size;
                incr size
              end
            end
          end
        done
    end
  done;
  ws.hsize <- !size;
  ws.nsettled <- !count;
  ws.complete <- !remaining > 0

let check_weights g weights ~context =
  if Array.length weights < Graph.m g then
    invalid_arg (context ^ ": weights shorter than edge count")

(* ---------- Truncated / multi-source Dijkstra (ball growing) ---------- *)

(* Grow the ball of radius [radius] around [sources]: settle exactly the
   vertices whose multi-source distance is <= radius, calling [visit v d]
   at settle time (so in non-decreasing distance order).  Work is
   proportional to the ball and its frontier, never to the graph: pushes
   whose tentative distance exceeds the radius are pruned, so a unit-radius
   ball on a million-node graph costs one vertex's neighborhood scan.

   Distances agree bit-for-bit with an untruncated run: a pruned candidate
   has tentative distance > radius, and every vertex of the ball reaches
   its final distance through relaxations whose tentative distances are all
   <= its own (prefix distances along a shortest path are non-decreasing
   under non-negative weights), none of which are pruned.

   [prune w nd] (checked at relaxation time, before pushing) discards the
   candidate as if it lay outside the radius; sources are exempt.  The FRT
   construction prunes candidates no closer than an earlier-permutation
   center's recorded distance — discarding them at the push keeps even the
   one-edge boundary of the surviving region out of the heap, which is
   what turns a level's ball-growing pass from |balls| Dijkstras into
   near-linear total work. *)
let dijkstra_ball_into ws g ~weights ~radius ?prune ~sources visit =
  let context = "Shortest.dijkstra_ball" in
  check_weights g weights ~context;
  let n = Graph.n g in
  start ws g ~src:(if Array.length sources > 0 then sources.(0) else -1);
  Array.iter
    (fun s ->
      if s < 0 || s >= n then invalid_arg (context ^ ": source out of range");
      push_source ws s)
    sources;
  (* radius < 0 (or NaN) admits nothing, not even the sources. *)
  if 0.0 <= radius then
    settle ws g weights ~radius ~prune ~visit:(Some visit) ~context
      ~remaining:max_int
  else ws.Workspace.complete <- true

let dijkstra_into ws g ~weight src =
  let context = "Shortest.dijkstra" in
  let wbuf = fill_weights ws g ~weight ~context in
  start ws g ~src;
  push_source ws src;
  settle ws g wbuf ~radius:infinity ~prune:None ~visit:None ~context
    ~remaining:max_int

let dijkstra g ~weight src =
  let ws = Workspace.for_current_domain () in
  dijkstra_into ws g ~weight src;
  let n = Graph.n g in
  (Array.init n (Workspace.dist ws), Array.init n (Workspace.pred_edge ws))

let dijkstra_path g ~weight src dst =
  let ws = Workspace.for_current_domain () in
  dijkstra_into ws g ~weight src;
  Workspace.path ws g dst

(* Target-bounded run: mark each distinct target with the epoch, stop as
   soon as the last one settles, and read every path straight off the
   (final) predecessor chains. *)
let dijkstra_targets ?workspace g ~weights src targets =
  let context = "Shortest.dijkstra_targets" in
  check_weights g weights ~context;
  let ws =
    match workspace with Some ws -> ws | None -> Workspace.for_current_domain ()
  in
  let n = Graph.n g in
  if src < 0 || src >= n then invalid_arg (context ^ ": source out of range");
  start ws g ~src;
  let ep = ws.Workspace.epoch and target = ws.Workspace.target in
  let wanted = ref 0 in
  for i = 0 to Array.length targets - 1 do
    let t = targets.(i) in
    if t < 0 || t >= n then invalid_arg (context ^ ": target out of range");
    if target.(t) <> ep then begin
      target.(t) <- ep;
      incr wanted
    end
  done;
  push_source ws src;
  settle ws g weights ~radius:infinity ~prune:None ~visit:None ~context
    ~remaining:!wanted;
  Array.map
    (fun t ->
      if ws.Workspace.settled.(t) = ep then Some (Workspace.build_path ws g t)
      else None)
    targets

(* ---------- Hop-limited (Bellman–Ford over hop counts) ---------- *)

(* dist.(k).(v) = min weight of a walk src→v with at most k hops.  The
   per-level predecessor edge makes reconstruction hop-bounded even in
   the presence of zero-weight edges (a flat pred array could cycle). *)
let hop_limited_path g ~weight ~max_hops src dst =
  if src = dst then Some (Path.trivial src)
  else if max_hops <= 0 then None
  else begin
    let n = Graph.n g in
    let weights = Array.init (Graph.m g) weight in
    let dist = Array.make_matrix (max_hops + 1) n infinity in
    let pred = Array.make_matrix (max_hops + 1) n (-1) in
    dist.(0).(src) <- 0.0;
    let graph_edges = Graph.edges g in
    for k = 1 to max_hops do
      let dk = dist.(k) and dk1 = dist.(k - 1) and pk = pred.(k) in
      Array.blit dk1 0 dk 0 n;
      Array.iter
        (fun (e : Graph.edge) ->
          let we = weights.(e.id) in
          if we < 0.0 then invalid_arg "Shortest.hop_limited_path: negative edge weight";
          if dk1.(e.u) +. we < dk.(e.v) then begin
            dk.(e.v) <- dk1.(e.u) +. we;
            pk.(e.v) <- e.id
          end;
          if dk1.(e.v) +. we < dk.(e.u) then begin
            dk.(e.u) <- dk1.(e.v) +. we;
            pk.(e.u) <- e.id
          end)
        graph_edges
    done;
    if dist.(max_hops).(dst) = infinity then None
    else begin
      (* Walk levels downward: a [-1] predecessor means the value was
         carried over from the previous level. *)
      let rec collect v k acc =
        if v = src && dist.(k).(v) = 0.0 && pred.(k).(v) = -1 then acc
        else if pred.(k).(v) = -1 then collect v (k - 1) acc
        else
          let e = pred.(k).(v) in
          collect (Graph.other_end g e v) (k - 1) (e :: acc)
      in
      let edge_ids = Array.of_list (collect dst max_hops []) in
      let walk = Path.of_edges g ~src ~dst edge_ids in
      Some (Path.simplify g walk)
    end
  end

let eccentricity g v =
  Array.fold_left
    (fun acc d -> if d <> max_int && d > acc then d else acc)
    0 (bfs_dist g v)

let diameter g =
  let best = ref 0 in
  for v = 0 to Graph.n g - 1 do
    let e = eccentricity g v in
    if e > !best then best := e
  done;
  !best

let all_pairs_hops g = Array.init (Graph.n g) (fun s -> bfs_dist g s)
