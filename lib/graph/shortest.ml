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
     two parallel arrays ([keys]/[vals]), sifted inline by [settle]. *)
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

(* A weight that fails the loops' one check [we >= 0.0] is negative or NaN. *)
let invalid_weight ~context ~negative =
  invalid_arg (context ^ if negative then ": negative edge weight" else ": NaN edge weight")

(* Validate the weight function once per edge per call (not once per edge
   visit) while snapshotting it into the workspace buffer; the traversal
   then reads a flat float array. *)
let fill_weights ws g ~weight ~context =
  let m = Graph.m g in
  Workspace.ensure_weights ws m;
  let wbuf = ws.Workspace.wbuf in
  for e = 0 to m - 1 do
    let we = weight e in
    if not (we >= 0.0) then invalid_weight ~context ~negative:(we < 0.0);
    wbuf.(e) <- we
  done;
  wbuf

(* ---------- The Dijkstra core ---------- *)

(* The heap's only growth site: room for at least [need] entries. *)
let grow_heap ws need =
  let open Workspace in
  let cap = Array.length ws.keys in
  let len = max need (2 * cap) in
  let keys = Array.make len 0.0 and vals = Array.make len 0 in
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

(* A run's sources all enter its empty heap at key 0.0: appending is a push. *)
let push_source ws s =
  let open Workspace in
  if ws.stamp.(s) <> ws.epoch then begin
    ws.dist.(s) <- 0.0;
    ws.pred.(s) <- -1;
    ws.stamp.(s) <- ws.epoch;
    if ws.hsize = Array.length ws.keys then grow_heap ws (ws.hsize + 1);
    ws.keys.(ws.hsize) <- 0.0;
    ws.vals.(ws.hsize) <- s;
    ws.hsize <- ws.hsize + 1
  end

(* Settle vertices in distance order until the heap drains or
   [remaining] wanted targets have all settled.  Relaxation admits a
   candidate only when it is within [radius] and survives [prune]; each
   edge weight is checked as it is relaxed.  [visit v d] runs at settle
   time.  The per-vertex state, settle order and predecessor edges are
   those of the historical full run (same CSR neighbor order, same heap,
   same strict improvement test): an early exit only stops the loop, and
   a settled vertex's predecessor chain is final.

   The heap is a binary min-heap over the workspace's [keys]/[vals],
   sifted inline so that no key crosses a call boundary as a boxed float.
   Both sifts move entries into a hole and write the moving entry once,
   at the end.  They make exactly the comparisons of the historical
   swap-based sift (strict [<]/[>], left child before right; keys are
   never NaN, since a NaN [nd] fails [nd <= radius]), which fix the pop
   order among tied keys.  A pop takes the last entry [lk] out but leaves
   its slot as it is, so that slot stands in for the missing right child
   of the last internal node and the child pick needs no bounds test:
   when [lk] wins that pick, [lk < lk] fails and the sift stops, as the
   historical sift stops when a lone left child is not below [lk].
   Before a vertex's scan the heap grows to hold every push that scan can
   make, and a pop reads only slots below the size it starts from, so
   the pushes and both sifts index unchecked. *)
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
  let size = ref ws.hsize and remaining = ref remaining and count = ref 0 in
  while !size > 0 && !remaining > 0 do
    let keys = ws.keys and vals = ws.vals in
    let d = Array.unsafe_get keys 0 and v = Array.unsafe_get vals 0 in
    decr size;
    let last = !size in
    let lk = Array.unsafe_get keys last and lv = Array.unsafe_get vals last in
    let hole = ref 0 and l = ref 1 in
    while !l < last do
      let c = !l + Bool.to_int (Array.unsafe_get keys (!l + 1) < Array.unsafe_get keys !l) in
      if Array.unsafe_get keys c < lk then begin
        Array.unsafe_set keys !hole (Array.unsafe_get keys c);
        Array.unsafe_set vals !hole (Array.unsafe_get vals c);
        hole := c;
        l := (2 * c) + 1
      end
      else l := last (* stop *)
    done;
    Array.unsafe_set keys !hole lk;
    Array.unsafe_set vals !hole lv;
    if settled.(v) <> ep then begin
      settled.(v) <- ep;
      incr count;
      (match visit with None -> () | Some f -> f v d);
      if target.(v) = ep then decr remaining;
      if !remaining > 0 then begin
        let lo = off.(v) and hi = off.(v + 1) in
        if !size + (hi - lo) > Array.length keys then grow_heap ws (!size + (hi - lo));
        let keys = ws.keys and vals = ws.vals in
        for i = lo to hi - 1 do
          let w = dsts.(i) in
          if settled.(w) <> ep then begin
            let e = eids.(i) in
            let we = weights.(e) in
            if not (we >= 0.0) then invalid_weight ~context ~negative:(we < 0.0);
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
                let hole = ref !size in
                while !hole > 0 && Array.unsafe_get keys ((!hole - 1) / 2) > nd do
                  let p = (!hole - 1) / 2 in
                  Array.unsafe_set keys !hole (Array.unsafe_get keys p);
                  Array.unsafe_set vals !hole (Array.unsafe_get vals p);
                  hole := p
                done;
                Array.unsafe_set keys !hole nd;
                Array.unsafe_set vals !hole w;
                incr size
              end
            end
          end
        done
      end
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
    let n = Graph.n g and context = "Shortest.hop_limited_path" in
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
          if not (we >= 0.0) then invalid_weight ~context ~negative:(we < 0.0);
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
