(* Candidate path sets as arena slices — the flat index Stage-4 solvers
   walk in place.

   An index is built in two steps.  [unpack] decodes one pair's slices
   into a [piece]: its slice range, the candidates' edge ids back to back
   in generation order, and their order ascending by path ([rank]), local
   to the pair.  [concat] joins the pieces of a solve's support, all cut
   from one arena, in support order, into [(cand_off, edge_off, flat)]
   int arrays, and every round's oracle/accumulation loops run over those
   arrays.  A piece depends only on its pair's slices, so a caller that
   solves many overlapping supports over one arena (the routing service)
   keeps its pieces and unpacks only the pairs that are new to it.  Every
   candidate keeps its slice handle, and the routings a solve emits are
   slices of the index's arena: nothing is boxed or copied.

   Edges are stored as slots: [edges] lists the distinct edge ids of all
   candidates in ascending order, and [flat] holds each edge's position
   in it.  A solver sizes its per-edge arrays by the candidates' edges,
   not by the graph.  Slots are assigned per [concat], over the solve's
   own candidates.

   A pair's slices come from a path system, whose install check rejects
   a path repeated within a pair, so no index holds a path twice within
   a pair: a path names at most one candidate ([lookup]). *)

module Arena = Sso_graph.Arena

type piece = {
  arena : Arena.t;
  first : int;  (* the candidates are slices [first ..] of [arena] *)
  p_off : int array;  (* candidate -> its edge range in [p_edges], count + 1 *)
  p_edges : int array;  (* the candidates' edge ids, generation order *)
  p_rank : int array;  (* candidates ascending by path order *)
}

type t = {
  arena : Arena.t;  (* every piece's *)
  pairs : (int * int) array;  (* pair position -> pair *)
  cand_off : int array;  (* pair position -> candidate range, npairs + 1 *)
  slices : int array;  (* candidate -> its slice of [arena] *)
  rank : int array;  (* per pair range: candidates ascending by path order *)
  edge_off : int array;  (* candidate -> edge range, ncands + 1 *)
  flat : int array;  (* concatenated edge slots, path order *)
  edges : int array;  (* slot -> edge id: the candidates' distinct edges, ascending *)
}

let unpack arena (first, count) =
  let p_off, p_edges, _ = Arena.unpack_with_vertices arena (Array.init count (( + ) first)) in
  let p_rank = Array.init count Fun.id in
  Array.sort (fun c1 c2 -> Arena.compare_within_pair arena (first + c1) (first + c2)) p_rank;
  { arena; first; p_off; p_edges; p_rank }

let count p = Array.length p.p_rank

(* Per-domain scratch for the slot pass, grown to the graph's m on
   demand and epoch-stamped, so a solve neither allocates nor clears an
   m-word array (one per solve would land in the major heap each time):
   edge [e] is used by the current solve iff [stamp.(e) = epoch], and
   then its slot is [slot.(e)]. *)
type scratch = { mutable stamp : int array; mutable slot : int array; mutable epoch : int }

let scratch_key = Domain.DLS.new_key (fun () -> { stamp = [||]; slot = [||]; epoch = 0 })

let scratch_for m =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.stamp < m then begin
    sc.stamp <- Array.make m (-1);
    sc.slot <- Array.make m 0
  end;
  sc.epoch <- sc.epoch + 1;
  sc

let concat arena entries =
  let npairs = List.length entries in
  let pairs = Array.make npairs (0, 0) in
  let cand_off = Array.make (npairs + 1) 0 in
  let nedges = ref 0 in
  List.iteri
    (fun i (pair, (p : piece)) ->
      if p.arena != arena then invalid_arg "Slice_candidates.concat: a piece from another arena";
      pairs.(i) <- pair;
      cand_off.(i + 1) <- cand_off.(i) + count p;
      nedges := !nedges + Array.length p.p_edges)
    entries;
  let ncands = cand_off.(npairs) and nedges = !nedges in
  let slices = Array.make ncands 0 in
  let rank = Array.make ncands 0 in
  let edge_off = Array.make (ncands + 1) 0 in
  let flat = Array.make nedges 0 in
  List.iteri
    (fun i (_, p) ->
      let cb = cand_off.(i) in
      for k = 0 to count p - 1 do
        slices.(cb + k) <- p.first + k;
        rank.(cb + k) <- cb + p.p_rank.(k);
        edge_off.(cb + k + 1) <- edge_off.(cb) + p.p_off.(k + 1)
      done;
      Array.blit p.p_edges 0 flat edge_off.(cb) (Array.length p.p_edges))
    entries;
  let m = Sso_graph.Graph.m (Arena.graph arena) in
  let sc = scratch_for m in
  let stamp = sc.stamp and epoch = sc.epoch in
  for k = 0 to nedges - 1 do
    stamp.(flat.(k)) <- epoch
  done;
  (* Slots ascend with edge ids: one scan of the m stamps, then [flat]
     is rewritten from edge ids to slots in place. *)
  let slot = sc.slot in
  let slots = ref 0 in
  for e = 0 to m - 1 do
    if Array.unsafe_get stamp e = epoch then begin
      Array.unsafe_set slot e !slots;
      incr slots
    end
  done;
  let edges = Array.make !slots 0 in
  for k = 0 to nedges - 1 do
    let e = Array.unsafe_get flat k in
    let s = Array.unsafe_get slot e in
    Array.unsafe_set edges s e;
    Array.unsafe_set flat k s
  done;
  { arena; pairs; cand_off; slices; rank; edge_off; flat; edges }

(* ---------- Slot classes ---------- *)

(* Per-domain scratch for [classes], grown on demand and never cleared:
   each pass initializes the entries it reads.  [cls] holds each slot's
   class; [mark] and [split] are per raw class, [first] per final class. *)
type parts = {
  mutable cls : int array;
  mutable mark : int array;
  mutable split : int array;
  mutable first : int array;
}

let parts_key =
  Domain.DLS.new_key (fun () -> { cls = [||]; mark = [||]; split = [||]; first = [||] })

let parts_for ~slots ~raw =
  let p = Domain.DLS.get parts_key in
  if Array.length p.cls < slots then begin
    p.cls <- Array.make slots 0;
    p.first <- Array.make slots 0
  end;
  if Array.length p.mark < raw then begin
    p.mark <- Array.make raw 0;
    p.split <- Array.make raw 0
  end;
  p

let crossings sc = Array.length sc.flat

let classes sc ~(caps : float array) =
  let slots = Array.length sc.edges and nedges = Array.length sc.flat in
  let ncands = Array.length sc.edge_off - 1 in
  let p = parts_for ~slots ~raw:(nedges + 1) in
  let cls = p.cls and mark = p.mark and split = p.split in
  (* Partition refinement: every slot starts in raw class 0; candidate
     [c] moves each slot it crosses from class r to [split.(r)], a class
     [c] opened for r on its first such move.  A slot [c] crosses twice
     moves twice, so slots end up together iff they are crossed by the
     same candidates, the same number of times. *)
  Array.fill cls 0 slots 0;
  mark.(0) <- -1;
  let raw = ref 1 in
  for c = 0 to ncands - 1 do
    for k = sc.edge_off.(c) to sc.edge_off.(c + 1) - 1 do
      let e = Array.unsafe_get sc.flat k in
      let r = cls.(e) in
      if mark.(r) <> c then begin
        mark.(r) <- c;
        split.(r) <- !raw;
        mark.(!raw) <- -1;
        incr raw
      end;
      cls.(e) <- split.(r)
    done
  done;
  (* Number the classes by lowest slot, splitting a raw class by
     capacity: [head.(r)] is r's latest final class and [next] chains
     r's earlier ones, each named by its lowest slot's capacity. *)
  let head = split and next = mark and first = p.first in
  Array.fill head 0 !raw (-1);
  let count = ref 0 in
  for e = 0 to slots - 1 do
    let r = cls.(e) in
    let f = ref head.(r) in
    while !f >= 0 && caps.(first.(!f)) <> caps.(e) do
      f := next.(!f)
    done;
    if !f < 0 then begin
      f := !count;
      first.(!f) <- e;
      next.(!f) <- head.(r);
      head.(r) <- !f;
      incr count
    end;
    cls.(e) <- !f
  done;
  (Array.sub cls 0 slots, Array.sub first 0 !count)

let lt_pair ((s1 : int), (t1 : int)) (s2, t2) = s1 < s2 || (s1 = s2 && t1 < t2)

(* A solve's index is usually built over its own support, in support
   order: then pair [i] sits at position [i], checked in one pass with
   int comparisons.  Otherwise positions come from a table of the
   index's pairs (the first binding of a duplicated pair wins). *)
let positions sc support =
  let n = Array.length support in
  let rec aligned i =
    i = n
    || (let ((s, t) as pair) = sc.pairs.(i) in
        let s', t' = support.(i) in
        s = s' && t = t' && (i = 0 || lt_pair sc.pairs.(i - 1) pair) && aligned (i + 1))
  in
  if n = Array.length sc.pairs && aligned 0 then Array.init n Fun.id
  else begin
    let pos = Hashtbl.create ((2 * Array.length sc.pairs) + 1) in
    Array.iteri (fun i pair -> if not (Hashtbl.mem pos pair) then Hashtbl.add pos pair i) sc.pairs;
    Array.map (fun pair -> match Hashtbl.find_opt pos pair with Some i -> i | None -> -1) support
  end

let ncands sc = sc.cand_off.(Array.length sc.cand_off - 1)
let range sc i = (sc.cand_off.(i), sc.cand_off.(i + 1) - sc.cand_off.(i))

(* A strict [<] left fold over the candidates in generation order, on
   the flat arrays, with no boxed float per candidate.  A later
   candidate's loop stops once its partial sum is not below the best (see
   the .mli for why that is exact); a NaN partial or best also stops it,
   and loses as its full sum would.  The unchecked reads are in bounds:
   every slot in [flat] is below the slot count, which the length check
   covers, and the checked read of [edge_off.(hi)] covers the offsets of
   candidates [lo + 1 .. hi].  Each candidate's loop starts where the
   previous one's edges end; the edges it leaves unread are [skipped]. *)
let cheapest sc ~weights ~priced i =
  if Array.length weights < Array.length sc.edges then
    invalid_arg "Slice_candidates.cheapest: fewer weights than slots";
  let lo = sc.cand_off.(i) and hi = sc.cand_off.(i + 1) in
  if lo = hi then -1
  else begin
    let flat = sc.flat and edge_off = sc.edge_off in
    let first = edge_off.(lo) and last = edge_off.(hi) in
    let stop = ref (Array.unsafe_get edge_off (lo + 1)) in
    let bw = ref 0.0 in
    for k = first to !stop - 1 do
      bw := !bw +. Array.unsafe_get weights (Array.unsafe_get flat k)
    done;
    let best = ref lo and skipped = ref 0 in
    for c = lo + 1 to hi - 1 do
      let k = ref !stop and w = ref 0.0 in
      stop := Array.unsafe_get edge_off (c + 1);
      while !k < !stop && !w < !bw do
        w := !w +. Array.unsafe_get weights (Array.unsafe_get flat !k);
        incr k
      done;
      skipped := !skipped + (!stop - !k);
      if !w < !bw then begin
        bw := !w;
        best := c
      end
    done;
    priced := !priced + (last - first - !skipped);
    !best
  end

let edges sc = sc.edges

let iter_edges sc c f =
  for k = sc.edge_off.(c) to sc.edge_off.(c + 1) - 1 do
    f (Array.unsafe_get sc.flat k)
  done

(* The unchecked reads of [flat] stay in bounds: [edge_off] ends at its
   length. *)
let add_loads sc loads cands xs n =
  for k = 0 to n - 1 do
    let c = cands.(k) and x = xs.(k) in
    for j = sc.edge_off.(c) to sc.edge_off.(c + 1) - 1 do
      let e = Array.unsafe_get sc.flat j in
      loads.(e) <- loads.(e) +. x
    done
  done

let add_shares sc loads ~per_slot cands xs n =
  for k = 0 to n - 1 do
    let c = cands.(k) and x = xs.(k) in
    for j = sc.edge_off.(c) to sc.edge_off.(c + 1) - 1 do
      let e = Array.unsafe_get sc.flat j in
      loads.(e) <- loads.(e) +. (x /. per_slot.(e))
    done
  done

(* Warm-start seeding.  Pieces are slice ranges, so a slice of the
   index's own arena inside the pair's range names its candidate by
   offset; any other slice is compared byte for byte with each
   candidate. *)
let lookup sc i a h =
  let lo = sc.cand_off.(i) and hi = sc.cand_off.(i + 1) in
  if a == sc.arena && lo < hi && h >= sc.slices.(lo) && h - sc.slices.(lo) < hi - lo then
    lo + h - sc.slices.(lo)
  else begin
    let c = ref lo in
    while !c < hi && not (Arena.equal_slices sc.arena sc.slices.(!c) a h) do
      incr c
    done;
    if !c < hi then !c else -1
  end

let descending sc i ~weights buf pos =
  let k = ref pos in
  for j = sc.cand_off.(i + 1) - 1 downto sc.cand_off.(i) do
    let c = sc.rank.(j) in
    if weights.(c) > 0.0 then begin
      buf.(!k) <- c;
      incr k
    end
  done;
  !k

let arena sc = sc.arena
let slice sc c = sc.slices.(c)
