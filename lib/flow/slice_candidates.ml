(* Candidate path sets as arena slices — the flat index Stage-4 solvers
   walk in place.

   The candidate set is unpacked once per solve into [(cand_off, edge_off,
   flat)] int arrays, and every round's oracle/accumulation loops run over
   those arrays — no per-path boxed array is touched until the final
   routing is emitted.  Candidates keep their generation order (the order
   the cheapest-path scan breaks ties in), and [rank] additionally stores,
   per pair, the candidate order ascending by [Path.compare] — the order
   routings are emitted in.

   Edges are stored as slots: [edges] lists the distinct edge ids of all
   candidates in ascending order, and [flat] holds each edge's position
   in it.  A solver sizes its per-edge arrays by the candidates' edges,
   not by the graph. *)

module Path = Sso_graph.Path
module Arena = Sso_graph.Arena

type t = {
  arena : Arena.t;
  pos : (int * int, int) Hashtbl.t;  (* pair -> pair position (first wins) *)
  cand_off : int array;  (* pair position -> candidate range, npairs + 1 *)
  slice_ids : int array;  (* candidate -> arena slice handle *)
  canon : int array;
      (* candidate -> canonical candidate: duplicate paths inside one
         pair's list collapse onto their first occurrence. *)
  rank : int array;
      (* per pair range: candidates ascending by path order (ties — i.e.
         duplicates — broken by position, so the canonical copy leads) *)
  edge_off : int array;  (* candidate -> edge range, ncands + 1 *)
  flat : int array;  (* concatenated edge slots, path order *)
  edges : int array;  (* slot -> edge id: the candidates' distinct edges, ascending *)
}

(* Order two candidates the way [Path.compare] orders paths of one pair:
   fewer hops first, then lexicographic on edge ids — or on their slots,
   which ascend with the ids. *)
let compare_cands edge_off flat c1 c2 =
  let h1 = edge_off.(c1 + 1) - edge_off.(c1) in
  let h2 = edge_off.(c2 + 1) - edge_off.(c2) in
  if h1 <> h2 then Int.compare h1 h2
  else begin
    let rec go k =
      if k = h1 then 0
      else
        match Int.compare flat.(edge_off.(c1) + k) flat.(edge_off.(c2) + k) with
        | 0 -> go (k + 1)
        | c -> c
    in
    go 0
  end

(* The distinct ids in [flat], ascending, with [flat] rewritten in place
   from edge ids to their slots, by one mark pass over the m edges of the
   arena's graph.  The map edge -> slot + 1 (0: no candidate uses it) is
   int32 bytes: an index is built per solve, and an m-word scratch would
   land in the major heap and be scanned each time. *)
let slot_edges arena flat =
  let m = Sso_graph.Graph.m (Arena.graph arena) in
  let slot_of = Bytes.make (4 * m) '\000' in
  let get e = Int32.to_int (Bytes.get_int32_le slot_of (4 * e)) in
  let set e v = Bytes.set_int32_le slot_of (4 * e) (Int32.of_int v) in
  Array.iter (fun e -> set e 1) flat;
  let slots = ref 0 in
  for e = 0 to m - 1 do
    if get e <> 0 then begin
      incr slots;
      set e !slots
    end
  done;
  let edges = Array.make !slots 0 in
  for e = 0 to m - 1 do
    let k = get e in
    if k <> 0 then edges.(k - 1) <- e
  done;
  Array.iteri (fun k e -> flat.(k) <- get e - 1) flat;
  edges

let of_arena arena ranges =
  let entries = Array.of_list ranges in
  let npairs = Array.length entries in
  let pos = Hashtbl.create ((2 * npairs) + 1) in
  Array.iteri
    (fun i (pair, _) -> if not (Hashtbl.mem pos pair) then Hashtbl.add pos pair i)
    entries;
  let cand_off = Array.make (npairs + 1) 0 in
  for i = 0 to npairs - 1 do
    let _, (_, count) = entries.(i) in
    cand_off.(i + 1) <- cand_off.(i) + count
  done;
  let ncands = cand_off.(npairs) in
  let slice_ids = Array.make ncands 0 in
  for i = 0 to npairs - 1 do
    let _, (first, count) = entries.(i) in
    for k = 0 to count - 1 do
      slice_ids.(cand_off.(i) + k) <- first + k
    done
  done;
  let edge_off, flat = Arena.unpack arena slice_ids in
  let edges = slot_edges arena flat in
  let rank = Array.init ncands Fun.id in
  let cmp c1 c2 =
    match compare_cands edge_off flat c1 c2 with
    | 0 -> Int.compare c1 c2
    | c -> c
  in
  for i = 0 to npairs - 1 do
    let lo = cand_off.(i) and hi = cand_off.(i + 1) in
    let seg = Array.sub rank lo (hi - lo) in
    Array.sort cmp seg;
    Array.blit seg 0 rank lo (hi - lo)
  done;
  let canon = Array.init ncands Fun.id in
  for i = 0 to npairs - 1 do
    for k = cand_off.(i) + 1 to cand_off.(i + 1) - 1 do
      let prev = rank.(k - 1) and cur = rank.(k) in
      if compare_cands edge_off flat prev cur = 0 then canon.(cur) <- canon.(prev)
    done
  done;
  { arena; pos; cand_off; slice_ids; canon; rank; edge_off; flat; edges }

let of_list g cands =
  let arena = Arena.create ~capacity:(4 * max 1 (List.length cands)) g in
  let seen = Hashtbl.create ((2 * List.length cands) + 1) in
  let ranges =
    List.filter_map
      (fun (pair, paths) ->
        if Hashtbl.mem seen pair then None
        else begin
          Hashtbl.add seen pair ();
          let first = Arena.length arena in
          List.iter (fun (p : Path.t) -> ignore (Arena.append_path arena p)) paths;
          Some (pair, (first, Arena.length arena - first))
        end)
      cands
  in
  of_arena arena ranges

let position sc pair = match Hashtbl.find_opt sc.pos pair with Some i -> i | None -> -1
let ncands sc = sc.cand_off.(Array.length sc.cand_off - 1)

(* Cheapest candidate of pair position [i] under per-slot [weights]: a
   strict [<] left fold over the candidates in generation order, on the
   flat arrays, with no boxed float per candidate.  [-1] when the pair
   has no candidates. *)
let cheapest sc ~weights i =
  let best = ref (-1) and bw = ref 0.0 in
  for c = sc.cand_off.(i) to sc.cand_off.(i + 1) - 1 do
    let w = ref 0.0 in
    for k = sc.edge_off.(c) to sc.edge_off.(c + 1) - 1 do
      w := !w +. weights.(Array.unsafe_get sc.flat k)
    done;
    if !best < 0 || !w < !bw then begin
      bw := !w;
      best := c
    end
  done;
  !best

let canonical sc c = sc.canon.(c)
let edges sc = sc.edges

let iter_edges sc c f =
  for k = sc.edge_off.(c) to sc.edge_off.(c + 1) - 1 do
    f (Array.unsafe_get sc.flat k)
  done

(* Find the candidate of pair position [i] whose edge sequence equals [p]
   (first occurrence in generation order), for warm-start seeding. *)
let find sc i (p : Path.t) =
  let h = Array.length p.Path.edges in
  let lo = sc.cand_off.(i) and hi = sc.cand_off.(i + 1) in
  let rec go c =
    if c >= hi then -1
    else if
      sc.edge_off.(c + 1) - sc.edge_off.(c) = h
      && begin
           let rec eq k =
             k = h
             || (sc.edges.(sc.flat.(sc.edge_off.(c) + k)) = p.Path.edges.(k) && eq (k + 1))
           in
           eq 0
         end
    then c
    else go (c + 1)
  in
  go lo

let iter_ascending sc i f =
  for k = sc.cand_off.(i) to sc.cand_off.(i + 1) - 1 do
    f sc.rank.(k)
  done

let path sc c = Arena.to_path sc.arena sc.slice_ids.(c)
