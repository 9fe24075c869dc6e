type t = { src : int; dst : int; edges : int array }

let trivial v = { src = v; dst = v; edges = [||] }

let of_edges g ~src ~dst edge_ids =
  let cur = ref src in
  Array.iter
    (fun e ->
      let u, v = Graph.endpoints g e in
      if u = !cur then cur := v
      else if v = !cur then cur := u
      else invalid_arg "Path.of_edges: edges do not form a walk")
    edge_ids;
  if !cur <> dst then invalid_arg "Path.of_edges: walk does not end at dst";
  { src; dst; edges = edge_ids }

let min_edge_between g u v =
  let best = ref (-1) in
  Array.iter
    (fun (e, w) -> if w = v && (!best < 0 || e < !best) then best := e)
    (Graph.adj g u);
  if !best < 0 then invalid_arg "Path.of_vertices: missing edge between consecutive vertices";
  !best

let of_vertices g = function
  | [] -> invalid_arg "Path.of_vertices: empty vertex list"
  | [ v ] -> trivial v
  | first :: _ as vs ->
      let rec collect acc = function
        | u :: (v :: _ as rest) -> collect (min_edge_between g u v :: acc) rest
        | [ last ] -> (last, List.rev acc)
        | [] -> assert false
      in
      let last, edge_list = collect [] vs in
      { src = first; dst = last; edges = Array.of_list edge_list }

let hops p = Array.length p.edges

let vertices g p =
  let out = Array.make (hops p + 1) p.src in
  let cur = ref p.src in
  Array.iteri
    (fun i e ->
      cur := Graph.other_end g e !cur;
      out.(i + 1) <- !cur)
    p.edges;
  out

let mem_edge p id = Array.exists (fun e -> e = id) p.edges

let is_simple g p =
  let vs = vertices g p in
  let seen = Hashtbl.create (Array.length vs) in
  Array.for_all
    (fun v ->
      if Hashtbl.mem seen v then false
      else begin
        Hashtbl.add seen v ();
        true
      end)
    vs

(* Chronological loop erasure over a per-domain scratch.  [stamp.(v) =
   epoch] iff [v] is on the retained prefix, at depth [pos.(v)];
   [verts.(d)] is the prefix's vertex at depth d and [kept.(d)] the edge
   entering [verts.(d + 1)].  A run starts with one epoch bump (no O(n)
   clearing), the arrays grow to the largest graph seen, and a stale stamp
   from another graph can never equal a fresh epoch.  The prefix is
   simple, so n slots always suffice.  Walking left to right, a repeated
   vertex drops the loop between its two occurrences; a single pass
   suffices because excising a loop never creates an earlier repeat. *)
module Erasure = struct
  type t = {
    mutable stamp : int array;
    mutable pos : int array;
    mutable verts : int array;
    mutable kept : int array;
    mutable epoch : int;
    mutable graph : Graph.t;
    mutable cur : int;
    mutable depth : int;
  }

  (* [graph] is a one-vertex placeholder until the first [start]. *)
  let key =
    Domain.DLS.new_key (fun () ->
        { stamp = [||]; pos = [||]; verts = [||]; kept = [||]; epoch = 0;
          graph = Graph.Builder.build (Graph.Builder.create 1); cur = 0;
          depth = 0 })

  let start g src =
    let er = Domain.DLS.get key in
    let n = Graph.n g in
    if Array.length er.stamp < n then begin
      er.stamp <- Array.make n (-1);
      er.pos <- Array.make n 0;
      er.verts <- Array.make n 0;
      er.kept <- Array.make n 0
    end;
    er.epoch <- er.epoch + 1;
    er.graph <- g;
    er.stamp.(src) <- er.epoch;
    er.pos.(src) <- 0;
    er.verts.(0) <- src;
    er.cur <- src;
    er.depth <- 0;
    er

  (* The loop runs on locals; [cur] and [depth] are stored back once per
     call. *)
  let push_edges er ~rev edges =
    let g = er.graph and epoch = er.epoch and stamp = er.stamp in
    let pos = er.pos and verts = er.verts and kept = er.kept in
    let cur = ref er.cur and depth = ref er.depth in
    let last = Array.length edges - 1 in
    for i = 0 to last do
      let e = if rev then edges.(last - i) else edges.(i) in
      let v = Graph.other_end g e !cur in
      cur := v;
      if stamp.(v) = epoch then begin
        (* Pop the loop: vertices above v's depth leave the prefix. *)
        let d = pos.(v) in
        for k = d + 1 to !depth do
          stamp.(verts.(k)) <- -1
        done;
        depth := d
      end
      else begin
        kept.(!depth) <- e;
        incr depth;
        verts.(!depth) <- v;
        stamp.(v) <- epoch;
        pos.(v) <- !depth
      end
    done;
    er.cur <- !cur;
    er.depth <- !depth

  let length er = er.depth
  let edge er d = er.kept.(d)
  let edges er = Array.sub er.kept 0 er.depth
end

let simplify g p =
  if Array.length p.edges = 0 then p
  else begin
    let er = Erasure.start g p.src in
    Erasure.push_edges er ~rev:false p.edges;
    { src = p.src; dst = p.dst; edges = Erasure.edges er }
  end

let concat g p q =
  if p.dst <> q.src then invalid_arg "Path.concat: endpoints do not meet";
  simplify g { src = p.src; dst = q.dst; edges = Array.append p.edges q.edges }

let unsafe_of_edges ~src ~dst edges = { src; dst; edges }

(* Edge sequences are ordered like the polymorphic compare on int arrays
   this replaces: shorter array first, then lexicographic elementwise. *)
let compare_edge_arrays a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i =
      if i = la then 0
      else
        match Int.compare (Array.unsafe_get a i) (Array.unsafe_get b i) with
        | 0 -> go (i + 1)
        | c -> c
    in
    go 0
  end

let equal p q =
  p.src = q.src && p.dst = q.dst && compare_edge_arrays p.edges q.edges = 0

let compare p q =
  match Int.compare p.src q.src with
  | 0 -> (
      match Int.compare p.dst q.dst with
      | 0 -> compare_edge_arrays p.edges q.edges
      | c -> c)
  | c -> c

let weight w p =
  let sum = ref 0.0 in
  for i = 0 to Array.length p.edges - 1 do
    sum := !sum +. w.(p.edges.(i))
  done;
  !sum
