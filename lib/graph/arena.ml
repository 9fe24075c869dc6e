type t = {
  graph : Graph.t;
  mutable data : Bytes.t;
  mutable data_len : int;
  mutable meta : int array;
  mutable ends : int array;
  mutable count : int;
}

let hop_bits = 21
let max_hops = (1 lsl hop_bits) - 1
let max_offset = (1 lsl 42) - 1

let create graph =
  {
    graph;
    data = Bytes.create 128;
    data_len = 0;
    meta = Array.make 16 0;
    ends = Array.make 16 0;
    count = 0;
  }

let graph a = a.graph
let length a = a.count
let memory_bytes a = a.data_len + (16 * a.count)

let ensure_data a extra =
  let need = a.data_len + extra in
  if need > Bytes.length a.data then begin
    let cap = ref (max 64 (2 * Bytes.length a.data)) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let fresh = Bytes.create !cap in
    Bytes.blit a.data 0 fresh 0 a.data_len;
    a.data <- fresh
  end

let ensure_path a =
  if a.count = Array.length a.meta then begin
    let cap = max 16 (2 * a.count) in
    let grow arr =
      let fresh = Array.make cap 0 in
      Array.blit arr 0 fresh 0 a.count;
      fresh
    in
    a.meta <- grow a.meta;
    a.ends <- grow a.ends
  end

let hops a i = a.meta.(i) land max_hops
let src a i = a.ends.(i) / Graph.n a.graph
let dst a i = a.ends.(i) mod Graph.n a.graph

let record a ~src ~dst ~hops ~byte_off =
  if byte_off > max_offset then invalid_arg "Arena: data buffer exceeds 2^42 bytes";
  ensure_path a;
  let i = a.count in
  a.meta.(i) <- (byte_off lsl hop_bits) lor hops;
  a.ends.(i) <- (src * Graph.n a.graph) + dst;
  a.count <- i + 1;
  i

(* Append the LEB128 encoding of [v] (v >= 0) at the current tail. *)
let push_varint a v =
  let v = ref v in
  let continue = ref true in
  while !continue do
    let b = !v land 0x7f in
    v := !v lsr 7;
    ensure_data a 1;
    Bytes.unsafe_set a.data a.data_len
      (Char.unsafe_chr (if !v = 0 then b else b lor 0x80));
    a.data_len <- a.data_len + 1;
    continue := !v <> 0
  done

let append_walk a ~src ~dst (edge_ids : int array) =
  let g = a.graph in
  let n = Graph.n g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Arena.append_walk: endpoint out of range";
  let h = Array.length edge_ids in
  if h > max_hops then invalid_arg "Arena.append_walk: path exceeds hop limit";
  let off = Graph.csr_offsets g in
  let eids = Graph.csr_edge_ids g in
  let tgts = Graph.csr_targets g in
  let byte_off = a.data_len in
  let v = ref src in
  (try
     Array.iter
       (fun e ->
         let base = Array.unsafe_get off !v in
         let deg = Array.unsafe_get off (!v + 1) - base in
         let slot = ref (-1) in
         for j = 0 to deg - 1 do
           if !slot < 0 && Array.unsafe_get eids (base + j) = e then slot := j
         done;
         if !slot < 0 then
           invalid_arg "Arena.append_walk: edge not incident to walk vertex";
         push_varint a !slot;
         v := Array.unsafe_get tgts (base + !slot))
       edge_ids;
     if !v <> dst then invalid_arg "Arena.append_walk: walk does not end at dst"
   with e ->
     (* Roll back a partial encoding so a failed append leaves no trace. *)
     a.data_len <- byte_off;
     raise e);
  record a ~src ~dst ~hops:h ~byte_off

let append_path a (p : Path.t) =
  append_walk a ~src:p.Path.src ~dst:p.Path.dst p.Path.edges

(* Where slice [i]'s packed bytes start and stop (exclusive).  Separate
   functions, not a pair, so the comparison kernels allocate nothing. *)
let byte_start a i = a.meta.(i) lsr hop_bits
let byte_stop a i = if i + 1 < a.count then byte_start a (i + 1) else a.data_len
let byte_range a i = (byte_start a i, byte_stop a i)

let append_slice into from i =
  if not (into.graph == from.graph) then
    invalid_arg "Arena.append_slice: arenas are over different graphs";
  if i < 0 || i >= from.count then invalid_arg "Arena.append_slice: bad handle";
  let start, stop = byte_range from i in
  let len = stop - start in
  ensure_data into len;
  Bytes.blit from.data start into.data into.data_len len;
  let byte_off = into.data_len in
  into.data_len <- into.data_len + len;
  record into ~src:(src from i) ~dst:(dst from i) ~hops:(hops from i) ~byte_off

let truncate a len =
  if len < 0 || len > a.count then invalid_arg "Arena.truncate: bad length";
  if len < a.count then begin
    a.data_len <- a.meta.(len) lsr hop_bits;
    a.count <- len
  end

let append_range into from first count =
  if not (into.graph == from.graph) then
    invalid_arg "Arena.append_range: arenas are over different graphs";
  if first < 0 || count < 0 || first + count > from.count then
    invalid_arg "Arena.append_range: bad range";
  let handle = into.count in
  if count > 0 then begin
    (* Consecutive slices' bytes are contiguous: one blit, then the
       metadata shifted to the new offsets. *)
    let start = byte_start from first in
    let stop = byte_stop from (first + count - 1) in
    ensure_data into (stop - start);
    Bytes.blit from.data start into.data into.data_len (stop - start);
    let shift = into.data_len - start in
    into.data_len <- into.data_len + (stop - start);
    for i = first to first + count - 1 do
      ensure_path into;
      let byte_off = (from.meta.(i) lsr hop_bits) + shift in
      if byte_off > max_offset then invalid_arg "Arena: data buffer exceeds 2^42 bytes";
      into.meta.(into.count) <- (byte_off lsl hop_bits) lor (from.meta.(i) land max_hops);
      into.ends.(into.count) <- from.ends.(i);
      into.count <- into.count + 1
    done
  end;
  handle

let equal_slices a i b j =
  if not (a.graph == b.graph) then
    invalid_arg "Arena.equal_slices: arenas are over different graphs";
  if i < 0 || i >= a.count || j < 0 || j >= b.count then
    invalid_arg "Arena.equal_slices: bad handle";
  a.ends.(i) = b.ends.(j)
  && hops a i = hops b j
  &&
  let ai = byte_start a i and bj = byte_start b j in
  let len = byte_stop a i - ai in
  len = byte_stop b j - bj
  &&
  let k = ref 0 in
  while !k < len && Bytes.unsafe_get a.data (ai + !k) = Bytes.unsafe_get b.data (bj + !k) do
    incr k
  done;
  !k = len

let compare_path a i (p : Path.t) =
  if i < 0 || i >= a.count then invalid_arg "Arena.compare_path: bad handle";
  let h = hops a i in
  let c = ref (Int.compare (src a i) p.Path.src) in
  if !c = 0 then c := Int.compare (dst a i) p.Path.dst;
  if !c = 0 then c := Int.compare h (Array.length p.Path.edges);
  let g = a.graph in
  let off = Graph.csr_offsets g in
  let eids = Graph.csr_edge_ids g in
  let tgts = Graph.csr_targets g in
  let pos = ref (byte_start a i) in
  let v = ref (src a i) in
  let k = ref 0 in
  while !c = 0 && !k < h do
    let slot = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      let b = Char.code (Bytes.unsafe_get a.data !pos) in
      incr pos;
      slot := !slot lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      continue := b >= 0x80
    done;
    let base = Array.unsafe_get off !v + !slot in
    c := Int.compare (Array.unsafe_get eids base) (Array.unsafe_get p.Path.edges !k);
    v := Array.unsafe_get tgts base;
    incr k
  done;
  !c

let equal_path a i p = compare_path a i p = 0

let hash_slice a i =
  let h = ref (hops a i) in
  for k = byte_start a i to byte_stop a i - 1 do
    h := (!h * 0x100000001b3) lxor Char.code (Bytes.unsafe_get a.data k)
  done;
  !h

let iter_edges_vertices a i f =
  let g = a.graph in
  let off = Graph.csr_offsets g in
  let eids = Graph.csr_edge_ids g in
  let tgts = Graph.csr_targets g in
  let m = a.meta.(i) in
  let h = m land max_hops in
  let pos = ref (m lsr hop_bits) in
  let v = ref (src a i) in
  for _ = 1 to h do
    let slot = ref 0 and shift = ref 0 and continue = ref true in
    while !continue do
      let b = Char.code (Bytes.unsafe_get a.data !pos) in
      incr pos;
      slot := !slot lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      continue := b >= 0x80
    done;
    let base = Array.unsafe_get off !v + !slot in
    let e = Array.unsafe_get eids base in
    v := Array.unsafe_get tgts base;
    f e !v
  done

let iter a i f = iter_edges_vertices a i (fun e _ -> f e)

let for_all a i f =
  let ok = ref true in
  iter a i (fun e -> if not (f e) then ok := false);
  !ok

let exists a i f =
  let found = ref false in
  iter a i (fun e -> if f e then found := true);
  !found

let edges a i =
  let out = Array.make (hops a i) 0 in
  let k = ref 0 in
  iter a i (fun e ->
      out.(!k) <- e;
      incr k);
  out

let suffix_edges a i ~from_hop =
  let h = hops a i in
  if from_hop < 0 || from_hop > h then invalid_arg "Arena.suffix_edges";
  let out = Array.make (h - from_hop) 0 in
  let k = ref 0 in
  iter a i (fun e ->
      if !k >= from_hop then out.(!k - from_hop) <- e;
      incr k);
  out

let vertices a i =
  let out = Array.make (hops a i + 1) (src a i) in
  let k = ref 1 in
  iter_edges_vertices a i (fun _ v ->
      out.(!k) <- v;
      incr k);
  out

let to_path a i = Path.unsafe_of_edges ~src:(src a i) ~dst:(dst a i) (edges a i)

let compare_within_pair a i j =
  let hi = hops a i and hj = hops a j in
  if hi <> hj then Int.compare hi hj
  else begin
    (* Equal hop counts: decode in lockstep and compare edge ids. *)
    let ei = edges a i and ej = edges a j in
    let rec go k =
      if k = hi then 0
      else
        match Int.compare ei.(k) ej.(k) with 0 -> go (k + 1) | c -> c
    in
    go 0
  end

let unpack_with_vertices a ids =
  let k = Array.length ids in
  let off = Array.make (k + 1) 0 in
  for i = 0 to k - 1 do
    off.(i + 1) <- off.(i) + hops a ids.(i)
  done;
  let flat = Array.make off.(k) 0 in
  let verts = Array.make (off.(k) + k) 0 in
  for i = 0 to k - 1 do
    let p = ref off.(i) in
    let vp = ref (off.(i) + i) in
    verts.(!vp) <- src a ids.(i);
    iter_edges_vertices a ids.(i) (fun e v ->
        Array.unsafe_set flat !p e;
        incr p;
        incr vp;
        Array.unsafe_set verts !vp v)
  done;
  (off, flat, verts)

let write_encoding a i buf =
  let start, stop = byte_range a i in
  Buffer.add_subbytes buf a.data start (stop - start)

let append_encoded a ~src ~dst ~hops:h buf ~pos =
  let g = a.graph in
  let n = Graph.n g in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Arena.append_encoded: endpoint out of range";
  if h < 0 || h > max_hops then invalid_arg "Arena.append_encoded: bad hop count";
  let limit = Bytes.length buf in
  let off = Graph.csr_offsets g in
  let tgts = Graph.csr_targets g in
  let p = ref pos in
  let v = ref src in
  for _ = 1 to h do
    let slot = ref 0 and shift = ref 0 and continue = ref true in
    let last = ref 0 in
    while !continue do
      if !p >= limit then invalid_arg "Arena.append_encoded: truncated slot";
      if !shift > 28 then invalid_arg "Arena.append_encoded: slot varint too long";
      let b = Char.code (Bytes.unsafe_get buf !p) in
      incr p;
      slot := !slot lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      last := b;
      continue := b >= 0x80
    done;
    (* Canonical LEB128: a multi-byte encoding must not end in a zero
       group, or distinct byte strings would decode to the same path and
       re-encoding would not round-trip byte-identically. *)
    if !shift > 7 && !last = 0 then
      invalid_arg "Arena.append_encoded: non-canonical slot varint";
    let base = Array.unsafe_get off !v in
    let deg = Array.unsafe_get off (!v + 1) - base in
    if !slot >= deg then invalid_arg "Arena.append_encoded: slot outside adjacency row";
    v := Array.unsafe_get tgts (base + !slot)
  done;
  if !v <> dst then invalid_arg "Arena.append_encoded: walk does not end at dst";
  let len = !p - pos in
  ensure_data a len;
  Bytes.blit buf pos a.data a.data_len len;
  let byte_off = a.data_len in
  a.data_len <- a.data_len + len;
  let id = record a ~src ~dst ~hops:h ~byte_off in
  (id, len)
