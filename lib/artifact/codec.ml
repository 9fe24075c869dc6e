module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Arena = Sso_graph.Arena
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Frt = Sso_oblivious.Frt

module File = Sso_obs.File

let format_version = 1

(* ---- primitives ---- *)

type writer = Buffer.t
type reader = { data : string; mutable pos : int }

let writer () = Buffer.create 256
let contents w = Buffer.contents w
let reader data = { data; pos = 0 }

let expect_end r =
  if r.pos <> String.length r.data then
    File.corrupt "codec: %d trailing bytes" (String.length r.data - r.pos)

let write_u8 w v = Buffer.add_char w (Char.chr (v land 0xFF))

(* Reads check their whole width once before they load it. *)
let need r bytes =
  if String.length r.data - r.pos < bytes then File.corrupt "codec: truncated input"

let read_u8 r =
  need r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let write_varint w v =
  if v < 0 then invalid_arg "Codec.write_varint: negative";
  let rec go v =
    if v < 0x80 then write_u8 w v
    else begin
      write_u8 w (0x80 lor (v land 0x7F));
      go (v lsr 7)
    end
  in
  go v

let read_varint r =
  let rec go shift acc =
    if shift > 62 then File.corrupt "codec: varint overflow";
    let b = read_u8 r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let write_i64 w v =
  for i = 0 to 7 do
    Buffer.add_char w
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xFF))
  done

let read_i64 r =
  need r 8;
  let v = String.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

let write_f64 w v = write_i64 w (Int64.bits_of_float v)
let read_f64 r = Int64.float_of_bits (read_i64 r)

(* [count] floats straight into a float array; a count the remaining
   bytes cannot hold is truncation, refused before anything is allocated. *)
let read_f64_array r count =
  if count > (String.length r.data - r.pos) / 8 then
    File.corrupt "codec: truncated input";
  let a = Array.create_float count in
  for i = 0 to count - 1 do
    a.(i) <- Int64.float_of_bits (String.get_int64_le r.data (r.pos + (8 * i)))
  done;
  r.pos <- r.pos + (8 * count);
  a

let write_string w s =
  write_varint w (String.length s);
  Buffer.add_string w s

(* [List.init]'s evaluation order is unspecified; reads are effectful, so
   sequence them explicitly. *)
let read_list n f =
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f () :: acc) in
  go n []

let read_string r =
  let len = read_varint r in
  if r.pos + len > String.length r.data then File.corrupt "codec: truncated string";
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

(* ---- hashing ---- *)

(* An index loop with no closure: the compiler keeps [h] unboxed, so no
   [Int64] is allocated per byte. *)
let fnv1a64 s =
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to String.length s - 1 do
    let byte = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h byte) 0x100000001B3L
  done;
  !h

let hex_of_key k = Printf.sprintf "%016Lx" k

(* ---- tags ---- *)

let tag_graph = 0x47 (* 'G' *)
let tag_demand = 0x44 (* 'D' *)
let tag_path_system = 0x50 (* 'P' *)
let tag_distributions = 0x52 (* 'R' *)
let tag_forest = 0x46 (* 'F' *)

(* Path systems moved to the arena slot encoding in v2.  v1 payloads (edge
   ids per path) decode as [Corrupt]: the store treats them as misses and
   rebuilds. *)
let path_system_version = 2

let write_header w tag =
  write_u8 w tag;
  write_u8 w format_version

let write_header_v w tag v =
  write_u8 w tag;
  write_u8 w v

let read_header_v r tag version =
  let got = read_u8 r in
  if got <> tag then File.corrupt "codec: tag mismatch (want %#x, got %#x)" tag got;
  let v = read_u8 r in
  if v <> version then File.corrupt "codec: unsupported format version %d" v

let read_header r tag = read_header_v r tag format_version

(* Wrap Invalid_argument from reconstruction (Builder, Path.of_edges, ...)
   into Corrupt: a payload describing an impossible object is damage, not a
   programming error at the decode site. *)
let guarded f = try f () with Invalid_argument msg -> File.corrupt "codec: %s" msg

(* ---- graph ---- *)

let encode_graph g =
  let w = writer () in
  write_header w tag_graph;
  write_varint w (Graph.n g);
  write_varint w (Graph.m g);
  Graph.fold_edges
    (fun _ u v cap () ->
      write_varint w u;
      write_varint w v;
      write_f64 w cap)
    g ();
  contents w

let graph_digest g = fnv1a64 (encode_graph g)

(* ---- demand ---- *)

let encode_demand d =
  let w = writer () in
  write_header w tag_demand;
  write_varint w (Demand.support_size d);
  Demand.fold
    (fun s t v () ->
      write_varint w s;
      write_varint w t;
      write_f64 w v)
    d ();
  contents w

let decode_demand s =
  let r = reader s in
  read_header r tag_demand;
  let count = read_varint r in
  guarded @@ fun () ->
  let triples =
    read_list count (fun () ->
        let a = read_varint r in
        let b = read_varint r in
        let v = read_f64 r in
        (a, b, v))
  in
  expect_end r;
  Demand.of_list triples

(* ---- pair tables (path systems and distributions) ---- *)

let canonical entries = List.sort (fun (a, _) (b, _) -> compare a b) entries

let write_pairs w entries write_value =
  write_varint w (List.length entries);
  List.iter
    (fun ((s, t), value) ->
      write_varint w s;
      write_varint w t;
      write_value value)
    (canonical entries)

let read_pairs r read_value =
  let count = read_varint r in
  read_list count (fun () ->
      let s = read_varint r in
      let t = read_varint r in
      ((s, t), read_value s t))

(* v2 path bodies: hop count, then the arena's packed CSR-slot bytes
   verbatim (one LEB128 varint per hop) — the whole candidate collection
   serializes as one blit from the arena's shared buffer, and decodes as
   one validated append per slice. *)

let read_slice r a ~src ~dst =
  let hops = read_varint r in
  guarded (fun () ->
      let _, consumed =
        Arena.append_encoded a ~src ~dst ~hops (Bytes.unsafe_of_string r.data)
          ~pos:r.pos
      in
      r.pos <- r.pos + consumed)

let encode_path_system_slices arena ranges =
  let w = writer () in
  write_header_v w tag_path_system path_system_version;
  write_pairs w ranges (fun (first, count) ->
      write_varint w count;
      for k = 0 to count - 1 do
        write_varint w (Arena.hops arena (first + k));
        Arena.write_encoding arena (first + k) w
      done);
  contents w

let decode_path_system_slices g s =
  let r = reader s in
  read_header_v r tag_path_system path_system_version;
  let a = Arena.create g in
  (* The encoder writes each pair once, in ascending order; anything else
     would install a pair twice. *)
  let prev = ref (-1, -1) in
  let ranges =
    read_pairs r (fun src dst ->
        let ps, pt = !prev in
        if src < ps || (src = ps && dst <= pt) then
          File.corrupt "codec: path-system pair %d->%d out of order" src dst;
        prev := (src, dst);
        let count = read_varint r in
        let first = Arena.length a in
        for _ = 1 to count do
          read_slice r a ~src ~dst
        done;
        (first, count))
  in
  expect_end r;
  (a, ranges)

(* A routing is written pair by pair, ascending, each entry as its
   weight's bits, its hop count and its edge ids (varints) read off its
   slice.  Decoding appends each path to a fresh arena. *)
let encode_routing (r : Routing.t) =
  let w = writer () in
  write_header w tag_distributions;
  write_varint w (Array.length r.pairs);
  Array.iteri
    (fun i (s, t) ->
      write_varint w s;
      write_varint w t;
      write_varint w (r.off.(i + 1) - r.off.(i));
      for k = r.off.(i) to r.off.(i + 1) - 1 do
        write_f64 w r.weights.(k);
        write_varint w (Arena.hops r.arena r.slices.(k));
        Arena.iter_edges_vertices r.arena r.slices.(k) (fun e _ -> write_varint w e)
      done)
    r.pairs;
  contents w

let decode_routing g s =
  let r = reader s in
  read_header r tag_distributions;
  let arena = Arena.create g in
  let entries =
    read_pairs r (fun src dst ->
        let count = read_varint r in
        read_list count (fun () ->
            let weight = read_f64 r in
            let edges = Array.init (read_varint r) (fun _ -> read_varint r) in
            (weight, guarded (fun () -> Arena.append_path arena (Path.unsafe_of_edges ~src ~dst edges)))))
  in
  expect_end r;
  guarded (fun () -> Routing.of_normalized arena entries)

(* ---- FRT forests ---- *)

let write_table w tbl =
  write_varint w (Array.length tbl);
  Array.iter
    (fun row ->
      write_varint w (Array.length row);
      Array.iter (write_varint w) row)
    tbl

let read_table r =
  let n = read_varint r in
  Array.init n (fun _ ->
      let len = read_varint r in
      Array.init len (fun _ -> read_varint r))

let write_parts w (p : Frt.parts) =
  write_varint w p.Frt.p_levels;
  write_table w p.Frt.p_chain;
  write_table w p.Frt.p_cluster_id;
  write_varint w (Array.length p.Frt.p_lengths);
  Array.iter (write_f64 w) p.Frt.p_lengths

let read_parts r =
  let p_levels = read_varint r in
  let p_chain = read_table r in
  let p_cluster_id = read_table r in
  let p_lengths = read_f64_array r (read_varint r) in
  { Frt.p_levels; p_chain; p_cluster_id; p_lengths }

let encode_forest parts =
  let w = writer () in
  write_header w tag_forest;
  write_varint w (List.length parts);
  List.iter (write_parts w) parts;
  contents w

let decode_forest s =
  let r = reader s in
  read_header r tag_forest;
  let count = read_varint r in
  let parts = read_list count (fun () -> read_parts r) in
  expect_end r;
  parts

(* ---- pair digests ---- *)

let pairs_digest pairs =
  let w = writer () in
  List.iter
    (fun (s, t) ->
      write_varint w s;
      write_varint w t)
    (List.sort_uniq compare pairs);
  fnv1a64 (contents w)
