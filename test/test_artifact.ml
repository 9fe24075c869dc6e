(* Tests for Sso_artifact: codec primitives and round-trips, the
   content-addressed store (atomic writes, checksums, corruption as a
   miss), and the memoizing wrappers' bit-identical warm starts. *)

module Rng = Sso_prng.Rng
module Obs = Sso_obs.Obs
module File = Sso_obs.File
module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Gen = Sso_graph.Gen
module Shortest = Sso_graph.Shortest
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Oblivious = Sso_oblivious.Oblivious
module Ksp = Sso_oblivious.Ksp
module Frt = Sso_oblivious.Frt
module Racke = Sso_oblivious.Racke
module Sampler = Sso_core.Sampler
module Path_system = Sso_core.Path_system
module Semi_oblivious = Sso_core.Semi_oblivious
module Arena = Sso_graph.Arena
module Codec = Sso_artifact.Codec
module Store = Sso_artifact.Store
module Memo = Sso_artifact.Memo

let tmp_counter = ref 0

let with_store f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sso-artifact-test-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  let st = Store.open_ ~dir () in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Store.clear st) with _ -> ());
      try Unix.rmdir dir with _ -> ())
    (fun () -> f st)

let cval name = Obs.counter_value (Obs.counter ("artifact." ^ name))

let raises_corrupt f =
  match f () with
  | _ -> false
  | exception File.Corrupt _ -> true

let bits = Int64.bits_of_float

let path_equal (a : Path.t) (b : Path.t) =
  a.Path.src = b.Path.src && a.Path.dst = b.Path.dst
  && a.Path.edges = b.Path.edges

(* Already-normalized distributions as a routing, in list order and
   with their weights as they are: each path appended to a fresh arena. *)
let normalized g entries =
  let a = Arena.create g in
  Routing.of_normalized a
    (List.map
       (fun (pair, dist) -> (pair, List.map (fun (w, p) -> (w, Arena.append_path a p)) dist))
       entries)

let dist_equal da db =
  List.length da = List.length db
  && List.for_all2
       (fun (wa, pa) (wb, pb) -> bits wa = bits wb && path_equal pa pb)
       da db

(* ---- codec primitives ---- *)

let test_varint_roundtrip () =
  List.iter
    (fun v ->
      let w = Codec.writer () in
      Codec.write_varint w v;
      let r = Codec.reader (Codec.contents w) in
      Alcotest.(check int) (Printf.sprintf "varint %d" v) v (Codec.read_varint r);
      Codec.expect_end r)
    [ 0; 1; 127; 128; 255; 300; 16384; 1 lsl 40; max_int ]

let test_varint_rejects_negative () =
  let w = Codec.writer () in
  Alcotest.(check bool) "negative raises" true
    (try
       Codec.write_varint w (-1);
       false
     with Invalid_argument _ -> true)

let test_varint_truncated_and_overflow () =
  Alcotest.(check bool) "truncated" true
    (raises_corrupt (fun () -> Codec.read_varint (Codec.reader "\x80")));
  Alcotest.(check bool) "overflow" true
    (raises_corrupt (fun () ->
         Codec.read_varint (Codec.reader (String.make 10 '\x80'))))

let test_fixed_width_roundtrip () =
  let w = Codec.writer () in
  Codec.write_i64 w 0x0123456789ABCDEFL;
  Codec.write_f64 w (-0.0);
  Codec.write_f64 w Float.nan;
  Codec.write_f64 w 1.0000000000000002;
  Codec.write_string w "artifact\x00binary";
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check int64) "i64" 0x0123456789ABCDEFL (Codec.read_i64 r);
  Alcotest.(check int64) "-0.0 bits" (bits (-0.0)) (bits (Codec.read_f64 r));
  Alcotest.(check int64) "nan bits" (bits Float.nan) (bits (Codec.read_f64 r));
  Alcotest.(check int64) "ulp bits" (bits 1.0000000000000002)
    (bits (Codec.read_f64 r));
  Alcotest.(check string) "string" "artifact\x00binary" (Codec.read_string r);
  Codec.expect_end r

let test_fixed_width_truncated () =
  (* 0-7 bytes left, at the start of the input and after a prefix that
     was read: both widths refuse as Corrupt, never as an index error. *)
  for left = 0 to 7 do
    List.iter
      (fun (name, read) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s with %d bytes" name left)
          true
          (raises_corrupt (fun () -> read (Codec.reader (String.make left '\xff'))));
        Alcotest.(check bool)
          (Printf.sprintf "%s with %d bytes after a prefix" name left)
          true
          (raises_corrupt (fun () ->
               let r = Codec.reader (String.make (3 + left) '\x01') in
               for _ = 1 to 3 do ignore (Codec.read_u8 r) done;
               read r)))
      [
        ("read_i64", fun r -> ignore (Codec.read_i64 r));
        ("read_f64", fun r -> ignore (Codec.read_f64 r));
      ]
  done

let test_expect_end_trailing () =
  let r = Codec.reader "xy" in
  ignore (Codec.read_u8 r);
  Alcotest.(check bool) "trailing byte" true
    (raises_corrupt (fun () -> Codec.expect_end r))

let test_fnv_vectors () =
  (* Published FNV-1a 64-bit test vectors. *)
  Alcotest.(check int64) "empty" 0xCBF29CE484222325L (Codec.fnv1a64 "");
  Alcotest.(check int64) "a" 0xAF63DC4C8601EC8CL (Codec.fnv1a64 "a");
  Alcotest.(check int64) "foobar" 0x85944171f73967e8L (Codec.fnv1a64 "foobar");
  Alcotest.(check string) "hex" "cbf29ce484222325"
    (Codec.hex_of_key (Codec.fnv1a64 ""));
  (* Over 1 MB of every byte value, against a byte-by-byte fold. *)
  let big = String.init ((1 lsl 20) + 7) (fun i -> Char.chr (((i * 131) + (i lsr 8)) land 0xff)) in
  let folded =
    String.fold_left
      (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001B3L)
      0xCBF29CE484222325L big
  in
  Alcotest.(check int64) "1 MB" folded (Codec.fnv1a64 big)

(* ---- object codecs ---- *)

let prop_demand_roundtrip =
  QCheck.Test.make ~name:"demand codec round-trips (support, amounts)"
    ~count:50 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let d = Demand.random_pairs rng ~n:20 ~pairs:8 in
      let d' = Codec.decode_demand (Codec.encode_demand d) in
      Demand.support d = Demand.support d'
      && List.for_all
           (fun (s, t) -> bits (Demand.get d s t) = bits (Demand.get d' s t))
           (Demand.support d))

(* Path collections have one encoding, the arena slice codec.  Per pair,
   the edge sequences of its range. *)
let range_edges a ranges =
  List.map
    (fun (pair, (first, count)) ->
      (pair, List.init count (fun k -> Arena.suffix_edges a (first + k) ~from_hop:0)))
    ranges

(* Decoding returns the ranges in ascending pair order with every slice's
   edges intact. *)
let slices_roundtrip a ranges =
  let a', ranges' =
    Codec.decode_path_system_slices (Arena.graph a)
      (Codec.encode_path_system_slices a ranges)
  in
  range_edges a' ranges' = range_edges a (List.sort compare ranges)

let prop_path_roundtrip =
  QCheck.Test.make ~name:"path codec round-trips exact edge sequences"
    ~count:50
    QCheck.(pair small_int (int_range 4 20))
    (fun (seed, n) ->
      let g = Gen.erdos_renyi (Rng.create seed) n 0.35 in
      match Shortest.bfs_path g 0 (n - 1) with
      | None -> QCheck.assume_fail ()
      | Some p ->
          let a = Arena.create g in
          ignore (Arena.append_path a p);
          slices_roundtrip a [ ((0, n - 1), (0, 1)) ])

(* A sampled system's candidate ranges, as [Memo.alpha_sample] saves them. *)
let sample_system seed =
  let g = Gen.grid 4 4 in
  let system = Sampler.alpha_sample (Rng.create seed) (Ksp.routing ~k:4 g) ~alpha:3 in
  let ranges =
    List.map
      (fun (s, t) -> ((s, t), Path_system.slice_range system s t))
      [ (5, 10); (0, 15); (3, 12) ]
  in
  (g, system, ranges)

let prop_path_system_roundtrip =
  QCheck.Test.make ~name:"path-system codec round-trips candidate sets"
    ~count:25 QCheck.small_int
    (fun seed ->
      let _, system, ranges = sample_system seed in
      slices_roundtrip (Path_system.arena system) ranges)

let prop_distributions_roundtrip =
  QCheck.Test.make
    ~name:"distribution codec round-trips weights bit-exactly" ~count:25
    QCheck.small_int
    (fun seed ->
      let g = Gen.erdos_renyi (Rng.create seed) 12 0.4 in
      let base = Ksp.routing ~k:3 g in
      let pairs = [ (0, 11); (1, 10) ] in
      let entries =
        List.map
          (fun (s, t) -> ((s, t), Oblivious.distribution base s t))
          pairs
      in
      let routing' =
        Codec.decode_routing g (Codec.encode_routing (normalized g entries))
      in
      List.for_all
        (fun ((s, t), dist) -> dist_equal dist (Routing.distribution routing' s t))
        entries)

let test_routing_roundtrip () =
  let g = Gen.grid 4 4 in
  let base = Ksp.routing ~k:4 g in
  let pairs = [ (0, 15); (2, 13) ] in
  let routing =
    normalized g (List.map (fun (s, t) -> ((s, t), Oblivious.distribution base s t)) pairs)
  in
  let routing' = Codec.decode_routing g (Codec.encode_routing routing) in
  List.iter
    (fun (s, t) ->
      Alcotest.(check bool)
        (Printf.sprintf "distribution %d->%d bit-identical" s t)
        true
        (dist_equal (Routing.distribution routing s t)
           (Routing.distribution routing' s t)))
    pairs

let test_forest_roundtrip () =
  let g = Gen.grid 4 4 in
  let forest = Racke.forest (Rng.create 3) ~trees:4 g in
  let parts = List.map Frt.to_parts forest in
  let parts' = Codec.decode_forest (Codec.encode_forest parts) in
  Alcotest.(check bool) "parts survive the round trip" true (parts = parts');
  let rebuilt = List.map (Frt.of_parts g) parts' in
  let pairs = [ (0, 15); (3, 12); (7, 8); (1, 14) ] in
  List.iter2
    (fun a b ->
      List.iter
        (fun (s, t) ->
          Alcotest.(check bool)
            (Printf.sprintf "route %d->%d identical" s t)
            true
            (path_equal (Frt.route a s t) (Frt.route b s t)))
        pairs)
    forest rebuilt

let test_forest_truncated_is_corrupt () =
  (* A forest payload cut at any byte decodes to Corrupt only: counts that
     promise more bytes than remain never reach an allocation or a bulk
     read. *)
  let g = Gen.fat_tree 4 in
  let payload =
    Codec.encode_forest (List.map Frt.to_parts (Racke.forest (Rng.create 3) ~trees:3 g))
  in
  for cut = 0 to String.length payload - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "cut at %d of %d" cut (String.length payload))
      true
      (raises_corrupt (fun () -> Codec.decode_forest (String.sub payload 0 cut)))
  done

let test_codec_rejects_damage () =
  let encoded = Codec.encode_demand (Demand.random_pairs (Rng.create 3) ~n:9 ~pairs:4) in
  let flip i s =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
    Bytes.to_string b
  in
  Alcotest.(check bool) "empty input" true
    (raises_corrupt (fun () -> Codec.decode_demand ""));
  Alcotest.(check bool) "wrong tag" true
    (raises_corrupt (fun () -> Codec.decode_demand (flip 0 encoded)));
  Alcotest.(check bool) "wrong version" true
    (raises_corrupt (fun () -> Codec.decode_demand (flip 1 encoded)));
  Alcotest.(check bool) "truncated" true
    (raises_corrupt (fun () ->
         Codec.decode_demand (String.sub encoded 0 (String.length encoded - 3))));
  Alcotest.(check bool) "trailing bytes" true
    (raises_corrupt (fun () -> Codec.decode_demand (encoded ^ "x")));
  Alcotest.(check bool) "forest tag refused by demand codec" true
    (raises_corrupt (fun () -> Codec.decode_demand (Codec.encode_forest [])))

(* ---- v2 path systems ---- *)

(* The retired v1 layout: edge-id varints per hop. *)
let v1_path_system_payload entries =
  let w = Codec.writer () in
  Codec.write_u8 w 0x50 (* tag 'P' *);
  Codec.write_u8 w 1 (* version 1 *);
  Codec.write_varint w (List.length entries);
  List.iter
    (fun ((s, t), paths) ->
      Codec.write_varint w s;
      Codec.write_varint w t;
      Codec.write_varint w (List.length paths);
      List.iter
        (fun (p : Path.t) ->
          Codec.write_varint w (Array.length p.Path.edges);
          Array.iter (Codec.write_varint w) p.Path.edges)
        paths)
    (List.sort (fun ((a : int * int), _) (b, _) -> compare a b) entries);
  Codec.contents w

(* The recipe [Memo.alpha_sample] files a Ksp-4, α = 3, seed-7 sample
   under. *)
let alpha_recipe g base pairs =
  Store.recipe ~kind:"alpha-sample"
    [
      ("graph", Codec.hex_of_key (Codec.graph_digest g));
      ("base", "ksp4");
      ("oblivious", Oblivious.name base);
      ("alpha", "3");
      ("rng", Codec.hex_of_key (Rng.fingerprint (Rng.create 7)));
      ("pairs", Codec.hex_of_key (Codec.pairs_digest pairs));
    ]

let warm_sample st base pairs =
  Memo.alpha_sample ~store:st ~base_key:"ksp4" (Rng.create 7) base ~alpha:3 ~pairs

(* [warm] offers the same candidates as a storeless sample, pair by pair,
   in the same order. *)
let check_equals_cold base warm pairs =
  let cold = Sampler.alpha_sample (Rng.create 7) base ~alpha:3 in
  List.iter
    (fun (s, t) ->
      Alcotest.(check bool) (Printf.sprintf "candidates %d->%d equal the cold sample" s t)
        true
        (List.equal path_equal (Path_system.paths cold s t) (Path_system.paths warm s t)))
    pairs

let test_path_system_v1_refused () =
  (* v1 payloads are no longer decoded: they are refused as Corrupt, and
     the α-sample cache counts them as damage and re-samples, so a v1
     entry left in a store costs one rebuild and nothing else. *)
  let g, system, ranges = sample_system 3 in
  let boxed = List.map (fun ((s, t), _) -> ((s, t), Path_system.paths system s t)) ranges in
  Alcotest.(check bool) "v1 payload refused" true
    (raises_corrupt (fun () ->
         Codec.decode_path_system_slices g (v1_path_system_payload boxed)));
  with_store @@ fun st ->
  let base = Ksp.routing ~k:4 g in
  let pairs = [ (0, 15); (1, 14) ] in
  let cold = Sampler.alpha_sample (Rng.create 7) base ~alpha:3 in
  let cold_entries =
    List.map (fun (s, t) -> ((s, t), Path_system.paths cold s t)) pairs
  in
  Store.put st (alpha_recipe g base pairs) (v1_path_system_payload cold_entries);
  let c0 = cval "corrupt" in
  let warm = warm_sample st base pairs in
  Alcotest.(check int) "v1 entry counted as damage" (c0 + 1) (cval "corrupt");
  check_equals_cold base warm pairs

let test_path_system_corrupt_contract () =
  (* Damaging any single byte of a v2 payload either still decodes — the
     flip can land on another representable collection — or raises
     [Corrupt]; no other exception may escape, and structural damage must
     be caught. *)
  let g, system, ranges = sample_system 4 in
  let encoded = Codec.encode_path_system_slices (Path_system.arena system) ranges in
  let decode s = Codec.decode_path_system_slices g s in
  let flipped_ok = ref true in
  for i = 0 to String.length encoded - 1 do
    let b = Bytes.of_string encoded in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5b));
    match decode (Bytes.to_string b) with
    | _ -> ()
    | exception File.Corrupt _ -> ()
    | exception _ -> flipped_ok := false
  done;
  Alcotest.(check bool) "only Corrupt escapes byte flips" true !flipped_ok;
  Alcotest.(check bool) "truncated" true
    (raises_corrupt (fun () ->
         decode (String.sub encoded 0 (String.length encoded - 2))));
  Alcotest.(check bool) "trailing bytes" true
    (raises_corrupt (fun () -> decode (encoded ^ "x")));
  (* Versions above the writer's are from the future: refused. *)
  let future = Bytes.of_string encoded in
  Bytes.set future 1 (Char.chr 99);
  Alcotest.(check bool) "future version" true
    (raises_corrupt (fun () -> decode (Bytes.to_string future)));
  Alcotest.(check bool) "demand codec tag refused" true
    (raises_corrupt (fun () -> decode (Codec.encode_demand (Demand.all_to_all 3))));
  (* Each pair is written once, in ascending order. *)
  Alcotest.(check bool) "repeated pair" true
    (raises_corrupt (fun () ->
         decode
           (Codec.encode_path_system_slices (Path_system.arena system)
              (List.hd ranges :: ranges))));
  let empty_pairs pairs =
    let w = Codec.writer () in
    Codec.write_u8 w 0x50;
    Codec.write_u8 w 2;
    Codec.write_varint w (List.length pairs);
    List.iter
      (fun (s, t) ->
        Codec.write_varint w s;
        Codec.write_varint w t;
        Codec.write_varint w 0)
      pairs;
    Codec.contents w
  in
  Alcotest.(check int) "ascending empty pairs decode" 2
    (List.length (snd (decode (empty_pairs [ (0, 15); (3, 12) ]))));
  Alcotest.(check bool) "descending pairs" true
    (raises_corrupt (fun () -> decode (empty_pairs [ (3, 12); (0, 15) ])))

let test_v2_roundtrip_matches_v1_semantics () =
  let g, system, ranges = sample_system 5 in
  Alcotest.(check bool) "round-trip" true
    (slices_roundtrip (Path_system.arena system) ranges);
  (* A trivial s = t candidate is a zero-hop slice and survives too. *)
  let a = Arena.create g in
  ignore (Arena.append_path a (Path.trivial 7));
  let a', ranges' =
    Codec.decode_path_system_slices g
      (Codec.encode_path_system_slices a [ ((7, 7), (0, 1)) ])
  in
  Alcotest.(check bool) "trivial slice" true
    (ranges' = [ ((7, 7), (0, 1)) ] && path_equal (Path.trivial 7) (Arena.to_path a' 0))

let test_pairs_digest_canonical () =
  let a = Codec.pairs_digest [ (1, 2); (0, 3); (1, 2) ] in
  let b = Codec.pairs_digest [ (0, 3); (1, 2) ] in
  let c = Codec.pairs_digest [ (0, 3) ] in
  Alcotest.(check int64) "order and duplicates do not matter" a b;
  Alcotest.(check bool) "different sets differ" true (a <> c)

(* ---- store ---- *)

let test_store_put_find () =
  with_store @@ fun st ->
  let recipe = Store.recipe ~kind:"test" [ ("x", "1"); ("y", "abc") ] in
  let h0 = cval "hit" and m0 = cval "miss" and w0 = cval "bytes_written" in
  Alcotest.(check (option string)) "miss before put" None (Store.find st recipe Fun.id);
  Store.put st recipe "payload-bytes";
  Alcotest.(check (option string)) "hit after put" (Some "payload-bytes")
    (Store.find st recipe Fun.id);
  Alcotest.(check int) "one hit" (h0 + 1) (cval "hit");
  Alcotest.(check int) "one miss" (m0 + 1) (cval "miss");
  Alcotest.(check int) "bytes written" (w0 + String.length "payload-bytes")
    (cval "bytes_written");
  let is_tmp name =
    let pat = ".tmp." in
    let n = String.length name and k = String.length pat in
    let rec go i = i + k <= n && (String.sub name i k = pat || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no temp files left" true
    (Array.for_all (fun name -> not (is_tmp name)) (Sys.readdir (Store.dir st)));
  let listing = Store.scan st in
  Alcotest.(check int) "one entry" 1 (List.length listing.Store.entries);
  Alcotest.(check (list string)) "no corruption" [] listing.Store.corrupt;
  let e = List.hd listing.Store.entries in
  Alcotest.(check string) "kind recorded" "test" e.Store.entry_kind;
  Alcotest.(check string) "described" "test(x=1, y=abc)"
    e.Store.entry_description

let test_store_recipe_keys () =
  let k a = Store.key (Store.recipe ~kind:"k" a) in
  Alcotest.(check bool) "param value changes the key" true
    (k [ ("x", "1") ] <> k [ ("x", "2") ]);
  Alcotest.(check bool) "param name changes the key" true
    (k [ ("x", "1") ] <> k [ ("y", "1") ]);
  Alcotest.(check bool) "splitting differs from joining" true
    (k [ ("x", "ab"); ("y", "c") ] <> k [ ("x", "a"); ("y", "bc") ]);
  Alcotest.(check int64) "same recipe, same key" (k [ ("x", "1") ])
    (k [ ("x", "1") ])

let entry_path st recipe =
  Filename.concat (Store.dir st)
    (Codec.hex_of_key (Store.key recipe) ^ ".art")

let test_store_truncated_payload_is_miss () =
  with_store @@ fun st ->
  let recipe = Store.recipe ~kind:"trunc" [ ("n", "1") ] in
  Store.put st recipe (String.make 200 'z');
  let path = entry_path st recipe in
  (* Deliberately truncate the payload mid-file: the checksum (and usually
     the length header) no longer match. *)
  let data = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub data 0 (String.length data - 40)));
  let c0 = cval "corrupt" in
  Alcotest.(check (option string)) "truncated entry is a miss" None
    (Store.find st recipe Fun.id);
  Alcotest.(check int) "corruption counted" (c0 + 1) (cval "corrupt");
  Alcotest.(check bool) "stale file removed" true (not (Sys.file_exists path));
  Alcotest.(check (option string)) "still a miss, not an error" None
    (Store.find st recipe Fun.id)

let test_store_flipped_byte_is_miss () =
  with_store @@ fun st ->
  let recipe = Store.recipe ~kind:"flip" [] in
  Store.put st recipe "sensitive-payload";
  let path = entry_path st recipe in
  let data = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string data in
  let i = String.length data - 12 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc b);
  Alcotest.(check (option string)) "checksum mismatch is a miss" None
    (Store.find st recipe Fun.id)

let test_store_scan_gc_clear () =
  with_store @@ fun st ->
  Store.put st (Store.recipe ~kind:"a" []) "one";
  Store.put st (Store.recipe ~kind:"b" []) "two";
  (* Plant garbage: an undecodable entry and a leftover temp file. *)
  Out_channel.with_open_bin
    (Filename.concat (Store.dir st) "deadbeefdeadbeef.art")
    (fun oc -> Out_channel.output_string oc "not an artifact");
  Out_channel.with_open_bin
    (Filename.concat (Store.dir st) "0000000000000000.art.tmp.1")
    (fun oc -> Out_channel.output_string oc "half-written");
  let listing = Store.scan st in
  Alcotest.(check int) "two live entries" 2 (List.length listing.Store.entries);
  Alcotest.(check (list string)) "garbage flagged" [ "deadbeefdeadbeef.art" ]
    listing.Store.corrupt;
  Alcotest.(check int) "gc removes corrupt + temp" 2 (Store.gc st);
  let listing = Store.scan st in
  Alcotest.(check int) "entries survive gc" 2 (List.length listing.Store.entries);
  Alcotest.(check (list string)) "clean after gc" [] listing.Store.corrupt;
  Alcotest.(check int) "clear removes everything" 2 (Store.clear st);
  Alcotest.(check int) "empty after clear" 0
    (List.length (Store.scan st).Store.entries)

let test_store_unreadable_dir () =
  let file = Filename.temp_file "sso-artifact" ".notadir" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with _ -> ())
    (fun () ->
      Alcotest.(check bool) "regular file is not a store" true
        (match Store.open_ ~dir:file () with
        | _ -> false
        | exception File.Unreadable _ -> true))

let test_default_dir_env_override () =
  let saved = Sys.getenv_opt "SSO_CACHE_DIR" in
  incr tmp_counter;
  let override =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sso-cache-override-%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  Unix.putenv "SSO_CACHE_DIR" override;
  let st = Store.open_ () in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "SSO_CACHE_DIR" (Option.value saved ~default:"");
      (try ignore (Store.clear st) with _ -> ());
      try Unix.rmdir override with _ -> ())
    (fun () -> Alcotest.(check string) "SSO_CACHE_DIR wins" override (Store.dir st))

(* ---- memoizing wrappers ---- *)

let test_memo_racke_warm_identical () =
  with_store @@ fun st ->
  let g = Gen.grid 4 4 in
  let pairs = [ (0, 15); (2, 13); (5, 10); (6, 9) ] in
  let cold = Memo.racke ~store:st (Rng.create 5) ~trees:4 g in
  let h0 = cval "hit" in
  let warm_rng = Rng.create 5 in
  let warm = Memo.racke ~store:st warm_rng ~trees:4 g in
  Alcotest.(check int) "forest hit" (h0 + 1) (cval "hit");
  Alcotest.(check int64) "rng untouched on hit"
    (Rng.fingerprint (Rng.create 5))
    (Rng.fingerprint warm_rng);
  List.iter
    (fun (s, t) ->
      Alcotest.(check bool)
        (Printf.sprintf "distribution %d->%d bit-identical" s t)
        true
        (dist_equal (Oblivious.distribution cold s t)
           (Oblivious.distribution warm s t)))
    pairs

let test_memo_racke_key_sensitivity () =
  with_store @@ fun st ->
  let g = Gen.grid 4 4 in
  let m0 = cval "miss" in
  ignore (Memo.racke ~store:st (Rng.create 5) ~trees:4 g);
  ignore (Memo.racke ~store:st (Rng.create 6) ~trees:4 g);
  ignore (Memo.racke ~store:st (Rng.create 5) ~trees:5 g);
  Alcotest.(check int) "seed and tree count each miss" (m0 + 3) (cval "miss")

let all_pairs n =
  List.concat_map
    (fun s -> List.filter_map (fun t -> if s = t then None else Some (s, t)) (List.init n Fun.id))
    (List.init n Fun.id)

let test_memo_alpha_sample_warm () =
  with_store @@ fun st ->
  let g = Gen.grid 4 4 in
  let base = Ksp.routing ~k:4 g in
  let pairs = [ (0, 15); (1, 14); (6, 9) ] in
  ignore (warm_sample st base pairs);
  let h0 = cval "hit" and c0 = cval "corrupt" in
  let warm = warm_sample st base pairs in
  Alcotest.(check int) "sample hit" (h0 + 1) (cval "hit");
  Alcotest.(check int) "nothing counted as damage" c0 (cval "corrupt");
  (* The cached pairs come from the payload; every other pair falls
     through to the always-constructed fallback sampler, whose
     split_at-keyed draws match the cold run. *)
  check_equals_cold base warm (all_pairs (Graph.n g))

(* A preloaded sample feeds Stage 4 the same candidate index as the cold
   sample: both engines return bit-identical routings on it, the LP's
   variables and rows following the index's candidate order. *)
let test_memo_alpha_sample_warm_solves () =
  with_store @@ fun st ->
  let g = Gen.grid 4 4 in
  let base = Ksp.routing ~k:4 g in
  let d = Demand.of_list [ (0, 15, 2.0); (1, 14, 1.0); (3, 12, 1.5); (6, 9, 1.0) ] in
  let pairs = Demand.support d in
  ignore (warm_sample st base pairs);
  let h0 = cval "hit" in
  let warm = warm_sample st base pairs in
  Alcotest.(check int) "sample hit" (h0 + 1) (cval "hit");
  let cold = Sampler.alpha_sample (Rng.create 7) base ~alpha:3 in
  List.iter
    (fun (name, solver) ->
      let r_cold, c_cold = Semi_oblivious.route ~solver g cold d in
      let r_warm, c_warm = Semi_oblivious.route ~solver g warm d in
      Alcotest.(check bool) (name ^ ": routings identical") true
        (Codec.encode_routing r_cold = Codec.encode_routing r_warm);
      Alcotest.(check bool) (name ^ ": congestion bit-identical") true
        (Int64.bits_of_float c_cold = Int64.bits_of_float c_warm))
    [ ("lp", Semi_oblivious.Lp); ("mwu", Semi_oblivious.Mwu 100) ]

(* Payloads that pass the store checksum and decode, but would install a
   broken system, are damage: counted, then re-sampled and re-stored. *)
let check_damaged_sample_rebuilds name damage =
  with_store @@ fun st ->
  let g = Gen.grid 4 4 in
  let base = Ksp.routing ~k:4 g in
  let pairs = [ (0, 15); (3, 12) ] in
  let cold = Sampler.alpha_sample (Rng.create 7) base ~alpha:3 in
  let ranges = List.map (fun (s, t) -> ((s, t), Path_system.slice_range cold s t)) pairs in
  let recipe = alpha_recipe g base pairs in
  Store.put st recipe (damage (Path_system.arena cold) ranges);
  let c0 = cval "corrupt" in
  let warm = warm_sample st base pairs in
  Alcotest.(check int) (name ^ ": counted as damage") (c0 + 1) (cval "corrupt");
  check_equals_cold base warm pairs;
  let h0 = cval "hit" in
  ignore (warm_sample st base pairs);
  Alcotest.(check (pair int int)) (name ^ ": the rebuild was stored") (h0 + 1, c0 + 1)
    (cval "hit", cval "corrupt")

let test_memo_repeated_slice_is_damage () =
  (* Pair (0,15) lists its first candidate twice. *)
  check_damaged_sample_rebuilds "repeated slice" (fun a ranges ->
      let b = Arena.create (Arena.graph a) in
      let ranges' =
        List.mapi
          (fun k (pair, (first, count)) ->
            let start = Arena.length b in
            if k = 0 then ignore (Arena.append_slice b a first);
            for i = first to first + count - 1 do
              ignore (Arena.append_slice b a i)
            done;
            (pair, (start, Arena.length b - start)))
          ranges
      in
      Codec.encode_path_system_slices b ranges')

let test_memo_repeated_pair_is_damage () =
  (* Pair (0,15) is listed twice, the second time with one candidate. *)
  check_damaged_sample_rebuilds "repeated pair" (fun a ranges ->
      let pair, (first, _) = List.hd ranges in
      Codec.encode_path_system_slices a (ranges @ [ (pair, (first, 1)) ]))

let test_memo_corrupt_payload_rebuilds () =
  with_store @@ fun st ->
  let g = Gen.grid 4 4 in
  let cold = Memo.racke ~store:st (Rng.create 5) ~trees:4 g in
  (* Damage the cached forest; the wrapper must rebuild, never crash or
     deserialize garbage. *)
  let recipe = Memo.racke_recipe ~trees:4 ~rng:(Rng.create 5) g in
  let path = entry_path st recipe in
  let data = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub data 0 (String.length data / 2)));
  let warm = Memo.racke ~store:st (Rng.create 5) ~trees:4 g in
  Alcotest.(check bool) "rebuilt result identical" true
    (dist_equal
       (Oblivious.distribution cold 0 15)
       (Oblivious.distribution warm 0 15));
  Alcotest.(check bool) "cache repopulated after rebuild" true
    (Store.find st recipe Fun.id <> None)

let test_memo_structurally_damaged_forest_rebuilds () =
  (* A forest entry that passes the store checksum and decodes, but whose
     trees would route wrongly (level-0 clusters collapsed into one), is
     refused by [Frt.of_parts]: counted as damage and rebuilt, with routes
     equal to the cold build. *)
  with_store @@ fun st ->
  let g = Gen.grid 4 4 in
  let cold = Racke.forest (Rng.create 5) ~trees:4 g in
  let damaged =
    List.map
      (fun tree ->
        let p = Frt.to_parts tree in
        Array.iter (fun row -> row.(0) <- 0) p.Frt.p_cluster_id;
        p)
      cold
  in
  let recipe = Memo.racke_recipe ~trees:4 ~rng:(Rng.create 5) g in
  Store.put st recipe (Codec.encode_forest damaged);
  let c0 = cval "corrupt" in
  let warm = Memo.racke_forest ~store:st (Rng.create 5) ~trees:4 g in
  Alcotest.(check int) "counted as damage" (c0 + 1) (cval "corrupt");
  List.iter2
    (fun a b ->
      for s = 0 to 15 do
        for t = 0 to 15 do
          Alcotest.(check bool)
            (Printf.sprintf "route %d->%d equals cold" s t)
            true
            (path_equal (Frt.route a s t) (Frt.route b s t))
        done
      done)
    cold warm;
  match Store.find st recipe Fun.id with
  | Some payload ->
      Alcotest.(check bool) "entry replaced by the rebuild" true
        (Codec.decode_forest payload = List.map Frt.to_parts cold)
  | None -> Alcotest.fail "rebuild not stored"

(* ---- end-to-end determinism: cold vs warm, jobs 1 vs 4 ---- *)

let test_e2e_cold_warm_jobs () =
  with_store @@ fun st ->
  let g, _ = Gen.abilene () in
  let d = Demand.gravity (Rng.create 2) ~n:(Graph.n g) ~total:30.0 in
  let run jobs =
    Support.with_jobs jobs @@ fun () ->
    let rng = Rng.create 5 in
    let racke_rng = Rng.split rng in
    let base_key =
      Codec.hex_of_key (Store.key (Memo.racke_recipe ~rng:racke_rng g))
    in
    let racke = Memo.racke ~store:st racke_rng g in
    let system =
      Memo.alpha_sample ~store:st ~base_key (Rng.split rng) racke ~alpha:4
        ~pairs:(Demand.support d)
    in
    Semi_oblivious.congestion ~solver:(Semi_oblivious.Mwu 60) g system d
  in
  let cold = run 1 in
  let h0 = cval "hit" in
  let warm1 = run 1 in
  let warm4 = run 4 in
  Alcotest.(check bool) "warm runs hit the cache" true (cval "hit" >= h0 + 2);
  Alcotest.(check int64) "cold = warm at jobs 1" (bits cold) (bits warm1);
  Alcotest.(check int64) "cold = warm at jobs 4" (bits cold) (bits warm4)

(* A fault report whose payload passes the store checksum but not the
   report decoder (here a connected flag of 2) is damage too: the sweep
   counts it as damage and not as a hit, recomputes the report a
   storeless sweep returns, and stores that, so the next sweep hits. *)
let test_sweep_corrupt_report_recomputes () =
  let module Sweep = Sso_fault.Sweep in
  let module Scenario = Sso_fault.Scenario in
  let g = Gen.grid 3 3 in
  let ps = Sampler.alpha_sample (Rng.create 7) (Ksp.routing ~k:4 g) ~alpha:3 in
  let d = Demand.of_list [ (0, 8, 1.0); (2, 6, 1.0) ] in
  let scenario = Scenario.single g 0 in
  let sweep ?store () =
    Sweep.run ~solver:(Semi_oblivious.Mwu 40) ?store ~system_key:"ksp4" g ps d [ scenario ]
  in
  let bits = function
    | [ (r : Sweep.report) ] ->
        ( (r.connected, r.survivable, r.recovery_rounds),
          List.map Int64.bits_of_float [ r.achieved; r.post_opt; r.ratio; r.warm_congestion ] )
    | reports -> Alcotest.failf "expected one report, got %d" (List.length reports)
  in
  let cold = bits (sweep ()) in
  with_store @@ fun st ->
  Store.put st
    (Store.recipe ~kind:"fault-report"
       [
         ("graph", Codec.hex_of_key (Codec.graph_digest g));
         ("demand", Codec.hex_of_key (Codec.fnv1a64 (Codec.encode_demand d)));
         ("system", "ksp4");
         ("scenario", Codec.hex_of_key (Scenario.digest scenario));
         ("solver", "mwu:40");
         ("recovery", "none");
       ])
    (Printf.sprintf "W%c\002" (Char.chr Codec.format_version));
  let c0 = cval "corrupt" and h0 = cval "hit" in
  Alcotest.(check bool) "damaged entry: the cold report" true (bits (sweep ~store:st ()) = cold);
  Alcotest.(check int) "counted as damage" (c0 + 1) (cval "corrupt");
  Alcotest.(check bool) "rewritten entry: the cold report" true (bits (sweep ~store:st ()) = cold);
  Alcotest.(check int) "one hit, no more damage" (h0 + 1) (cval "hit");
  Alcotest.(check int) "still one" (c0 + 1) (cval "corrupt")

let () =
  Alcotest.run "artifact"
    [
      ( "codec-primitives",
        [
          Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
          Alcotest.test_case "varint negative" `Quick test_varint_rejects_negative;
          Alcotest.test_case "varint damage" `Quick
            test_varint_truncated_and_overflow;
          Alcotest.test_case "i64/f64/string" `Quick test_fixed_width_roundtrip;
          Alcotest.test_case "i64/f64 truncated" `Quick test_fixed_width_truncated;
          Alcotest.test_case "expect_end" `Quick test_expect_end_trailing;
          Alcotest.test_case "fnv1a64 vectors" `Quick test_fnv_vectors;
        ] );
      ( "codec-objects",
        [
          Support.to_alcotest prop_demand_roundtrip;
          Support.to_alcotest prop_path_roundtrip;
          Support.to_alcotest prop_path_system_roundtrip;
          Support.to_alcotest prop_distributions_roundtrip;
          Alcotest.test_case "routing roundtrip" `Quick test_routing_roundtrip;
          Alcotest.test_case "forest roundtrip" `Quick test_forest_roundtrip;
          Alcotest.test_case "forest truncated" `Quick test_forest_truncated_is_corrupt;
          Alcotest.test_case "damage detection" `Quick test_codec_rejects_damage;
          Alcotest.test_case "v1 path systems refused" `Quick
            test_path_system_v1_refused;
          Alcotest.test_case "v2 corrupt-byte contract" `Quick
            test_path_system_corrupt_contract;
          Alcotest.test_case "v2 round-trip" `Quick
            test_v2_roundtrip_matches_v1_semantics;
          Alcotest.test_case "pairs digest" `Quick test_pairs_digest_canonical;
        ] );
      ( "store",
        [
          Alcotest.test_case "put/find" `Quick test_store_put_find;
          Alcotest.test_case "recipe keys" `Quick test_store_recipe_keys;
          Alcotest.test_case "truncated payload" `Quick
            test_store_truncated_payload_is_miss;
          Alcotest.test_case "flipped byte" `Quick test_store_flipped_byte_is_miss;
          Alcotest.test_case "scan/gc/clear" `Quick test_store_scan_gc_clear;
          Alcotest.test_case "unreadable dir" `Quick test_store_unreadable_dir;
          Alcotest.test_case "SSO_CACHE_DIR" `Quick test_default_dir_env_override;
        ] );
      ( "memo",
        [
          Alcotest.test_case "racke warm identical" `Quick
            test_memo_racke_warm_identical;
          Alcotest.test_case "racke key sensitivity" `Quick
            test_memo_racke_key_sensitivity;
          Alcotest.test_case "alpha-sample warm solves identically" `Quick
            test_memo_alpha_sample_warm_solves;
          Alcotest.test_case "alpha-sample warm" `Quick
            test_memo_alpha_sample_warm;
          Alcotest.test_case "corrupt payload rebuilds" `Quick
            test_memo_corrupt_payload_rebuilds;
          Alcotest.test_case "e2e cold/warm jobs 1 and 4" `Slow
            test_e2e_cold_warm_jobs;
          Alcotest.test_case "structurally damaged forest rebuilds" `Quick
            test_memo_structurally_damaged_forest_rebuilds;
          Alcotest.test_case "repeated slice in a sample is damage" `Quick
            test_memo_repeated_slice_is_damage;
          Alcotest.test_case "repeated pair in a sample is damage" `Quick
            test_memo_repeated_pair_is_damage;
          Alcotest.test_case "corrupt fault report recomputes" `Quick
            test_sweep_corrupt_report_recomputes;
        ] );
    ]
