module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace
module File = Sso_obs.File

let c_hit = Obs.counter "artifact.hit"
let c_miss = Obs.counter "artifact.miss"
let c_corrupt = Obs.counter "artifact.corrupt"
let c_bytes_read = Obs.counter "artifact.bytes_read"
let c_bytes_written = Obs.counter "artifact.bytes_written"
let h_payload = Obs.histogram "artifact.payload_bytes"

(* ---- recipes ---- *)

type recipe = { kind : string; params : (string * string) list }

let recipe ~kind params = { kind; params }

let key r =
  let w = Codec.writer () in
  Codec.write_string w r.kind;
  Codec.write_varint w (List.length r.params);
  List.iter
    (fun (name, value) ->
      Codec.write_string w name;
      Codec.write_string w value)
    r.params;
  Codec.fnv1a64 (Codec.contents w)

let describe r =
  Printf.sprintf "%s(%s)" r.kind
    (String.concat ", "
       (List.map (fun (name, value) -> name ^ "=" ^ value) r.params))

let cache_event outcome r =
  if Obs.tracing () then
    Obs.event ("artifact." ^ outcome)
      ~attrs:
        [
          ("kind", Trace.String r.kind);
          ("key", Trace.String (Codec.hex_of_key (key r)));
        ]

(* ---- entry file format ---- *)

let magic = "SSOA"
let store_version = 1

let encode_entry ~kind ~description payload =
  let w = Codec.writer () in
  String.iter (fun c -> Codec.write_u8 w (Char.code c)) magic;
  Codec.write_u8 w store_version;
  Codec.write_string w kind;
  Codec.write_string w description;
  Codec.write_string w payload;
  Codec.write_i64 w (Codec.fnv1a64 payload);
  Codec.contents w

(* @raise File.Corrupt on any damage. *)
let decode_entry data =
  let r = Codec.reader data in
  String.iter
    (fun c ->
      if Codec.read_u8 r <> Char.code c then File.corrupt "store: bad magic")
    magic;
  let v = Codec.read_u8 r in
  if v <> store_version then File.corrupt "store: unsupported version %d" v;
  let kind = Codec.read_string r in
  let description = Codec.read_string r in
  let payload = Codec.read_string r in
  let checksum = Codec.read_i64 r in
  Codec.expect_end r;
  if Codec.fnv1a64 payload <> checksum then File.corrupt "store: checksum mismatch";
  (kind, description, payload)

(* ---- the store ---- *)

type t = { dir : string }

let default_dir () =
  let non_empty = function Some d when d <> "" -> Some d | _ -> None in
  match non_empty (Sys.getenv_opt "SSO_CACHE_DIR") with
  | Some d -> d
  | None -> (
      match non_empty (Sys.getenv_opt "XDG_CACHE_HOME") with
      | Some d -> Filename.concat d "sso"
      | None -> (
          match non_empty (Sys.getenv_opt "HOME") with
          | Some h -> Filename.concat (Filename.concat h ".cache") "sso"
          | None -> "_artifacts"))

let open_ ?dir () =
  let dir = match dir with Some d -> d | None -> default_dir () in
  File.mkdir_p dir;
  if not (try Sys.is_directory dir with Sys_error _ -> false) then
    File.unreadable "%s is not a directory" dir;
  { dir }

let dir t = t.dir

let entry_file t r = Filename.concat t.dir (Codec.hex_of_key (key r) ^ ".art")
let manifest_file t = Filename.concat t.dir "manifest.txt"

let find t r decode =
  let path = entry_file t r in
  let miss () =
    Obs.incr c_miss;
    cache_event "miss" r;
    None
  in
  (* Damage, in the entry or in the payload its decoder refused. *)
  let corrupt () =
    Obs.incr c_corrupt;
    Obs.incr c_miss;
    cache_event "corrupt" r;
    (try Sys.remove path with Sys_error _ -> ());
    None
  in
  if not (Sys.file_exists path) then miss ()
  else
    match decode_entry (File.read path) with
    | exception File.Unreadable _ -> miss ()
    | exception File.Corrupt _ -> corrupt ()
    | kind, description, payload -> (
        (* A key collision between distinct recipes: not our object. *)
        if kind <> r.kind || description <> describe r then miss ()
        else
          match decode payload with
          | exception File.Corrupt _ -> corrupt ()
          | value ->
              Obs.incr c_hit;
              Obs.incr ~by:(String.length payload) c_bytes_read;
              Obs.observe h_payload (String.length payload);
              cache_event "hit" r;
              Some value)

let append_manifest t line =
  try
    Out_channel.with_open_gen
      [ Open_append; Open_creat; Open_wronly ]
      0o644 (manifest_file t)
      (fun oc -> Out_channel.output_string oc (line ^ "\n"))
  with Sys_error _ -> () (* the manifest is advisory *)

let put t r payload =
  let path = entry_file t r in
  let data = encode_entry ~kind:r.kind ~description:(describe r) payload in
  File.write path (fun oc -> output_string oc data);
  Obs.incr ~by:(String.length payload) c_bytes_written;
  Obs.observe h_payload (String.length payload);
  if Obs.tracing () then
    Obs.event "artifact.put"
      ~attrs:
        [
          ("kind", Trace.String r.kind);
          ("key", Trace.String (Codec.hex_of_key (key r)));
          ("bytes", Trace.Int (String.length payload));
        ];
  append_manifest t
    (Printf.sprintf "%s %s %d %s"
       (Codec.hex_of_key (key r))
       r.kind (String.length payload) (describe r))

(* ---- inspection and maintenance ---- *)

type entry = {
  entry_key : string;
  entry_kind : string;
  entry_description : string;
  entry_bytes : int;
}

type listing = { entries : entry list; corrupt : string list }

let is_entry_file name = Filename.check_suffix name ".art"

(* [put] writes "<key>.art.tmp.<pid>" (Sso_obs.File.write). *)
let is_tmp_file name =
  let needle = ".tmp." in
  let n = String.length name and k = String.length needle in
  let rec go i = i + k <= n && (String.sub name i k = needle || go (i + 1)) in
  go 0

let list_dir t =
  let files = File.readdir t.dir in
  Array.sort compare files;
  Array.to_list files

let scan t =
  let files = list_dir t in
  List.fold_left
    (fun acc name ->
      if not (is_entry_file name) then acc
      else
        let path = Filename.concat t.dir name in
        match decode_entry (File.read path) with
        | exception (File.Unreadable _ | File.Corrupt _) ->
            { acc with corrupt = acc.corrupt @ [ name ] }
        | kind, description, payload ->
            let e =
              {
                entry_key = Filename.chop_suffix name ".art";
                entry_kind = kind;
                entry_description = description;
                entry_bytes = String.length payload;
              }
            in
            { acc with entries = acc.entries @ [ e ] })
    { entries = []; corrupt = [] }
    files

let rewrite_manifest t entries =
  try
    Out_channel.with_open_bin (manifest_file t) (fun oc ->
        List.iter
          (fun e ->
            Printf.fprintf oc "%s %s %d %s\n" e.entry_key e.entry_kind
              e.entry_bytes e.entry_description)
          entries)
  with Sys_error _ -> ()

let gc t =
  let files = list_dir t in
  let stale =
    List.filter (fun name -> is_tmp_file name) files
  in
  let listing = scan t in
  let doomed = stale @ listing.corrupt in
  let removed =
    List.fold_left
      (fun acc name ->
        match Sys.remove (Filename.concat t.dir name) with
        | () -> acc + 1
        | exception Sys_error _ -> acc)
      0 doomed
  in
  rewrite_manifest t listing.entries;
  removed

let clear t =
  let files = list_dir t in
  let removed =
    List.fold_left
      (fun acc name ->
        if is_entry_file name || is_tmp_file name then
          match Sys.remove (Filename.concat t.dir name) with
          | () -> acc + (if is_entry_file name then 1 else 0)
          | exception Sys_error _ -> acc
        else acc)
      0 files
  in
  (try Sys.remove (manifest_file t) with Sys_error _ -> ());
  removed
