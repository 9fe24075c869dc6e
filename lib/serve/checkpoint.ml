module Graph = Sso_graph.Graph
module Update = Sso_demand.Update
module Semi_oblivious = Sso_core.Semi_oblivious
module Codec = Sso_artifact.Codec
module File = Sso_obs.File

let tag = 0x4B (* 'K' *)
let version = 1

(* ---------- event encoding (shared by pending and events_digest) ---------- *)

let write_event w (e : Update.t) =
  Codec.write_varint w e.Update.tick;
  Codec.write_varint w e.Update.src;
  Codec.write_varint w e.Update.dst;
  match e.Update.kind with
  | Update.Arrive rate ->
      Codec.write_u8 w 0;
      Codec.write_f64 w rate
  | Update.Depart -> Codec.write_u8 w 1
  | Update.Set_rate rate ->
      Codec.write_u8 w 2;
      Codec.write_f64 w rate

let read_event r : Update.t =
  let tick = Codec.read_varint r in
  let src = Codec.read_varint r in
  let dst = Codec.read_varint r in
  let kind =
    match Codec.read_u8 r with
    | 0 -> Update.Arrive (Codec.read_f64 r)
    | 1 -> Update.Depart
    | 2 -> Update.Set_rate (Codec.read_f64 r)
    | k -> File.corrupt "checkpoint: unknown event kind %d" k
  in
  { Update.tick; src; dst; kind }

let events_digest events =
  let w = Codec.writer () in
  Codec.write_varint w (List.length events);
  List.iter (write_event w) events;
  Codec.fnv1a64 (Codec.contents w)

let config_repr (c : Serve.config) =
  let solver =
    match c.Serve.solver with
    | Semi_oblivious.Lp -> "lp"
    | Semi_oblivious.Mwu n -> Printf.sprintf "mwu-%d" n
  in
  Printf.sprintf "solver=%s;warm_iters=%d;warm_weight=%d;refresh_every=%d;\
                  event_budget=%d;max_staleness=%d"
    solver c.Serve.warm_iters c.Serve.warm_weight c.Serve.refresh_every
    c.Serve.event_budget c.Serve.max_staleness

(* ---------- blob codec ---------- *)

let encode ~stream_digest ~graph ~config (s : Serve.state) =
  let w = Codec.writer () in
  Codec.write_u8 w tag;
  Codec.write_u8 w version;
  Codec.write_i64 w stream_digest;
  Codec.write_i64 w (Codec.graph_digest graph);
  Codec.write_string w (config_repr config);
  Codec.write_varint w (s.Serve.s_tick + 1);
  Codec.write_varint w s.Serve.s_since_cold;
  Codec.write_varint w s.Serve.s_degraded_streak;
  Codec.write_string w (Codec.encode_demand s.Serve.s_demand);
  (match s.Serve.s_routing with
  | None -> Codec.write_u8 w 0
  | Some r ->
      Codec.write_u8 w 1;
      Codec.write_string w (Codec.encode_routing r));
  Codec.write_varint w (List.length s.Serve.s_pending);
  List.iter (write_event w) s.Serve.s_pending;
  Codec.write_varint w (List.length s.Serve.s_failed);
  List.iter (Codec.write_varint w) s.Serve.s_failed;
  Codec.write_string w s.Serve.s_system;
  let body = Codec.contents w in
  let tail = Codec.writer () in
  Codec.write_i64 tail (Codec.fnv1a64 body);
  body ^ Codec.contents tail

let decode ~graph blob =
  let len = String.length blob in
  (* Checksum first: any flipped bit anywhere fails here, before a
     single field is parsed. *)
  if len < 10 then File.corrupt "checkpoint: truncated (%d bytes)" len;
  let body = String.sub blob 0 (len - 8) in
  let declared = Codec.read_i64 (Codec.reader (String.sub blob (len - 8) 8)) in
  if not (Int64.equal declared (Codec.fnv1a64 body)) then
    File.corrupt "checkpoint: checksum mismatch";
  let r = Codec.reader body in
  let t = Codec.read_u8 r in
  if t <> tag then File.corrupt "checkpoint: bad tag 0x%02x" t;
  let v = Codec.read_u8 r in
  if v <> version then File.corrupt "checkpoint: unsupported version %d" v;
  let stream_digest = Codec.read_i64 r in
  let graph_digest = Codec.read_i64 r in
  if not (Int64.equal graph_digest (Codec.graph_digest graph)) then
    File.corrupt "checkpoint: graph digest mismatch (taken on a different graph)";
  let config = Codec.read_string r in
  let s_tick = Codec.read_varint r - 1 in
  let s_since_cold = Codec.read_varint r in
  let s_degraded_streak = Codec.read_varint r in
  let s_demand = Codec.decode_demand (Codec.read_string r) in
  let s_routing =
    match Codec.read_u8 r with
    | 0 -> None
    | 1 -> Some (Codec.decode_routing graph (Codec.read_string r))
    | f -> File.corrupt "checkpoint: bad routing flag %d" f
  in
  let n_pending = Codec.read_varint r in
  let s_pending = List.init n_pending (fun _ -> read_event r) in
  let n_failed = Codec.read_varint r in
  let s_failed = List.init n_failed (fun _ -> Codec.read_varint r) in
  let s_system = Codec.read_string r in
  Codec.expect_end r;
  ( stream_digest,
    config,
    { Serve.s_tick;
      s_since_cold;
      s_degraded_streak;
      s_demand;
      s_routing;
      s_pending;
      s_failed;
      s_system } )

(* ---------- files ---------- *)

let filename ~tick =
  if tick < 0 then invalid_arg "Checkpoint.filename: tick must be >= 0";
  Printf.sprintf "ckpt-%010d.bin" tick

let parse_filename name =
  if String.length name = 19
     && String.sub name 0 5 = "ckpt-"
     && String.sub name 15 4 = ".bin"
  then int_of_string_opt (String.sub name 5 10)
  else None

let write ~dir ~stream_digest ~graph ~config state =
  if state.Serve.s_tick < 0 then
    invalid_arg "Checkpoint.write: no tick processed yet";
  let blob = encode ~stream_digest ~graph ~config state in
  File.mkdir_p dir;
  let path = Filename.concat dir (filename ~tick:state.Serve.s_tick) in
  File.write path (fun oc -> output_string oc blob);
  path

let latest ~dir =
  match File.readdir dir with
  | exception File.Unreadable _ -> None
  | names ->
      Array.fold_left
        (fun best name ->
          match parse_filename name with
          | Some tick
            when (match best with Some (t, _) -> tick > t | None -> true) ->
              Some (tick, Filename.concat dir name)
          | _ -> best)
        None names

let load ~graph path = decode ~graph (File.read path)
