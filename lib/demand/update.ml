module Json = Sso_obs.Trace.Json

exception Unreadable of string
exception Corrupt of string

let schema_version = 1
let schema_tag = "sso-serve-stream"

type kind = Arrive of float | Depart | Set_rate of float

type t = { tick : int; src : int; dst : int; kind : kind }

let op_name = function
  | Arrive _ -> "arrive"
  | Depart -> "depart"
  | Set_rate _ -> "set"

(* Stream invariants, shared by [save] (programmer error) and [load]
   (data error).  Returns a description of the first violation. *)
let event_violation e =
  if e.tick < 0 then Some (Printf.sprintf "negative tick %d" e.tick)
  else if e.src < 0 || e.dst < 0 then
    Some (Printf.sprintf "negative endpoint in %d->%d" e.src e.dst)
  else if e.src = e.dst then
    Some (Printf.sprintf "diagonal pair %d->%d" e.src e.dst)
  else
    match e.kind with
    | Depart -> None
    | Arrive r | Set_rate r ->
        if Float.is_finite r && r > 0.0 then None
        else
          Some
            (Printf.sprintf "%s %d->%d with non-positive rate %g" (op_name e.kind)
               e.src e.dst r)

let stream_violation events =
  let rec go prev_tick = function
    | [] -> None
    | e :: rest -> (
        match event_violation e with
        | Some _ as v -> v
        | None ->
            if e.tick < prev_tick then
              Some
                (Printf.sprintf "tick %d after tick %d (ticks must be \
                                 non-decreasing)"
                   e.tick prev_tick)
            else go e.tick rest)
  in
  go 0 events

(* ---- applying batches ---- *)

(* One [Demand.set]/[Demand.remove] per event on the demand map itself:
   O(events · log pairs), whatever the size of the active demand. *)
let apply demand events =
  List.fold_left
    (fun d e ->
      (match event_violation e with
      | Some msg -> raise (Corrupt ("invalid event: " ^ msg))
      | None -> ());
      match e.kind with
      | Arrive r -> Demand.set d e.src e.dst (Demand.get d e.src e.dst +. r)
      | Depart ->
          if not (Demand.mem d e.src e.dst) then
            raise
              (Corrupt
                 (Printf.sprintf "tick %d: departure of inactive pair %d->%d"
                    e.tick e.src e.dst));
          Demand.remove d e.src e.dst
      | Set_rate r ->
          if not (Demand.mem d e.src e.dst) then
            raise
              (Corrupt
                 (Printf.sprintf "tick %d: rate change of inactive pair %d->%d"
                    e.tick e.src e.dst));
          Demand.set d e.src e.dst r)
    demand events

let by_tick events =
  (match stream_violation events with
  | Some msg -> raise (Corrupt ("invalid stream: " ^ msg))
  | None -> ());
  let rec go acc current current_tick = function
    | [] ->
        List.rev
          (if current = [] then acc
           else (current_tick, List.rev current) :: acc)
    | e :: rest ->
        if current = [] || e.tick = current_tick then
          go acc (e :: current) e.tick rest
        else go ((current_tick, List.rev current) :: acc) [ e ] e.tick rest
  in
  go [] [] 0 events

(* ---- JSONL codec ---- *)

(* Integral rates below 1e15 are written without a fraction ([1], where a
   trace attribute writes [1.0]); other finite rates round-trip via %.17g.
   Non-finite rates are rejected before they reach the writer. *)
let add_rate buf r =
  if Float.is_integer r && Float.abs r < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" r)
  else Buffer.add_string buf (Printf.sprintf "%.17g" r)

let add_event buf e =
  Buffer.add_string buf
    (Printf.sprintf "{\"tick\":%d,\"src\":%d,\"dst\":%d,\"op\":\"%s\"" e.tick
       e.src e.dst (op_name e.kind));
  (match e.kind with
  | Depart -> ()
  | Arrive r | Set_rate r ->
      Buffer.add_string buf ",\"rate\":";
      add_rate buf r);
  Buffer.add_string buf "}\n"

let save path events =
  (match stream_violation events with
  | Some msg -> invalid_arg ("Update.save: " ^ msg)
  | None -> ());
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"schema\":%S,\"version\":%d,\"events\":%d}\n" schema_tag
       schema_version (List.length events));
  List.iter (add_event buf) events;
  try Sso_obs.Atomic_file.write path (fun oc -> Buffer.output_buffer oc buf)
  with Sys_error msg -> raise (Unreadable msg)

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

(* The borrowed JSON parser raises the trace codec's exception; translate
   so callers only ever see this module's contract. *)
let parse_json line =
  match Json.parse line with
  | v -> v
  | exception Sso_obs.Trace.Corrupt msg -> raise (Corrupt msg)

let get_field obj key =
  match Json.member key obj with
  | Some v -> v
  | None -> corrupt "stream line is missing the %S field" key

let get_int obj key =
  match Json.number (get_field obj key) with
  | Some f when Float.is_integer f -> int_of_float f
  | Some _ | None -> corrupt "stream field %S is not an integer" key

let get_string obj key =
  match get_field obj key with
  | Json.Str s -> s
  | _ -> corrupt "stream field %S is not a string" key

let get_rate obj =
  match Json.number (get_field obj "rate") with
  | Some r -> r
  | None -> corrupt "stream field \"rate\" is not a number"

let parse_event line =
  let obj = parse_json line in
  let tick = get_int obj "tick"
  and src = get_int obj "src"
  and dst = get_int obj "dst" in
  let kind =
    match get_string obj "op" with
    | "arrive" -> Arrive (get_rate obj)
    | "depart" -> Depart
    | "set" -> Set_rate (get_rate obj)
    | other -> corrupt "unknown stream op %S" other
  in
  { tick; src; dst; kind }

let load path =
  let lines =
    match
      let ic = open_in_bin path in
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      read []
    with
    | lines -> lines
    | exception Sys_error msg -> raise (Unreadable msg)
  in
  match List.filter (fun l -> String.trim l <> "") lines with
  | [] -> corrupt "empty file is not an update stream"
  | header :: body ->
      let hdr = parse_json header in
      (match Json.member "schema" hdr with
      | Some (Json.Str s) when s = schema_tag -> ()
      | Some (Json.Str s) -> corrupt "not an update stream (schema %S)" s
      | _ -> corrupt "missing schema tag in the stream header");
      (match Json.member "version" hdr with
      | Some v when Json.number v = Some (float_of_int schema_version) -> ()
      | Some v -> (
          match Json.number v with
          | Some f -> corrupt "unsupported stream version %g" f
          | None -> corrupt "malformed stream version")
      | None -> corrupt "missing version in the stream header");
      let declared = get_int hdr "events" in
      let events = List.map parse_event body in
      let found = List.length events in
      if found <> declared then
        corrupt "stream declares %d events but contains %d%s" declared found
          (if found < declared then " (truncated?)" else "");
      (match stream_violation events with
      | Some msg -> corrupt "invalid stream: %s" msg
      | None -> ());
      events
