module File = Sso_obs.File
module Trace = Sso_obs.Trace
module Json = Trace.Json

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
      | Some msg -> File.corrupt "invalid event: %s" msg
      | None -> ());
      match e.kind with
      | Arrive r -> Demand.set d e.src e.dst (Demand.get d e.src e.dst +. r)
      | Depart ->
          if not (Demand.mem d e.src e.dst) then
            File.corrupt "tick %d: departure of inactive pair %d->%d" e.tick e.src
              e.dst;
          Demand.remove d e.src e.dst
      | Set_rate r ->
          if not (Demand.mem d e.src e.dst) then
            File.corrupt "tick %d: rate change of inactive pair %d->%d" e.tick e.src
              e.dst;
          Demand.set d e.src e.dst r)
    demand events

let by_tick events =
  (match stream_violation events with
  | Some msg -> File.corrupt "invalid stream: %s" msg
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
  File.write path (fun oc -> Buffer.output_buffer oc buf)

let parse_event obj =
  let tick = Json.int "tick" obj
  and src = Json.int "src" obj
  and dst = Json.int "dst" obj in
  let kind =
    match Json.string "op" obj with
    | "arrive" -> Arrive (Json.float "rate" obj)
    | "depart" -> Depart
    | "set" -> Set_rate (Json.float "rate" obj)
    | other -> File.corrupt "unknown stream op %S" other
  in
  { tick; src; dst; kind }

let load path =
  let _, events =
    Trace.read_jsonl ~what:"stream" ~schema:schema_tag ~version:schema_version
      parse_event path
  in
  (match stream_violation events with
  | Some msg -> File.corrupt "invalid stream: %s" msg
  | None -> ());
  events
