let schema_version = 2

type value = Int of int | Float of float | Bool of bool | String of string
type kind = Span | Event

type event = {
  slot : int;
  seq : int;
  ts_ns : int;
  kind : kind;
  name : string;
  dur_ns : int;
  depth : int;
  attrs : (string * value) list;
}

type t = { meta : (string * value) list; dropped : int; events : event list }

(* ---------- encoding ---------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

(* JSON has no literals for nan/inf; null and the overflowing 1e999 (which
   float_of_string reads back as infinity) keep every float representable. *)
let add_float buf f =
  if Float.is_nan f then Buffer.add_string buf "null"
  else if f = Float.infinity then Buffer.add_string buf "1e999"
  else if f = Float.neg_infinity then Buffer.add_string buf "-1e999"
  else begin
    let s = Printf.sprintf "%.17g" f in
    Buffer.add_string buf s;
    if String.for_all (fun c -> c <> '.' && c <> 'e' && c <> 'E') s then
      Buffer.add_string buf ".0"
  end

let add_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | String s -> add_escaped buf s

let add_fields buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_escaped buf k;
      Buffer.add_char buf ':';
      add_value buf v)
    fields;
  Buffer.add_char buf '}'

let encode_event buf e =
  Buffer.add_string buf "{\"slot\":";
  Buffer.add_string buf (string_of_int e.slot);
  Buffer.add_string buf ",\"seq\":";
  Buffer.add_string buf (string_of_int e.seq);
  Buffer.add_string buf ",\"ts_ns\":";
  Buffer.add_string buf (string_of_int e.ts_ns);
  Buffer.add_string buf ",\"kind\":";
  Buffer.add_string buf (match e.kind with Span -> "\"span\"" | Event -> "\"event\"");
  Buffer.add_string buf ",\"name\":";
  add_escaped buf e.name;
  Buffer.add_string buf ",\"dur_ns\":";
  Buffer.add_string buf (string_of_int e.dur_ns);
  Buffer.add_string buf ",\"depth\":";
  Buffer.add_string buf (string_of_int e.depth);
  Buffer.add_string buf ",\"attrs\":";
  add_fields buf e.attrs;
  Buffer.add_char buf '}'

let encode_header buf t =
  Buffer.add_string buf "{\"schema\":\"sso-trace\",\"version\":";
  Buffer.add_string buf (string_of_int schema_version);
  Buffer.add_string buf ",\"meta\":";
  add_fields buf t.meta;
  Buffer.add_string buf ",\"dropped\":";
  Buffer.add_string buf (string_of_int t.dropped);
  Buffer.add_string buf ",\"events\":";
  Buffer.add_string buf (string_of_int (List.length t.events));
  Buffer.add_char buf '}'

let save path t =
  File.write path (fun oc ->
      let buf = Buffer.create 65536 in
      encode_header buf t;
      Buffer.add_char buf '\n';
      List.iter
        (fun e ->
          encode_event buf e;
          Buffer.add_char buf '\n';
          if Buffer.length buf > 1_000_000 then begin
            Buffer.output_buffer oc buf;
            Buffer.clear buf
          end)
        t.events;
      Buffer.output_buffer oc buf)

(* ---------- generic JSON ---------- *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of string
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else File.corrupt "expected %c at offset %d" c !pos
    in
    let literal lit v =
      let l = String.length lit in
      if !pos + l <= n && String.sub s !pos l = lit then begin
        pos := !pos + l;
        v
      end
      else File.corrupt "bad literal at offset %d" !pos
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then File.corrupt "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
              advance ();
              if !pos >= n then File.corrupt "unterminated escape";
              (match s.[!pos] with
              | '"' -> Buffer.add_char buf '"'; advance ()
              | '\\' -> Buffer.add_char buf '\\'; advance ()
              | '/' -> Buffer.add_char buf '/'; advance ()
              | 'n' -> Buffer.add_char buf '\n'; advance ()
              | 'r' -> Buffer.add_char buf '\r'; advance ()
              | 't' -> Buffer.add_char buf '\t'; advance ()
              | 'b' -> Buffer.add_char buf '\b'; advance ()
              | 'f' -> Buffer.add_char buf '\012'; advance ()
              | 'u' ->
                  advance ();
                  if !pos + 4 > n then File.corrupt "truncated \\u escape";
                  let hex = String.sub s !pos 4 in
                  pos := !pos + 4;
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with _ -> File.corrupt "bad \\u escape"
                  in
                  (* Encode the code point as UTF-8; traces only ever
                     escape control chars so surrogates are not handled. *)
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else if code < 0x800 then begin
                    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
                  else begin
                    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                    Buffer.add_char buf
                      (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                  end
              | c -> File.corrupt "bad escape \\%c" c);
              go ()
          | c -> Buffer.add_char buf c; advance (); go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      if peek () = Some '-' then advance ();
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
        | _ -> false
      do
        advance ()
      done;
      if !pos = start then File.corrupt "bad number at offset %d" start;
      String.sub s start (!pos - start)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> File.corrupt "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin advance (); Obj [] end
          else begin
            let members = ref [] in
            let rec members_loop () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              members := (k, v) :: !members;
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); members_loop ()
              | Some '}' -> advance ()
              | _ -> File.corrupt "expected , or } in object"
            in
            members_loop ();
            Obj (List.rev !members)
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin advance (); Arr [] end
          else begin
            let items = ref [] in
            let rec items_loop () =
              let v = parse_value () in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); items_loop ()
              | Some ']' -> advance ()
              | _ -> File.corrupt "expected , or ] in array"
            in
            items_loop ();
            Arr (List.rev !items)
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then File.corrupt "trailing garbage at offset %d" !pos;
    v

  let member k = function
    | Obj fields -> List.assoc_opt k fields
    | _ -> None

  let number = function
    | Num raw -> ( try Some (float_of_string raw) with _ -> None)
    | _ -> None

  let field k j =
    match member k j with Some v -> v | None -> File.corrupt "missing field %S" k

  (* An integer spelling, or an integral float below 2^62. *)
  let int k j =
    match field k j with
    | Num raw -> (
        match int_of_string_opt raw with
        | Some i -> i
        | None -> (
            match float_of_string_opt raw with
            | Some f when Float.is_integer f && Float.abs f < 0x1p62 -> int_of_float f
            | _ -> File.corrupt "field %S is not an integer" k))
    | _ -> File.corrupt "field %S is not an integer" k

  let float k j =
    match number (field k j) with
    | Some f -> f
    | None -> File.corrupt "field %S is not a number" k

  let string k j =
    match field k j with Str s -> s | _ -> File.corrupt "field %S is not a string" k

  let fields k j =
    match field k j with Obj fs -> fs | _ -> File.corrupt "field %S is not an object" k

  (* ---------- generic JSON writing ---------- *)

  let of_int i = Num (string_of_int i)

  (* Non-finite floats are quoted: JSON has no literal for them. *)
  let of_float f =
    if Float.is_nan f then Str "nan"
    else if f = infinity then Str "inf"
    else if f = neg_infinity then Str "-inf"
    else Num (Printf.sprintf "%.17g" f)

  let rec to_string = function
    | Null -> "null"
    | Bool b -> string_of_bool b
    | Num s -> s
    | Str s -> json_string s
    | Arr items -> "[" ^ String.concat ", " (List.map to_string items) ^ "]"
    | Obj fields ->
        let field (key, value) = json_string key ^ ": " ^ to_string value in
        "{" ^ String.concat ", " (List.map field fields) ^ "}"
end

(* ---------- JSONL files ---------- *)

let read_jsonl ~what ~schema ~version decode path =
  let lines = String.split_on_char '\n' (File.read path) in
  match List.filter (fun l -> String.trim l <> "") lines with
  | [] -> File.corrupt "empty %s file" what
  | header :: body ->
      let header = Json.parse header in
      (match Json.member "schema" header with
      | Some (Json.Str s) when s = schema -> ()
      | Some (Json.Str s) -> File.corrupt "not an sso %s (schema %S)" what s
      | _ -> File.corrupt "missing schema tag in the %s header" what);
      let v = Json.int "version" header in
      if v <> version then File.corrupt "unsupported %s version %d" what v;
      let declared = Json.int "events" header in
      let records = List.map (fun line -> decode (Json.parse line)) body in
      let found = List.length records in
      if found <> declared then
        File.corrupt "%s declares %d events but contains %d%s" what declared found
          (if found < declared then " (truncated?)" else "");
      (header, records)

(* ---------- decoding ---------- *)

let value_of_json = function
  | Json.Null -> Some (Float Float.nan)
  | Json.Bool b -> Some (Bool b)
  | Json.Str s -> Some (String s)
  | Json.Num raw -> (
      match int_of_string_opt raw with
      | Some i -> Some (Int i)
      | None -> (
          match float_of_string_opt raw with
          | Some f -> Some (Float f)
          | None -> None))
  | Json.Arr _ | Json.Obj _ -> None

let attrs_of_fields fields =
  List.map
    (fun (k, v) ->
      match value_of_json v with
      | Some v -> (k, v)
      | None -> File.corrupt "bad attr %S" k)
    fields

let decode_event j =
  let kind =
    match Json.string "kind" j with
    | "span" -> Span
    | "event" -> Event
    | k -> File.corrupt "unknown event kind %S" k
  in
  {
    slot = Json.int "slot" j;
    seq = Json.int "seq" j;
    ts_ns = Json.int "ts_ns" j;
    kind;
    name = Json.string "name" j;
    dur_ns = Json.int "dur_ns" j;
    depth = Json.int "depth" j;
    attrs = attrs_of_fields (Json.fields "attrs" j);
  }

let load path =
  let header, events =
    read_jsonl ~what:"trace" ~schema:"sso-trace" ~version:schema_version decode_event path
  in
  {
    meta = attrs_of_fields (Json.fields "meta" header);
    dropped = Json.int "dropped" header;
    events;
  }

(* ---------- aggregation ---------- *)

let event_counts events =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun e ->
      if e.kind = Event then
        Hashtbl.replace tbl e.name
          (1 + try Hashtbl.find tbl e.name with Not_found -> 0))
    events;
  Hashtbl.fold (fun name count acc -> (name, count) :: acc) tbl []
  |> List.sort compare

(* ---------- span-tree profiling ---------- *)

type span_node = {
  n_name : string;
  n_dur : int;
  n_children : span_node list; (* in emission order *)
}

(* Spans are recorded at exit (post-order) with their nesting depth, and a
   parallel region's tasks start at the depth of the span open when it was
   submitted ([Obs.in_task]).  That span closes on the submitter's
   post-region slot, which sorts after the task slots.  So in (slot, seq)
   order every child's span event precedes its parent's and carries a
   strictly greater depth, and one scan with a pending stack rebuilds the
   whole call tree: a span at depth [d] claims every pending node of depth
   > [d] as its children.  What is still pending at the end is a root. *)
let span_forest events =
  let pending = ref [] in (* (depth, node), most recent first *)
  List.iter
    (fun e ->
      if e.kind = Span then begin
        let rec claim children = function
          | (d, n) :: rest when d > e.depth -> claim ((d, n) :: children) rest
          | rest -> (children, rest)
        in
        let taken, rest = claim [] !pending in
        (* [claim] reverses the newest-first stack, so [taken] is already
           in emission order. *)
        let node =
          { n_name = e.name; n_dur = e.dur_ns; n_children = List.map snd taken }
        in
        pending := (e.depth, node) :: rest
      end)
    events;
  List.rev_map snd !pending

(* Depth-first walk accumulating [f acc path node self_ns]; [path] is the
   ;-joined span names from the root, self time is the node's duration
   minus its direct children's (clamped at 0 — clock jitter can make
   children sum past the parent). *)
let fold_span_tree f init forest =
  let rec go prefix acc n =
    let path = if prefix = "" then n.n_name else prefix ^ ";" ^ n.n_name in
    let child_dur = List.fold_left (fun s c -> s + c.n_dur) 0 n.n_children in
    let self = max 0 (n.n_dur - child_dur) in
    let acc = f acc path n self in
    List.fold_left (go path) acc n.n_children
  in
  List.fold_left (go "") init forest

let folded_stacks events =
  let tbl = Hashtbl.create 64 in
  ignore
    (fold_span_tree
       (fun () path _ self ->
         let calls, self_ns =
           try Hashtbl.find tbl path with Not_found -> (0, 0)
         in
         Hashtbl.replace tbl path (calls + 1, self_ns + self))
       () (span_forest events));
  Hashtbl.fold (fun path (calls, self_ns) acc -> (path, calls, self_ns) :: acc)
    tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let self_totals events =
  let tbl = Hashtbl.create 64 in
  ignore
    (fold_span_tree
       (fun () _ n self ->
         let calls, total, self_ns =
           try Hashtbl.find tbl n.n_name with Not_found -> (0, 0, 0)
         in
         Hashtbl.replace tbl n.n_name (calls + 1, total + n.n_dur, self_ns + self))
       () (span_forest events));
  Hashtbl.fold
    (fun name (calls, total, self_ns) acc -> (name, calls, total, self_ns) :: acc)
    tbl []
  |> List.sort (fun (a1, _, _, s1) (a2, _, _, s2) ->
         if s1 <> s2 then compare s2 s1 else compare a1 a2)

let attr e k = List.assoc_opt k e.attrs

type round = {
  r_round : int;
  r_cong : float;
  r_avg : float;
  r_potential : float;
  r_paths : int;
}

type solve = {
  s_solver : string;
  s_pairs : int;
  s_iters : int;
  s_rounds : round list;
}

let num_attr e k =
  match attr e k with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let int_attr e k = match attr e k with Some (Int i) -> Some i | _ -> None
let str_attr e k = match attr e k with Some (String s) -> Some s | _ -> None

(* Solves never interleave in (slot, seq) order: a solve's rounds are emitted
   by the stream that emitted its "mwu.solve" marker, on slots strictly after
   every earlier solve's (task blocks are slot-contiguous; the main stream's
   slots only grow).  So a single sequential scan attaches each "mwu.round"
   to the most recent marker. *)
let mwu_solves events =
  let solves = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | None -> ()
    | Some (solver, pairs, iters, rounds) ->
        solves :=
          { s_solver = solver; s_pairs = pairs; s_iters = iters;
            s_rounds = List.rev rounds }
          :: !solves;
        current := None
  in
  List.iter
    (fun e ->
      if e.kind = Event then
        match e.name with
        | "mwu.solve" ->
            flush ();
            let solver = Option.value ~default:"?" (str_attr e "solver") in
            let pairs = Option.value ~default:0 (int_attr e "pairs") in
            let iters = Option.value ~default:0 (int_attr e "iters") in
            current := Some (solver, pairs, iters, [])
        | "mwu.round" -> (
            match !current with
            | None -> ()
            | Some (solver, pairs, iters, rounds) ->
                let r =
                  {
                    r_round = Option.value ~default:0 (int_attr e "round");
                    r_cong =
                      Option.value ~default:Float.nan
                        (num_attr e "round_congestion");
                    r_avg =
                      Option.value ~default:Float.nan
                        (num_attr e "avg_congestion");
                    r_potential =
                      Option.value ~default:Float.nan (num_attr e "potential");
                    r_paths =
                      Option.value ~default:0 (int_attr e "support_paths");
                  }
                in
                current := Some (solver, pairs, iters, r :: rounds))
        | _ -> ())
    events;
  flush ();
  List.rev !solves
