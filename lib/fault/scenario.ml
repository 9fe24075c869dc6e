module Graph = Sso_graph.Graph
module Rng = Sso_prng.Rng
module Codec = Sso_artifact.Codec

type failure = { fail_edge : int; fail_factor : float }

type t = { label : string; failures : failure list }

let default_label failures =
  let ids = List.map (fun f -> string_of_int f.fail_edge) failures in
  "edges[" ^ String.concat "," ids ^ "]"

let validate g failures =
  let m = Graph.m g in
  List.iter
    (fun f ->
      if f.fail_edge < 0 || f.fail_edge >= m then
        invalid_arg "Scenario.make: edge id out of range";
      if not (f.fail_factor >= 0.0 && f.fail_factor < 1.0) then
        invalid_arg "Scenario.make: capacity factor must be in [0,1)")
    failures;
  let sorted =
    List.stable_sort (fun a b -> compare a.fail_edge b.fail_edge) failures
  in
  let rec dups = function
    | a :: (b :: _ as rest) ->
        if a.fail_edge = b.fail_edge then
          invalid_arg "Scenario.make: duplicate edge in failure set";
        dups rest
    | _ -> ()
  in
  dups sorted;
  sorted

let make ?label g failures =
  let failures = validate g failures in
  let label = match label with Some l -> l | None -> default_label failures in
  { label; failures }

let single g e = make ~label:(Printf.sprintf "edge-%d" e) g [ { fail_edge = e; fail_factor = 0.0 } ]

let of_edges ?label g es =
  make ?label g (List.map (fun e -> { fail_edge = e; fail_factor = 0.0 }) es)

let degrade ?label g ~factor es =
  if not (factor > 0.0 && factor < 1.0) then
    invalid_arg "Scenario.degrade: factor must be in (0,1)";
  let label =
    match label with
    | Some l -> Some l
    | None ->
        Some
          (Printf.sprintf "degrade-%g[%s]" factor
             (String.concat "," (List.map string_of_int (List.sort compare es))))
  in
  make ?label g (List.map (fun e -> { fail_edge = e; fail_factor = factor }) es)

let random_k rng g ~k =
  let m = Graph.m g in
  if k < 1 || k > m then invalid_arg "Scenario.random_k: k out of range";
  let perm = Rng.permutation rng m in
  let es = List.sort compare (Array.to_list (Array.sub perm 0 k)) in
  of_edges
    ~label:
      (Printf.sprintf "random-%d[%s]" k
         (String.concat "," (List.map string_of_int es)))
    g es

(* ---------- Structural shared-risk groups ---------- *)

let torus_rows g ~rows ~cols =
  if rows < 3 || cols < 3 then invalid_arg "Scenario.torus_rows: sides must be >= 3";
  if Graph.n g <> rows * cols then
    invalid_arg "Scenario.torus_rows: vertex count does not match rows*cols";
  List.init rows (fun r ->
      let in_row v = v / cols = r in
      let es =
        Graph.fold_edges
          (fun id u v _cap acc -> if in_row u && in_row v then id :: acc else acc)
          g []
      in
      of_edges ~label:(Printf.sprintf "row-%d" r) g (List.rev es))

let fat_tree_pods g ~k =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg "Scenario.fat_tree_pods: k must be even and >= 2";
  let half = k / 2 in
  let cores = half * half in
  if Graph.n g <> cores + (k * k) then
    invalid_arg "Scenario.fat_tree_pods: vertex count does not match fat_tree k";
  List.init k (fun p ->
      let lo = cores + (p * k) and hi = cores + ((p + 1) * k) in
      let in_pod v = v >= lo && v < hi in
      let es =
        Graph.fold_edges
          (fun id u v _cap acc -> if in_pod u || in_pod v then id :: acc else acc)
          g []
      in
      of_edges ~label:(Printf.sprintf "pod-%d" p) g (List.rev es))

let incident g v =
  if v < 0 || v >= Graph.n g then invalid_arg "Scenario.incident: vertex out of range";
  let es = Array.to_list (Array.map fst (Graph.adj g v)) in
  of_edges ~label:(Printf.sprintf "vertex-%d" v) g (List.sort compare es)

(* ---------- Interrogation ---------- *)

let edges s = List.map (fun f -> f.fail_edge) s.failures

let removed s =
  let dead =
    List.filter_map
      (fun f -> if f.fail_factor = 0.0 then Some f.fail_edge else None)
      s.failures
  in
  match dead with
  | [] -> fun _ -> false
  | _ ->
      let tbl = Hashtbl.create (List.length dead) in
      List.iter (fun e -> Hashtbl.replace tbl e ()) dead;
      fun e -> Hashtbl.mem tbl e

let is_degradation s = List.exists (fun f -> f.fail_factor > 0.0) s.failures

let apply g s =
  if not (is_degradation s) then g
  else begin
    let factors = Hashtbl.create (List.length s.failures) in
    List.iter
      (fun f ->
        if f.fail_factor > 0.0 then Hashtbl.replace factors f.fail_edge f.fail_factor)
      s.failures;
    let b = Graph.Builder.create (Graph.n g) in
    (* Rebuild in id order: Builder.add_edge assigns dense sequential ids,
       so ids and endpoints are preserved and only capacities change. *)
    Array.iter
      (fun (e : Graph.edge) ->
        let cap =
          match Hashtbl.find_opt factors e.Graph.id with
          | Some f -> e.Graph.cap *. f
          | None -> e.Graph.cap
        in
        ignore (Graph.Builder.add_edge ~cap b e.Graph.u e.Graph.v))
      (Graph.edges g);
    Graph.Builder.build b
  end

(* ---------- Codec ---------- *)

let tag = 'F'

let encode s =
  let w = Codec.writer () in
  Codec.write_u8 w (Char.code tag);
  Codec.write_u8 w Codec.format_version;
  Codec.write_string w s.label;
  Codec.write_varint w (List.length s.failures);
  List.iter
    (fun f ->
      Codec.write_varint w f.fail_edge;
      Codec.write_f64 w f.fail_factor)
    s.failures;
  Codec.contents w

let digest s = Codec.fnv1a64 (encode s)
