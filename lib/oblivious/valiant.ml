module Graph = Sso_graph.Graph
module Path = Sso_graph.Path

let dimension_of g =
  let n = Graph.n g in
  let rec log2 acc v = if v = 1 then acc else log2 (acc + 1) (v / 2) in
  let d = log2 0 n in
  if 1 lsl d <> n then invalid_arg "Valiant: vertex count is not a power of two";
  d

let bitfix_vertices d s t =
  let rec go v acc bit =
    if bit >= d then List.rev acc
    else
      let diff = (v lxor t) land (1 lsl bit) in
      if diff = 0 then go v acc (bit + 1)
      else
        let v' = v lxor (1 lsl bit) in
        go v' (v' :: acc) (bit + 1)
  in
  go s [ s ] 0

let bitfix_path g s t =
  let d = dimension_of g in
  Path.of_vertices g (bitfix_vertices d s t)

let routing g =
  (* Validate that g is a hypercube before first use. *)
  let (_ : int) = dimension_of g in
  let n = Graph.n g in
  Oblivious.mixture ~name:"valiant" g
    (Array.make n (1.0 /. float_of_int n))
    (fun s t r -> Path.concat g (bitfix_path g s r) (bitfix_path g r t))

let generalized ~base =
  let g = Oblivious.graph base in
  let n = Graph.n g in
  let leg a b =
    if a = b then Path.trivial a else snd (List.hd (Oblivious.distribution base a b))
  in
  Oblivious.mixture ~name:("valiant+" ^ Oblivious.name base) g
    (Array.make n (1.0 /. float_of_int n))
    (fun s t r -> Path.concat g (leg s r) (leg r t))
