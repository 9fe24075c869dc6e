module Tree = Sso_graph.Tree

let single g tree =
  Oblivious.make ~name:"tree" g (fun s t -> [ (1.0, Tree.path tree s t) ])

let uniform rng ?(count = 8) g =
  if count <= 0 then invalid_arg "Trees.uniform: count must be positive";
  let forest = List.init count (fun _ -> Tree.wilson rng g) in
  let weight = 1.0 /. float_of_int count in
  Oblivious.make
    ~name:(Printf.sprintf "wilson-%d" count)
    g
    (fun s t -> List.map (fun tree -> (weight, Tree.path tree s t)) forest)
