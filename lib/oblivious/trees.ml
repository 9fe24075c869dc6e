module Tree = Sso_graph.Tree

let single g tree =
  Oblivious.make ~name:"tree" g (fun s t -> [ (1.0, Tree.path tree s t) ])

let uniform rng ?(count = 8) g =
  if count <= 0 then invalid_arg "Trees.uniform: count must be positive";
  let forest = Array.init count (fun _ -> Tree.wilson rng g) in
  Oblivious.mixture
    ~name:(Printf.sprintf "wilson-%d" count)
    g
    (Array.make count (1.0 /. float_of_int count))
    (fun s t i -> Tree.path forest.(i) s t)
