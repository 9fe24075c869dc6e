module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Maxflow = Sso_graph.Maxflow
module Oblivious = Sso_oblivious.Oblivious
module Rng = Sso_prng.Rng

module PS = Set.Make (Path)

let draw rng obl count s t =
  let sample = Oblivious.sampler obl s t in
  let rec go k acc =
    if k = 0 then PS.elements acc else go (k - 1) (PS.add (sample rng) acc)
  in
  go count PS.empty

(* Each pair samples from its own [Rng.split_at] child keyed by (s,t), so
   the drawn paths do not depend on which pair is queried first — the lazy
   memoized system is the same object no matter how (or from how many
   domains) it is explored.  Per-pair draws stay independent, which is the
   property the Stage-2 analysis needs. *)
let pair_rng base n s t = Rng.split_at base ((s * n) + t)

let alpha_sample rng obl ~alpha =
  if alpha <= 0 then invalid_arg "Sampler.alpha_sample: alpha must be positive";
  let base = Rng.split rng in
  let g = Oblivious.graph obl in
  let n = Graph.n g in
  Path_system.of_generator g (fun s t -> draw (pair_rng base n s t) obl alpha s t)

let cnt g ~alpha s t = alpha + Maxflow.cut g s t

let alpha_cut_sample rng obl ~alpha =
  if alpha <= 0 then invalid_arg "Sampler.alpha_cut_sample: alpha must be positive";
  let base = Rng.split rng in
  let g = Oblivious.graph obl in
  let n = Graph.n g in
  Path_system.of_generator g (fun s t ->
      draw (pair_rng base n s t) obl (cnt g ~alpha s t) s t)
