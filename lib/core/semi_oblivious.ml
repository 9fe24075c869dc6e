module Graph = Sso_graph.Graph
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Min_congestion = Sso_flow.Min_congestion
module Oblivious = Sso_oblivious.Oblivious

type solver = Lp | Mwu of int

let default_solver = Mwu 300

let slices ?index ps demand =
  match index with
  | Some sc -> sc
  | None -> Path_system.to_slice_candidates ps (Demand.support demand)

let route ?(solver = default_solver) ?index g ps demand =
  let sc = slices ?index ps demand in
  match solver with
  | Lp -> Min_congestion.lp_on_slices g sc demand
  | Mwu iters -> Min_congestion.mwu_on_slices ~iters g sc demand

let congestion ?solver g ps demand = snd (route ?solver g ps demand)

let reoptimize ?(solver = default_solver) ?warm_start ?index g ps demand =
  match (solver, warm_start) with
  | Mwu iters, Some warm ->
      Min_congestion.mwu_on_slices ~iters ~warm g (slices ?index ps demand) demand
  | (Lp | Mwu _), _ ->
      (* The LP has no incremental form; a cold solve is the warm start. *)
      route ~solver ?index g ps demand

let optimum ?(solver = default_solver) g demand =
  match solver with
  | Lp -> Min_congestion.lp_unrestricted g demand
  | Mwu iters -> Min_congestion.mwu_unrestricted ~iters g demand

let opt ?solver g demand = snd (optimum ?solver g demand)

let competitive_ratio ?solver g ps demand =
  if Demand.support_size demand = 0 then 1.0
  else begin
    let achieved = congestion ?solver g ps demand in
    let baseline = opt ?solver g demand in
    if baseline <= 0.0 then infinity else achieved /. baseline
  end

let competitive_with ?solver obl ps demand =
  if Demand.support_size demand = 0 then 1.0
  else begin
    let g = Oblivious.graph obl in
    let achieved = congestion ?solver g ps demand in
    let base = Oblivious.congestion obl demand in
    if base <= 0.0 then infinity else achieved /. base
  end
