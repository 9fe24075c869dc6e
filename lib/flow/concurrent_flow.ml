module Graph = Sso_graph.Graph
module Demand = Sso_demand.Demand

(* Garg–Könemann phases: edge lengths start at δ/cap and are multiplied by
   (1 + ε·f/cap) whenever f flow crosses the edge.  A phase pushes each
   commodity's full demand (in bottleneck-sized chunks); phases repeat
   until the total "length volume" D = Σ l_e·cap_e reaches 1.  The
   accumulated per-pair flows, re-normalized to distributions, form the
   output routing.  The cheapest paths come from a {!Best_response} store:
   candidate indices for [on_slices], interned Dijkstra paths for
   [unrestricted]. *)

module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace

(* Spans by role: Stage 4 solves on candidates, Stage 5 the optimum. *)
let span_stage4 = Obs.span "stage4.gk"
let span_stage5 = Obs.span "stage5.gk"

let solve ~span ?(epsilon = 0.1) g oracle demand =
  if not (epsilon > 0.0 && epsilon < 1.0) then
    invalid_arg "Concurrent_flow: epsilon must lie in (0,1)";
  if Demand.support_size demand = 0 then (Routing.make [], 0.0)
  else Obs.with_span span @@ fun () -> begin
    let m = Graph.m g in
    let mf = float_of_int (max 2 m) in
    let delta = (1.0 +. epsilon) /. Float.pow ((1.0 +. epsilon) *. mf) (1.0 /. epsilon) in
    (* Capacities are loop constants — snapshot them once instead of going
       through [Graph.cap]'s bounds-checked record access in every phase. *)
    let caps = Array.init m (Graph.cap g) in
    let length = Array.make m 0.0 in
    Array.iteri (fun e _ -> length.(e) <- delta /. caps.(e)) length;
    (* [volume] stays a full fold on purpose: an incrementally-maintained
       running sum would accumulate different rounding than this left-to-
       right reduction and change the phase count (and hence the output). *)
    let volume () =
      let d = ref 0.0 in
      for e = 0 to m - 1 do
        d := !d +. (length.(e) *. caps.(e))
      done;
      !d
    in
    let support = Array.of_list (Demand.support demand) in
    let oracle : Best_response.t = oracle support in
    let flows = Best_response.tally oracle in
    (* The store reads [length] through its slots: [weights] mirrors it
       slot by slot, and [volume] keeps the full fold above. *)
    let edges = Best_response.edges oracle in
    let weights = Array.map (Array.get length) edges in
    (* Feasibility probe: every commodity must have at least one path. *)
    Array.iteri
      (fun i _ ->
        if Best_response.respond oracle weights i < 0 then
          invalid_arg "Concurrent_flow: demanded pair has no route")
      support;
    if Obs.tracing () then
      Obs.event "gk.solve"
        ~attrs:
          [ ("pairs", Trace.Int (Array.length support)); ("epsilon", Trace.Float epsilon) ];
    (* Guard against pathological parameter combinations. *)
    let max_phases = 100_000 in
    let phases = ref 0 in
    while volume () < 1.0 && !phases < max_phases do
      incr phases;
      if Obs.tracing () then
        Obs.event "gk.phase"
          ~attrs:
            [ ("phase", Trace.Int !phases); ("volume", Trace.Float (volume ())) ];
      Array.iteri
        (fun i (s, t) ->
          let remaining = ref (Demand.get demand s t) in
          while !remaining > 1e-12 && volume () < 1.0 do
            let h = Best_response.respond oracle weights i in
            if h < 0 then remaining := 0.0
            else begin
              let bottleneck = ref infinity in
              Best_response.iter_edges oracle h (fun k ->
                  bottleneck := Float.min !bottleneck caps.(edges.(k)));
              let amount = Float.min !remaining !bottleneck in
              Best_response.add flows h amount;
              Best_response.iter_edges oracle h (fun k ->
                  let e = edges.(k) in
                  length.(e) <- length.(e) *. (1.0 +. (epsilon *. amount /. caps.(e)));
                  weights.(k) <- length.(e));
              remaining := !remaining -. amount
            end
          done)
        support
    done;
    if !phases >= max_phases then failwith "Concurrent_flow: phase budget exceeded";
    let routing =
      Routing.make
        (Array.to_list
           (Array.mapi (fun i pair -> (pair, Best_response.distribution oracle flows i)) support))
    in
    (routing, Routing.congestion g routing demand)
  end

let on_slices ?epsilon g sc demand =
  solve ~span:span_stage4 ?epsilon g (Best_response.candidates sc) demand

let on_paths ?epsilon g cands demand =
  on_slices ?epsilon g (Slice_candidates.of_list g cands) demand

let unrestricted ?epsilon g demand =
  solve ~span:span_stage5 ?epsilon g (Best_response.dijkstra ~batched:false g) demand
