module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Shortest = Sso_graph.Shortest
module Maxflow = Sso_graph.Maxflow
module Demand = Sso_demand.Demand
module Simplex = Sso_lp.Simplex
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace

(* Spans by role: Stage 4 solves on candidate paths, Stage 5 finds the
   optimum over all paths (or all hop-limited paths). *)
let span_lp = Obs.span "stage4.lp"
let span_mwu = Obs.span "stage4.mwu"
let span_lp_unrestricted = Obs.span "stage5.lp"
let span_mwu_unrestricted = Obs.span "stage5.mwu"
let mwu_iterations = Obs.counter "mwu.iterations"
let mwu_oracle_calls = Obs.counter "mwu.oracle_calls"
let mwu_sssp_settled = Obs.counter "mwu.sssp_settled"

type candidates = ((int * int) * Path.t list) list

(* Hashtable-backed index over the assoc-list candidates type: built once
   per solve so per-round lookups are O(1) instead of O(pairs).  First
   binding wins on duplicate pairs, matching [List.assoc_opt]. *)
let index_candidates (cands : candidates) =
  let tbl = Hashtbl.create ((2 * List.length cands) + 1) in
  List.iter
    (fun (pair, ps) -> if not (Hashtbl.mem tbl pair) then Hashtbl.add tbl pair ps)
    cands;
  tbl

let candidates_for index s t =
  match Hashtbl.find_opt index (s, t) with Some ps -> ps | None -> []

(* ---------- Exact LP on a candidate path system ---------- *)

let lp_on_paths g cands demand =
  if Demand.support_size demand = 0 then (Routing.make [], 0.0)
  else Obs.with_span span_lp @@ fun () -> begin
    let index = index_candidates cands in
    (* Variables: one absolute flow per (pair, candidate path), plus the
       congestion bound z as the last variable. *)
    let entries =
      Demand.fold
        (fun s t amount acc ->
          match candidates_for index s t with
          | [] -> invalid_arg "Min_congestion.lp_on_paths: demanded pair has no candidates"
          | ps -> ((s, t), amount, ps) :: acc)
        demand []
    in
    let num_paths =
      List.fold_left (fun acc (_, _, ps) -> acc + List.length ps) 0 entries
    in
    let z = num_paths in
    (* Assign variable indices. *)
    let indexed =
      let next = ref 0 in
      List.map
        (fun (pair, amount, ps) ->
          let vars =
            List.map
              (fun p ->
                let v = !next in
                incr next;
                (v, p))
              ps
          in
          (pair, amount, vars))
        entries
    in
    (* Demand satisfaction: sum of a pair's path flows = demand. *)
    let demand_rows =
      List.map
        (fun (_, amount, vars) ->
          {
            Simplex.coeffs = List.map (fun (v, _) -> (v, 1.0)) vars;
            relation = Simplex.Eq;
            rhs = amount;
          })
        indexed
    in
    (* Capacity rows: per edge, total flow ≤ cap · z. *)
    let per_edge = Hashtbl.create 64 in
    List.iter
      (fun (_, _, vars) ->
        List.iter
          (fun (v, (p : Path.t)) ->
            Array.iter
              (fun e ->
                let cur = try Hashtbl.find per_edge e with Not_found -> [] in
                Hashtbl.replace per_edge e ((v, 1.0) :: cur))
              p.Path.edges)
          vars)
      indexed;
    let capacity_rows =
      Hashtbl.fold
        (fun e coeffs acc ->
          {
            Simplex.coeffs = (z, -.Graph.cap g e) :: coeffs;
            relation = Simplex.Le;
            rhs = 0.0;
          }
          :: acc)
        per_edge []
    in
    let problem =
      {
        Simplex.num_vars = num_paths + 1;
        objective = [ (z, 1.0) ];
        constraints = demand_rows @ capacity_rows;
      }
    in
    match Simplex.solve problem with
    | Simplex.Infeasible | Simplex.Unbounded ->
        failwith "Min_congestion.lp_on_paths: LP should always be feasible and bounded"
    | Simplex.Optimal { objective; solution } ->
        let routing =
          Routing.make
            (List.map
               (fun (pair, _, vars) ->
                 (* Simplex solutions can carry -1e-15-scale noise. *)
                 (pair, List.map (fun (v, p) -> (Float.max 0.0 solution.(v), p)) vars))
               indexed)
        in
        (routing, Float.max 0.0 objective)
  end

(* ---------- Multiplicative weights ----------

   Zero-sum game view: the adversary maintains a distribution over edges
   (implicitly, via exponential weights on cumulative normalized loads);
   the router best-responds by sending each commodity along its cheapest
   admissible path under those weights; the average of the best responses
   converges to the min-congestion routing at rate O(width·√(ln m / T)). *)

(* The one MWU core.  Best responses arrive as int handles from a
   {!Best_response} store built over the demand's support — candidate
   indices for Stage 4, interned search results for Stage 5 and the
   hop-limited optimum — and are tallied per handle.

   With [warm = (previous, w)] the game starts from [previous] counted as
   [w] already-played rounds.  Each demanded pair keeps the warm paths the
   store still offers: a pair that lost none seeds its distribution
   verbatim, a pair that lost some renormalizes the survivors (as
   [Routing.make] would), and a pair that lost all is learned by the fresh
   rounds alone, like a pair the warm routing never covered. *)
let mwu ?(iters = 300) ?warm ~span ~label g oracle demand =
  if iters <= 0 then invalid_arg "Min_congestion: iters must be positive";
  if Demand.support_size demand = 0 then Some (Routing.make [], 0.0)
  else Obs.with_span span @@ fun () -> begin
    let m = Graph.m g in
    let support = Array.of_list (Demand.support demand) in
    let pairs = Array.length support in
    if Obs.tracing () then
      Obs.event "mwu.solve"
        ~attrs:
          [
            ("solver", Trace.String label);
            ("pairs", Trace.Int pairs);
            ("iters", Trace.Int iters);
          ];
    let oracle : Best_response.t = oracle support in
    (* Every per-edge array below is indexed by the store's slots
       ([Best_response.edges]): a candidate store's distinct edges (often
       a few percent of E), all m edges for a search store.  No response
       loads an edge outside them, so there [cum] and the loads would stay
       exactly 0.0: with [cum >= 0] the max folds over the slots, started
       from 0.0, equal the folds over all m edges (float max is
       order-independent), and a solve on candidates allocates no m-float
       array. *)
    let slots = Array.length (Best_response.edges oracle) in
    (* Per-round invariants, hoisted out of the relaxation/accumulation
       inner loops: demand amounts and edge capacities are loop constants. *)
    let amounts = Array.map (fun (s, t) -> Demand.get demand s t) support in
    let caps = Array.map (Graph.cap g) (Best_response.edges oracle) in
    (* Handles in support order, and the vertices the searches settled. *)
    let best_responses w =
      Obs.incr ~by:pairs mwu_oracle_calls;
      let ((_, settled) as answers) = Best_response.respond_all oracle w in
      Obs.incr ~by:settled mwu_sssp_settled;
      answers
    in
    let add_loads loads h amount = Best_response.add_loads oracle loads h amount in
    (* The adversary weight is recomputed once per slot per round into a
       flat buffer (hoisting the exp out of the oracles' inner loops, and
       off of every edge visit), reused across rounds.  Its first use is
       the feasibility probe with uniform weights, which also yields the
       width normalizer U (congestion of the probe routing). *)
    let warr = Array.map (fun c -> 1.0 /. c) caps in
    let probe, _ = best_responses warr in
    if Array.exists (fun h -> h < 0) probe then None
    else begin
      let loads = Array.make slots 0.0 in
      Array.iteri (fun i h -> add_loads loads h amounts.(i)) probe;
      let u_norm = ref 1e-12 in
      Array.iteri
        (fun e load ->
          let c = load /. caps.(e) in
          if c > !u_norm then u_norm := c)
        loads;
      let u_norm = !u_norm in
      let eta = Float.sqrt (4.0 *. Float.log (float_of_int (max 2 m)) /. float_of_int iters) in
      let cum = Array.make slots 0.0 in
      let tally = Best_response.tally oracle in
      let base_plays =
        match warm with
        | None -> 0
        | Some (previous, weight) ->
            if weight <= 0 then invalid_arg "Min_congestion: warm-start weight must be positive";
            let wf = float_of_int weight in
            let seeded = ref false in
            Array.iteri
              (fun i (s, t) ->
                let dist = Routing.distribution previous s t in
                let kept =
                  List.filter_map
                    (fun (w, p) ->
                      let h = Best_response.find oracle i p in
                      if h < 0 then None else Some (w, h))
                    dist
                in
                let kept =
                  if List.compare_lengths kept dist = 0 then kept
                  else
                    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 kept in
                    List.map (fun (w, h) -> (w /. total, h)) kept
                in
                let amount = amounts.(i) in
                List.iter
                  (fun (w, h) ->
                    seeded := true;
                    Best_response.add tally h (w *. wf);
                    Best_response.iter_edges oracle h (fun e ->
                        cum.(e) <- cum.(e) +. (wf *. w *. amount /. (caps.(e) *. u_norm))))
                  kept)
              support;
            if !seeded then weight else 0
      in
      let round_loads = Array.make slots 0.0 in
      (* Telemetry only: a warm solve's unseeded pairs have played [round]
         times, not [base_plays + round], so their loads are averaged
         apart from the seeded ones. *)
      let unseeded =
        if base_plays > 0 && Obs.tracing () then
          Some
            ( Array.init pairs (fun i -> Best_response.distribution oracle tally i = []),
              Array.make slots 0.0 )
        else None
      in
      for round = 1 to iters do
        Obs.incr mwu_iterations;
        let max_cum = ref 0.0 in
        for e = 0 to slots - 1 do
          max_cum := Float.max !max_cum cum.(e)
        done;
        let max_cum = !max_cum in
        for e = 0 to slots - 1 do
          warr.(e) <- Float.exp (eta *. (cum.(e) -. max_cum)) /. caps.(e)
        done;
        let responses, settled = best_responses warr in
        Array.fill round_loads 0 slots 0.0;
        Array.iteri
          (fun i h ->
            if h < 0 then assert false (* probed feasible above *);
            Best_response.add tally h 1.0;
            add_loads round_loads h amounts.(i))
          responses;
        for e = 0 to slots - 1 do
          cum.(e) <- cum.(e) +. (round_loads.(e) /. (caps.(e) *. u_norm))
        done;
        (* Per-round convergence telemetry.  The cumulative normalized load
           satisfies cum(e)·u_norm = (total load on e so far)/cap(e), so
           max_e cum · u_norm / plays is exactly the congestion of the
           routing averaged over all plays. *)
        if Obs.tracing () then begin
          let round_peak = ref 0.0 and cum_peak = ref 0.0 in
          for e = 0 to slots - 1 do
            let rc = round_loads.(e) /. caps.(e) in
            if rc > !round_peak then round_peak := rc;
            if cum.(e) > !cum_peak then cum_peak := cum.(e)
          done;
          let plays = float_of_int (base_plays + round) in
          let avg_congestion =
            match unseeded with
            | None -> !cum_peak *. u_norm /. plays
            | Some (fresh, fresh_loads) ->
                Array.iteri
                  (fun i h -> if fresh.(i) then add_loads fresh_loads h amounts.(i))
                  responses;
                let peak = ref 0.0 in
                for e = 0 to slots - 1 do
                  let total = cum.(e) *. u_norm *. caps.(e) in
                  let load =
                    ((total -. fresh_loads.(e)) /. plays)
                    +. (fresh_loads.(e) /. float_of_int round)
                  in
                  peak := Float.max !peak (load /. caps.(e))
                done;
                !peak
          in
          Obs.event "mwu.round"
            ~attrs:
              [
                ("solver", Trace.String label);
                ("round", Trace.Int round);
                ("round_congestion", Trace.Float !round_peak);
                ("avg_congestion", Trace.Float avg_congestion);
                ("potential", Trace.Float !cum_peak);
                ("support_paths", Trace.Int (Best_response.seen_count tally));
                ("sssp_settled", Trace.Int settled);
              ]
        end
      done;
      let routing =
        Routing.make
          (Array.to_list
             (Array.mapi (fun i pair -> (pair, Best_response.distribution oracle tally i)) support))
      in
      (* [Routing.congestion] of the routing, summed over the slots: the
         same loads in the same order (support order is the demand's fold
         order), so the same bits, without an m-float array. *)
      Array.fill loads 0 slots 0.0;
      Array.iteri
        (fun i (s, t) ->
          List.iter
            (fun (w, p) -> add_loads loads (Best_response.find oracle i p) (amounts.(i) *. w))
            (Routing.distribution routing s t))
        support;
      let congestion = ref 0.0 in
      Array.iteri
        (fun e load ->
          let c = load /. caps.(e) in
          if c > !congestion then congestion := c)
        loads;
      Some (routing, !congestion)
    end
  end

type slice_candidates = Slice_candidates.t

let slice_candidates_of_list g (cands : candidates) = Slice_candidates.of_list g cands

let mwu_on_slices ?pool ?iters ?warm g sc demand =
  let label = if Option.is_none warm then "on_paths" else "on_paths_warm" in
  match
    mwu ?iters ?warm ~span:span_mwu ~label g (Best_response.candidates ?pool sc) demand
  with
  | Some result -> result
  | None -> invalid_arg "Min_congestion.mwu_on_paths: demanded pair has no candidates"

let mwu_on_paths ?pool ?iters g cands demand =
  mwu_on_slices ?pool ?iters g (slice_candidates_of_list g cands) demand

let mwu_unrestricted ?pool ?iters ?(batched = true) g demand =
  match
    mwu ?iters ~span:span_mwu_unrestricted ~label:"unrestricted" g
      (Best_response.dijkstra ?pool ~batched g)
      demand
  with
  | Some result -> result
  | None -> invalid_arg "Min_congestion.mwu_unrestricted: graph is disconnected"

let mwu_unrestricted_avoiding ?pool ?iters ?(batched = true) ~avoid g demand =
  mwu ?iters ~span:span_mwu_unrestricted ~label:"avoiding" g
    (Best_response.dijkstra ?pool ~avoid ~batched g)
    demand

let mwu_hop_limited ?pool ?iters ?(batched = true) ~max_hops g demand =
  mwu ?iters ~span:span_mwu_unrestricted ~label:"hop_limited" g
    (Best_response.hop_limited ?pool ~batched ~max_hops g)
    demand

(* ---------- Exact unrestricted LP (edge formulation) ---------- *)

let lp_unrestricted g demand =
  if Demand.support_size demand = 0 then 0.0
  else Obs.with_span span_lp_unrestricted @@ fun () -> begin
    let n = Graph.n g and m = Graph.m g in
    let commodities = Demand.support demand in
    let k = List.length commodities in
    (* Variables: for commodity i and edge e, flow in the u→v direction is
       var (i·2m + 2e) and v→u is var (i·2m + 2e + 1); z is the last. *)
    let z = k * 2 * m in
    let var i e dir = (i * 2 * m) + (2 * e) + dir in
    let conservation =
      List.concat
        (List.mapi
           (fun i (s, t) ->
             let amount = Demand.get demand s t in
             List.filter_map
               (fun v ->
                 let coeffs = ref [] in
                 Array.iter
                   (fun (e, _) ->
                     let u, _ = Graph.endpoints g e in
                     (* u→v direction leaves u and enters the other end. *)
                     let dir_out = if v = u then 0 else 1 in
                     coeffs := (var i e dir_out, 1.0) :: (var i e (1 - dir_out), -1.0) :: !coeffs)
                   (Graph.adj g v);
                 let rhs = if v = s then amount else if v = t then -.amount else 0.0 in
                 if !coeffs = [] && rhs = 0.0 then None
                 else Some { Simplex.coeffs = !coeffs; relation = Simplex.Eq; rhs })
               (List.init n Fun.id))
           commodities)
    in
    let capacity =
      List.init m (fun e ->
          let coeffs =
            List.concat
              (List.mapi (fun i _ -> [ (var i e 0, 1.0); (var i e 1, 1.0) ]) commodities)
          in
          {
            Simplex.coeffs = (z, -.Graph.cap g e) :: coeffs;
            relation = Simplex.Le;
            rhs = 0.0;
          })
    in
    let problem =
      {
        Simplex.num_vars = z + 1;
        objective = [ (z, 1.0) ];
        constraints = conservation @ capacity;
      }
    in
    match Simplex.solve problem with
    | Simplex.Optimal { objective; _ } -> Float.max 0.0 objective
    | Simplex.Infeasible | Simplex.Unbounded ->
        failwith "Min_congestion.lp_unrestricted: LP should be feasible and bounded"
  end

(* ---------- Certified lower bounds ---------- *)

let lower_bound_sparse_cut g demand =
  let per_pair =
    Demand.fold
      (fun s t amount acc ->
        let cutcap = Maxflow.max_flow g s t in
        if cutcap > 0.0 then Float.max acc (amount /. cutcap) else acc)
      demand 0.0
  in
  (* Volume bound: every unit of (s,t) demand occupies at least hop(s,t)
     units of capacity, and total capacity is finite. *)
  let volume =
    Demand.fold
      (fun s t amount acc ->
        match Shortest.bfs_dist g s with
        | dist when dist.(t) <> max_int -> acc +. (amount *. float_of_int dist.(t))
        | _ -> acc)
      demand 0.0
  in
  Float.max per_pair (volume /. Graph.total_capacity g)
