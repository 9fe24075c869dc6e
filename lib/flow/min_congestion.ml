module Graph = Sso_graph.Graph
module Shortest = Sso_graph.Shortest
module Path = Sso_graph.Path
module Arena = Sso_graph.Arena
module Maxflow = Sso_graph.Maxflow
module Demand = Sso_demand.Demand
module Simplex = Sso_lp.Simplex
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace

(* Spans by role: Stage 4 solves on candidate paths, Stage 5 finds the
   optimum over all paths. *)
let span_lp = Obs.span "stage4.lp"
let span_mwu = Obs.span "stage4.mwu"
let span_lp_unrestricted = Obs.span "stage5.lp"
let span_mwu_unrestricted = Obs.span "stage5.mwu"
let mwu_iterations = Obs.counter "mwu.iterations"
let mwu_oracle_calls = Obs.counter "mwu.oracle_calls"
let mwu_sssp_settled = Obs.counter "mwu.sssp_settled"

(* ---------- Exact path LP ---------- *)

(* The path LP over a candidate index: minimize z subject to, per
   demanded pair, its candidates' flows summing to its demand, and per
   candidate edge, the flow crossing it at most cap · z.  Variables are
   one flow per candidate — pairs in descending order, each pair's
   candidates in generation order — then z; rows are the demand rows in
   that pair order, then the capacity rows.  Returns the optimal routing
   and congestion, each pair's demand-row dual (in support order) and
   each capacity row's edge and dual. *)
let path_lp g sc demand =
  let support = Array.of_list (Demand.support demand) in
  let positions = Slice_candidates.positions sc support in
  let next = ref 0 in
  let blocks =
    List.map
      (fun (pair, p) ->
        let first, count = if p < 0 then (0, 0) else Slice_candidates.range sc p in
        if count = 0 then
          invalid_arg "Min_congestion.lp_on_slices: demanded pair has no candidates";
        let v = !next in
        next := v + count;
        (pair, v, first, count))
      (List.rev (Array.to_list (Array.map2 (fun pair p -> (pair, p)) support positions)))
  in
  let z = !next in
  let demand_rows =
    List.map
      (fun ((s, t), v, _, count) ->
        {
          Simplex.coeffs = List.init count (fun k -> (v + k, 1.0));
          relation = Simplex.Eq;
          rhs = Demand.get demand s t;
        })
      blocks
  in
  let edges = Slice_candidates.edges sc in
  let per_edge = Hashtbl.create 64 in
  List.iter
    (fun (_, v, first, count) ->
      for k = 0 to count - 1 do
        Slice_candidates.iter_edges sc (first + k) (fun slot ->
            let e = edges.(slot) in
            let cur = try Hashtbl.find per_edge e with Not_found -> [] in
            Hashtbl.replace per_edge e ((v + k, 1.0) :: cur))
      done)
    blocks;
  let row_edges, capacity_rows =
    List.split
      (Hashtbl.fold
         (fun e coeffs acc ->
           let coeffs = (z, -.Graph.cap g e) :: coeffs in
           (e, { Simplex.coeffs; relation = Le; rhs = 0.0 }) :: acc)
         per_edge [])
  in
  let problem =
    {
      Simplex.num_vars = z + 1;
      objective = [ (z, 1.0) ];
      constraints = demand_rows @ capacity_rows;
    }
  in
  match Simplex.solve problem with
  | Simplex.Infeasible | Simplex.Unbounded ->
      failwith "Min_congestion: the path LP should always be feasible and bounded"
  | Simplex.Optimal { objective; solution; duals } ->
      let routing =
        Routing.make
          (List.map
             (fun (pair, v, first, count) ->
               (* Simplex solutions can carry -1e-15-scale noise. *)
               ( pair,
                 List.init count (fun k ->
                     (Float.max 0.0 solution.(v + k), Slice_candidates.path sc (first + k))) ))
             blocks)
      in
      let k = Array.length support in
      ( routing,
        Float.max 0.0 objective,
        Array.init k (fun i -> duals.(k - 1 - i)),
        List.mapi (fun r e -> (e, duals.(k + r))) row_edges )

let lp_on_slices g sc demand =
  if Demand.support_size demand = 0 then (Routing.make [], 0.0)
  else Obs.with_span span_lp @@ fun () ->
    let routing, value, _, _ = path_lp g sc demand in
    (routing, value)

(* ---------- Multiplicative weights ----------

   Zero-sum game view: the adversary maintains a distribution over edges
   (implicitly, via exponential weights on cumulative normalized loads);
   the router best-responds by sending each commodity along its cheapest
   admissible path under those weights; the average of the best responses
   converges to the min-congestion routing at rate O(width·√(ln m / T)). *)

(* The one MWU core.  Best responses arrive as int handles from a
   {!Best_response} store built over the demand's support — candidate
   indices for Stage 4, interned search results for Stage 5 — and are
   tallied per handle.

   With [warm = (previous, w)] the game starts from [previous] counted as
   [w] already-played rounds.  Each demanded pair keeps the warm paths the
   store still offers: a pair that lost none seeds its distribution
   verbatim, a pair that lost some renormalizes the survivors (as
   [Routing.make] would), and a pair that lost all is learned by the fresh
   rounds alone, like a pair the warm routing never covered.

   Outside its rounds a solve does flat O(pairs) work: one demand fold
   fills the support and amounts, one handle buffer serves every round,
   seeding walks [previous] beside the support, and emission builds each
   pair's distribution once and the routing from the two arrays.  Every
   pairs-long array is filled from a constant (or an immediate), so none
   forces a minor collection. *)
let mwu ?(iters = 300) ?warm ~span ~label g oracle demand =
  if iters <= 0 then invalid_arg "Min_congestion: iters must be positive";
  let pairs = Demand.support_size demand in
  if pairs = 0 then Some (Routing.make [], 0.0)
  else Obs.with_span span @@ fun () -> begin
    let m = Graph.m g in
    let support = Array.make pairs (0, 0) and amounts = Array.make pairs 0.0 in
    ignore
      (Demand.fold
         (fun s t amount i ->
           support.(i) <- (s, t);
           amounts.(i) <- amount;
           i + 1)
         demand 0);
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
    (* Edge capacities are loop constants, hoisted out of the
       relaxation/accumulation inner loops like the amounts. *)
    let caps = Array.map (Graph.cap g) (Best_response.edges oracle) in
    (* Every round's handles, in support order. *)
    let responses = Array.make pairs 0 in
    (* Fills [responses]; the vertices the searches settled. *)
    let best_responses w =
      Obs.incr ~by:pairs mwu_oracle_calls;
      let settled = Best_response.respond_all oracle w responses in
      Obs.incr ~by:settled mwu_sssp_settled;
      settled
    in
    (* The adversary weight is recomputed once per slot class per round
       and copied into a flat per-slot buffer (hoisting the exp out of the
       oracles' inner loops, and off of every edge visit), reused across
       rounds.  Its first use is
       the feasibility probe with uniform weights, which also yields the
       width normalizer U (congestion of the probe routing). *)
    let warr = Array.map (fun c -> 1.0 /. c) caps in
    ignore (best_responses warr);
    if Array.exists (fun h -> h < 0) responses then None
    else begin
      let loads = Array.make slots 0.0 in
      Best_response.add_loads oracle loads responses amounts pairs;
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
      (* Telemetry only: the amounts of the pairs seeding leaves unseeded,
         0.0 for the seeded ones. *)
      let fresh_amounts =
        if Option.is_some warm && Obs.tracing () then Array.copy amounts else [||]
      in
      let base_plays =
        match warm with
        | None -> 0
        | Some (previous, weight) ->
            if weight <= 0 then invalid_arg "Min_congestion: warm-start weight must be positive";
            let wf = float_of_int weight in
            let per_slot = Array.map (fun c -> c *. u_norm) caps in
            (* One pair's kept handles and their seeded loads, grown to
               the longest warm distribution. *)
            let kept = ref (Array.make 8 0) and shares = ref (Array.make 8 0.0) in
            let seeded = ref false in
            let seed i dist =
              (* The survivors and their weight, summed in distribution
                 order. *)
              let n = ref 0 and lost = ref false and total = ref 0.0 and l = ref dist in
              while !l != [] do
                let w, p = List.hd !l in
                if Best_response.find oracle i p < 0 then lost := true
                else begin
                  incr n;
                  total := !total +. w
                end;
                l := List.tl !l
              done;
              if Array.length !kept < !n then begin
                kept := Array.make (2 * !n) 0;
                shares := Array.make (2 * !n) 0.0
              end;
              let kept = !kept and shares = !shares and total = !total in
              let amount = amounts.(i) and k = ref 0 and l = ref dist in
              while !l != [] do
                let w, p = List.hd !l in
                let h = Best_response.find oracle i p in
                if h >= 0 then begin
                  let w = if !lost then w /. total else w in
                  Best_response.add tally h (w *. wf);
                  kept.(!k) <- h;
                  shares.(!k) <- wf *. w *. amount;
                  incr k
                end;
                l := List.tl !l
              done;
              if !k > 0 then begin
                seeded := true;
                if Array.length fresh_amounts > 0 then fresh_amounts.(i) <- 0.0;
                Best_response.add_shares oracle cum ~per_slot kept shares !k
              end
            in
            (* [previous] and the support both ascend: one merge walk. *)
            let i = ref 0 in
            Routing.fold
              (fun (s, t) dist () ->
                while
                  !i < pairs
                  &&
                  let s', t' = support.(!i) in
                  s' < s || (s' = s && t' < t)
                do
                  incr i
                done;
                if !i < pairs then begin
                  let s', t' = support.(!i) in
                  if s' = s && t' = t then seed !i dist
                end)
              previous ();
            if !seeded then weight else 0
      in
      let round_loads = Array.make slots 0.0 in
      (* The round state lives per slot class: slots crossed by the same
         candidates, with equal capacity, receive the same loads in the
         same order, so they hold equal [cum] bits and equal weights.
         [ncls], [ccaps], [ccum], [cweights] and [cloads] are per class;
         with no classes they are the slot arrays themselves, and the
         rounds neither copy nor index through a class map. *)
      let classes = Best_response.classes oracle ~rounds:iters ~caps in
      let ncls, ccaps, ccum, cweights, cloads =
        match classes with
        | None -> (slots, caps, cum, warr, round_loads)
        | Some (_, first) ->
            let k = Array.length first in
            ( k,
              Array.map (Array.get caps) first,
              Array.map (Array.get cum) first,
              Array.make k 0.0,
              Array.make k 0.0 )
      in
      (* Telemetry only: a warm solve's unseeded pairs have played [round]
         times, not [base_plays + round], so their loads are averaged
         apart from the seeded ones. *)
      let fresh_loads = if base_plays > 0 && Obs.tracing () then Some (Array.make slots 0.0) else None in
      (* Every max fold below is a plain [>] from 0.0, not [Float.max]
         (which calls [caml_signbit_float] whenever its second operand is
         not larger).  Its operands are never NaN ([ccum], loads and
         capacities are finite, capacities positive), and the running max
         starts at +0.0 and only takes larger values, so it never holds
         -0.0: the two folds agree bit for bit. *)
      for round = 1 to iters do
        Obs.incr mwu_iterations;
        let max_cum = ref 0.0 in
        for k = 0 to ncls - 1 do
          let c = ccum.(k) in
          if c > !max_cum then max_cum := c
        done;
        let max_cum = !max_cum in
        for k = 0 to ncls - 1 do
          cweights.(k) <- Float.exp (eta *. (ccum.(k) -. max_cum)) /. ccaps.(k)
        done;
        (match classes with
        | None -> ()
        | Some (cls, _) ->
            for e = 0 to slots - 1 do
              warr.(e) <- cweights.(cls.(e))
            done);
        let settled = best_responses warr in
        Array.fill round_loads 0 slots 0.0;
        (* Every response is a handle: the probe found each pair one. *)
        Best_response.credit tally responses pairs;
        Best_response.add_loads oracle round_loads responses amounts pairs;
        (match classes with
        | None -> ()
        | Some (_, first) ->
            for k = 0 to ncls - 1 do
              cloads.(k) <- round_loads.(first.(k))
            done);
        for k = 0 to ncls - 1 do
          ccum.(k) <- ccum.(k) +. (cloads.(k) /. (ccaps.(k) *. u_norm))
        done;
        (* Per-round convergence telemetry.  The cumulative normalized load
           satisfies cum(e)·u_norm = (total load on e so far)/cap(e), so
           max_e cum · u_norm / plays is exactly the congestion of the
           routing averaged over all plays. *)
        if Obs.tracing () then begin
          let round_peak = ref 0.0 and cum_peak = ref 0.0 in
          for k = 0 to ncls - 1 do
            let rc = cloads.(k) /. ccaps.(k) in
            if rc > !round_peak then round_peak := rc;
            if ccum.(k) > !cum_peak then cum_peak := ccum.(k)
          done;
          let plays = float_of_int (base_plays + round) in
          let avg_congestion =
            match fresh_loads with
            | None -> !cum_peak *. u_norm /. plays
            | Some fresh_loads ->
                (* Seeded pairs add 0.0, which leaves a load of +0.0 or
                   more unchanged. *)
                Best_response.add_loads oracle fresh_loads responses fresh_amounts pairs;
                let peak = ref 0.0 in
                for k = 0 to ncls - 1 do
                  let fresh_load =
                    fresh_loads.(match classes with None -> k | Some (_, first) -> first.(k))
                  in
                  let total = ccum.(k) *. u_norm *. ccaps.(k) in
                  let load =
                    ((total -. fresh_load) /. plays) +. (fresh_load /. float_of_int round)
                  in
                  let c = load /. ccaps.(k) in
                  if c > !peak then peak := c
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
      (* The routing's loads come back from emission, summed over the
         slots in [Routing.congestion]'s order: the same bits, without an
         m-float array. *)
      Array.fill loads 0 slots 0.0;
      let dists = Best_response.distributions oracle tally amounts loads in
      let congestion = ref 0.0 in
      Array.iteri
        (fun e load ->
          let c = load /. caps.(e) in
          if c > !congestion then congestion := c)
        loads;
      Some (Routing.of_sorted support dists, !congestion)
    end
  end

let mwu_on_slices ?iters ?warm g sc demand =
  let label = if Option.is_none warm then "on_paths" else "on_paths_warm" in
  match
    mwu ?iters ?warm ~span:span_mwu ~label g (Best_response.candidates sc) demand
  with
  | Some result -> result
  | None -> invalid_arg "Min_congestion.mwu_on_slices: demanded pair has no candidates"

let mwu_unrestricted ?iters g demand =
  match
    mwu ?iters ~span:span_mwu_unrestricted ~label:"unrestricted" g
      (Best_response.dijkstra g)
      demand
  with
  | Some result -> result
  | None -> invalid_arg "Min_congestion.mwu_unrestricted: graph is disconnected"

let mwu_unrestricted_avoiding ?iters ~avoid g demand =
  mwu ?iters ~span:span_mwu_unrestricted ~label:"avoiding" g
    (Best_response.dijkstra ~avoid g)
    demand

(* ---------- Exact unrestricted LP (column generation) ---------- *)

(* opt_{G,ℝ}(d) as the path LP over all paths, grown by column
   generation from one min-hop path per pair.  A path's reduced cost is
   its length under w_e = -y_e (y_e ≤ 0 the capacity duals, 0 on edges
   no column crosses) minus its pair's demand dual π, so one Dijkstra per
   pair finds the most negative.  Each round adds every pair's shortest
   path that beats π by more than the tolerance and is new to the pair,
   so the loop ends; when none does, the duals prove the optimum. *)
let lp_unrestricted g demand =
  if Demand.support_size demand = 0 then (Routing.make [], 0.0)
  else Obs.with_span span_lp_unrestricted @@ fun () ->
    let support = Array.of_list (Demand.support demand) in
    let columns =
      Array.map
        (fun (s, t) ->
          match Shortest.bfs_path g s t with
          | Some p -> [ p ]
          | None -> invalid_arg "Min_congestion.lp_unrestricted: graph is disconnected")
        support
    in
    let weights = Array.make (Graph.m g) 0.0 in
    let rec solve () =
      let arena = Arena.create g in
      let piece pair paths =
        let first = Arena.length arena in
        List.iter (fun p -> ignore (Arena.append_path arena p)) paths;
        (pair, Slice_candidates.unpack arena (first, List.length paths))
      in
      let sc = Slice_candidates.concat g (Array.to_list (Array.map2 piece support columns)) in
      let ((_, _, pi, y) as optimum) = path_lp g sc demand in
      Array.fill weights 0 (Graph.m g) 0.0;
      List.iter (fun (e, ye) -> weights.(e) <- Float.max 0.0 (-.ye)) y;
      let priced = ref false in
      Array.iteri
        (fun i (s, t) ->
          match (Shortest.dijkstra_targets g ~weights s [| t |]).(0) with
          | Some p
            when Path.weight weights p < pi.(i) -. (1e-9 *. (1.0 +. Float.abs pi.(i)))
                 && not (List.exists (Path.equal p) columns.(i)) ->
              columns.(i) <- columns.(i) @ [ p ];
              priced := true
          | Some _ | None -> ())
        support;
      if !priced then solve () else optimum
    in
    let routing, value, _, _ = solve () in
    (routing, value)

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
