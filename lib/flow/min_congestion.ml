module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Arena = Sso_graph.Arena
module Shortest = Sso_graph.Shortest
module Maxflow = Sso_graph.Maxflow
module Demand = Sso_demand.Demand
module Simplex = Sso_lp.Simplex
module Pool = Sso_engine.Pool
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace

let span_lp = Obs.span "stage4.lp"
let span_mwu = Obs.span "stage4.mwu"
let span_lp_unrestricted = Obs.span "opt.lp_unrestricted"
let mwu_iterations = Obs.counter "mwu.iterations"
let mwu_oracle_calls = Obs.counter "mwu.oracle_calls"
let mwu_sssp_batches = Obs.counter "mwu.sssp_batches"
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

module Path_map = Map.Make (Path)

(* Best-response oracles come in two shapes, both reading the round's
   flat per-edge weight array.  A [Per_pair] oracle answers one commodity
   at a time.  A [Batched] oracle answers every commodity sharing a
   source from one single-source computation (Dijkstra / hop-limited DP),
   which is where the support of real demands — gravity matrices, incast,
   ladders — collapses many pairs onto few sources.  Both shapes must
   return, per pair, exactly the path the per-pair computation would,
   along with the number of vertices the call's search settled (0 for
   the hop-limited DP). *)
type oracle =
  | Per_pair of (float array -> int -> int -> Path.t option * int)
  | Batched of (float array -> int -> int array -> Path.t option array * int)

(* [avoid] edges are masked to [infinity] once per round, into a second
   buffer, before any oracle reads the weights. *)
let mwu_generic ?pool ?(iters = 300) ?avoid ~label g ~oracle demand =
  if iters <= 0 then invalid_arg "Min_congestion: iters must be positive";
  if Demand.support_size demand = 0 then Some (Routing.make [], 0.0)
  else Obs.with_span span_mwu @@ fun () -> begin
    let m = Graph.m g in
    let support = Demand.support demand in
    let support_arr = Array.of_list support in
    let pairs = Array.length support_arr in
    if Obs.tracing () then
      Obs.event "mwu.solve"
        ~attrs:
          [
            ("solver", Trace.String label);
            ("pairs", Trace.Int pairs);
            ("iters", Trace.Int iters);
          ];
    (* Per-round invariants, hoisted out of the relaxation/accumulation
       inner loops: demand amounts and edge capacities are loop constants. *)
    let amounts = Array.map (fun (s, t) -> Demand.get demand s t) support_arr in
    let caps = Array.init m (Graph.cap g) in
    (* Group the support by source.  [Demand.support] is lexicographically
       sorted, so equal sources form consecutive runs; grouping runs (and
       flattening group answers in group order) therefore preserves support
       order exactly — the determinism argument needs nothing more. *)
    let groups =
      let acc = ref [] in
      let i = ref 0 in
      while !i < pairs do
        let s = fst support_arr.(!i) in
        let j = ref !i in
        while !j < pairs && fst support_arr.(!j) = s do incr j done;
        acc := (s, Array.init (!j - !i) (fun k -> snd support_arr.(!i + k))) :: !acc;
        i := !j
      done;
      Array.of_list (List.rev !acc)
    in
    (* Per-commodity best responses are independent within a round, so they
       fan out on the pool; results come back in support order, and loads
       are folded serially in that order, so the routing is bit-identical
       for any job count.  Tiny supports stay serial — the dispatch
       overhead would dominate (the cutoff is a constant, never the job
       count, to preserve determinism). *)
    let view =
      match avoid with
      | None -> Fun.id
      | Some avoid ->
          let keep = List.filter (fun e -> not (avoid e)) (List.init m Fun.id) in
          let keep = Array.of_list keep in
          let masked = Array.make m infinity in
          fun w ->
            Array.iter (fun e -> masked.(e) <- w.(e)) keep;
            masked
    in
    let map f a = if pairs < 4 then Array.map f a else Pool.parallel_map ?pool f a in
    let total_settled answers = Array.fold_left (fun acc (_, k) -> acc + k) 0 answers in
    (* Returns the answers in support order and the vertices settled. *)
    let best_responses w =
      let w = view w in
      Obs.incr ~by:pairs mwu_oracle_calls;
      match oracle with
      | Per_pair oracle ->
          let answers = map (fun (s, t) -> oracle w s t) support_arr in
          (Array.map fst answers, total_settled answers)
      | Batched oracle ->
          Obs.incr ~by:(Array.length groups) mwu_sssp_batches;
          let answers = map (fun (s, ts) -> oracle w s ts) groups in
          (Array.concat (Array.to_list (Array.map fst answers)), total_settled answers)
    in
    (* Feasibility probe with uniform weights; also yields the width
       normalizer U (congestion of the probe routing). *)
    let probe, _ = best_responses (Array.map (fun c -> 1.0 /. c) caps) in
    if Array.exists (fun p -> p = None) probe then None
    else begin
      let loads = Array.make m 0.0 in
      Array.iteri
        (fun i p ->
          match p with
          | Some (p : Path.t) ->
              let amount = amounts.(i) in
              Array.iter (fun e -> loads.(e) <- loads.(e) +. amount) p.Path.edges
          | None -> assert false)
        probe;
      let u_norm = ref 1e-12 in
      Array.iteri
        (fun e load ->
          let c = load /. caps.(e) in
          if c > !u_norm then u_norm := c)
        loads;
      let u_norm = !u_norm in
      let eta = Float.sqrt (4.0 *. Float.log (float_of_int (max 2 m)) /. float_of_int iters) in
      let cum = Array.make m 0.0 in
      let counts = Hashtbl.create pairs in
      let record pair p =
        let cur = try Hashtbl.find counts pair with Not_found -> Path_map.empty in
        let cur =
          Path_map.update p (function None -> Some 1.0 | Some c -> Some (c +. 1.0)) cur
        in
        Hashtbl.replace counts pair cur
      in
      (* The adversary weight is recomputed once per edge per round into a
         flat buffer (hoisting the exp out of the oracles' inner loops, and
         off of every edge visit), reused across rounds. *)
      let warr = Array.make m 0.0 in
      let round_loads = Array.make m 0.0 in
      for round = 1 to iters do
        Obs.incr mwu_iterations;
        let max_cum = Array.fold_left Float.max neg_infinity cum in
        for e = 0 to m - 1 do
          warr.(e) <- Float.exp (eta *. (cum.(e) -. max_cum)) /. caps.(e)
        done;
        let responses, settled = best_responses warr in
        Array.fill round_loads 0 m 0.0;
        Array.iteri
          (fun i response ->
            match response with
            | None -> assert false (* probed feasible above *)
            | Some p ->
                record support_arr.(i) p;
                let amount = amounts.(i) in
                Array.iter
                  (fun e -> round_loads.(e) <- round_loads.(e) +. amount)
                  p.Path.edges)
          responses;
        for e = 0 to m - 1 do
          cum.(e) <- cum.(e) +. (round_loads.(e) /. (caps.(e) *. u_norm))
        done;
        (* Per-round convergence telemetry.  The cumulative normalized load
           satisfies cum(e)·u_norm = (total load on e so far)/cap(e), so
           max_e cum · u_norm / plays is exactly the congestion of the
           routing averaged over all plays. *)
        if Obs.tracing () then begin
          let round_peak = ref 0.0 and cum_peak = ref neg_infinity in
          for e = 0 to m - 1 do
            let rc = round_loads.(e) /. caps.(e) in
            if rc > !round_peak then round_peak := rc;
            if cum.(e) > !cum_peak then cum_peak := cum.(e)
          done;
          let plays = float_of_int round in
          let support_paths =
            Hashtbl.fold (fun _ dist acc -> acc + Path_map.cardinal dist) counts 0
          in
          Obs.event "mwu.round"
            ~attrs:
              [
                ("solver", Trace.String label);
                ("round", Trace.Int round);
                ("round_congestion", Trace.Float !round_peak);
                ("avg_congestion", Trace.Float (!cum_peak *. u_norm /. plays));
                ("potential", Trace.Float !cum_peak);
                ("support_paths", Trace.Int support_paths);
                ("sssp_settled", Trace.Int settled);
              ]
        end
      done;
      let routing =
        Routing.make
          (List.map
             (fun (s, t) ->
               let dist = Hashtbl.find counts (s, t) in
               ((s, t), Path_map.fold (fun p c acc -> (c, p) :: acc) dist []))
             support)
      in
      Some (routing, Routing.congestion g routing demand)
    end
  end

(* ---------- Candidate sets as arena slices ----------

   Stage-4 candidate solving runs on the flat index of {!Slice_candidates}:
   the candidate set is unpacked once per solve and every round's
   oracle/accumulation loops walk int arrays in place. *)

type slice_candidates = Slice_candidates.t

let slice_candidates_of_arena = Slice_candidates.of_arena
let slice_candidates_of_list g (cands : candidates) = Slice_candidates.of_list g cands

(* The MWU game of [mwu_generic], specialized to candidate slices: same
   dispatch structure, counters, trace events and float operation order,
   with best responses as candidate indices instead of boxed paths. *)
let mwu_slices ?pool ?(iters = 300) ?warm ~label g sc demand =
  if iters <= 0 then invalid_arg "Min_congestion: iters must be positive";
  if Demand.support_size demand = 0 then Some (Routing.make [], 0.0)
  else Obs.with_span span_mwu @@ fun () -> begin
    let m = Graph.m g in
    let support = Demand.support demand in
    let support_arr = Array.of_list support in
    let pairs = Array.length support_arr in
    if Obs.tracing () then
      Obs.event "mwu.solve"
        ~attrs:
          [
            ("solver", Trace.String label);
            ("pairs", Trace.Int pairs);
            ("iters", Trace.Int iters);
          ];
    let amounts = Array.map (fun (s, t) -> Demand.get demand s t) support_arr in
    let caps = Array.init m (Graph.cap g) in
    (* Pair positions in the candidate index, [-1] for uncovered pairs. *)
    let positions = Array.map (Slice_candidates.position sc) support_arr in
    let answer ~weight i =
      let p = positions.(i) in
      if p < 0 then -1 else Slice_candidates.cheapest sc ~weight p
    in
    let best_responses ~weight =
      Obs.incr ~by:pairs mwu_oracle_calls;
      if pairs < 4 then Array.init pairs (fun i -> answer ~weight i)
      else Pool.parallel_init ?pool pairs (fun i -> answer ~weight i)
    in
    let add_loads loads c amount =
      Slice_candidates.iter_edges sc c (fun e ->
          Array.unsafe_set loads e (Array.unsafe_get loads e +. amount))
    in
    let probe_weight e = 1.0 /. caps.(e) in
    let probe = best_responses ~weight:probe_weight in
    if Array.exists (fun c -> c < 0) probe then None
    else begin
      let loads = Array.make m 0.0 in
      Array.iteri (fun i c -> add_loads loads c amounts.(i)) probe;
      let u_norm = ref 1e-12 in
      Array.iteri
        (fun e load ->
          let c = load /. caps.(e) in
          if c > !u_norm then u_norm := c)
        loads;
      let u_norm = !u_norm in
      let eta = Float.sqrt (4.0 *. Float.log (float_of_int (max 2 m)) /. float_of_int iters) in
      let cum = Array.make m 0.0 in
      let ncands = Slice_candidates.ncands sc in
      let counts = Array.make ncands 0.0 in
      let present = Array.make ncands false in
      let overflow : (int, (Path.t * float) list) Hashtbl.t = Hashtbl.create 7 in
      (match warm with
      | None -> ()
      | Some (previous, weight) ->
          if weight <= 0 then invalid_arg "Min_congestion: warm-start weight must be positive";
          let wf = float_of_int weight in
          Array.iteri
            (fun i (s, t) ->
              match Routing.distribution previous s t with
              | [] -> ()
              | dist ->
                  let over = ref Path_map.empty in
                  List.iter
                    (fun (w, p) ->
                      let c =
                        if positions.(i) < 0 then -1
                        else Slice_candidates.find sc positions.(i) p
                      in
                      if c >= 0 then begin
                        let cc = Slice_candidates.canonical sc c in
                        counts.(cc) <- counts.(cc) +. (w *. wf);
                        present.(cc) <- true
                      end
                      else
                        over :=
                          Path_map.update p
                            (function
                              | None -> Some (w *. wf) | Some c -> Some (c +. (w *. wf)))
                            !over)
                    dist;
                  if not (Path_map.is_empty !over) then
                    Hashtbl.replace overflow i
                      (Path_map.fold (fun p c acc -> (p, c) :: acc) !over []
                      |> List.rev);
                  let amount = amounts.(i) in
                  List.iter
                    (fun (w, (p : Path.t)) ->
                      Array.iter
                        (fun e ->
                          cum.(e) <-
                            cum.(e) +. (wf *. w *. amount /. (caps.(e) *. u_norm)))
                        p.Path.edges)
                    dist)
            support_arr);
      let record c =
        let cc = Slice_candidates.canonical sc c in
        counts.(cc) <- counts.(cc) +. 1.0;
        present.(cc) <- true
      in
      let warr = Array.make m 0.0 in
      let round_weight e = warr.(e) in
      let round_loads = Array.make m 0.0 in
      let base_plays = match warm with None -> 0 | Some (_, w) -> w in
      for round = 1 to iters do
        Obs.incr mwu_iterations;
        let max_cum = Array.fold_left Float.max neg_infinity cum in
        for e = 0 to m - 1 do
          warr.(e) <- Float.exp (eta *. (cum.(e) -. max_cum)) /. caps.(e)
        done;
        let responses = best_responses ~weight:round_weight in
        Array.fill round_loads 0 m 0.0;
        Array.iteri
          (fun i c ->
            if c < 0 then assert false (* probed feasible above *);
            record c;
            add_loads round_loads c amounts.(i))
          responses;
        for e = 0 to m - 1 do
          cum.(e) <- cum.(e) +. (round_loads.(e) /. (caps.(e) *. u_norm))
        done;
        if Obs.tracing () then begin
          let round_peak = ref 0.0 and cum_peak = ref neg_infinity in
          for e = 0 to m - 1 do
            let rc = round_loads.(e) /. caps.(e) in
            if rc > !round_peak then round_peak := rc;
            if cum.(e) > !cum_peak then cum_peak := cum.(e)
          done;
          let plays = float_of_int (base_plays + round) in
          let support_paths =
            let n = ref 0 in
            Array.iter (fun p -> if p then incr n) present;
            Hashtbl.iter (fun _ over -> n := !n + List.length over) overflow;
            !n
          in
          Obs.event "mwu.round"
            ~attrs:
              [
                ("solver", Trace.String label);
                ("round", Trace.Int round);
                ("round_congestion", Trace.Float !round_peak);
                ("avg_congestion", Trace.Float (!cum_peak *. u_norm /. plays));
                ("potential", Trace.Float !cum_peak);
                ("support_paths", Trace.Int support_paths);
              ]
        end
      done;
      let routing =
        Routing.make
          (List.mapi
             (fun i pair ->
               ( pair,
                 Slice_candidates.pair_distribution sc ~counts ~present
                   ~overflow:(Hashtbl.find_opt overflow i)
                   positions.(i) ))
             support)
      in
      Some (routing, Routing.congestion g routing demand)
    end
  end

let mwu_on_slices ?pool ?iters g sc demand =
  match mwu_slices ?pool ?iters ~label:"on_paths" g sc demand with
  | Some result -> result
  | None -> invalid_arg "Min_congestion.mwu_on_paths: demanded pair has no candidates"

let mwu_on_slices_warm ?pool ?iters ~warm ~warm_weight g sc demand =
  match
    mwu_slices ?pool ?iters ~warm:(warm, warm_weight) ~label:"on_paths_warm" g sc demand
  with
  | Some result -> result
  | None -> invalid_arg "Min_congestion.mwu_on_paths_warm: demanded pair has no candidates"

let mwu_on_paths ?pool ?iters g cands demand =
  mwu_on_slices ?pool ?iters g (slice_candidates_of_list g cands) demand

let mwu_on_paths_warm ?pool ?iters ~warm ~warm_weight g cands demand =
  mwu_on_slices_warm ?pool ?iters ~warm ~warm_weight g
    (slice_candidates_of_list g cands)
    demand

(* Dijkstra best responses.  The batched oracle stops each search once
   its source's targets have settled; the per-pair one is the reference
   full run.  Every call adds the vertices its search settled to
   [mwu.sssp_settled] (a per-call figure, so the total is the same at any
   job count). *)
let dijkstra_oracle ~batched g =
  let settled () =
    let k = Shortest.Workspace.settled_count (Shortest.Workspace.for_current_domain ()) in
    Obs.incr ~by:k mwu_sssp_settled;
    k
  in
  if batched then
    Batched
      (fun weights s ts ->
        let paths = Shortest.dijkstra_targets g ~weights s ts in
        (paths, settled ()))
  else
    Per_pair
      (fun weights s t ->
        let path = Shortest.dijkstra_path g ~weight:(Array.get weights) s t in
        (path, settled ()))

let mwu_unrestricted ?pool ?iters ?(batched = true) g demand =
  match
    mwu_generic ?pool ?iters ~label:"unrestricted" g
      ~oracle:(dijkstra_oracle ~batched g) demand
  with
  | Some result -> result
  | None -> invalid_arg "Min_congestion.mwu_unrestricted: graph is disconnected"

let mwu_unrestricted_avoiding ?pool ?iters ?(batched = true) ~avoid g demand =
  mwu_generic ?pool ?iters ~avoid ~label:"avoiding" g
    ~oracle:(dijkstra_oracle ~batched g) demand

let mwu_hop_limited ?pool ?iters ?(batched = true) ~max_hops g demand =
  let oracle =
    if batched then
      Batched (fun weights s ts -> (Shortest.hop_limited_paths g ~weights ~max_hops s ts, 0))
    else
      Per_pair
        (fun weights s t ->
          (Shortest.hop_limited_path g ~weight:(Array.get weights) ~max_hops s t, 0))
  in
  mwu_generic ?pool ?iters ~label:"hop_limited" g ~oracle demand

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
