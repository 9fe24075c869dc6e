module Graph = Sso_graph.Graph
module Arena = Sso_graph.Arena
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Min_congestion = Sso_flow.Min_congestion
module Path_system = Sso_core.Path_system
module Semi_oblivious = Sso_core.Semi_oblivious
module Pool = Sso_engine.Pool
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace
module File = Sso_obs.File
module Codec = Sso_artifact.Codec
module Store = Sso_artifact.Store

let sweep_span = Obs.span "fault.sweep"
let worst_k_span = Obs.span "fault.worst_k"
let scenarios_counter = Obs.counter "fault.scenarios"

type report = {
  scenario : Scenario.t;
  connected : bool;
  survivable : bool;
  achieved : float;
  post_opt : float;
  ratio : float;
  recovery_rounds : int;
  warm_congestion : float;
}

(* Recovery tries these warm-started round counts in turn and accepts the
   first with [warm <= recovery_tolerance *. achieved]; the pre-failure
   routing counts as [recovery_warm_weight] virtual rounds. *)
let recovery_ladder = [ 10; 20; 40; 80 ]
let recovery_tolerance = 1.05
let recovery_warm_weight = 60

let singles g = List.init (Graph.m g) (Scenario.single g)

(* ---------- Per-report cache codec ---------- *)

let report_tag = 'W'

let encode_report r =
  let w = Codec.writer () in
  Codec.write_u8 w (Char.code report_tag);
  Codec.write_u8 w Codec.format_version;
  Codec.write_u8 w (if r.connected then 1 else 0);
  Codec.write_u8 w (if r.survivable then 1 else 0);
  Codec.write_f64 w r.achieved;
  Codec.write_f64 w r.post_opt;
  Codec.write_f64 w r.ratio;
  Codec.write_varint w (r.recovery_rounds + 1);
  Codec.write_f64 w r.warm_congestion;
  Codec.contents w

let decode_report scenario data =
  let r = Codec.reader data in
  if Codec.read_u8 r <> Char.code report_tag then
    File.corrupt "Sweep.decode_report: bad tag";
  if Codec.read_u8 r <> Codec.format_version then
    File.corrupt "Sweep.decode_report: bad version";
  let flag name =
    match Codec.read_u8 r with
    | 0 -> false
    | 1 -> true
    | _ -> File.corrupt "Sweep.decode_report: bad %s" name
  in
  let connected = flag "connected" in
  let survivable = flag "survivable" in
  let achieved = Codec.read_f64 r in
  let post_opt = Codec.read_f64 r in
  let ratio = Codec.read_f64 r in
  let recovery_rounds = Codec.read_varint r - 1 in
  let warm_congestion = Codec.read_f64 r in
  Codec.expect_end r;
  { scenario; connected; survivable; achieved; post_opt; ratio; recovery_rounds; warm_congestion }

let solver_repr = function
  | Semi_oblivious.Lp -> "lp"
  | Semi_oblivious.Mwu i -> Printf.sprintf "mwu:%d" i

let recovery_repr recovery =
  if not recovery then "none"
  else
    Printf.sprintf "ladder=%s;tol=%.17g;w=%d"
      (String.concat "," (List.map string_of_int recovery_ladder))
      recovery_tolerance recovery_warm_weight

let report_recipe ~graph_digest ~demand_digest ~system_key ~solver ~recovery scenario =
  Store.recipe ~kind:"fault-report"
    [
      ("graph", Codec.hex_of_key graph_digest);
      ("demand", Codec.hex_of_key demand_digest);
      ("system", system_key);
      ("scenario", Codec.hex_of_key (Scenario.digest scenario));
      ("solver", solver_repr solver);
      ("recovery", recovery_repr recovery);
    ]

(* ---------- Evaluation ---------- *)

let evaluate ~solver ~iters ~pre_routing g ps demand scenario =
  let support = Demand.support demand in
  let g' = Scenario.apply g scenario in
  let removed = Scenario.removed scenario in
  let survivors =
    Path_system.filter (fun a i -> not (Arena.exists a i removed)) ps
  in
  let candidates_remain =
    List.for_all (fun (s, t) -> Path_system.slice_count survivors s t > 0) support
  in
  match Min_congestion.mwu_unrestricted_avoiding ~iters ~avoid:removed g' demand with
  | None ->
      (* The damaged network cannot route the demand: not the path
         system's fault. *)
      {
        scenario;
        connected = false;
        survivable = false;
        achieved = infinity;
        post_opt = infinity;
        ratio = infinity;
        recovery_rounds = -1;
        warm_congestion = nan;
      }
  | Some (_, post_opt) ->
      if not candidates_remain then
        {
          scenario;
          connected = true;
          survivable = false;
          achieved = infinity;
          post_opt;
          ratio = infinity;
          recovery_rounds = -1;
          warm_congestion = nan;
        }
      else begin
        let achieved = Semi_oblivious.congestion ~solver g' survivors demand in
        let recovery_rounds, warm_congestion =
          match pre_routing with
          | Some pre ->
              let rec climb = function
                | [] -> (-1, nan)
                | rounds :: rest ->
                    let _, warm =
                      Semi_oblivious.route ~solver:(Semi_oblivious.Mwu rounds)
                        ~warm_start:(pre, recovery_warm_weight) g' survivors demand
                    in
                    if warm <= recovery_tolerance *. achieved then (rounds, warm)
                    else if rest = [] then (-1, warm)
                    else climb rest
              in
              climb recovery_ladder
          | None -> (-1, nan)
        in
        {
          scenario;
          connected = true;
          survivable = true;
          achieved;
          post_opt;
          ratio = achieved /. post_opt;
          recovery_rounds;
          warm_congestion;
        }
      end

let run ?(solver = Semi_oblivious.default_solver) ?store ?system_key
    ?(recovery = false) g ps demand scenarios =
  let iters = match solver with Semi_oblivious.Mwu i -> i | Semi_oblivious.Lp -> 300 in
  let support = Demand.support demand in
  (* Materialize the parent system before fanning out: derived survivor
     systems must not trigger generation inside pool tasks, so generation
     order (hence any generator RNG draws) is independent of the job
     count. *)
  Path_system.materialize ps support;
  Obs.with_span sweep_span @@ fun () ->
  (* The pre-failure Stage-4 routing seeds every warm restart; solve it
     once, serially, so the fan-out only runs per-scenario work. *)
  let pre_routing =
    if recovery then Some (fst (Semi_oblivious.route ~solver g ps demand))
    else None
  in
  let cache =
    match (store, system_key) with
    | Some store, Some key ->
        let graph_digest = Codec.graph_digest g in
        let demand_digest = Codec.fnv1a64 (Codec.encode_demand demand) in
        Some
          ( store,
            fun scenario ->
              report_recipe ~graph_digest ~demand_digest ~system_key:key ~solver
                ~recovery scenario )
    | _ -> None
  in
  Pool.parallel_list_map
    (fun scenario ->
      Obs.incr scenarios_counter;
      let cached =
        match cache with
        | None -> None
        | Some (store, recipe_of) -> (
            match Store.find store (recipe_of scenario) with
            | None -> None
            | Some payload -> (
                try Some (decode_report scenario payload)
                with File.Corrupt _ -> None))
      in
      let report =
        match cached with
        | Some r -> r
        | None ->
            let r =
              evaluate ~solver ~iters ~pre_routing g ps demand scenario
            in
            (match cache with
            | Some (store, recipe_of) ->
                Store.put store (recipe_of scenario) (encode_report r)
            | None -> ());
            r
      in
      if Obs.tracing () then
        Obs.event "fault.report"
          ~attrs:
            [
              ("scenario", Trace.String report.scenario.Scenario.label);
              ("connected", Trace.Bool report.connected);
              ("survivable", Trace.Bool report.survivable);
              ("ratio", Trace.Float report.ratio);
              ("recovery_rounds", Trace.Int report.recovery_rounds);
            ];
      report)
    scenarios

type summary = {
  scenarios : int;
  disconnected : int;
  unsurvivable : int;
  mean_ratio : float;
  worst_ratio : float;
  mean_recovery_rounds : float;
}

let summary reports =
  let connected = List.filter (fun r -> r.connected) reports in
  let survivable = List.filter (fun r -> r.survivable) connected in
  let ratios = List.map (fun r -> r.ratio) survivable in
  let count = List.length ratios in
  let measured =
    List.filter_map
      (fun r -> if r.recovery_rounds >= 0 then Some (float_of_int r.recovery_rounds) else None)
      survivable
  in
  let mean = function
    | [] -> nan
    | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  {
    scenarios = List.length reports;
    disconnected = List.length reports - List.length connected;
    unsurvivable = List.length connected - count;
    mean_ratio = mean ratios;
    worst_ratio = (if count = 0 then nan else List.fold_left Float.max 0.0 ratios);
    mean_recovery_rounds = mean measured;
  }

let worst_k ?(solver = Semi_oblivious.default_solver) ?store ?system_key
    ?(candidates = 8) g ps demand ~k =
  if k < 1 then invalid_arg "Sweep.worst_k: k must be >= 1";
  Obs.with_span worst_k_span @@ fun () ->
  let score r = if not r.connected then neg_infinity else r.ratio in
  let single_reports = run ~solver ?store ?system_key g ps demand (singles g) in
  (* Candidate pool: the most damaging single edges, severity descending,
     ties by edge id — a deterministic ordering. *)
  let pool_edges =
    List.mapi (fun e r -> (e, score r)) single_reports
    |> List.stable_sort (fun (e1, s1) (e2, s2) -> compare (s2, e1) (s1, e2))
    |> List.map fst
    |> List.filteri (fun i _ -> i < candidates)
  in
  let combined chosen e =
    let es = List.sort compare (e :: chosen) in
    Scenario.of_edges
      ~label:
        (Printf.sprintf "worst-%d[%s]" (List.length es)
           (String.concat "," (List.map string_of_int es)))
      g es
  in
  let best_of reports =
    match reports with
    | [] -> invalid_arg "Sweep.worst_k: empty candidate pool"
    | first :: rest ->
        List.fold_left (fun acc r -> if score r > score acc then r else acc) first rest
  in
  let rec grow chosen best step =
    if step >= k then best
    else begin
      let options = List.filter (fun e -> not (List.mem e chosen)) pool_edges in
      if options = [] then best
      else begin
        let scens = List.map (combined chosen) options in
        let reports = run ~solver ?store ?system_key g ps demand scens in
        let round_best = best_of reports in
        let added =
          (* Recover which edge the winner added: its scenario's edges
             minus the chosen set. *)
          match
            List.filter
              (fun e -> not (List.mem e chosen))
              (Scenario.edges round_best.scenario)
          with
          | [ e ] -> e
          | _ -> invalid_arg "Sweep.worst_k: malformed greedy scenario"
        in
        (* Disconnecting or already-unsurvivable sets cannot get worse;
           stop growing. *)
        if (not round_best.connected) || round_best.ratio = infinity then round_best
        else grow (added :: chosen) round_best (step + 1)
      end
    end
  in
  let best_single =
    match single_reports with
    | [] -> invalid_arg "Sweep.worst_k: graph has no edges"
    | first :: rest ->
        List.fold_left (fun acc r -> if score r > score acc then r else acc) first rest
  in
  if (not best_single.connected) || best_single.ratio = infinity then best_single
  else begin
    (* Seed with the worst single edge, then grow the set k-1 more times. *)
    let seed_edge =
      match Scenario.edges best_single.scenario with
      | [ e ] -> e
      | _ -> invalid_arg "Sweep.worst_k: malformed single scenario"
    in
    grow [ seed_edge ] best_single 1
  end
