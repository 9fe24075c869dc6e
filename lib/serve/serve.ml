module Rng = Sso_prng.Rng
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace
module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Arena = Sso_graph.Arena
module Demand = Sso_demand.Demand
module Update = Sso_demand.Update
module Routing = Sso_flow.Routing
module Slice_candidates = Sso_flow.Slice_candidates
module Path_system = Sso_core.Path_system
module Semi_oblivious = Sso_core.Semi_oblivious
module Simulator = Sso_sim.Simulator
module Codec = Sso_artifact.Codec
module File = Sso_obs.File
module Timeline = Sso_fault.Timeline
module Scenario = Sso_fault.Scenario

type config = {
  solver : Semi_oblivious.solver;
  warm_iters : int;
  warm_weight : int;
  refresh_every : int;
  event_budget : int;
  max_staleness : int;
}

let default_config =
  (* warm_iters/warm_weight follow the fault sweep's recovery ladder
     (Sso_fault.Sweep.run ~recovery): 60 virtual rounds of history plus a
     few fresh rounds recover near-cold quality under small drifts. *)
  { solver = Semi_oblivious.default_solver;
    warm_iters = 20;
    warm_weight = 60;
    refresh_every = 0;
    event_budget = 0;
    max_staleness = 4 }

type mode = Cold | Warm | Degraded

type fault = Fail of int | Repair of int

type report = {
  tick : int;
  events : int;
  arrivals : int;
  departures : int;
  rate_changes : int;
  active_pairs : int;
  admitted : int;
  retired : int;
  deferred : int;
  failed_edges : int;
  rerouted : int;
  unroutable : int;
  congestion : float;
  mode : mode;
  staleness : int;
  solve_ns : int;
  tick_ns : int;
}

type t = {
  graph : Graph.t;
  system : Path_system.t;
  config : config;
  failed : (int, unit) Hashtbl.t;  (* edges currently down *)
  mutable survivors : Path_system.t option;
      (* cached filter view over [system]; dropped on any fault *)
  pieces : (int, Slice_candidates.piece) Hashtbl.t;
      (* [pair_key] -> the pair's candidates unpacked from [pieces_of], kept
         for active pairs only *)
  mutable pieces_of : Path_system.t option;  (* the live system of [pieces] *)
  mutable pending : Update.t list;  (* shed events, oldest first *)
  mutable demand : Demand.t;
  mutable routing : Routing.t option;
  mutable last_tick : int;  (* -1 before the first step *)
  mutable since_cold : int;  (* consecutive non-cold solves *)
  mutable degraded_streak : int;  (* consecutive degraded solves *)
}

let create ?(config = default_config) graph system =
  if config.warm_iters <= 0 then
    invalid_arg "Serve.create: warm_iters must be positive";
  if config.warm_weight <= 0 then
    invalid_arg "Serve.create: warm_weight must be positive";
  if config.refresh_every < 0 then
    invalid_arg "Serve.create: refresh_every must be non-negative";
  if config.event_budget < 0 then
    invalid_arg "Serve.create: event_budget must be non-negative";
  if config.max_staleness < 0 then
    invalid_arg "Serve.create: max_staleness must be non-negative";
  { graph; system; config;
    failed = Hashtbl.create 16;
    survivors = None;
    pieces = Hashtbl.create 256;
    pieces_of = None;
    pending = [];
    demand = Demand.empty;
    routing = None;
    last_tick = -1;
    since_cold = 0;
    degraded_streak = 0 }

(* A pair as one immediate int, cheaper to hash than a tuple. *)
let pair_key t (s, d) = (s * Graph.n t.graph) + d

let system t = t.system
let demand t = t.demand
let routing t = t.routing
let pending t = t.pending
let failed_edges t =
  List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) t.failed [])

let tick_span = Obs.span "serve.tick"
let admit_span = Obs.span "serve.admit"
let solve_span = Obs.span "serve.solve"
let events_counter = Obs.counter "serve.events"
let admitted_counter = Obs.counter "serve.admitted"
let retired_counter = Obs.counter "serve.retired"
let deferred_counter = Obs.counter "serve.deferred"
let cold_counter = Obs.counter "serve.cold_solves"
let warm_counter = Obs.counter "serve.warm_solves"
let degraded_counter = Obs.counter "serve.degraded_solves"
let unpacked_counter = Obs.counter "serve.index_unpacked"
let resets_counter = Obs.counter "serve.index_resets"

(* Live telemetry: rolling per-tick latency quantiles plus throughput and
   staleness gauges.  All wall-clock — they surface only through
   [Obs.snapshot]/[Obs.expose] and never enter reports, digests, or trace
   payloads (the same boundary as [solve_ns]). *)
let tick_q = Obs.quantile "serve.tick_ns"
let admit_q = Obs.quantile "serve.admit_ns"
let solve_q = Obs.quantile "serve.solve_ns"
let inject_q = Obs.quantile "serve.inject_ns"
let staleness_gauge = Obs.gauge "serve.staleness"
let failed_gauge = Obs.gauge "serve.failed_edges"
let updates_gauge = Obs.gauge "serve.updates_per_sec"

let check_batch t ~tick events =
  if tick <= t.last_tick then
    File.corrupt "tick %d after tick %d (ticks must be strictly increasing)" tick
      t.last_tick;
  let n = Graph.n t.graph in
  List.iter
    (fun (e : Update.t) ->
      if e.Update.tick <> tick then
        File.corrupt "event for tick %d inside the batch of tick %d" e.Update.tick
          tick;
      if e.Update.src >= n || e.Update.dst >= n then
        File.corrupt "tick %d: endpoint out of range in %d->%d (graph has %d \
                      vertices)"
          tick e.Update.src e.Update.dst n)
    events

let count_kinds events =
  List.fold_left
    (fun (a, d, r) (e : Update.t) ->
      match e.Update.kind with
      | Update.Arrive _ -> (a + 1, d, r)
      | Update.Depart -> (a, d + 1, r)
      | Update.Set_rate _ -> (a, d, r + 1))
    (0, 0, 0) events

(* ---------- faults ---------- *)

(* Apply a tick's fault events; returns the newly failed edge ids (in
   event order).  Contradictory events — double failure, repair of a
   healthy edge — are stream corruption, same as a departure of an
   inactive pair. *)
let apply_faults t ~tick faults =
  let m = Graph.m t.graph in
  let newly =
    List.filter_map
      (fun f ->
        match f with
        | Fail e ->
            if e < 0 || e >= m then
              File.corrupt "tick %d: Fail of edge %d out of range (graph has %d \
                       edges)" tick e m;
            if Hashtbl.mem t.failed e then
              File.corrupt "tick %d: edge %d failed while already down" tick e;
            Hashtbl.replace t.failed e ();
            Some e
        | Repair e ->
            if e < 0 || e >= m then
              File.corrupt "tick %d: Repair of edge %d out of range (graph has %d \
                       edges)" tick e m;
            if not (Hashtbl.mem t.failed e) then
              File.corrupt "tick %d: repair of healthy edge %d" tick e;
            Hashtbl.remove t.failed e;
            None)
      faults
  in
  if faults <> [] then t.survivors <- None;
  newly

(* The path system the solve runs on: the full system while nothing is
   failed, otherwise a cached filter view keeping candidates whose
   edges are all up.  The predicate captures a snapshot of the failed
   set, so the lazily memoized view stays internally consistent; any
   fault event drops the cache. *)
let live_system t =
  if Hashtbl.length t.failed = 0 then t.system
  else
    match t.survivors with
    | Some s -> s
    | None ->
        let down = Hashtbl.copy t.failed in
        let s =
          Path_system.filter (fun a i -> not (Arena.exists a i (Hashtbl.mem down))) t.system
        in
        t.survivors <- Some s;
        s

let count_rerouted t newly =
  match (t.routing, newly) with
  | Some r, _ :: _ ->
      let down = Array.make (Graph.m t.graph) false in
      List.iter (fun e -> down.(e) <- true) newly;
      let hit (_, p) = Array.exists (fun e -> down.(e)) p.Path.edges in
      List.length
        (List.filter
           (fun (s, d) -> List.exists hit (Routing.distribution r s d))
           (Routing.pairs r))
  | _ -> 0

(* ---------- degraded serving ---------- *)

(* Serve the stale routing without a solve: each active routable pair
   keeps its previous distribution restricted to surviving paths
   (renormalized); pairs the stale routing misses, or whose whole
   distribution died, fall back to uniform over the surviving
   candidates.  O(active pairs), no MWU rounds. *)
let patch_stale t live stale pairs demand =
  let alive_path p =
    Hashtbl.length t.failed = 0
    || not (Array.exists (Hashtbl.mem t.failed) p.Path.edges)
  in
  let entries =
    List.map
      (fun (s, d) ->
        let alive =
          List.filter (fun (_, p) -> alive_path p)
            (Routing.distribution stale s d)
        in
        let dist =
          if alive <> [] then alive
          else List.map (fun p -> (1.0, p)) (Path_system.paths live s d)
        in
        ((s, d), dist))
      pairs
  in
  let r = Routing.make t.graph entries in
  (r, Routing.congestion t.graph r demand)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let rec drop n = function
  | _ :: rest when n > 0 -> drop (n - 1) rest
  | l -> l

let step t ~tick ?(faults = []) events =
  Obs.with_span tick_span @@ fun () ->
  let tick_t0 = Obs.now_ns () in
  check_batch t ~tick events;
  let newly_failed = apply_faults t ~tick faults in
  let rerouted = count_rerouted t newly_failed in
  (* Admission control: deferred leftovers go first, then the incoming
     batch, all in order; with a budget the overflow is shed to the next
     tick. *)
  let backlog = t.pending @ events in
  let budget = t.config.event_budget in
  let applied, shed =
    if budget > 0 && List.length backlog > budget then
      (take budget backlog, drop budget backlog)
    else (backlog, [])
  in
  t.pending <- shed;
  let deferred = List.length shed in
  let arrivals, departures, rate_changes = count_kinds applied in
  let before = t.demand in
  let demand = Update.apply before applied in
  let support = Demand.support demand in
  (* Admission: materialize pairs new to the system into the shared
     arena, in support order.  Retired pairs keep their slices — a
     returning commodity is re-admitted for free. *)
  let fresh =
    List.filter (fun (s, d) -> not (Path_system.installed t.system s d)) support
  in
  let admit_ns =
    if fresh = [] then 0
    else begin
      let a0 = Obs.now_ns () in
      Obs.with_span admit_span (fun () -> Path_system.materialize t.system fresh);
      Obs.now_ns () - a0
    end
  in
  Obs.observe_quantile admit_q admit_ns;
  (* Only a departure takes a pair out of the demand; it retires if it
     was active before the batch and did not re-arrive within it. *)
  let retired_pairs =
    List.sort_uniq Demand.Pair.compare
      (List.filter_map
         (fun (e : Update.t) ->
           let s = e.Update.src and d = e.Update.dst in
           match e.Update.kind with
           | Update.Depart when Demand.mem before s d && not (Demand.mem demand s d) ->
               Some (s, d)
           | Update.Arrive _ | Update.Depart | Update.Set_rate _ -> None)
         applied)
  in
  let retired = List.length retired_pairs in
  let live = live_system t in
  (* The persistent part of the Stage-4 index: the active pairs'
     candidates, unpacked from [live].  Another live system (a fault or
     repair tick) offers other candidates and resets them all; a retired
     pair drops its piece; a pair new to the solve is unpacked once. *)
  (match t.pieces_of with
  | Some v when v != live ->
      Hashtbl.reset t.pieces;
      Obs.incr resets_counter
  | Some _ | None -> ());
  t.pieces_of <- Some live;
  List.iter (fun p -> Hashtbl.remove t.pieces (pair_key t p)) retired_pairs;
  let unpacked = ref 0 in
  let piece ((s, d) as p) =
    match Hashtbl.find_opt t.pieces (pair_key t p) with
    | Some pc -> pc
    | None ->
        incr unpacked;
        let pc = Path_system.unpack_pair live s d in
        Hashtbl.replace t.pieces (pair_key t p) pc;
        pc
  in
  let routable_pair p = Slice_candidates.count (piece p) > 0 in
  (* Under failures a pair can lose every candidate; it is shed from the
     solve (its demand stays active, so a repair brings it straight
     back).  Unpacking here also materializes the surviving view's pairs
     in support order — serially, so the view's arena layout is
     independent of the job count. *)
  let routable, unroutable_pairs =
    if Hashtbl.length t.failed = 0 then (support, [])
    else List.partition routable_pair support
  in
  let unroutable = List.length unroutable_pairs in
  let solve_demand =
    if unroutable = 0 then demand
    else Demand.filter (fun s d _ -> routable_pair (s, d)) demand
  in
  (* [routable] is [solve_demand]'s support, in order. *)
  let index () =
    Slice_candidates.concat (Path_system.arena live)
      (List.map (fun p -> (p, piece p)) routable)
  in
  let warm_capable =
    match t.config.solver with Semi_oblivious.Mwu _ -> true | Semi_oblivious.Lp -> false
  in
  let overloaded = deferred > 0 in
  let mode =
    match t.routing with
    | Some _
      when overloaded && t.degraded_streak < t.config.max_staleness ->
        Degraded
    | None -> Cold
    | Some _ when not warm_capable -> Cold
    | Some _
      when t.config.refresh_every > 0
           && t.since_cold + 1 >= t.config.refresh_every ->
        Cold
    | Some _ -> Warm
  in
  let t0 = Obs.now_ns () in
  let routing, congestion =
    Obs.with_span solve_span @@ fun () ->
    if routable = [] then (Routing.make t.graph [], 0.0)
    else
      match (mode, t.routing) with
      | Degraded, Some stale -> patch_stale t live stale routable solve_demand
      | Warm, Some warm ->
          (* With failures in play [live] offers only the surviving
             candidates, and the warm start drops the dead ones. *)
          Semi_oblivious.route
            ~solver:(Semi_oblivious.Mwu t.config.warm_iters)
            ~warm_start:(warm, t.config.warm_weight)
            ~index:(index ()) t.graph live solve_demand
      | (Cold | Warm | Degraded), _ ->
          Semi_oblivious.route ~solver:t.config.solver ~index:(index ())
            t.graph live solve_demand
  in
  let solve_ns = Obs.now_ns () - t0 in
  Obs.observe_quantile solve_q solve_ns;
  (match mode with
  | Cold ->
      t.since_cold <- 0;
      t.degraded_streak <- 0;
      Obs.incr cold_counter
  | Warm ->
      t.since_cold <- t.since_cold + 1;
      t.degraded_streak <- 0;
      Obs.incr warm_counter
  | Degraded ->
      t.since_cold <- t.since_cold + 1;
      t.degraded_streak <- t.degraded_streak + 1;
      Obs.incr degraded_counter);
  t.demand <- demand;
  t.routing <- Some routing;
  t.last_tick <- tick;
  Obs.incr ~by:(List.length applied) events_counter;
  Obs.incr ~by:(List.length fresh) admitted_counter;
  Obs.incr ~by:retired retired_counter;
  Obs.incr ~by:!unpacked unpacked_counter;
  Obs.incr ~by:deferred deferred_counter;
  let tick_ns = Obs.now_ns () - tick_t0 in
  let report =
    { tick;
      events = List.length applied;
      arrivals;
      departures;
      rate_changes;
      active_pairs = List.length support;
      admitted = List.length fresh;
      retired;
      deferred;
      failed_edges = Hashtbl.length t.failed;
      rerouted;
      unroutable;
      congestion;
      mode;
      staleness = t.since_cold;
      solve_ns;
      tick_ns }
  in
  if Obs.tracing () then
    Obs.event "serve.tick"
      ~attrs:
        [ ("tick", Trace.Int tick);
          ("events", Trace.Int report.events);
          ("pairs", Trace.Int report.active_pairs);
          ("admitted", Trace.Int report.admitted);
          ("retired", Trace.Int report.retired);
          ("deferred", Trace.Int report.deferred);
          ("failed_edges", Trace.Int report.failed_edges);
          ("rerouted", Trace.Int report.rerouted);
          ("unroutable", Trace.Int report.unroutable);
          ("unpacked", Trace.Int !unpacked);
          ("congestion", Trace.Float congestion);
          ("mode",
           Trace.String
             (match mode with
             | Cold -> "cold"
             | Warm -> "warm"
             | Degraded -> "degraded"));
          ("staleness", Trace.Int report.staleness) ];
  Obs.set_gauge staleness_gauge (float_of_int report.staleness);
  Obs.set_gauge failed_gauge (float_of_int report.failed_edges);
  Obs.observe_quantile tick_q (Obs.now_ns () - tick_t0);
  report

let replay ?on_tick ?(faults = []) t events =
  let t0 = Obs.now_ns () in
  let total_events = ref 0 in
  let fault_tbl = Hashtbl.create 16 in
  List.iter
    (fun (tick, fs) ->
      let prev = try Hashtbl.find fault_tbl tick with Not_found -> [] in
      Hashtbl.replace fault_tbl tick (prev @ fs))
    faults;
  let batches = Update.by_tick events in
  let ticks =
    List.sort_uniq compare
      (List.map fst batches @ List.map fst faults)
  in
  let batch_tbl = Hashtbl.create 64 in
  List.iter (fun (tick, b) -> Hashtbl.replace batch_tbl tick b) batches;
  let observe report =
    total_events := !total_events + report.events;
    let elapsed_ns = Obs.now_ns () - t0 in
    if elapsed_ns > 0 then
      Obs.set_gauge updates_gauge
        (1e9 *. float_of_int !total_events /. float_of_int elapsed_ns);
    (match (on_tick, t.routing) with
    | Some f, Some routing -> f report routing
    | _ -> ());
    report
  in
  let reports =
    List.map
      (fun tick ->
        let batch = try Hashtbl.find batch_tbl tick with Not_found -> [] in
        let fs = try Hashtbl.find fault_tbl tick with Not_found -> [] in
        observe (step t ~tick ~faults:fs batch))
      ticks
  in
  (* Drain ticks: a budgeted replay keeps stepping past the stream until
     the shed backlog is empty, so it ends on the same demand as an
     unbudgeted replay of the same stream. *)
  let drained = ref [] in
  while t.pending <> [] do
    drained := observe (step t ~tick:(t.last_tick + 1) []) :: !drained
  done;
  reports @ List.rev !drained

let faults_of_timeline (timeline : Timeline.t) =
  let events = ref [] in
  List.iter
    (fun (e : Timeline.entry) ->
      if Scenario.is_degradation e.Timeline.scenario then
        invalid_arg
          "Serve.faults_of_timeline: degradation scenarios have no serve \
           equivalent (full removals only)";
      let edges = Scenario.edges e.Timeline.scenario in
      List.iter
        (fun edge ->
          (* rank 1 orders failures after the repairs of the same tick *)
          events := (e.Timeline.fail_at, 1, Fail edge) :: !events;
          match e.Timeline.repair_at with
          | Some r -> events := (r, 0, Repair edge) :: !events
          | None -> ())
        edges)
    timeline;
  let sorted =
    List.stable_sort
      (fun (t1, r1, _) (t2, r2, _) -> compare (t1, r1) (t2, r2))
      (List.rev !events)
  in
  let by_tick = Hashtbl.create 16 in
  let ticks =
    List.fold_left
      (fun acc (tick, _, f) ->
        let prev = try Hashtbl.find by_tick tick with Not_found -> [] in
        Hashtbl.replace by_tick tick (f :: prev);
        if prev = [] then tick :: acc else acc)
      [] sorted
  in
  List.map
    (fun tick -> (tick, List.rev (Hashtbl.find by_tick tick)))
    (List.rev ticks)

let simulate ?discipline ?max_steps ?on_tick rng ~period t events =
  if period <= 0 then invalid_arg "Serve.simulate: period must be positive";
  let packets = ref [] in
  let reports =
    replay t events ~on_tick:(fun report routing ->
        let i0 = Obs.now_ns () in
        (* One rng child per tick, consumed in the demand's lexicographic
           order: the packet draw is a pure function of (seed, stream). *)
        let tick_rng = Rng.split_at rng report.tick in
        Demand.fold
          (fun s d rate () ->
            (* Pairs the routing does not cover (unroutable under
               failures, or absent from a degraded patch) inject
               nothing. *)
            if Routing.position routing s d >= 0 then begin
              let copies = max 1 (int_of_float (Float.ceil (rate -. 1e-9))) in
              for _ = 1 to copies do
                let route = Routing.sample_path tick_rng routing s d in
                packets :=
                  { Simulator.pair = (s, d);
                    route;
                    release = report.tick * period }
                  :: !packets
              done
            end)
          t.demand ();
        Obs.observe_quantile inject_q (Obs.now_ns () - i0);
        match on_tick with Some f -> f report routing | None -> ())
  in
  let outcome =
    Simulator.run_timed ?discipline ?max_steps t.graph (List.rev !packets)
  in
  (outcome, reports)

(* ---------- checkpointable state ---------- *)

type state = {
  s_tick : int;
  s_since_cold : int;
  s_degraded_streak : int;
  s_demand : Demand.t;
  s_routing : Routing.t option;
  s_pending : Update.t list;
  s_failed : int list;
  s_system : string;
}

let snapshot t =
  let ranges =
    List.map
      (fun (s, d) -> ((s, d), Path_system.slice_range t.system s d))
      (Path_system.known_pairs t.system)
  in
  { s_tick = t.last_tick;
    s_since_cold = t.since_cold;
    s_degraded_streak = t.degraded_streak;
    s_demand = t.demand;
    s_routing = t.routing;
    s_pending = t.pending;
    s_failed = failed_edges t;
    s_system =
      Codec.encode_path_system_slices (Path_system.arena t.system) ranges }

let restore_span = Obs.span "serve.restore"

let restore ?(config = default_config) graph system state =
  Obs.with_span restore_span @@ fun () ->
  let t = create ~config graph system in
  let n = Graph.n graph in
  let m = Graph.m graph in
  let saved, ranges =
    Obs.traced "restore.decode" (fun () ->
        Codec.decode_path_system_slices (Path_system.graph system) state.s_system)
  in
  List.iter
    (fun ((s, d), _) ->
      if s < 0 || s >= n || d < 0 || d >= n then
        File.corrupt "checkpoint pair %d->%d out of range (graph has %d \
                       vertices)" s d n)
    ranges;
  List.iter
    (fun (s, d) ->
      if s < 0 || s >= n || d < 0 || d >= n then
        File.corrupt "checkpoint demand pair %d->%d out of range" s d)
    (Demand.support state.s_demand);
  List.iter
    (fun (e : Update.t) ->
      if e.Update.src < 0 || e.Update.src >= n || e.Update.dst < 0
         || e.Update.dst >= n then
        File.corrupt "checkpoint deferred event endpoint out of range in \
                       %d->%d" e.Update.src e.Update.dst)
    state.s_pending;
  let rec check_failed prev = function
    | [] -> ()
    | e :: rest ->
        if e < 0 || e >= m then
          File.corrupt "checkpoint failed edge %d out of range (graph has \
                         %d edges)" e m;
        if e <= prev then
          File.corrupt "checkpoint failed edges not strictly ascending";
        Hashtbl.replace t.failed e ();
        check_failed e rest
  in
  check_failed (-1) state.s_failed;
  (* Last, so a rejected checkpoint leaves [system] as it was: the saved
     candidates must equal what the system's own generator draws, or a
     checkpoint taken against a different seed, α, or base routing would
     be silently resumed. *)
  (match Path_system.adopt system saved ranges with
   | Ok () -> ()
   | Error (s, d) ->
       File.corrupt
         "checkpoint pair %d->%d disagrees with the regenerated candidates \
          (different sampler seed, alpha, or base routing?)" s d);
  t.demand <- state.s_demand;
  t.routing <- state.s_routing;
  t.pending <- state.s_pending;
  t.last_tick <- state.s_tick;
  t.since_cold <- state.s_since_cold;
  t.degraded_streak <- state.s_degraded_streak;
  t

(* ---------- metrics snapshot ---------- *)

let write_metrics ~path =
  Obs.sample_gc_gauges ();
  let body = Obs.expose (Obs.snapshot ()) in
  File.write path (fun oc -> output_string oc body)

(* ---------- SLO ---------- *)

type slo = {
  p99_budget_ms : float;
  p99_ms : float;
  burns : int;
  burned : bool;
}

let check_slo ~budget_ms reports =
  if not (budget_ms > 0.0) then
    invalid_arg
      (Printf.sprintf "Serve.check_slo: budget must be positive, got %g"
         budget_ms);
  match reports with
  | [] -> { p99_budget_ms = budget_ms; p99_ms = 0.0; burns = 0; burned = false }
  | _ ->
      let a = Array.of_list (List.map (fun r -> r.solve_ns) reports) in
      Array.sort compare a;
      (* Same nearest-rank index the bench suite reports. *)
      let p99_ns = a.((99 * (Array.length a - 1) + 50) / 100) in
      let budget_ns = budget_ms *. 1e6 in
      let burns =
        List.length
          (List.filter (fun r -> float_of_int r.solve_ns > budget_ns) reports)
      in
      {
        p99_budget_ms = budget_ms;
        p99_ms = float_of_int p99_ns /. 1e6;
        burns;
        burned = float_of_int p99_ns > budget_ns;
      }

type overload = {
  budget_tick_ms : float;
  max_tick_ms : float;
  slow_ticks : int;
  overloaded : bool;
}

let check_overload ~budget_ms reports =
  if not (budget_ms > 0.0) then
    invalid_arg
      (Printf.sprintf "Serve.check_overload: budget must be positive, got %g"
         budget_ms);
  let budget_ns = budget_ms *. 1e6 in
  let max_ns =
    List.fold_left (fun acc r -> max acc r.tick_ns) 0 reports
  in
  let slow =
    List.length
      (List.filter (fun r -> float_of_int r.tick_ns > budget_ns) reports)
  in
  { budget_tick_ms = budget_ms;
    max_tick_ms = float_of_int max_ns /. 1e6;
    slow_ticks = slow;
    overloaded = slow > 0 }
