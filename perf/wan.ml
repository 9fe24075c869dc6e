(* wan-churn: the routing service's daemon path on a 256-node WAN.

   The path system is installed once (an α=4 sample of a 4-tree uniform
   spanning-tree mixture on a random 4-regular graph); a churn stream of
   arrivals, departures and rate drifts is then replayed tick by tick
   through Serve.step with the default configuration: incremental
   admission into the arena and a warm 20-round MWU per tick.  Six random
   edges fail a third of the way in and are repaired at two thirds, so the
   middle third re-solves on the surviving candidates.  No Räcke and no
   Stage 5 run here.  One op is one tick; throughput counts the update
   events applied.

   The deployment — the graph, its spanning-tree base routing, the
   installed α-sample and the outage — is fixed, as an operator's WAN
   is; the seed draws the traffic stream.  Which six edges fail moves the
   mean congestion by about 7% between seeds and the tick times with it,
   which would swamp the bounds. *)

module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Gen = Sso_graph.Gen
module Arena = Sso_graph.Arena
module Demand = Sso_demand.Demand
module Update = Sso_demand.Update
module Workload = Sso_demand.Workload
module Routing = Sso_flow.Routing
module Trees = Sso_oblivious.Trees
module Sampler = Sso_core.Sampler
module Path_system = Sso_core.Path_system
module Serve = Sso_serve.Serve
module Checkpoint = Sso_serve.Checkpoint
module Trace = Sso_obs.Trace
open Harness

let alpha = 4

type sizes = {
  n : int;
  degree : int;
  ticks : int;
  pairs : int;
  failures : int;  (** edges failed for the middle third *)
  starts : int;  (** cold starts timed per run *)
  restores : int;  (** checkpoint restores timed per run *)
  nominal : float;  (** seconds per replay, reference speed *)
}

let full =
  { n = 256; degree = 4; ticks = 1000; pairs = 512; failures = 6; starts = 9; restores = 7; nominal = 12. }

let small =
  { n = 24; degree = 4; ticks = 30; pairs = 40; failures = 3; starts = 2; restores = 2; nominal = 0.05 }

(* A tick takes about 10 ms: the kernel is re-timed every eighth tick. *)
let calibrate_every = 8

type tick = {
  ms : float;  (** the benchmark's own timer around Serve.step *)
  report : Serve.report;
}

let run cfg =
  let sz = if cfg.small then small else full in
  let master = Rng.create cfg.seed in
  let network = Rng.create 0 in
  let g = Gen.random_regular (Rng.split_at network 0) sz.n sz.degree in
  let events =
    Workload.generate ~rate_churn:0.2 (Rng.split_at master 3) ~n:sz.n ~ticks:sz.ticks
      ~pairs:sz.pairs ~churn:0.15
  in
  let stream_digest = Checkpoint.events_digest events in
  let batches = Update.by_tick events in
  let batch tick = Option.value (List.assoc_opt tick batches) ~default:[] in
  let fail_at = sz.ticks / 3 and repair_at = 2 * sz.ticks / 3 in
  let failed_edges =
    let perm = Rng.permutation (Rng.split_at network 4) (Graph.m g) in
    List.init sz.failures (fun i -> perm.(i))
  in
  let faults tick =
    if tick = fail_at then List.map (fun e -> Serve.Fail e) failed_edges
    else if tick = repair_at then List.map (fun e -> Serve.Repair e) failed_edges
    else []
  in
  let system () =
    let base = Trees.uniform (Rng.split_at network 1) ~count:4 g in
    Sampler.alpha_sample (Rng.split_at network 2) base ~alpha
  in
  (* Graph to first servable state: base routing, sample, service, and
     tick 0's admission and cold solve. *)
  let start () =
    Gc.compact ();
    let (srv, r0), dt, raw =
      timed_setup (fun () ->
          let srv = Serve.create g (system ()) in
          (srv, Serve.step srv ~tick:0 (batch 0)))
    in
    expect "tick 0 is a cold solve" (r0.Serve.mode = Serve.Cold);
    (srv, (dt, raw))
  in
  let check_tick srv (r : Serve.report) =
    match Serve.routing srv with
    | None -> expect "a routing after every tick" false
    | Some routing ->
        let d = Serve.demand srv in
        let routed = Demand.filter (fun s t _ -> Routing.distribution routing s t <> []) d in
        expect "unroutable pairs are exactly the uncovered ones"
          (Demand.support_size d - Demand.support_size routed = r.unroutable);
        expect "congestion recomputes"
          (close_to r.congestion (Routing.congestion g routing routed))
  in
  let first_congestion = Array.make sz.ticks Float.nan in
  let replay ops ~first srv =
    List.init (sz.ticks - 1) (fun i -> i + 1)
    |> List.filter_map (fun tick ->
           attempt (fun () ->
               let report =
                 time_op ops ~first (fun () ->
                     layer "serve.step" (fun () ->
                         Serve.step srv ~tick ~faults:(faults tick) (batch tick)))
               in
               let ms = List.hd ops.times in
               check_tick srv report;
               let c = first_congestion.(tick) in
               if Float.is_nan c then first_congestion.(tick) <- report.congestion
               else expect "every replay repeats the congestions" (report.congestion = c);
               { ms; report }))
  in
  let units ticks = List.fold_left (fun acc t -> acc + t.report.Serve.events) 0 ticks in
  let starts = List.init sz.starts (fun _ -> attempt start) |> List.filter_map Fun.id in
  let srv0, _ = List.nth starts (List.length starts - 1) in
  Gc.compact ();
  let ops = new_ops ~calibrate_every () in
  let first_ticks = ref [] and all_units = ref 0 in
  let npasses =
    passes ~seconds:cfg.seconds ~nominal:sz.nominal (fun p ->
        let srv = if p = 0 then srv0 else fst (Option.get (attempt start)) in
        let ticks = replay ops ~first:(p = 0) srv in
        if p = 0 then first_ticks := ticks;
        all_units := !all_units + units ticks)
  in
  let ticks = !first_ticks in
  (* Warm set-up: a final-tick checkpoint loaded and restored over a
     freshly sampled system. *)
  let config = Serve.default_config in
  let path =
    Checkpoint.write ~dir:(Filename.concat cfg.tmp_dir "ckpt") ~stream_digest ~graph:g
      ~config (Serve.snapshot srv0)
  in
  let blob = In_channel.with_open_bin path In_channel.input_all in
  let restore () =
    Gc.compact ();
    let (digest, repr, srv), dt, raw =
      timed_setup (fun () ->
          let digest, repr, st = Checkpoint.load ~graph:g path in
          let ps = system () in
          (digest, repr, layer "checkpoint.restore" (fun () -> Serve.restore g ps st)))
    in
    expect "checkpoint names its stream" (digest = stream_digest);
    expect "checkpoint names its config" (repr = Checkpoint.config_repr config);
    expect "restored snapshot equals the checkpointed state"
      (Checkpoint.encode ~stream_digest ~graph:g ~config (Serve.snapshot srv) = blob);
    (dt, raw)
  in
  let restores = List.init sz.restores (fun _ -> attempt restore) |> List.filter_map Fun.id in
  let reports = List.map (fun t -> t.report) ticks in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let nops = List.length ops.times in
  let tail_pct, op_e2e = op_metrics ops in
  let e2e =
    [
      ("setup_s", median (List.map (fun (_, (dt, _)) -> dt) starts));
      ("setup_warm_s", median (List.map fst restores));
      ("ops_per_s", ops_per_s ops ~units:!all_units);
      ("peak_rss_mb", peak_rss_mb ());
      ("congestion_mean", mean (List.map (fun (r : Serve.report) -> r.congestion) reports));
    ]
    @ op_e2e
  in
  let unroutable_frac =
    float_of_int (sum (fun r -> r.unroutable)) /. float_of_int (max 1 (sum (fun r -> r.active_pairs)))
  in
  let layers, self_times =
    if not cfg.trace then ([], [])
    else begin
      let arena = Path_system.arena (Serve.system srv0) in
      let ms_of ns = float_of_int ns /. 1e6 in
      let in_window t = t.report.tick >= fail_at && t.report.tick < repair_at in
      let mode m = List.length (List.filter (fun (r : Serve.report) -> r.mode = m) reports) in
      let serve_layers =
        [
          ("serve.solve_ms", median (List.map (fun r -> ms_of r.Serve.solve_ns) reports));
          ( "serve.admit_ms",
            median (List.map (fun r -> ms_of (r.Serve.tick_ns - r.Serve.solve_ns)) reports) );
          ( "serve.fault_window_p50_ms",
            median (List.filter_map (fun t -> if in_window t then Some t.ms else None) ticks) );
          ("serve.admitted", float_of_int (sum (fun r -> r.admitted)));
          ("serve.warm_solves", float_of_int (mode Serve.Warm));
          ("serve.cold_solves", float_of_int (mode Serve.Cold));
          ("serve.rerouted", float_of_int (sum (fun r -> r.rerouted)));
          ("checkpoint.restore_ms", median (layer_ms "checkpoint.restore"));
          ("checkpoint.bytes", float_of_int (String.length blob));
          ("core.paths_materialized", float_of_int (Arena.length arena));
          ("core.arena_bytes", float_of_int (Arena.memory_bytes arena));
        ]
      in
      let t, events =
        traced (fun () ->
            let srv, _ = Option.get (attempt start) in
            let t_ops = new_ops ~calibrate_every () in
            let t0 = now () in
            let ticks = replay t_ops ~first:false srv in
            let t1 = now () in
            ignore (attempt restore);
            { t_ops; t0; t1; t_units = units ticks })
      in
      let self = Trace.self_totals events in
      let admits, admit_total, _ = span_ms self "serve.admit" in
      ( serve_layers
        @ [ ("core.materialize_ms", admit_total /. float_of_int (max 1 admits)) ]
        @ per_op_counts ops
        @ obs_metrics events ~untraced:ops ~units:!all_units ~layer_names:[ "serve.step" ] t,
        self )
    end
  in
  {
    e2e;
    layers;
    samples =
      [
        ("setup_s", List.length starts);
        ("setup_warm_s", List.length restores);
        ("op_p50_ms", nops);
        ("op_tail_ms", nops);
        ("ops_per_s", !all_units);
        ("congestion_mean", List.length reports);
        ("passes", npasses);
      ];
    tail_pct;
    raw =
      raw_medians ops
        ~setup:(List.map (fun (_, (_, raw)) -> raw) starts)
        ~warm:(List.map snd restores);
    quality = [ ("unroutable_frac", unroutable_frac, "frac") ];
    self_times;
  }
