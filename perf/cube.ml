(* cube-ratio: the paper's evaluation loop on the 64-node hypercube.

   An α=6 sample of Valiant's routing is installed, then each demand —
   bit-reversal, transpose and random permutations, the KKT91-hard
   instances, scaled to 16 packets per pair — is evaluated end to end:
   materialize its pairs, solve Stage 4 on the sample, solve the offline
   optimum (Stage 5, the Dijkstra-oracle MWU that dominates the op),
   round to integral paths and push the packets through the simulator.
   It is the only workload that runs Stage 5 and the packet simulator. *)

module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Gen = Sso_graph.Gen
module Path = Sso_graph.Path
module Arena = Sso_graph.Arena
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Rounding = Sso_flow.Rounding
module Valiant = Sso_oblivious.Valiant
module Sampler = Sso_core.Sampler
module Path_system = Sso_core.Path_system
module Semi_oblivious = Sso_core.Semi_oblivious
module Simulator = Sso_sim.Simulator
module Codec = Sso_artifact.Codec
module Store = Sso_artifact.Store
module Memo = Sso_artifact.Memo
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace
open Harness

let alpha = 6
let packets_per_pair = 16.

type sizes = {
  dim : int;
  demands : int;
  setups : int;  (** cold set-ups per run *)
  warm_setups : int;
  nominal : float;  (** seconds per pass of all demands, reference speed *)
}

let full = { dim = 6; demands = 30; setups = 9; warm_setups = 15; nominal = 11. }
let small = { dim = 4; demands = 4; setups = 2; warm_setups = 2; nominal = 0.05 }

(* An evaluation takes about a third of a second: the kernel is timed
   three times before every op. *)
let calibrate_every = 1

(* No schedule beats the dilation, nor the packets crossing one edge in
   one direction divided by that edge's per-direction width — the
   simulator's service model. *)
let directed_lower_bound g (a : Rounding.assignment) =
  let loads = Hashtbl.create 256 and dil = ref 0 in
  Array.iter
    (fun (_, paths) ->
      Array.iter
        (fun (p : Path.t) ->
          dil := max !dil (Path.hops p);
          let vs = Path.vertices g p in
          Array.iteri
            (fun j e ->
              let key = (e, vs.(j)) in
              Hashtbl.replace loads key (1 + Option.value (Hashtbl.find_opt loads key) ~default:0))
            p.edges)
        paths)
    a;
  Hashtbl.fold
    (fun (e, _) c acc ->
      let width = max 1 (int_of_float (Float.floor (Graph.cap g e))) in
      max acc ((c + width - 1) / width))
    loads !dil

type eval = {
  congestion : float;
  ratio : float;
  makespan : int;
  packets : int;
  waits : int;
  max_queue : int;
  below_sim_bound : bool;
}

let run cfg =
  let sz = if cfg.small then small else full in
  let g = Gen.hypercube sz.dim in
  let n = Graph.n g in
  let master = Rng.create cfg.seed in
  let demand_rng = Rng.split_at master 2 in
  let demands =
    Array.init sz.demands (fun i ->
        let d =
          match i with
          | 0 -> Demand.bit_reversal sz.dim
          | 1 -> Demand.transpose sz.dim
          | i -> Demand.random_permutation (Rng.split_at demand_rng i) n
        in
        Demand.scale packets_per_pair d)
  in
  let pairs =
    Array.to_list demands |> List.concat_map Demand.support |> List.sort_uniq compare
  in
  let sample_rng () = Rng.split_at master 1 in
  let setup () =
    Gc.compact ();
    let ps, dt, raw =
      timed_setup (fun () ->
          let ps = Sampler.alpha_sample (sample_rng ()) (Valiant.routing g) ~alpha in
          layer "core.materialize" (fun () -> Path_system.materialize ps pairs);
          ps)
    in
    expect "every demanded pair has 1..alpha candidates"
      (List.for_all
         (fun (s, t) ->
           let c = Path_system.slice_count ps s t in
           c >= 1 && c <= alpha)
         pairs);
    (ps, (dt, raw))
  in
  let colds = List.init sz.setups (fun _ -> attempt setup) |> List.filter_map Fun.id in
  let ps, _ = List.nth colds (List.length colds - 1) in
  (* Warm set-up: the sampled candidate sets persisted through
     Memo.alpha_sample and preloaded from the store. *)
  let store = Store.open_ ~dir:(Filename.concat cfg.tmp_dir "store") () in
  let base_key = Printf.sprintf "valiant-hypercube-%d" sz.dim in
  let memo_sample () =
    Memo.alpha_sample ~store ~base_key (sample_rng ()) (Valiant.routing g) ~alpha ~pairs
  in
  ignore (memo_sample ());
  let hits = Obs.counter "artifact.hit" in
  let warm () =
    Gc.compact ();
    let h0 = Obs.counter_value hits in
    let wps, dt, raw =
      timed_setup (fun () ->
          let wps = memo_sample () in
          Path_system.materialize wps pairs;
          wps)
    in
    expect "warm set-up hits the store" (Obs.counter_value hits = h0 + 1);
    expect "warm candidates equal the cold ones"
      (List.for_all
         (fun (s, t) -> List.equal Path.equal (Path_system.paths ps s t) (Path_system.paths wps s t))
         pairs);
    (dt, raw)
  in
  let warms = List.init sz.warm_setups (fun _ -> attempt warm) |> List.filter_map Fun.id in
  reset_layers ();
  let round_rng = Rng.split_at master 3 and rank_rng = Rng.split_at master 4 in
  let first = Array.make (Array.length demands) None in
  let evaluate ops ~first:first_pass i d =
    attempt (fun () ->
        let r, c, o, a, outcome =
          time_op ops ~first:first_pass (fun () ->
              layer "core.materialize" (fun () -> Path_system.materialize ps (Demand.support d));
              let r, c = layer "flow.stage4" (fun () -> Semi_oblivious.route g ps d) in
              let o = layer "flow.stage5" (fun () -> Semi_oblivious.opt g d) in
              let a = layer "flow.rounding" (fun () -> Rounding.round (Rng.split_at round_rng i) r d) in
              let outcome =
                layer "sim.run" (fun () ->
                    Simulator.run ~discipline:(Simulator.Random_rank (Rng.split_at rank_rng i)) g a)
              in
              (r, c, o, a, outcome))
        in
        expect "routing covers its demand" (Routing.covers r d);
        expect "congestion recomputes" (close_to c (Routing.congestion g r d));
        let packets = Array.fold_left (fun acc (_, ps) -> acc + Array.length ps) 0 a in
        let st = Simulator.value outcome in
        (match outcome with
        | Simulator.Completed _ -> ()
        | Simulator.Out_of_budget _ -> expect "simulation completes" false);
        expect "every packet delivered" (st.delivered = packets);
        expect "makespan >= the directed lower bound" (st.makespan >= directed_lower_bound g a);
        let e =
          {
            congestion = c;
            ratio = c /. o;
            makespan = st.makespan;
            packets;
            waits = st.total_waits;
            max_queue = st.max_queue;
            below_sim_bound = st.makespan < Simulator.lower_bound g a;
          }
        in
        match first.(i) with
        | None -> first.(i) <- Some e
        | Some e0 -> expect "evaluation repeats on every pass" (e = e0))
    |> ignore
  in
  Gc.compact ();
  let ops = new_ops ~kernels:3 ~calibrate_every () in
  let npasses =
    passes ~seconds:cfg.seconds ~nominal:sz.nominal (fun p ->
        Array.iteri (evaluate ops ~first:(p = 0)) demands)
  in
  let evals = Array.to_list first |> List.filter_map Fun.id in
  let avg f = mean (List.map f evals) in
  let nops = List.length ops.times in
  let tail_pct, op_e2e = op_metrics ops in
  let e2e =
    [
      ("setup_s", median (List.map (fun (_, (dt, _)) -> dt) colds));
      ("setup_warm_s", median (List.map fst warms));
      ("ops_per_s", ops_per_s ops ~units:nops);
      ("peak_rss_mb", peak_rss_mb ());
      ("congestion_mean", avg (fun e -> e.congestion));
    ]
    @ op_e2e
  in
  let layers, self_times =
    if not cfg.trace then ([], [])
    else begin
      let arena = Path_system.arena ps in
      let op_layers =
        [
          ("core.materialize_ms", median (layer_ms "core.materialize"));
          ("core.paths_materialized", float_of_int (Arena.length arena));
          ("core.arena_bytes", float_of_int (Arena.memory_bytes arena));
          ("flow.stage4_ms", median (layer_ms "flow.stage4"));
          ("flow.stage5_ms", median (layer_ms "flow.stage5"));
          ("flow.rounding_ms", median (layer_ms "flow.rounding"));
          ("sim.run_ms", median (layer_ms "sim.run"));
          ("sim.packets", avg (fun e -> float_of_int e.packets));
          ("sim.total_waits", avg (fun e -> float_of_int e.waits));
          ("sim.max_queue", avg (fun e -> float_of_int e.max_queue));
        ]
      in
      let t, events =
        traced (fun () ->
            ignore (attempt setup);
            ignore (attempt warm);
            let t_ops = new_ops ~kernels:3 ~calibrate_every () in
            let t0 = now () in
            Array.iteri (evaluate t_ops ~first:false) demands;
            { t_ops; t0; t1 = now (); t_units = Array.length demands })
      in
      ( op_layers @ per_op_counts ops
        @ obs_metrics events ~untraced:ops ~units:nops
            ~layer_names:[ "core.materialize"; "flow.stage4"; "flow.stage5"; "flow.rounding"; "sim.run" ]
            t,
        Trace.self_totals events )
    end
  in
  {
    e2e;
    layers;
    samples =
      [
        ("setup_s", List.length colds);
        ("setup_warm_s", List.length warms);
        ("op_p50_ms", nops);
        ("op_tail_ms", nops);
        ("ops_per_s", nops);
        ("congestion_mean", List.length evals);
        ("passes", npasses);
      ];
    tail_pct;
    raw =
      raw_medians ops
        ~setup:(List.map (fun (_, (_, raw)) -> raw) colds)
        ~warm:(List.map snd warms);
    quality =
      [
        ("ratio_mean", avg (fun e -> e.ratio), "ratio");
        ("makespan_mean", avg (fun e -> float_of_int e.makespan), "steps");
        ( "makespan_below_sim_lower_bound",
          float_of_int (List.length (List.filter (fun e -> e.below_sim_bound) evals)),
          "count" );
      ];
    self_times;
  }
