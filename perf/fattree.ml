(* fattree-install: install a sparse semi-oblivious path system on a k=24
   data-center fat-tree, then solve a stream of demands on it.

   Install is what an operator pays once: a Räcke/FRT tree mixture, an
   α=4 sample from it, and the materialization of every pair the demands
   use.  It is the only workload that runs the Räcke construction and a
   bulk arena fill.  After install, each demand among the edge switches is
   solved with the default cold Stage-4 MWU (300 rounds).  The warm
   install rebuilds the same state from the forest persisted by the cold
   one. *)

module Rng = Sso_prng.Rng
module Gen = Sso_graph.Gen
module Arena = Sso_graph.Arena
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Racke = Sso_oblivious.Racke
module Frt = Sso_oblivious.Frt
module Sampler = Sso_core.Sampler
module Path_system = Sso_core.Path_system
module Semi_oblivious = Sso_core.Semi_oblivious
module Codec = Sso_artifact.Codec
module Store = Sso_artifact.Store
module Memo = Sso_artifact.Memo
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace
open Harness

let alpha = 4

type sizes = {
  k : int;
  perms : int;  (** partial permutation demands *)
  perm_pairs : int;  (** pairs per permutation demand *)
  hotspots : int;  (** incast demands *)
  hot_senders : int;
  installs : int;  (** cold installs per run *)
  warm_installs : int;
  nominal : float;  (** seconds per pass of all demands, reference speed *)
}

let full =
  { k = 24; perms = 92; perm_pairs = 16; hotspots = 8; hot_senders = 16;
    installs = 3; warm_installs = 25; nominal = 4. }

let small =
  { k = 4; perms = 4; perm_pairs = 4; hotspots = 1; hot_senders = 3;
    installs = 2; warm_installs = 2; nominal = 0.05 }

(* A solve takes about 40 ms: the kernel is re-timed every other op. *)
let calibrate_every = 2

(* Edge switches of [Gen.fat_tree k]: cores first, then per pod k/2
   aggregation and k/2 edge switches. *)
let edge_switches k =
  let half = k / 2 in
  Array.init (k * half) (fun i -> (k * k / 4) + (i / half * k) + half + (i mod half))

(* A random permutation of the switches, restricted to [pairs] random
   senders (fixed points skipped). *)
let partial_permutation rng sw pairs =
  let n = Array.length sw in
  let perm = Rng.permutation rng n and order = Rng.permutation rng n in
  let picked = ref [] and taken = ref 0 in
  Array.iter
    (fun i ->
      if !taken < pairs && perm.(i) <> i then begin
        picked := (sw.(i), sw.(perm.(i)), 1.) :: !picked;
        incr taken
      end)
    order;
  Demand.of_list !picked

let hotspot rng sw senders =
  let n = Array.length sw in
  let order = Rng.permutation rng n in
  let target = sw.(order.(0)) in
  Demand.of_list (List.init senders (fun i -> (sw.(order.(i + 1)), target, 1.)))

let demands sz rng =
  let sw = edge_switches sz.k in
  Array.append
    (Array.init sz.perms (fun i -> partial_permutation (Rng.split_at rng i) sw sz.perm_pairs))
    (Array.init sz.hotspots (fun i -> hotspot (Rng.split_at rng (sz.perms + i)) sw sz.hot_senders))

let run cfg =
  let sz = if cfg.small then small else full in
  let g = Gen.fat_tree sz.k in
  let master = Rng.create cfg.seed in
  let forest_rng () = Rng.split_at master 0 in
  let demands = demands sz (Rng.split_at master 2) in
  let pairs =
    Array.to_list demands |> List.concat_map Demand.support |> List.sort_uniq compare
  in
  (* Pairs are materialized in chunks, each a set-up step of its own
     (Harness.timed_steps); generation order, and so the arena, is the
     same as one call over all pairs. *)
  let chunks =
    List.init
      ((List.length pairs + 99) / 100)
      (fun c -> List.filteri (fun i _ -> i / 100 = c) pairs)
  in
  let install { step } forest =
    let ps =
      step (fun () -> Sampler.alpha_sample (Rng.split_at master 1) (Racke.of_forest g forest) ~alpha)
    in
    let ms =
      List.fold_left
        (fun acc chunk ->
          acc
          +. step (fun () ->
                 let t0 = now () in
                 span "core.materialize" (fun () -> Path_system.materialize ps chunk);
                 ms_since t0 *. host_scale ()))
        0. chunks
    in
    record_layer "core.materialize" ms;
    ps
  in
  let check_install ps =
    expect "every demanded pair has 1..alpha candidates"
      (List.for_all
         (fun (s, t) ->
           let c = Path_system.slice_count ps s t in
           c >= 1 && c <= alpha)
         pairs)
  in
  let cold () =
    Gc.compact ();
    let (forest, alloc, ps), dt, raw =
      timed_steps (fun s ->
          let forest, alloc =
            s.step (fun () ->
                let w0 = Gc.minor_words () in
                let forest =
                  layer "oblivious.racke_forest" (fun () -> Racke.forest (forest_rng ()) g)
                in
                (forest, Gc.minor_words () -. w0))
          in
          (forest, alloc, install s forest))
    in
    check_install ps;
    (forest, ps, (dt, raw), alloc)
  in
  let store = Store.open_ ~dir:(Filename.concat cfg.tmp_dir "store") () in
  let hits = Obs.counter "artifact.hit" in
  let warm () =
    let h0 = Obs.counter_value hits in
    let ps, dt, raw =
      timed_steps (fun s ->
          install s
            (s.step (fun () ->
                 layer "artifact.forest_load" (fun () -> Memo.racke_forest ~store (forest_rng ()) g))))
    in
    expect "warm install hits the store" (Obs.counter_value hits = h0 + 1);
    check_install ps;
    (ps, (dt, raw))
  in
  (* Set-up: cold installs, then the forest of the last one persisted the
     way Memo.racke_forest stores it, then warm installs from the store. *)
  let colds = List.init sz.installs (fun _ -> attempt cold) |> List.filter_map Fun.id in
  let forest, ps, _, alloc = List.nth colds (List.length colds - 1) in
  let payload = Codec.encode_forest (List.map Frt.to_parts forest) in
  Store.put store (Memo.racke_recipe ~rng:(forest_rng ()) g) payload;
  (* Every warm install is the same; the first one's system is kept for
     the congestion check. *)
  Gc.compact ();
  let first_warm = attempt warm in
  let warm_ps = Option.map fst first_warm in
  let warms =
    Option.map snd first_warm
    :: List.init (sz.warm_installs - 1) (fun _ -> Option.map snd (attempt warm))
    |> List.filter_map Fun.id
  in
  let setup_layers =
    [
      ("oblivious.racke_forest_ms", median (layer_ms "oblivious.racke_forest"));
      ("oblivious.alloc_mw", alloc /. 1e6);
      ("artifact.forest_load_ms", median (layer_ms "artifact.forest_load"));
      ("artifact.forest_bytes", float_of_int (String.length payload));
      ("core.materialize_ms", median (layer_ms "core.materialize"));
      ("core.paths_materialized", float_of_int (Arena.length (Path_system.arena ps)));
      ("core.arena_bytes", float_of_int (Arena.memory_bytes (Path_system.arena ps)));
    ]
  in
  reset_layers ();
  (* Ops: every demand solved once per pass. *)
  let cong = Array.make (Array.length demands) Float.nan in
  let solve ops ~first ps i d =
    attempt (fun () ->
        let r, c =
          time_op ops ~first (fun () ->
              layer "flow.stage4" (fun () -> Semi_oblivious.route g ps d))
        in
        expect "routing covers its demand" (Routing.covers r d);
        expect "congestion recomputes" (close_to c (Routing.congestion g r d));
        if Float.is_nan cong.(i) then cong.(i) <- c
        else expect "congestion repeats on every solve" (c = cong.(i)))
    |> ignore
  in
  Gc.compact ();
  let ops = new_ops ~calibrate_every () in
  let npasses =
    passes ~seconds:cfg.seconds ~nominal:sz.nominal (fun p ->
        Array.iteri (solve ops ~first:(p = 0) ps) demands)
  in
  (* The warm install must serve the same congestions as the cold one. *)
  Option.iter
    (fun wps ->
      Array.iteri (fun i d -> if i < 3 then solve (new_ops ~calibrate_every ()) ~first:false wps i d) demands)
    warm_ps;
  let nops = List.length ops.times in
  let tail_pct, op_e2e = op_metrics ops in
  let e2e =
    [
      ("setup_s", median (List.map (fun (_, _, (dt, _), _) -> dt) colds));
      ("setup_warm_s", median (List.map fst warms));
      ("ops_per_s", ops_per_s ops ~units:nops);
      ("peak_rss_mb", peak_rss_mb ());
      ("congestion_mean", mean (Array.to_list cong));
    ]
    @ op_e2e
  in
  let layers, self_times =
    if not cfg.trace then ([], [])
    else begin
      let t, events =
        traced (fun () ->
            let _ = cold () in
            let _ = warm () in
            let t_ops = new_ops ~calibrate_every () in
            let t0 = now () in
            Array.iteri (solve t_ops ~first:false ps) demands;
            { t_ops; t0; t1 = now (); t_units = Array.length demands })
      in
      let self = Trace.self_totals events in
      let _, frt_total, _ = span_ms self "frt.build" in
      let _, _, racke_self = span_ms self "racke.build" in
      ( setup_layers
        @ [
            ("oblivious.frt_build_ms", frt_total);
            ("oblivious.racke_self_ms", racke_self);
            ("flow.stage4_ms", median (layer_ms "flow.stage4"));
          ]
        @ per_op_counts ops
        @ obs_metrics events ~untraced:ops ~units:nops ~layer_names:[ "flow.stage4" ] t,
        self )
    end
  in
  let n_demands = Array.length demands in
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
        ("congestion_mean", n_demands);
        ("passes", npasses);
      ];
    tail_pct;
    raw =
      raw_medians ops
        ~setup:(List.map (fun (_, _, (_, raw), _) -> raw) colds)
        ~warm:(List.map snd warms);
    quality = [];
    self_times;
  }
