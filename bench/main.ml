(* Experiment harness: regenerates every quantitative claim of the paper
   (the experiments E1–E20 indexed in PAPER_MAP.md and EXPERIMENTS.md).
   Performance is measured by the pipeline benchmark under perf/.  The
   flags are the [specs] table at the bottom
   ([dune exec bench/main.exe -- --help]). *)

module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Gen = Sso_graph.Gen
module Maxflow = Sso_graph.Maxflow
module Demand = Sso_demand.Demand
module Routing = Sso_flow.Routing
module Min_congestion = Sso_flow.Min_congestion
module Rounding = Sso_flow.Rounding
module Oblivious = Sso_oblivious.Oblivious
module Valiant = Sso_oblivious.Valiant
module Deterministic = Sso_oblivious.Deterministic
module Ksp = Sso_oblivious.Ksp
module Sampler = Sso_core.Sampler
module Path_system = Sso_core.Path_system
module Semi_oblivious = Sso_core.Semi_oblivious
module Integral = Sso_core.Integral
module Completion = Sso_core.Completion
module Lower_bound = Sso_core.Lower_bound
module Stats = Sso_stats.Stats
module Pool = Sso_engine.Pool
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace
module File = Sso_obs.File
module Json = Trace.Json
module Codec = Sso_artifact.Codec
module Store = Sso_artifact.Store
module Memo = Sso_artifact.Memo

(* --seed S reseeds every experiment: each formerly hard-coded seed
   constant [k] becomes the [k]-th child of the master seed, so tables
   stay reproducible per seed without sharing streams across sites. *)
let master_seed = ref 0
let seeded k = Sso_prng.Rng.split_at (Sso_prng.Rng.create !master_seed) k

(* --cache/--cache-dir back the expensive constructions with the artifact
   store; off by default so plain runs leave no files behind.  The cached
   objects round-trip bit-exactly, so warm output is byte-identical to
   cold output for any seed and job count. *)
let store : Store.t option ref = ref None
let racke_routing rng g = Memo.racke ?store:!store rng g

(* --json: named result scalars accumulated by the experiments. *)
let scalars : (string * float) list ref = ref []
let scalar name v = scalars := !scalars @ [ (name, v) ]

(* --no-timing: tables print "-" for their wall-clock columns, so two
   runs print the same bytes. *)
let no_timing = ref false

let header title =
  Printf.printf "\n=== %s ===\n" title

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

(* Solver iteration counts, balanced for harness runtime. *)
let stage4 = Semi_oblivious.Mwu 200
let opt_solver = Semi_oblivious.Mwu 150

(* --big widens the instance ranges (larger hypercubes/grids); default
   keeps the full harness under ~20 s. *)
let big_scale = ref false

(* Competitive ratios: [over_opt g demands] solves each demand's Stage-5
   optimum once, and the function it returns divides a scheme's
   congestions on [demands] (in the same order) by them. *)
let over_opt g demands =
  let opts = Pool.parallel_list_map (Semi_oblivious.opt ~solver:opt_solver g) demands in
  fun congestions -> List.map2 ( /. ) congestions opts

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 2.3: Θ(log n)-sparse samples are polylog-competitive on
   {0,1}-demands, across topologies and sizes. *)

let e1 () =
  header "E1  Theorem 2.3: log-sparsity, polylog competitiveness";
  Printf.printf "%-18s %5s %5s %3s | %10s %10s %10s\n" "graph" "n" "m" "a"
    "median" "max" "oblivious";
  let trials = 3 in
  let run name g base =
    let n = Graph.n g in
    let alpha = log2_ceil n in
    let rng = seeded 11 in
    let system = Sampler.alpha_sample (Rng.split rng) base ~alpha in
    let trial_rng = Rng.split rng in
    let demands =
      List.init trials (fun i -> Demand.random_permutation (Rng.split_at trial_rng i) n)
    in
    let ratio = over_opt g demands in
    let arr =
      Array.of_list
        (ratio (Pool.parallel_list_map (Semi_oblivious.congestion ~solver:stage4 g system) demands))
    in
    let obl = Array.of_list (ratio (List.map (Oblivious.congestion base) demands)) in
    let med = Stats.median arr in
    scalar (Printf.sprintf "E1.%s.median" name) med;
    Printf.printf "%-18s %5d %5d %3d | %10.2f %10.2f %10.2f\n" name n
      (Graph.m g) alpha med (Stats.max_value arr)
      (Stats.max_value obl)
  in
  List.iter
    (fun d -> run (Printf.sprintf "hypercube-%d" d) (Gen.hypercube d)
        (Valiant.routing (Gen.hypercube d)))
    (if !big_scale then [ 4; 5; 6; 7; 8 ] else [ 4; 5; 6; 7 ]);
  let rng = seeded 5 in
  let expander_n = if !big_scale then 64 else 32 in
  let expander = Gen.random_regular (Rng.split rng) expander_n 4 in
  run (Printf.sprintf "expander-%d" expander_n) expander
    (racke_routing (Rng.split rng) expander);
  let side = if !big_scale then 8 else 6 in
  let grid = Gen.grid side side in
  run (Printf.sprintf "grid-%dx%d" side side) grid (racke_routing (Rng.split rng) grid);
  Printf.printf
    "shape: ratios stay O(polylog) as n grows (16x range); the full\n";
  Printf.printf "oblivious routing is never much better than the sparse sample.\n"

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 2.5: every additional sampled path improves the
   competitiveness polynomially (the power of a few random choices). *)

let e2 () =
  header "E2  Theorem 2.5: competitiveness improves exponentially with alpha";
  let dim = 6 in
  let g = Gen.hypercube dim in
  let base = Valiant.routing g in
  let rng = seeded 17 in
  let demands =
    Demand.bit_reversal dim :: Demand.transpose dim
    :: List.init 3 (fun _ -> Demand.random_permutation (Rng.split rng) (Graph.n g))
  in
  let ratio = over_opt g demands in
  Printf.printf "hypercube-%d, worst over bit-reversal/transpose/3 random perms\n" dim;
  Printf.printf "%5s | %12s %12s\n" "alpha" "worst cong" "worst ratio";
  let worst = List.fold_left Float.max 0.0 in
  List.iter
    (fun alpha ->
      let system = Sampler.alpha_sample (seeded (1000 + alpha)) base ~alpha in
      let congs = List.map (Semi_oblivious.congestion ~solver:stage4 g system) demands in
      Printf.printf "%5d | %12.2f %12.2f\n" alpha (worst congs) (worst (ratio congs)))
    [ 1; 2; 3; 4; 6; 8 ];
  Printf.printf "shape: steep improvement from alpha=1 to 2-4, then flattening\n";
  Printf.printf "near the optimum -- n^O(1/alpha) as claimed.\n"

(* ------------------------------------------------------------------ *)
(* E3 — Figure 1 + Lemmas 8.1/8.2/Cor 8.3: the lower-bound gadget. *)

let e3 () =
  header "E3  Figure 1 / Section 8: lower bound on C(n,k)";
  Printf.printf "fixed gadget C(12,6), adversary vs alpha-samples of KSP-12:\n";
  Printf.printf "%5s | %8s %10s %10s %10s\n" "alpha" "|S'|" "certified"
    "measured" "k/alpha";
  let n = 12 and k = 6 in
  let c = Gen.c_graph n k in
  Array.iter print_string
  @@ Pool.parallel_map
       (fun alpha ->
         let rng = seeded (300 + alpha) in
         let base = Ksp.routing ~k:(2 * k) c.Gen.c_graph in
         let system = Sampler.alpha_sample rng base ~alpha in
         let attack = Lower_bound.attack c system in
         let measured =
           Semi_oblivious.congestion ~solver:Semi_oblivious.Lp c.Gen.c_graph system
             attack.Lower_bound.demand
         in
         Printf.sprintf "%5d | %8d %10.2f %10.2f %10.2f\n" alpha
           (List.length attack.Lower_bound.bottleneck)
           attack.Lower_bound.predicted_congestion measured
           (float_of_int k /. float_of_int alpha))
       [| 1; 2; 3; 4 |];
  Printf.printf "\nscaling n with k = floor(sqrt n), alpha = 1 (Cor 8.3 regime):\n";
  Printf.printf "%5s %5s | %10s %10s\n" "n" "k" "certified" "measured";
  Array.iter print_string
  @@ Pool.parallel_map
       (fun n ->
         let k = int_of_float (Float.sqrt (float_of_int n)) in
         let c = Gen.c_graph n k in
         let rng = seeded (400 + n) in
         let base = Ksp.routing ~k:(2 * k) c.Gen.c_graph in
         let system = Sampler.alpha_sample rng base ~alpha:1 in
         let attack = Lower_bound.attack c system in
         let measured =
           Semi_oblivious.congestion ~solver:Semi_oblivious.Lp c.Gen.c_graph system
             attack.Lower_bound.demand
         in
         Printf.sprintf "%5d %5d | %10.2f %10.2f\n" n k
           attack.Lower_bound.predicted_congestion measured)
       [| 9; 16; 25; 36 |];
  Printf.printf "\ncomposite family graph G(16) (Lemma 8.2): attack the copy\n";
  Printf.printf "matching each alpha inside the same fixed graph:\n";
  Printf.printf "%5s | %10s %10s\n" "alpha" "certified" "measured";
  let gg = Gen.g_graph 16 in
  Array.iter print_string
  @@ Pool.parallel_map
       (fun alpha ->
         let rng = seeded (450 + alpha) in
         let base = Ksp.routing ~k:8 gg.Gen.g_graph in
         let system = Sampler.alpha_sample rng base ~alpha in
         let attack = Lower_bound.attack_in_family gg ~alpha system in
         let measured =
           Semi_oblivious.congestion ~solver:Semi_oblivious.Lp gg.Gen.g_graph system
             attack.Lower_bound.demand
         in
         Printf.sprintf "%5d | %10.2f %10.2f\n" alpha
           attack.Lower_bound.predicted_congestion measured)
       [| 1; 2 |];
  Printf.printf "shape: certified = measured >= k/alpha; optimum is always 1.\n"

(* ------------------------------------------------------------------ *)
(* E4 — The KKT91 barrier and its bypass (deterministic routing). *)

let e4 () =
  header "E4  KKT91: deterministic e-cube vs Valiant vs sparse semi-oblivious";
  Printf.printf "%-12s | %10s %10s %14s %14s\n" "graph" "e-cube" "Valiant"
    "semi (a=logn)" "sqrt(n)";
  List.iter
    (fun dim ->
      let g = Gen.hypercube dim in
      let d = Demand.bit_reversal dim in
      let ecube = Oblivious.congestion (Deterministic.ecube g) d in
      let valiant_routing = Valiant.routing g in
      let valiant = Oblivious.congestion valiant_routing d in
      let alpha = dim in
      let system = Sampler.alpha_sample (seeded 77) valiant_routing ~alpha in
      let semi = Semi_oblivious.congestion ~solver:stage4 g system d in
      Printf.printf "%-12s | %10.2f %10.2f %14.2f %14.1f\n"
        (Printf.sprintf "hypercube-%d" dim)
        ecube valiant semi
        (Float.sqrt (float_of_int (Graph.n g))))
    [ 4; 6; 8 ];
  Printf.printf
    "shape: e-cube grows like sqrt(n) (the KKT91 lower bound); the\n";
  Printf.printf
    "deterministically-selected log n sampled paths stay near-optimal.\n"

(* ------------------------------------------------------------------ *)
(* E5 — SMORE (KYY+18): alpha = 4 is a sweet spot on WAN + gravity. *)

let e5 () =
  header "E5  SMORE: traffic engineering on Abilene with gravity matrices";
  let rng = seeded 7 in
  let g, _ = Gen.abilene () in
  let racke_rng = Rng.split rng in
  (* Taken before the construction consumes the generator: names the base
     routing inside α-sample cache keys. *)
  let racke_key = Codec.hex_of_key (Store.key (Memo.racke_recipe ~rng:racke_rng g)) in
  let racke = racke_routing racke_rng g in
  let ksp4 = Ksp.routing ~k:4 g in
  let matrices =
    List.init 5 (fun _ -> Demand.gravity (Rng.split rng) ~n:(Graph.n g) ~total:60.0)
  in
  let pairs = List.sort_uniq compare (List.concat_map Demand.support matrices) in
  let ratio = over_opt g matrices in
  Printf.printf "%-26s %12s %12s\n" "scheme" "mean ratio" "max ratio";
  let report name congestion =
    let arr = Array.of_list (ratio (List.map congestion matrices)) in
    let mean = Stats.mean arr and worst = Stats.max_value arr in
    scalar (Printf.sprintf "E5.%s.mean" name) mean;
    scalar (Printf.sprintf "E5.%s.max" name) worst;
    Printf.printf "%-26s %12.3f %12.3f\n" name mean worst
  in
  report "KSP-4 (traditional TE)" (Oblivious.congestion ksp4);
  report "oblivious (Racke full)" (Oblivious.congestion racke);
  List.iter
    (fun alpha ->
      let system =
        Memo.alpha_sample ?store:!store ~base_key:racke_key
          (seeded (500 + alpha))
          racke ~alpha ~pairs
      in
      report
        (Printf.sprintf "semi-oblivious a=%d" alpha)
        (Semi_oblivious.congestion ~solver:stage4 g system))
    [ 1; 2; 4; 8 ];
  Printf.printf "shape: a=4 already tracks the optimum (SMORE's empirical pick);\n";
  Printf.printf "a=1 pays for obliviousness, KSP ignores capacity structure.\n"

(* ------------------------------------------------------------------ *)
(* E6 — Section 2.1: why (alpha + cut) sparsity is necessary for
   arbitrary demands (the two-clique example), Lemma 2.7 regime. *)

let e6 () =
  header "E6  two cliques: alpha-samples vs (alpha+cut)-samples on heavy pairs";
  let n = 8 in
  let g = Gen.two_cliques n in
  let s = 0 and t = (2 * n) - 1 in
  let d = Demand.single_pair s t (float_of_int n) in
  let rng = seeded 23 in
  let base = racke_routing (Rng.split rng) g in
  let opt = (Min_congestion.lp_unrestricted g d).congestion in
  Printf.printf "graph: two %d-cliques + %d bridges; demand: %d units %d->%d\n" n n n s t;
  Printf.printf "cut_G(s,t) = %d, offline optimum = %.3f\n\n" (Maxflow.cut g s t) opt;
  Printf.printf "%-24s %10s %12s %10s\n" "system" "paths" "congestion" "ratio";
  List.iter
    (fun alpha ->
      let plain = Sampler.alpha_sample (Rng.split rng) base ~alpha in
      let with_cut = Sampler.alpha_cut_sample (Rng.split rng) base ~alpha in
      let report name system =
        let cong = Semi_oblivious.congestion ~solver:Semi_oblivious.Lp g system d in
        Printf.printf "%-24s %10d %12.3f %10.2f\n" name
          (List.length (Path_system.paths system s t))
          cong (cong /. opt)
      in
      report (Printf.sprintf "alpha-sample (a=%d)" alpha) plain;
      report (Printf.sprintf "(a+cut)-sample (a=%d)" alpha) with_cut)
    [ 1; 3 ];
  Printf.printf "shape: without the cut term the single heavy pair is stuck on\n";
  Printf.printf "<= alpha paths (congestion >= n/alpha x opt); with it, near 1.\n"

(* ------------------------------------------------------------------ *)
(* E7 — Section 7 / Lemma 2.8: completion time needs hop awareness. *)

let e7 () =
  header "E7  completion time: congestion-only vs hop-aware Stage 4";
  let detours = 6 and detour_len = 12 in
  let g = Gen.multi_path (1 :: List.init detours (fun _ -> detour_len)) in
  Printf.printf "network: 1 direct link + %d disjoint %d-hop detours\n" detours detour_len;
  let rng = seeded 11 in
  let system = Completion.ladder_system rng g ~alpha:3 in
  Printf.printf "%8s | %21s | %21s\n" "packets" "cong-only  (c, d, c+d)"
    "hop-aware  (c, d, c+d)";
  List.iter
    (fun packets ->
      let d = Demand.single_pair 0 1 (float_of_int packets) in
      let r, c_only = Semi_oblivious.route ~solver:stage4 g system d in
      let d_only = Routing.dilation r d in
      let _, c_aware, d_aware = Completion.route ~solver:stage4 g system d in
      Printf.printf "%8d | %6.2f %4d %8.2f | %6.2f %4d %8.2f\n" packets c_only
        d_only
        (c_only +. float_of_int d_only)
        c_aware d_aware
        (c_aware +. float_of_int d_aware))
    [ 1; 2; 4; 8; 16; 32 ];
  Printf.printf "shape: congestion-only pays the %d-hop dilation even for one\n" detour_len;
  Printf.printf "packet; hop-aware crosses over only when demand warrants it.\n"

(* ------------------------------------------------------------------ *)
(* E8 — Lemma 6.3 / Corollary 6.4: integral rounding quality. *)

let e8 () =
  header "E8  rounding: cong_Z <= 2 cong_R + 3 ln m (Lemma 6.3)";
  let rng = seeded 31 in
  Printf.printf "%8s %6s | %10s %10s %10s %8s\n" "instance" "m" "frac"
    "integral" "bound" "ok";
  let rows =
    Pool.parallel_init 8 (fun idx ->
        let i = idx + 1 in
        let trial = Rng.split_at rng i in
        let g = Gen.erdos_renyi (Rng.split trial) 14 0.3 in
        let d = Demand.random_pairs (Rng.split trial) ~n:14 ~pairs:6 in
        let base = Ksp.routing ~k:3 g in
        let system = Sampler.alpha_sample (Rng.split trial) base ~alpha:3 in
        let frac = Semi_oblivious.congestion ~solver:Semi_oblivious.Lp g system d in
        let _, integral = Integral.congestion_upper ~solver:Semi_oblivious.Lp ~tries:20 (Rng.split trial) g system d in
        let bound = (2.0 *. frac) +. (3.0 *. Float.log (float_of_int (Graph.m g))) in
        let row =
          Printf.sprintf "%8d %6d | %10.3f %10.3f %10.3f %8b\n" i (Graph.m g)
            frac integral bound
            (integral <= bound +. 1e-9)
        in
        (row, integral -. frac))
  in
  Array.iter (fun (row, _) -> print_string row) rows;
  let worst_gap = Array.fold_left (fun acc (_, gap) -> Float.max acc gap) 0.0 rows in
  Printf.printf "worst additive integrality gap observed: %.3f\n" worst_gap;
  Printf.printf "shape: every instance satisfies the Lemma 6.3 bound, with the\n";
  Printf.printf "local search keeping the real gap far below it.\n"

(* ------------------------------------------------------------------ *)
(* E9 — Section 1.1: oblivious routings need large support; semi-oblivious
   reaches the same quality at O(log n) paths. *)

let e9 () =
  header "E9  sparsity vs competitiveness: oblivious support is the bottleneck";
  let dim = 6 in
  let g = Gen.hypercube dim in
  let valiant = Valiant.routing g in
  let rng = seeded 13 in
  let demands =
    List.init 3 (fun _ -> Demand.random_permutation (Rng.split rng) (Graph.n g))
  in
  let ratio = over_opt g demands in
  Printf.printf "hypercube-%d, worst ratio over 3 random permutations\n" dim;
  Printf.printf "%-30s %10s %12s\n" "scheme" "paths/pair" "worst ratio";
  let report name sparsity congestion =
    Printf.printf "%-30s %10d %12.2f\n" name sparsity
      (List.fold_left Float.max 0.0 (ratio (List.map congestion demands)))
  in
  report "e-cube (oblivious, 1 path)" 1 (Oblivious.congestion (Deterministic.ecube g));
  List.iter
    (fun alpha ->
      let system = Sampler.alpha_sample (seeded (900 + alpha)) valiant ~alpha in
      report
        (Printf.sprintf "semi-oblivious sample a=%d" alpha)
        alpha
        (Semi_oblivious.congestion ~solver:stage4 g system))
    [ 2; 4; 6 ];
  let sample_pairs = List.concat_map Demand.support demands in
  report "Valiant (oblivious, full)"
    (Oblivious.support_sparsity valiant sample_pairs)
    (Oblivious.congestion valiant);
  Printf.printf "shape: the oblivious routing needs Theta(n) support for its\n";
  Printf.printf "quality; a few adaptive paths already match it.\n"

(* ------------------------------------------------------------------ *)
(* E10 — grounding the objective: simulated store-and-forward delivery
   time tracks congestion + dilation [LMR94], which is why Section 7's
   objective is the right proxy for completion time. *)

let e10 () =
  header "E10 packet simulation: makespan tracks congestion + dilation";
  let module Simulator = Sso_sim.Simulator in
  let dim = 6 in
  let g = Gen.hypercube dim in
  let valiant = Valiant.routing g in
  let rng = seeded 19 in
  let d = Demand.bit_reversal dim in
  Printf.printf "hypercube-%d, bit-reversal permutation (%d packets), FIFO vs random-rank\n"
    dim (Demand.support_size d);
  Printf.printf "%-26s | %5s %5s %7s | %9s %9s\n" "assignment" "cong" "dil"
    "c+d" "fifo" "rand-rank";
  let report name (assignment : Rounding.assignment) =
    let loads = Array.make (Graph.m g) 0 in
    let dil = ref 0 in
    Array.iter
      (fun (_, paths) ->
        Array.iter
          (fun (p : Sso_graph.Path.t) ->
            dil := max !dil (Sso_graph.Path.hops p);
            Array.iter (fun e -> loads.(e) <- loads.(e) + 1) p.Sso_graph.Path.edges)
          paths)
      assignment;
    let cong = Array.fold_left max 0 loads in
    let fifo =
      Simulator.completed_exn (Simulator.run ~discipline:Simulator.Fifo g assignment)
    in
    let rnd =
      Simulator.completed_exn
        (Simulator.run ~discipline:(Simulator.Random_rank (seeded 91)) g assignment)
    in
    Printf.printf "%-26s | %5d %5d %7d | %9d %9d\n" name cong !dil (cong + !dil)
      fifo.Simulator.makespan rnd.Simulator.makespan
  in
  (* Deterministic e-cube: one fixed path per packet. *)
  let ecube = Deterministic.ecube g in
  let ecube_assignment : Rounding.assignment =
    Array.of_list
      (List.map
         (fun (s, t) ->
           ((s, t), [| snd (List.hd (Oblivious.distribution ecube s t)) |]))
         (Demand.support d))
  in
  report "e-cube (deterministic)" ecube_assignment;
  (* Integral semi-oblivious from an alpha = log n sample. *)
  let system = Sampler.alpha_sample (Rng.split rng) valiant ~alpha:dim in
  let semi_assignment, _ =
    Integral.congestion_upper ~solver:stage4 (Rng.split rng) g system d
  in
  report "semi-oblivious (a=log n)" semi_assignment;
  Printf.printf
    "shape: measured makespan stays within a small factor of c+d and far\n";
  Printf.printf
    "below c*d; lower congestion translates directly into delivery time.\n"

(* ------------------------------------------------------------------ *)
(* E11 — ablation: Theorem 5.3 is relative to the base routing R, so the
   "sample from any COMPETITIVE oblivious routing" hypothesis is
   load-bearing: α-samples of a poor base stay poor. *)

let e11 () =
  header "E11 ablation: quality of the base oblivious routing matters";
  let module Trees = Sso_oblivious.Trees in
  let module Tree = Sso_graph.Tree in
  let g = Gen.torus 4 4 in
  let rng = seeded 37 in
  let alpha = 4 in
  let demands =
    Demand.ring_shift ~n:16 ~shift:5
    :: List.init 3 (fun _ -> Demand.random_permutation (Rng.split rng) 16)
  in
  let ratio = over_opt g demands in
  Printf.printf "4x4 torus, alpha = %d samples, worst ratio over 4 permutations\n" alpha;
  Printf.printf "%-34s %12s\n" "base oblivious routing R" "worst ratio";
  let bases =
    [
      ("single BFS tree (worst base)", Trees.single g (Tree.bfs_tree g 0));
      ("8 random spanning trees", Trees.uniform (Rng.split rng) ~count:8 g);
      ("KSP-4 spread", Ksp.routing ~k:4 g);
      ("Racke (MWU over FRT)", racke_routing (Rng.split rng) g);
    ]
  in
  List.iter
    (fun (name, base) ->
      let system = Sampler.alpha_sample (Rng.split rng) base ~alpha in
      let worst =
        List.fold_left Float.max 0.0
          (ratio (List.map (Semi_oblivious.congestion ~solver:stage4 g system) demands))
      in
      Printf.printf "%-34s %12.2f\n" name worst)
    bases;
  Printf.printf "shape: samples inherit the base's competitiveness -- a single\n";
  Printf.printf "tree cannot be rescued by Stage-4 adaptivity, Racke can.\n"

(* ------------------------------------------------------------------ *)
(* E12 — solver cross-validation: the exact LP and the MWU game solver
   agree on Stage-4 congestion; cost scales differently. *)

let e12 () =
  header "E12 Stage-4 engines: exact LP vs MWU";
  let timed f =
    let t0 = Sys.time () in
    let v = f () in
    (v, Sys.time () -. t0)
  in
  Printf.printf "%8s %6s %6s | %18s %18s\n" "n" "pairs" "cands"
    "LP (cong, s)" "MWU-400 (cong, s)";
  List.iter
    (fun (n, pairs) ->
      let rng = seeded (800 + n) in
      let g = Gen.erdos_renyi (Rng.split rng) n 0.3 in
      let d = Demand.random_pairs (Rng.split rng) ~n ~pairs in
      let base = Ksp.routing ~k:4 g in
      let system = Sampler.alpha_sample (Rng.split rng) base ~alpha:4 in
      let sc = Path_system.to_slice_candidates system (Demand.support d) in
      let lp, lp_t = timed (fun () -> (Min_congestion.lp_on_slices g sc d).congestion) in
      let mwu, mwu_t =
        timed (fun () -> (Min_congestion.mwu_on_slices ~iters:400 g sc d).congestion)
      in
      let secs t = if !no_timing then "-" else Printf.sprintf "%.3f" t in
      Printf.printf "%8d %6d %6d | %10.3f %7s %10.3f %7s\n" n
        pairs
        (Path_system.sparsity_on system (Demand.support d))
        lp (secs lp_t) mwu (secs mwu_t))
    [ (12, 5); (20, 10); (30, 20) ];
  Printf.printf "shape: MWU agrees with the LP within the approximation\n";
  Printf.printf "tolerance and scales past where the dense LP stops.\n"

(* ------------------------------------------------------------------ *)
(* E13 — grids, the HKL07 territory: [HKL07] proved even polynomially
   sparse semi-oblivious routing on n x n grids cannot beat
   Ω(log n / log log n); our samples should show slow (log-like) ratio
   growth on the transpose workload — above 1, far below deterministic
   XY routing. *)

let e13 () =
  header "E13 grids (HKL07): transpose demand, XY vs sparse samples";
  Printf.printf "%-10s %5s | %10s %14s %14s\n" "grid" "n" "XY det"
    "semi a=4" "semi a=8";
  List.iter
    (fun side ->
      let g = Gen.grid side side in
      let d =
        Demand.of_list
          (List.concat_map
             (fun r ->
               List.filter_map
                 (fun c ->
                   if r = c then None
                   else Some ((r * side) + c, (c * side) + r, 1.0))
                 (List.init side Fun.id))
             (List.init side Fun.id))
      in
      let over = over_opt g [ d ] in
      let ratio congestion = List.hd (over [ congestion ]) in
      let xy = ratio (Oblivious.congestion (Deterministic.xy_grid ~cols:side g) d) in
      let rng = seeded (600 + side) in
      let base = racke_routing (Rng.split rng) g in
      let semi alpha =
        let system = Sampler.alpha_sample (Rng.split rng) base ~alpha in
        ratio (Semi_oblivious.congestion ~solver:stage4 g system d)
      in
      Printf.printf "%-10s %5d | %10.2f %14.2f %14.2f\n"
        (Printf.sprintf "%dx%d" side side)
        (side * side) xy (semi 4) (semi 8))
    [ 4; 5; 6; 7 ];
  Printf.printf "shape: sparse samples grow slowly with n (consistent with the\n";
  Printf.printf "HKL07 log n / log log n floor) and stay far below XY routing.\n"

(* ------------------------------------------------------------------ *)
(* E14 — robustness (SMORE's selling point): single-link failures are
   absorbed by re-optimizing rates on the surviving candidates. *)

let e14 () =
  header "E14 robustness: single-link failures on Abilene";
  let module Fault_sweep = Sso_fault.Sweep in
  let rng = seeded 43 in
  let g, _ = Gen.abilene () in
  let d = Demand.random_pairs (Rng.split rng) ~n:(Graph.n g) ~pairs:10 in
  let racke = racke_routing (Rng.split rng) g in
  Printf.printf "10 unit flows, every one of the %d links failed in turn\n" (Graph.m g);
  Printf.printf "%-26s %12s %12s %12s\n" "path system" "unsurvivable"
    "mean ratio" "worst ratio";
  let evaluate name system =
    let s =
      Fault_sweep.summary
        (Fault_sweep.run ~solver:stage4 g system d (Fault_sweep.singles g))
    in
    Printf.printf "%-26s %12d %12.3f %12.3f\n" name s.Fault_sweep.unsurvivable
      s.Fault_sweep.mean_ratio s.Fault_sweep.worst_ratio
  in
  evaluate "KSP-4 support" (Path_system.of_oblivious_support (Ksp.routing ~k:4 g));
  List.iter
    (fun alpha ->
      evaluate
        (Printf.sprintf "alpha-sample of Racke a=%d" alpha)
        (Sampler.alpha_sample (Rng.split rng) racke ~alpha))
    [ 2; 4; 8 ];
  Printf.printf "shape: growing alpha shrinks the set of failures that strand a\n";
  Printf.printf "pair, and every survivable failure is absorbed within a few\n";
  Printf.printf "percent of the damaged network's optimum -- rate adaptation\n";
  Printf.printf "needs no new path installation (SMORE's robustness story).\n"

(* ------------------------------------------------------------------ *)
(* E15 — the price of obliviousness: how much do α oblivious samples lose
   to the α best paths a clairvoyant operator would install for the
   revealed demand? *)

let e15 () =
  header "E15 price of obliviousness: samples vs demand-aware top-alpha";
  let module Oracle = Sso_core.Oracle in
  let g = Gen.grid 5 5 in
  let rng = seeded 53 in
  let base = racke_routing (Rng.split rng) g in
  let demands =
    List.init 3 (fun _ -> Demand.random_permutation (Rng.split rng) 25)
  in
  let ratio = over_opt g demands in
  let mean congestion = List.fold_left ( +. ) 0.0 (ratio (List.map congestion demands)) /. 3.0 in
  Printf.printf "5x5 grid, 3 random permutations; mean ratio vs optimum\n";
  Printf.printf "%5s | %18s %18s %12s\n" "alpha" "oblivious sample"
    "clairvoyant top-a" "gap";
  List.iter
    (fun alpha ->
      let sample_mean =
        let system = Sampler.alpha_sample (Rng.split rng) base ~alpha in
        mean (Semi_oblivious.congestion ~solver:stage4 g system)
      in
      let oracle_mean =
        mean (fun d ->
            let system = Oracle.demand_aware_system ~solver:(Semi_oblivious.Mwu 400) g d ~alpha in
            Semi_oblivious.congestion ~solver:stage4 g system d)
      in
      Printf.printf "%5d | %18.3f %18.3f %11.1f%%\n" alpha sample_mean oracle_mean
        ((sample_mean /. oracle_mean -. 1.0) *. 100.0))
    [ 1; 2; 4; 8 ];
  Printf.printf "shape: the oblivious penalty is large at alpha=1 and collapses\n";
  Printf.printf "to a few percent by alpha~4 -- obliviousness is nearly free\n";
  Printf.printf "once a handful of random paths are allowed (the paper's thesis).\n"

(* ------------------------------------------------------------------ *)
(* E16 — a day in the life: one fixed sampled path system, rates
   re-optimized per epoch, across a diurnal traffic day (the SMORE
   operating mode the paper's Section 1 cites: installing paths is slow,
   adapting rates every few minutes is cheap). *)

let e16 () =
  header "E16 over time: one installed system, a day of traffic epochs";
  let module Workload = Sso_demand.Workload in
  let rng = seeded 61 in
  let g, _ = Gen.abilene () in
  let racke = racke_routing (Rng.split rng) g in
  let ksp4 = Ksp.routing ~k:4 g in
  let smore = Sampler.alpha_sample (Rng.split rng) racke ~alpha:4 in
  let day = Workload.diurnal (Rng.split rng) ~n:(Graph.n g) ~epochs:12 ~peak_total:80.0 in
  Printf.printf "Abilene, 12 diurnal gravity epochs (trough 25%% of peak)\n";
  Printf.printf "%-26s %12s %12s\n" "scheme" "mean ratio" "worst epoch";
  let ratio = over_opt g day in
  let report name congestion =
    let arr = Array.of_list (ratio (List.map congestion day)) in
    Printf.printf "%-26s %12.3f %12.3f\n" name (Stats.mean arr) (Stats.max_value arr)
  in
  report "KSP-4 (rates adapted)"
    (Semi_oblivious.congestion ~solver:stage4 g (Path_system.of_oblivious_support ksp4));
  report "oblivious (no adaptation)" (Oblivious.congestion racke);
  report "semi-oblivious a=4" (Semi_oblivious.congestion ~solver:stage4 g smore);
  Printf.printf "shape: the same 4 installed paths per pair track the optimum\n";
  Printf.printf "through the whole day; no epoch needs new path installation.\n"

(* ------------------------------------------------------------------ *)
(* E17 — the proof as a router: Theorem 5.3's constructive pipeline
   (bucket → special → weak-route → halve → merge) vs the solver-based
   Stage 4 it certifies. *)

let e17 () =
  header "E17 the Theorem 5.3 pipeline as an executable router";
  let module Theorem53 = Sso_core.Theorem53 in
  let dim = 5 in
  let g = Gen.hypercube dim in
  let obl = Valiant.routing g in
  let rng = seeded 71 in
  let alpha = 2 * dim in
  let ps = Sampler.alpha_cut_sample (Rng.split rng) obl ~alpha in
  Printf.printf
    "hypercube-%d, (a+cut)-sample with a = %d, 3 random permutations\n" dim alpha;
  Printf.printf "%8s | %14s %14s %10s\n" "trial" "pipeline cong"
    "solver cong" "overhead";
  Array.iter print_string
  @@ Pool.parallel_init 3 (fun i ->
      let trial = i + 1 in
      let d = Demand.random_permutation (Rng.split_at rng trial) (Graph.n g) in
      let _, pipeline = Theorem53.route ~gamma:60.0 ~alpha g ps d in
      let solver = Semi_oblivious.congestion ~solver:stage4 g ps d in
      Printf.sprintf "%8d | %14.2f %14.2f %9.1fx\n" trial pipeline solver
        (pipeline /. solver));
  Printf.printf "shape: the combinatorial pipeline (no LP/MWU at routing time)\n";
  Printf.printf "lands within the O(log m) factors its reductions pay -- the\n";
  Printf.printf "proof of Theorem 5.3 literally routes packets.\n"

(* ------------------------------------------------------------------ *)
(* E18 — the control loop: when traffic drifts between snapshots, a
   warm-started Stage 4 with a handful of fresh rounds matches a cold
   solve at a fraction of its cost (how SMORE-style TE can re-optimize
   every few seconds). *)

let e18 () =
  header "E18 control loop: warm-started rate re-optimization under churn";
  let module Workload = Sso_demand.Workload in
  let rng = seeded 79 in
  let g, _ = Gen.abilene () in
  let base = racke_routing (Rng.split rng) g in
  let system = Sampler.alpha_sample (Rng.split rng) base ~alpha:4 in
  let epochs =
    Workload.random_walk (Rng.split rng) ~n:(Graph.n g) ~epochs:8 ~pairs:10 ~churn:0.3
  in
  Printf.printf "Abilene, alpha=4 system, 8 epochs with 30%% pair churn\n";
  Printf.printf "%6s | %12s %14s %12s\n" "epoch" "cold-300" "warm-20" "stale";
  let previous = ref None in
  List.iteri
    (fun i d ->
      let cold_routing, cold = Semi_oblivious.route ~solver:(Semi_oblivious.Mwu 300) g system d in
      let warm =
        match !previous with
        | None -> cold
        | Some prev ->
            snd
              (Semi_oblivious.route ~solver:(Semi_oblivious.Mwu 20)
                 ~warm_start:(prev, 60) g system d)
      in
      (* Stale: keep yesterday's rates where defined, first candidate for
         new pairs, and never re-optimize. *)
      let stale =
        match !previous with
        | None -> cold
        | Some prev ->
            let patched =
              Routing.make g
                (List.map
                   (fun (s, t) ->
                     match Routing.distribution prev s t with
                     | [] -> (
                         match Path_system.paths system s t with
                         | p :: _ -> ((s, t), [ (1.0, p) ])
                         | [] -> assert false)
                     | dist -> ((s, t), dist))
                   (Demand.support d))
            in
            Routing.congestion g patched d
      in
      previous := Some cold_routing;
      Printf.printf "%6d | %12.3f %14.3f %12.3f\n" (i + 1) cold warm stale)
    epochs;
  Printf.printf "shape: 20 warm rounds track the 300-round cold solve; frozen\n";
  Printf.printf "rates drift away as the traffic walks.\n"

(* ------------------------------------------------------------------ *)
(* E19 — latency under sustained load: packet streams over fixed path
   assignments.  Lower congestion is not cosmetic: it is the difference
   between stable queues and blow-up as offered load approaches capacity
   (the latency-vs-load curves of the TE literature). *)

let e19 () =
  header "E19 latency under load: deterministic paths vs adaptive sparse paths";
  let module Simulator = Sso_sim.Simulator in
  let rng = seeded 87 in
  (* One short route, three long ones; four flows between the terminals.
     Shortest-path routing stacks all four on the short edge; the
     congestion-aware integral assignment on the sampled candidates
     spreads them. *)
  let g = Gen.multi_path [ 1; 3; 3; 3 ] in
  let flows = 4 in
  let d = Demand.single_pair 0 1 (float_of_int flows) in
  let det_assignment =
    List.init flows (fun _ ->
        match Sso_graph.Shortest.bfs_path g 0 1 with
        | Some p -> ((0, 1), p)
        | None -> assert false)
  in
  let base = Sso_oblivious.Hop_constrained.routing ~max_hops:3 g in
  let system = Sampler.alpha_sample (Rng.split rng) base ~alpha:4 in
  let semi_raw, _ = Integral.congestion_upper ~solver:stage4 (Rng.split rng) g system d in
  let semi_assignment =
    List.concat_map
      (fun ((pair, paths) : (int * int) * Sso_graph.Path.t array) ->
        Array.to_list (Array.map (fun p -> (pair, p)) paths))
      (Array.to_list semi_raw)
  in
  let congestion_of assignment =
    (* Per (edge, direction), matching the simulator's capacity model. *)
    let loads = Hashtbl.create 64 in
    List.iter
      (fun ((_, p) : (int * int) * Sso_graph.Path.t) ->
        let vs = Sso_graph.Path.vertices g p in
        Array.iteri
          (fun i e ->
            let key = (e, vs.(i)) in
            Hashtbl.replace loads key
              (1 + try Hashtbl.find loads key with Not_found -> 0))
          p.Sso_graph.Path.edges)
      assignment;
    Hashtbl.fold (fun _ v acc -> max v acc) loads 0
  in
  let c_det = congestion_of det_assignment and c_semi = congestion_of semi_assignment in
  Printf.printf
    "1 short + 3 long routes, %d flows, 40 packets each; per-round congestion: det %d, semi %d\n"
    flows c_det c_semi;
  Printf.printf "%6s | %22s | %22s\n" "load" "deterministic (mean p99)"
    "semi-oblivious (mean p99)";
  let emissions = 40 in
  let run assignment period =
    let packets =
      List.concat_map
        (fun (pair, route) ->
          List.init emissions (fun i -> { Simulator.pair; route; release = i * period }))
        assignment
    in
    Simulator.completed_exn (Simulator.run_timed ~discipline:Simulator.Fifo g packets)
  in
  List.iter
    (fun load ->
      (* Period chosen so the semi assignment's bottleneck rate equals the
         offered load; the deterministic one then runs hotter. *)
      let period = max 1 (int_of_float (Float.ceil (float_of_int c_semi /. load))) in
      let det = run det_assignment period in
      let semi = run semi_assignment period in
      Printf.printf "%6.2f | %10.2f %11.2f | %10.2f %11.2f\n" load
        det.Simulator.mean_latency det.Simulator.p99_latency
        semi.Simulator.mean_latency semi.Simulator.p99_latency)
    [ 0.3; 0.6; 1.0 ];
  Printf.printf "shape: equal at light load; at capacity the higher-congestion\n";
  Printf.printf "deterministic paths queue without bound (latency ~ horizon)\n";
  Printf.printf "while the adaptive ones stay flat.\n"

(* ------------------------------------------------------------------ *)
(* E20 — Lemma 2.8's sparsity accounting: the completion-time ladder
   unions one α-sample per hop scale, so its total sparsity should sit
   near α·(#rungs) = O((log n / log log n)²), far below the full support
   of the hop-constrained routings it samples. *)

let e20 () =
  header "E20 ladder sparsity: Lemma 2.8's O((log n/log log n)^2) accounting";
  Printf.printf "%-10s %5s %6s | %8s %12s %14s\n" "graph" "n" "rungs" "alpha"
    "measured" "alpha x rungs";
  List.iter
    (fun (name, g) ->
      let rng = seeded 91 in
      let alpha = Sso_core.Theory.theorem_2_3_sparsity ~n:(Graph.n g) in
      let rungs = List.length (Completion.ladder_hops g) in
      let system = Completion.ladder_system (Rng.split rng) g ~alpha in
      let d = Demand.random_pairs (Rng.split rng) ~n:(Graph.n g) ~pairs:12 in
      let measured = Path_system.sparsity_on system (Demand.support d) in
      Printf.printf "%-10s %5d %6d | %8d %12d %14d\n" name (Graph.n g) rungs
        alpha measured (alpha * rungs))
    [
      ("grid-5x5", Gen.grid 5 5);
      ("torus-4x4", Gen.torus 4 4);
      ("cube-5", Gen.hypercube 5);
    ];
  Printf.printf "shape: measured sparsity ≤ alpha x rungs (union bound), i.e.\n";
  Printf.printf "quadratically-logarithmic as Lemma 2.8 charges.\n"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("E1", "Theorem 2.3: log-sparsity polylog competitiveness", e1);
    ("E2", "Theorem 2.5: power of a few random choices", e2);
    ("E3", "Section 8 / Fig 1: lower bound gadget", e3);
    ("E4", "KKT91 barrier and bypass", e4);
    ("E5", "SMORE traffic engineering", e5);
    ("E6", "two cliques: cut-sized sampling", e6);
    ("E7", "completion time (Lemma 2.8)", e7);
    ("E8", "rounding (Lemma 6.3)", e8);
    ("E9", "sparsity vs competitiveness", e9);
    ("E10", "packet simulation: makespan vs cong+dil", e10);
    ("E11", "ablation: base routing quality", e11);
    ("E12", "solver cross-validation", e12);
    ("E13", "grids (HKL07 territory)", e13);
    ("E14", "robustness: single-link failures", e14);
    ("E15", "price of obliviousness", e15);
    ("E16", "over time: diurnal epochs", e16);
    ("E17", "Theorem 5.3 pipeline as router", e17);
    ("E18", "control loop: warm re-optimization", e18);
    ("E19", "latency under sustained load", e19);
    ("E20", "ladder sparsity accounting", e20);
  ]

let git_describe () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      if line = "" then "unknown" else line
  | exception _ -> "unknown"

(* The --json report: run metadata, the artifact-store counters, each
   experiment's wall time, the named scalars and the metrics registry. *)
let report_json timings =
  let jobs = Json.of_int (Pool.default_jobs ()) and seed = Json.of_int !master_seed in
  let counter name = (name, Json.of_int (Obs.counter_value (Obs.counter ("artifact." ^ name)))) in
  Json.(
    Obj
      [
        ( "meta",
          Obj
            [
              ("schema", Str "sso-bench"); ("version", of_int 1); ("seed", seed); ("jobs", jobs);
              ("git", Str (git_describe ())); ("trace_schema", of_int Trace.schema_version);
            ] );
        ("seed", seed);
        ("jobs", jobs);
        ("cache", Obj (List.map counter [ "hit"; "miss"; "corrupt"; "bytes_read"; "bytes_written" ]));
        ( "experiments",
          Arr
            (List.map
               (fun (id, seconds) ->
                 Obj [ ("id", Str id); ("seconds", Num (Printf.sprintf "%.6f" seconds)) ])
               timings) );
        ("scalars", Obj (List.map (fun (name, v) -> (name, of_float v)) !scalars));
        ("metrics", Obs.metrics_json ());
      ])

let () =
  let list = ref false and metrics = ref false and cache = ref false and no_cache = ref false in
  let only = ref None and cache_dir = ref None and trace_path = ref None and json_path = ref None in
  let some r = Arg.String (fun v -> r := Some v) in
  let experiment id =
    if List.exists (fun (eid, _, _) -> eid = id) experiments then only := Some id
    else raise (Arg.Bad (Printf.sprintf "unknown experiment %s (try --list)" id))
  in
  let jobs j =
    if j >= 1 then Pool.set_default_jobs j
    else raise (Arg.Bad (Printf.sprintf "--jobs expects a positive integer, got %d" j))
  in
  let specs =
    Arg.align
      [
        ("--experiment", Arg.String experiment, "ID Run one experiment (E1..E20; default: all)");
        ("--list", Arg.Set list, " Print the experiment index");
        ("--no-timing", Arg.Set no_timing, " Print \"-\" in wall-clock columns (byte-stable output)");
        ("--big", Arg.Set big_scale, " Widen the instance ranges");
        ("--jobs", Arg.Int jobs, "N Worker domains (default: the number of cores)");
        ("--seed", Arg.Set_int master_seed, "S Master seed for every experiment (default: 0)");
        ("--metrics", Arg.Set metrics, " Print the counters and span timers at exit");
        ("--cache", Arg.Set cache, " Memoize constructions in the artifact store");
        ("--cache-dir", some cache_dir, "DIR Keep the store in DIR (implies --cache)");
        ("--no-cache", Arg.Set no_cache, " Force the cache off");
        ("--json", some json_path, "FILE Write wall times, scalars and metrics to FILE");
        ("--trace", some trace_path, "FILE Write a JSONL trace to FILE");
      ]
  in
  (* A bad argument exits 1 with the first line of Arg's message, so a
     mistyped flag cannot silently run the whole harness. *)
  let argv = Array.copy Sys.argv in
  argv.(0) <- "bench";
  (try
     Arg.parse_argv argv specs
       (fun arg -> raise (Arg.Bad ("unknown argument " ^ arg)))
       "Usage: bench [OPTION]...\n\
        Regenerates the paper's experiments (EXPERIMENTS.md); all of them by default.\n\
        Options:"
   with
  | Arg.Help usage ->
      print_string usage;
      exit 0
  | Arg.Bad msg ->
      prerr_endline (List.hd (String.split_on_char '\n' msg));
      exit 1);
  (* Files follow the exit-code contract of README "Exit codes": 10 for
     an unreadable or unwritable path, 11 for a corrupt file. *)
  try
    if !trace_path <> None then Obs.set_tracing true;
    if (!cache || !cache_dir <> None) && not !no_cache then
      store := Some (Store.open_ ?dir:!cache_dir ());
    let timings = ref [] in
    let timed_run (id, _, run) =
      let t0 = Unix.gettimeofday () in
      Obs.traced ("bench." ^ id) run;
      timings := !timings @ [ (id, Unix.gettimeofday () -. t0) ]
    in
    if !list then List.iter (fun (id, title, _) -> Printf.printf "%-4s %s\n" id title) experiments
    else
      List.iter timed_run
        (List.filter (fun (id, _, _) -> !only = None || !only = Some id) experiments);
    if !metrics then begin
      header (Printf.sprintf "metrics  (jobs = %d)" (Pool.default_jobs ()));
      print_string (Obs.metrics_table ())
    end;
    Option.iter
      (fun path ->
        (* argv is deliberately left out of the meta: traces from the same
           seed at different --jobs must differ only in the "jobs" field. *)
        let meta =
          [
            ("seed", Trace.Int !master_seed);
            ("jobs", Trace.Int (Pool.default_jobs ()));
            ("git", Trace.String (git_describe ()));
          ]
        in
        Obs.write_trace ~path ~meta)
      !trace_path;
    Option.iter
      (fun path ->
        let json = Json.to_string (report_json !timings) in
        File.write path (fun oc -> output_string oc (json ^ "\n")))
      !json_path
  with
  | File.Unreadable msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 10
  | File.Corrupt msg ->
      Printf.eprintf "bench: %s\n" msg;
      exit 11
