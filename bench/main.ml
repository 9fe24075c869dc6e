(* Experiment harness: regenerates every quantitative claim of the paper
   (the per-theorem experiments E1–E9 indexed in DESIGN.md/EXPERIMENTS.md)
   and provides a Bechamel micro-benchmark per experiment family.

   Usage:
     dune exec bench/main.exe                 # all experiments + timings
     dune exec bench/main.exe -- --experiment E3
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --no-timing  # experiment tables only
     dune exec bench/main.exe -- --timing     # Bechamel suite only
     dune exec bench/main.exe -- --big        # widen instance ranges
     dune exec bench/main.exe -- --jobs 4     # worker domains (default: cores)
     dune exec bench/main.exe -- --seed 7     # master seed for every experiment
     dune exec bench/main.exe -- --metrics    # dump counters/spans at exit
     dune exec bench/main.exe -- --cache      # memoize constructions on disk
     dune exec bench/main.exe -- --cache-dir D # cache in D (implies --cache)
     dune exec bench/main.exe -- --no-cache   # force the cache off
     dune exec bench/main.exe -- --json F     # write wall times / scalars to F
     dune exec bench/main.exe -- --kernels    # shortest-path/MWU kernel micro-benches
     dune exec bench/main.exe -- --faults     # fault-injection sweeps / timeline / worst-k
     dune exec bench/main.exe -- --scale      # arena storage at fat-tree scale
     dune exec bench/main.exe -- --scale-k 200 --scale-pairs 512  # smaller instance
     dune exec bench/main.exe -- --serve      # routing service: warm vs cold re-solve *)

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
module Frt = Sso_oblivious.Frt
module Racke = Sso_oblivious.Racke
module Sampler = Sso_core.Sampler
module Path_system = Sso_core.Path_system
module Semi_oblivious = Sso_core.Semi_oblivious
module Integral = Sso_core.Integral
module Process = Sso_core.Process
module Completion = Sso_core.Completion
module Lower_bound = Sso_core.Lower_bound
module Stats = Sso_stats.Stats
module Pool = Sso_engine.Pool
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace
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

let ratio_on g system demand =
  let cong = Semi_oblivious.congestion ~solver:stage4 g system demand in
  let opt = Semi_oblivious.opt ~solver:opt_solver g demand in
  (cong, opt, cong /. opt)

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
    let results =
      Pool.parallel_init trials (fun i ->
          let d = Demand.random_permutation (Rng.split_at trial_rng i) n in
          let _, opt, r = ratio_on g system d in
          (r, Oblivious.congestion base d /. opt))
    in
    let arr = Array.map fst results and obl = Array.map snd results in
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
  let opts = List.map (fun d -> Semi_oblivious.opt ~solver:opt_solver g d) demands in
  Printf.printf "hypercube-%d, worst over bit-reversal/transpose/3 random perms\n" dim;
  Printf.printf "%5s | %12s %12s\n" "alpha" "worst cong" "worst ratio";
  List.iter
    (fun alpha ->
      let system = Sampler.alpha_sample (seeded (1000 + alpha)) base ~alpha in
      let worst_cong = ref 0.0 and worst_ratio = ref 0.0 in
      List.iter2
        (fun d opt ->
          let c = Semi_oblivious.congestion ~solver:stage4 g system d in
          worst_cong := Float.max !worst_cong c;
          worst_ratio := Float.max !worst_ratio (c /. opt))
        demands opts;
      Printf.printf "%5d | %12.2f %12.2f\n" alpha !worst_cong !worst_ratio)
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
  let opts = List.map (fun d -> Semi_oblivious.opt ~solver:opt_solver g d) matrices in
  Printf.printf "%-26s %12s %12s\n" "scheme" "mean ratio" "max ratio";
  let report name ratios =
    let arr = Array.of_list ratios in
    let mean = Stats.mean arr and worst = Stats.max_value arr in
    scalar (Printf.sprintf "E5.%s.mean" name) mean;
    scalar (Printf.sprintf "E5.%s.max" name) worst;
    Printf.printf "%-26s %12.3f %12.3f\n" name mean worst
  in
  report "KSP-4 (traditional TE)"
    (List.map2 (fun d opt -> Oblivious.congestion ksp4 d /. opt) matrices opts);
  report "oblivious (Racke full)"
    (List.map2 (fun d opt -> Oblivious.congestion racke d /. opt) matrices opts);
  List.iter
    (fun alpha ->
      let system =
        Memo.alpha_sample ?store:!store ~base_key:racke_key
          (seeded (500 + alpha))
          racke ~alpha ~pairs
      in
      report
        (Printf.sprintf "semi-oblivious a=%d" alpha)
        (List.map2
           (fun d opt -> Semi_oblivious.congestion ~solver:stage4 g system d /. opt)
           matrices opts))
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
  let opt = Min_congestion.lp_unrestricted g d in
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
  let opts = List.map (fun d -> Semi_oblivious.opt ~solver:opt_solver g d) demands in
  Printf.printf "hypercube-%d, worst ratio over 3 random permutations\n" dim;
  Printf.printf "%-30s %10s %12s\n" "scheme" "paths/pair" "worst ratio";
  let report name sparsity ratios =
    Printf.printf "%-30s %10d %12.2f\n" name sparsity
      (List.fold_left Float.max 0.0 ratios)
  in
  let ecube = Deterministic.ecube g in
  report "e-cube (oblivious, 1 path)" 1
    (List.map2 (fun d opt -> Oblivious.congestion ecube d /. opt) demands opts);
  List.iter
    (fun alpha ->
      let system = Sampler.alpha_sample (seeded (900 + alpha)) valiant ~alpha in
      report
        (Printf.sprintf "semi-oblivious sample a=%d" alpha)
        alpha
        (List.map2
           (fun d opt -> Semi_oblivious.congestion ~solver:stage4 g system d /. opt)
           demands opts))
    [ 2; 4; 6 ];
  let sample_pairs = List.concat_map Demand.support demands in
  report "Valiant (oblivious, full)"
    (Oblivious.support_sparsity valiant sample_pairs)
    (List.map2 (fun d opt -> Oblivious.congestion valiant d /. opt) demands opts);
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
  let opts = List.map (fun d -> Semi_oblivious.opt ~solver:opt_solver g d) demands in
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
        List.fold_left2
          (fun acc d opt ->
            Float.max acc (Semi_oblivious.congestion ~solver:stage4 g system d /. opt))
          0.0 demands opts
      in
      Printf.printf "%-34s %12.2f\n" name worst)
    bases;
  Printf.printf "shape: samples inherit the base's competitiveness -- a single\n";
  Printf.printf "tree cannot be rescued by Stage-4 adaptivity, Racke can.\n"

(* ------------------------------------------------------------------ *)
(* E12 — solver cross-validation: the exact LP, the MWU game solver and
   Garg–Könemann agree on Stage-4 congestion; cost scales differently. *)

let e12 () =
  header "E12 Stage-4 engines: exact LP vs MWU vs Garg-Konemann";
  let module Concurrent_flow = Sso_flow.Concurrent_flow in
  let timed f =
    let t0 = Sys.time () in
    let v = f () in
    (v, Sys.time () -. t0)
  in
  Printf.printf "%8s %6s %6s | %18s %18s %18s\n" "n" "pairs" "cands"
    "LP (cong, s)" "MWU-400 (cong, s)" "GK-0.05 (cong, s)";
  List.iter
    (fun (n, pairs) ->
      let rng = seeded (800 + n) in
      let g = Gen.erdos_renyi (Rng.split rng) n 0.3 in
      let d = Demand.random_pairs (Rng.split rng) ~n ~pairs in
      let base = Ksp.routing ~k:4 g in
      let system = Sampler.alpha_sample (Rng.split rng) base ~alpha:4 in
      let cands = Path_system.to_candidates system (Demand.support d) in
      let (_, lp), lp_t = timed (fun () -> Min_congestion.lp_on_paths g cands d) in
      let (_, mwu), mwu_t =
        timed (fun () -> Min_congestion.mwu_on_paths ~iters:400 g cands d)
      in
      let (_, gk), gk_t =
        timed (fun () -> Concurrent_flow.on_paths ~epsilon:0.05 g cands d)
      in
      let secs t = if !no_timing then "-" else Printf.sprintf "%.3f" t in
      Printf.printf "%8d %6d %6d | %10.3f %7s %10.3f %7s %10.3f %7s\n" n
        pairs
        (Path_system.sparsity_on system (Demand.support d))
        lp (secs lp_t) mwu (secs mwu_t) gk (secs gk_t))
    [ (12, 5); (20, 10); (30, 20) ];
  Printf.printf "shape: all three agree within the approximation tolerance;\n";
  Printf.printf "the iterative engines scale past where the dense LP stops.\n"

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
      let opt = Semi_oblivious.opt ~solver:opt_solver g d in
      let xy = Oblivious.congestion (Deterministic.xy_grid ~cols:side g) d /. opt in
      let rng = seeded (600 + side) in
      let base = racke_routing (Rng.split rng) g in
      let ratio alpha =
        let system = Sampler.alpha_sample (Rng.split rng) base ~alpha in
        Semi_oblivious.congestion ~solver:stage4 g system d /. opt
      in
      Printf.printf "%-10s %5d | %10.2f %14.2f %14.2f\n"
        (Printf.sprintf "%dx%d" side side)
        (side * side) xy (ratio 4) (ratio 8))
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
  let opts = List.map (fun d -> Semi_oblivious.opt ~solver:opt_solver g d) demands in
  Printf.printf "5x5 grid, 3 random permutations; mean ratio vs optimum\n";
  Printf.printf "%5s | %18s %18s %12s\n" "alpha" "oblivious sample"
    "clairvoyant top-a" "gap";
  List.iter
    (fun alpha ->
      let sample_mean =
        let system = Sampler.alpha_sample (Rng.split rng) base ~alpha in
        List.fold_left2
          (fun acc d opt ->
            acc +. (Semi_oblivious.congestion ~solver:stage4 g system d /. opt))
          0.0 demands opts
        /. 3.0
      in
      let oracle_mean =
        List.fold_left2
          (fun acc d opt ->
            let system = Oracle.demand_aware_system ~solver:(Semi_oblivious.Mwu 400) g d ~alpha in
            acc +. (Semi_oblivious.congestion ~solver:stage4 g system d /. opt))
          0.0 demands opts
        /. 3.0
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
  let per_epoch f =
    List.map
      (fun d ->
        let opt = Semi_oblivious.opt ~solver:opt_solver g d in
        f d /. opt)
      day
  in
  let report name ratios =
    let arr = Array.of_list ratios in
    Printf.printf "%-26s %12.3f %12.3f\n" name (Stats.mean arr) (Stats.max_value arr)
  in
  report "KSP-4 (rates adapted)"
    (per_epoch (fun d ->
         Semi_oblivious.congestion ~solver:stage4 g
           (Path_system.of_oblivious_support ksp4) d));
  report "oblivious (no adaptation)" (per_epoch (fun d -> Oblivious.congestion racke d));
  report "semi-oblivious a=4" (per_epoch (fun d -> Semi_oblivious.congestion ~solver:stage4 g smore d));
  Printf.printf "shape: the same 4 installed paths per pair track the optimum\n";
  Printf.printf "through the whole day; no epoch needs new path installation.\n"

(* ------------------------------------------------------------------ *)
(* E17 — the proof as a router: Theorem 5.3's constructive pipeline
   (bucket → special → weak-route → halve → merge) vs the solver-based
   Stage 4 it certifies. *)

let e17 () =
  header "E17 the Theorem 5.3 pipeline as an executable router";
  let module Certified = Sso_core.Certified in
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
      let _, pipeline = Certified.route ~gamma:60.0 ~alpha g ps d in
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
      let cands = Path_system.to_candidates system (Demand.support d) in
      let cold_routing, cold = Min_congestion.mwu_on_paths ~iters:300 g cands d in
      let warm =
        match !previous with
        | None -> cold
        | Some prev ->
            snd
              (Semi_oblivious.reoptimize ~solver:(Semi_oblivious.Mwu 20)
                 ~warm_start:(prev, 60) g system d)
      in
      (* Stale: keep yesterday's rates where defined, first candidate for
         new pairs, and never re-optimize. *)
      let stale =
        match !previous with
        | None -> cold
        | Some prev ->
            let patched =
              Routing.make
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
  let base =
    Memo.hop_constrained ?store:!store ~paths_per_pair:8 ~max_hops:3
      ~pairs:[ (0, 1) ] g
  in
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
(* --kernels: wall-clock micro-benchmarks of the shortest-path/MWU
   kernel stack (the hot path every experiment bottoms out in).  Each
   bench records a [kernels.<name>.seconds] scalar, so
   [--kernels --json F] tracks the perf trajectory; BENCH_kernels.json
   holds the committed baseline. *)

let kernel_cases () =
  let module Shortest = Sso_graph.Shortest in
  let module Concurrent_flow = Sso_flow.Concurrent_flow in
  (* Expander-ish substrate: large enough that the oracle dominates. *)
  let g = Gen.random_regular (seeded 97) 96 4 in
  let weight e = 1.0 +. (float_of_int e *. 1e-6) in
  (* The MWU-dominated family: multi-commodity demand whose commodities
     share sources (4 sources x 8 targets), the regime source-batched
     oracles are built for. *)
  let shared =
    Demand.of_list
      (List.concat_map
         (fun s -> List.init 8 (fun i -> (s, 40 + (8 * s) + i, 1.0)))
         [ 0; 1; 2; 3 ])
  in
  let grid = Gen.grid 7 7 in
  let d = Demand.random_pairs (seeded 98) ~n:49 ~pairs:24 in
  let base = Ksp.routing ~k:4 grid in
  let system = Sampler.alpha_sample (seeded 99) base ~alpha:4 in
  let cands = Path_system.to_candidates system (Demand.support d) in
  [
    ( "sssp_all_sources",
      fun () ->
        for v = 0 to Graph.n g - 1 do
          ignore (Shortest.dijkstra g ~weight v)
        done );
    ( "mwu_unrestricted_shared",
      fun () -> ignore (Min_congestion.mwu_unrestricted ~iters:100 g shared) );
    ( "mwu_hop_limited_shared",
      fun () ->
        ignore (Min_congestion.mwu_hop_limited ~iters:20 ~max_hops:10 g shared)
    );
    ( "mwu_candidates",
      fun () -> ignore (Min_congestion.mwu_on_paths ~iters:150 grid cands d) );
    ( "gk_candidates",
      fun () -> ignore (Concurrent_flow.on_paths ~epsilon:0.1 grid cands d) );
    ( "frt_build_grid",
      fun () -> ignore (Frt.build (seeded 100) grid ~length:(fun _ -> 1.0)) );
    ( "racke_forest_grid",
      fun () -> ignore (Racke.forest (seeded 101) ~trees:4 ~batch:2 grid) );
  ]

let timed_best ?(reps = 3) f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let kernels () =
  header "kernels  (wall-clock, best of 3 runs)";
  let bench (name, f) =
    let s = timed_best (fun () -> Obs.traced ("kernels." ^ name) f) in
    scalar (Printf.sprintf "kernels.%s.seconds" name) s;
    Printf.printf "%-36s %12.4f s\n" name s
  in
  List.iter bench (kernel_cases ());
  Printf.printf
    "families: sssp (Dijkstra kernel), mwu_* (oracle-dominated solves),\n";
  Printf.printf
    "gk (sequential cheapest-path packing), frt/racke (ball-growing FRT,\n";
  Printf.printf "MWU tree mixture).\n"

(* ------------------------------------------------------------------ *)
(* --obs-guard: assert that the observability layer is cheap enough to
   leave on.  Three guarded surfaces:

   1. tracing off — the kernel suite runs twice with tracing disabled
      (their spread bounds machine noise) and is compared against the
      committed BENCH_kernels.json post_seconds baseline recorded before
      lib/obs existed;
   2. live telemetry — a third pass wraps every kernel call exactly like
      a serve tick (wall-timed, duration into a rolling quantile, a
      gauge set) and is gated against the tracing-off pass, so the
      serve-loop instrumentation provably rides for free;
   3. primitive cost — ns/op microbenches for [set_gauge] and
      [observe_quantile] plus one [snapshot]+[expose] render, recorded
      as scalars (not gated: absolute ns, not a ratio).

   A fourth, tracing-enabled pass is reported for context but not gated
   (event emission is allowed to cost). *)

let obs_guard () =
  header "obs-guard  (tracing-off + telemetry overhead vs BENCH_kernels.json)";
  let cases = kernel_cases () in
  let measure () =
    List.map (fun (name, f) -> (name, timed_best ~reps:5 f)) cases
  in
  Obs.set_tracing false;
  let off1 = measure () in
  let off2 = measure () in
  let tel =
    List.map
      (fun (name, f) ->
        let q = Obs.quantile (Printf.sprintf "obs_guard.%s.ns" name) in
        let g = Obs.gauge (Printf.sprintf "obs_guard.%s.last_ns" name) in
        ( name,
          timed_best ~reps:5 (fun () ->
              let t0 = Obs.now_ns () in
              f ();
              let d = Obs.now_ns () - t0 in
              Obs.observe_quantile q d;
              Obs.set_gauge g (float_of_int d)) ))
      cases
  in
  Obs.set_tracing true;
  let on_ = measure () in
  Obs.set_tracing false;
  Obs.clear_trace ();
  let micro_ns ops f =
    let t0 = Obs.now_ns () in
    for i = 1 to ops do
      f i
    done;
    float_of_int (Obs.now_ns () - t0) /. float_of_int ops
  in
  let mq = Obs.quantile "obs_guard.micro_quantile" in
  let mg = Obs.gauge "obs_guard.micro_gauge" in
  let quantile_ns = micro_ns 1_000_000 (fun i -> Obs.observe_quantile mq i) in
  let gauge_ns = micro_ns 1_000_000 (fun i -> Obs.set_gauge mg (float_of_int i)) in
  let expose_s =
    timed_best ~reps:5 (fun () -> ignore (Obs.expose (Obs.snapshot ())))
  in
  scalar "obs_guard.quantile_ns_per_op" quantile_ns;
  scalar "obs_guard.gauge_ns_per_op" gauge_ns;
  scalar "obs_guard.expose_seconds" expose_s;
  Printf.printf
    "primitives: observe_quantile %.0f ns/op  set_gauge %.0f ns/op  \
     snapshot+expose %.4f s\n"
    quantile_ns gauge_ns expose_s;
  let baseline =
    match In_channel.with_open_bin "BENCH_kernels.json" In_channel.input_all with
    | text -> (
        match Trace.Json.member "kernels" (Trace.Json.parse text) with
        | Some (Trace.Json.Obj entries) ->
            List.filter_map
              (fun (name, v) ->
                Option.map
                  (fun f -> (name, f))
                  (Option.bind
                     (Trace.Json.member "post_seconds" v)
                     Trace.Json.number))
              entries
        | _ -> []
        | exception Trace.Corrupt _ -> [])
    | exception Sys_error _ ->
        Printf.printf "(no BENCH_kernels.json in cwd: baseline gate skipped)\n";
        []
  in
  Printf.printf "%-26s %10s %10s %10s %7s %7s %10s %7s\n" "kernel" "off(s)"
    "tel(s)" "on(s)" "tel_x" "drift%" "base(s)" "ratio";
  let failed = ref false in
  List.iter
    (fun (name, a) ->
      let b = List.assoc name off2 in
      let t_tel = List.assoc name tel in
      let t_on = List.assoc name on_ in
      let off = Float.min a b in
      let drift = Float.abs (a -. b) /. Float.max a b *. 100.0 in
      let tel_ratio = t_tel /. off in
      scalar (Printf.sprintf "obs_guard.%s.off_seconds" name) off;
      scalar (Printf.sprintf "obs_guard.%s.tel_seconds" name) t_tel;
      scalar (Printf.sprintf "obs_guard.%s.tel_ratio" name) tel_ratio;
      scalar (Printf.sprintf "obs_guard.%s.on_seconds" name) t_on;
      scalar (Printf.sprintf "obs_guard.%s.drift_pct" name) drift;
      let base = List.assoc_opt name baseline in
      let ratio = Option.map (fun b0 -> off /. b0) base in
      Printf.printf "%-26s %10.4f %10.4f %10.4f %7.2f %6.1f%% %10s %7s\n" name
        off t_tel t_on tel_ratio drift
        (match base with Some b0 -> Printf.sprintf "%.4f" b0 | None -> "-")
        (match ratio with Some r -> Printf.sprintf "%.2f" r | None -> "-");
      if tel_ratio > 1.25 then begin
        failed := true;
        Printf.printf "FAIL %s: per-call telemetry run is %.2fx tracing-off\n"
          name tel_ratio
      end;
      (match ratio with
      | Some r ->
          scalar (Printf.sprintf "obs_guard.%s.ratio" name) r;
          if r > 1.25 then begin
            failed := true;
            Printf.printf "FAIL %s: disabled-tracing run is %.2fx baseline\n"
              name r
          end
      | None -> ());
      if drift > 15.0 then
        Printf.printf "warn %s: %.1f%% drift between disabled runs (noisy box)\n"
          name drift)
    off1;
  if !failed then begin
    Printf.printf
      "obs-guard: FAILED (tracing-off or telemetry overhead above 1.25x)\n";
    exit 1
  end
  else
    Printf.printf
      "obs-guard: ok (tracing off and per-call telemetry within noise)\n"

(* ------------------------------------------------------------------ *)
(* --faults: the fault-injection family (BENCH_faults.json): scenario
   sweeps with warm-started recovery, an SRLG timeline run with
   mid-flight failover, and the greedy worst-k search. *)

let faults () =
  header "faults  (scenario sweeps, timeline failover, worst-k)";
  let module Scenario = Sso_fault.Scenario in
  let module Timeline = Sso_fault.Timeline in
  let module Fault_sweep = Sso_fault.Sweep in
  let module Simulator = Sso_sim.Simulator in
  let solver = stage4 in
  let bench name f =
    let s = timed_best (fun () -> Obs.traced ("faults." ^ name) f) in
    scalar (Printf.sprintf "faults.%s.seconds" name) s;
    Printf.printf "%-36s %12.4f s\n" name s
  in
  (* Abilene: every single-link failure, with the warm-restart ladder. *)
  let g, _ = Gen.abilene () in
  let rng = seeded 71 in
  let base = racke_routing (Rng.split rng) g in
  let system = Sampler.alpha_sample (Rng.split rng) base ~alpha:4 in
  let demand = Demand.random_pairs (Rng.split rng) ~n:(Graph.n g) ~pairs:8 in
  let system_key = Printf.sprintf "bench-abilene-a4-seed%d" !master_seed in
  let reports = ref [] in
  bench "abilene_singles" (fun () ->
      reports :=
        Fault_sweep.run ?store:!store ~system_key ~solver
          ~recovery:Fault_sweep.default_recovery g system demand
          (Fault_sweep.singles g));
  let s = Fault_sweep.summary !reports in
  scalar "faults.abilene.mean_ratio" s.Fault_sweep.mean_ratio;
  scalar "faults.abilene.worst_ratio" s.Fault_sweep.worst_ratio;
  scalar "faults.abilene.unsurvivable" (float_of_int s.Fault_sweep.unsurvivable);
  scalar "faults.abilene.mean_recovery_rounds" s.Fault_sweep.mean_recovery_rounds;
  Printf.printf
    "abilene singles: %d scenarios, %d unsurvivable, mean ratio %.3f, mean \
     recovery %.1f mwu rounds\n"
    s.Fault_sweep.scenarios s.Fault_sweep.unsurvivable s.Fault_sweep.mean_ratio
    s.Fault_sweep.mean_recovery_rounds;
  (* Torus: correlated row SRLGs, then one of them failed mid-flight. *)
  let rows = 5 and cols = 5 in
  let gt = Gen.torus rows cols in
  let rng_t = seeded 72 in
  let base_t = racke_routing (Rng.split rng_t) gt in
  let system_t = Sampler.alpha_sample (Rng.split rng_t) base_t ~alpha:4 in
  let demand_t =
    Demand.random_pairs (Rng.split rng_t) ~n:(Graph.n gt) ~pairs:10
  in
  let srlgs = Scenario.torus_rows gt ~rows ~cols in
  let reports_t = ref [] in
  bench "torus_srlg" (fun () ->
      reports_t := Fault_sweep.run ~solver gt system_t demand_t srlgs);
  let st = Fault_sweep.summary !reports_t in
  scalar "faults.torus.mean_ratio" st.Fault_sweep.mean_ratio;
  scalar "faults.torus.worst_ratio" st.Fault_sweep.worst_ratio;
  scalar "faults.torus.unsurvivable" (float_of_int st.Fault_sweep.unsurvivable);
  Printf.printf "torus row SRLGs: %d scenarios, %d unsurvivable, mean ratio %.3f\n"
    st.Fault_sweep.scenarios st.Fault_sweep.unsurvivable st.Fault_sweep.mean_ratio;
  let assignment, _ =
    Integral.congestion_upper (Rng.split rng_t) gt system_t demand_t
  in
  let timeline = [ Timeline.entry ~at:3 (List.nth srlgs 2) ] in
  let fs = ref None in
  bench "torus_timeline" (fun () ->
      fs := Some (Simulator.value (Timeline.simulate gt system_t assignment timeline)));
  (match !fs with
  | None -> ()
  | Some fs ->
      scalar "faults.timeline.makespan" (float_of_int fs.Simulator.base.Simulator.makespan);
      scalar "faults.timeline.dropped" (float_of_int fs.Simulator.dropped);
      scalar "faults.timeline.rerouted" (float_of_int fs.Simulator.rerouted);
      scalar "faults.timeline.recovery_makespan"
        (float_of_int fs.Simulator.recovery_makespan);
      Printf.printf
        "timeline (row SRLG at step 3): makespan %d, rerouted %d, dropped %d, \
         recovery makespan %d\n"
        fs.Simulator.base.Simulator.makespan fs.Simulator.rerouted
        fs.Simulator.dropped fs.Simulator.recovery_makespan);
  (* Greedy worst-k on Abilene. *)
  let worst = ref None in
  bench "abilene_worst2" (fun () ->
      worst :=
        Some (Fault_sweep.worst_k ?store:!store ~system_key ~solver g system demand ~k:2));
  (match !worst with
  | None -> ()
  | Some w ->
      scalar "faults.worst2.ratio" w.Fault_sweep.ratio;
      Printf.printf "greedy worst-2: %s ratio %.3f\n"
        w.Fault_sweep.scenario.Scenario.label w.Fault_sweep.ratio)

(* ------------------------------------------------------------------ *)
(* Bechamel timing suite: one micro-benchmark per experiment family. *)

let timing () =
  let open Bechamel in
  header "timing  (Bechamel, monotonic clock, ns/run)";
  let cube = Gen.hypercube 6 in
  let valiant = Valiant.routing cube in
  (* Warm the distribution caches so the benches time the algorithm, not
     cache population. *)
  ignore (Oblivious.distribution valiant 0 63);
  let grid = Gen.grid 5 5 in
  let cliques = Gen.two_cliques 12 in
  let c_gadget = Gen.c_graph 12 6 in
  let prepared_system =
    Sampler.alpha_sample (Rng.create 3) valiant ~alpha:6
  in
  let perm = Demand.random_permutation (Rng.create 4) 64 in
  (* Pre-materialize candidates for the stage-4 bench. *)
  ignore (Path_system.to_candidates prepared_system (Demand.support perm));
  let attack_base = Ksp.routing ~k:12 c_gadget.Gen.c_graph in
  let attack_system = Sampler.alpha_sample (Rng.create 5) attack_base ~alpha:2 in
  ignore (Lower_bound.attack c_gadget attack_system);
  let tests =
    [
      Test.make ~name:"sample: draw 1 path (valiant)"
        (Staged.stage (fun () ->
             let rng = Rng.create 1 in
             ignore (Oblivious.sample rng valiant 0 63)));
      Test.make ~name:"stage4: mwu-50 on hypercube perm"
        (Staged.stage (fun () ->
             ignore
               (Semi_oblivious.congestion ~solver:(Semi_oblivious.Mwu 50) cube
                  prepared_system perm)));
      Test.make ~name:"stage4: exact LP, 4 pairs on grid"
        (Staged.stage
           (let d = Demand.random_pairs (Rng.create 6) ~n:25 ~pairs:4 in
            let base = Ksp.routing ~k:3 grid in
            let system = Sampler.alpha_sample (Rng.create 7) base ~alpha:3 in
            ignore (Semi_oblivious.congestion ~solver:Semi_oblivious.Lp grid system d);
            fun () ->
              ignore
                (Semi_oblivious.congestion ~solver:Semi_oblivious.Lp grid system d)));
      Test.make ~name:"maxflow: dinic cut on two-cliques-12"
        (Staged.stage (fun () -> ignore (Maxflow.cut cliques 0 23)));
      Test.make ~name:"frt: build tree on 5x5 grid"
        (Staged.stage
           (let rng = Rng.create 8 in
            fun () -> ignore (Frt.build rng grid ~length:(fun _ -> 1.0))));
      Test.make ~name:"adversary: attack C(12,6) a=2"
        (Staged.stage (fun () -> ignore (Lower_bound.attack c_gadget attack_system)));
      Test.make ~name:"process: weak_route hypercube perm"
        (Staged.stage (fun () ->
             ignore (Process.weak_route ~gamma:8.0 cube prepared_system perm)));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let name =
            match String.index_opt name '/' with
            | Some i -> String.sub name (i + 1) (String.length name - i - 1)
            | None -> name
          in
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] ->
              if ns >= 1e6 then Printf.printf "%-40s %12.3f ms/run\n" name (ns /. 1e6)
              else Printf.printf "%-40s %12.1f ns/run\n" name ns
          | _ -> Printf.printf "%-40s %12s\n" name "n/a")
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* --scale: arena-backed path storage at fat-tree scale
   (BENCH_scale.json).  Builds a k-ary fat-tree (k = 284 by default:
   n = (k/2)^2 + k^2 = 100,820 switches), alpha-samples a Wilson-forest
   oblivious base for a batch of random pairs through
   [Path_system.materialize_parallel], and reports sampling throughput
   (path-nodes appended per second) plus per-pair storage for the packed
   arena against the boxed list-of-[Path.t] view of the same candidate
   sets.  The run fails if the arena is not at least 4x smaller.  A
   digest of the sampled system is printed so scale_smoke.sh can check
   warm-cache runs byte-identical to cold ones. *)

let scale_k = ref 284
let scale_pairs = ref 1024
let scale_racke_trees = ref 2

let scale () =
  let module Trees = Sso_oblivious.Trees in
  let module Arena = Sso_graph.Arena in
  let k = !scale_k in
  header (Printf.sprintf "scale  (fat-tree k = %d, arena-backed sampling)" k);
  let g = Gen.fat_tree k in
  let n = Graph.n g in
  scalar "scale.n" (float_of_int n);
  scalar "scale.m" (float_of_int (Graph.m g));
  Printf.printf "fat-tree: n = %d, m = %d\n" n (Graph.m g);
  let obl = Trees.uniform (seeded 131) ~count:4 g in
  let npairs = !scale_pairs in
  let pairs =
    let pr = seeded 132 in
    let seen = Hashtbl.create npairs in
    let rec draw acc c =
      if c = 0 then List.rev acc
      else
        let s = Rng.int pr n in
        let t = Rng.int pr n in
        if s = t || Hashtbl.mem seen (s, t) then draw acc c
        else begin
          Hashtbl.add seen (s, t) ();
          draw ((s, t) :: acc) (c - 1)
        end
    in
    draw [] npairs
  in
  let alpha = 4 in
  let ps =
    match !store with
    | Some st ->
        Memo.alpha_sample ~store:st ~base_key:"wilson-4" (seeded 133) obl
          ~alpha ~pairs
    | None -> Sampler.alpha_sample (seeded 133) obl ~alpha
  in
  let t0 = Unix.gettimeofday () in
  Path_system.materialize_parallel ps pairs;
  let dt = Unix.gettimeofday () -. t0 in
  let arena = Path_system.arena ps in
  let slices = Arena.length arena in
  let path_nodes = ref 0 in
  for i = 0 to slices - 1 do
    path_nodes := !path_nodes + Arena.hops arena i + 1
  done;
  let nodes_per_sec = float_of_int !path_nodes /. dt in
  let arena_bytes = Arena.memory_bytes arena in
  (* The boxed baseline reconstructs the same candidate sets as the
     pre-arena representation: a list of ((s,t), Path.t list) with one
     fresh edge array per path.  [Obj.reachable_words] measures exactly
     that structure (paths share nothing with the graph). *)
  let boxed = List.map (fun (s, t) -> ((s, t), Path_system.paths ps s t)) pairs in
  let boxed_bytes = Obj.reachable_words (Obj.repr boxed) * (Sys.word_size / 8) in
  let bpp_arena = float_of_int arena_bytes /. float_of_int npairs in
  let bpp_boxed = float_of_int boxed_bytes /. float_of_int npairs in
  let reduction = bpp_boxed /. bpp_arena in
  scalar "scale.pairs" (float_of_int npairs);
  scalar "scale.alpha" (float_of_int alpha);
  scalar "scale.paths" (float_of_int slices);
  scalar "scale.path_nodes" (float_of_int !path_nodes);
  scalar "scale.materialize_seconds" dt;
  scalar "scale.nodes_per_sec" nodes_per_sec;
  scalar "scale.bytes_per_pair.arena" bpp_arena;
  scalar "scale.bytes_per_pair.boxed" bpp_boxed;
  scalar "scale.bytes_per_pair.reduction" reduction;
  Printf.printf "pairs = %d, alpha = %d, stored paths = %d, path-nodes = %d\n"
    npairs alpha slices !path_nodes;
  Printf.printf "materialize: %.4f s (%.3e path-nodes/sec)\n" dt nodes_per_sec;
  Printf.printf "bytes/pair: arena %.1f vs boxed %.1f (%.2fx smaller)\n"
    bpp_arena bpp_boxed reduction;
  (* The candidate sets themselves are deterministic for any job count;
     the digest covers src/dst/hop content of every slice in canonical
     pair order, so cold and warm-cache runs must print the same line. *)
  let ranges =
    List.map (fun (s, t) -> ((s, t), Path_system.slice_range ps s t)) pairs
  in
  let digest =
    Codec.hex_of_key
      (Codec.fnv1a64 (Codec.encode_path_system_slices arena ranges))
  in
  Printf.printf "system digest: %s\n" digest;
  if reduction < 4.0 then begin
    Printf.printf "FAIL scale: arena reduction %.2fx below the 4x floor\n"
      reduction;
    exit 1
  end
  else Printf.printf "scale: ok (arena %.2fx under the boxed baseline)\n" reduction;
  (* Räcke at scale: the paper's own Stage-1 construction on the same
     fat-tree, built level-wise by ball growing (no n×n distance matrix —
     memory stays O(n·levels + m)).  batch = 1 keeps the MWU maximally
     sequential: every tree sees the penalties of all its predecessors.
     The forest digest covers every tree's parts, so warm-cache runs must
     print the same line as cold ones. *)
  let trees = !scale_racke_trees in
  let t0 = Unix.gettimeofday () in
  let forest =
    match !store with
    | Some st -> Memo.racke_forest ~store:st (seeded 134) ~trees ~batch:1 g
    | None -> Racke.forest (seeded 134) ~trees ~batch:1 g
  in
  let racke_dt = Unix.gettimeofday () -. t0 in
  let max_levels = List.fold_left (fun acc t -> max acc (Frt.levels t)) 0 forest in
  let racke_nodes_per_sec = float_of_int (n * trees) /. racke_dt in
  (* Every tree references the input graph, so the forest's own working
     set is what [(forest, g)] reaches beyond [g] alone (the graph counted
     once); the graph is reported beside it. *)
  let bytes words = float_of_int (words * (Sys.word_size / 8)) in
  let graph_bytes = bytes (Obj.reachable_words (Obj.repr g)) in
  let working_set = bytes (Obj.reachable_words (Obj.repr (forest, g))) -. graph_bytes in
  scalar "racke.trees" (float_of_int trees);
  scalar "racke.levels" (float_of_int max_levels);
  scalar "racke.build_seconds" racke_dt;
  scalar "racke.nodes_per_sec" racke_nodes_per_sec;
  scalar "racke.working_set_bytes" working_set;
  Printf.printf "racke: %d trees, max %d levels, batch 1\n" trees max_levels;
  Printf.printf "racke build: %.2f s (%.0f nodes/sec, working set %.1f MB beside a %.1f MB graph)\n"
    racke_dt racke_nodes_per_sec (working_set /. 1048576.0) (graph_bytes /. 1048576.0);
  let forest_digest =
    Codec.hex_of_key
      (Codec.fnv1a64 (Codec.encode_forest (List.map Frt.to_parts forest)))
  in
  Printf.printf "racke forest digest: %s\n" forest_digest;
  (* Throughput floor in the --obs-guard pattern: gate against the
     committed baseline, but only when it describes this instance (the
     smoke runs a smaller k) and with a 2x allowance for machine noise —
     the gate exists to catch the construction regressing to super-linear
     behavior, not jitter. *)
  let baseline key =
    match In_channel.with_open_bin "BENCH_scale.json" In_channel.input_all with
    | text -> (
        match Trace.Json.member "scalars" (Trace.Json.parse text) with
        | Some scalars ->
            Option.bind (Trace.Json.member key scalars) Trace.Json.number
        | None -> None
        | exception Trace.Corrupt _ -> None)
    | exception Sys_error _ -> None
  in
  match (baseline "scale.n", baseline "racke.nodes_per_sec") with
  | Some n0, Some floor_base when int_of_float n0 = n ->
      if racke_nodes_per_sec < floor_base /. 2.0 then begin
        Printf.printf
          "FAIL racke: %.0f nodes/sec below half the %.0f baseline\n"
          racke_nodes_per_sec floor_base;
        exit 1
      end
      else
        Printf.printf "racke: ok (throughput within 2x of committed baseline)\n"
  | _ -> Printf.printf "racke: ok (no matching baseline: floor gate skipped)\n"

(* --serve: the routing-service family (BENCH_serve.json).  Generates a
   churn stream on a WAN-scale random-regular topology, replays it twice
   through [Serve] — once warm (MWU weights carried across ticks, the
   service's operating mode) and once with a cold re-solve forced every
   tick — and reports replay throughput (updates/sec) plus the per-tick
   re-solve latency distribution of both modes.  The run fails unless the
   warm p99 is at least 3x faster than the cold p99: carrying the weights
   must beat re-solving from scratch by a wide margin, or the service has
   no reason to exist.  Quality is tracked alongside (warm vs cold final
   congestion) so the speedup is never bought with a bad routing. *)

let serve_nodes = ref 64
let serve_ticks = ref 40
let serve_churn_pairs = ref 64

let serve () =
  let module Serve = Sso_serve.Serve in
  let module Workload = Sso_demand.Workload in
  let module Trees = Sso_oblivious.Trees in
  let n = !serve_nodes in
  header
    (Printf.sprintf "serve  (churn service, %d-node WAN, %d ticks)" n
       !serve_ticks);
  let g = Gen.random_regular (seeded 140) n 4 in
  scalar "serve.n" (float_of_int (Graph.n g));
  scalar "serve.m" (float_of_int (Graph.m g));
  let obl = Trees.uniform (seeded 141) ~count:4 g in
  let events =
    Workload.generate ~rate_churn:0.2 (seeded 142) ~n ~ticks:!serve_ticks
      ~pairs:!serve_churn_pairs ~churn:0.15
  in
  let nevents = List.length events in
  Printf.printf "stream: %d events over %d ticks (%d active pairs)\n" nevents
    !serve_ticks !serve_churn_pairs;
  scalar "serve.events" (float_of_int nevents);
  scalar "serve.ticks" (float_of_int !serve_ticks);
  scalar "serve.pairs" (float_of_int !serve_churn_pairs);
  let replay config =
    (* A fresh sampled system per mode: both runs admit the same pairs
       from the same rng child, so the candidate sets are identical. *)
    let system = Sampler.alpha_sample (seeded 143) obl ~alpha:4 in
    let srv = Serve.create ~config g system in
    let t0 = Unix.gettimeofday () in
    let reports = Serve.replay srv events in
    let dt = Unix.gettimeofday () -. t0 in
    (reports, dt)
  in
  let warm_cfg = Serve.default_config in
  let cold_cfg = { Serve.default_config with refresh_every = 1 } in
  (* Cold first, warm second: the warm numbers are the cache-hot ones the
     gate judges, as they would be in a long-lived process. *)
  let cold_reports, _cold_dt = replay cold_cfg in
  let warm_reports, warm_dt = replay warm_cfg in
  let updates_per_sec = float_of_int nevents /. warm_dt in
  (* Per-tick re-solve latency, skipping tick 0: both modes solve it cold
     (the service has no history yet), so it measures nothing. *)
  let tick_ms reports =
    List.filter_map
      (fun (r : Serve.report) ->
        if r.Serve.tick = 0 then None
        else Some (float_of_int r.Serve.solve_ns /. 1e6))
      reports
  in
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
  let p99 xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.((99 * (Array.length a - 1) + 50) / 100)
  in
  let warm_ms = tick_ms warm_reports and cold_ms = tick_ms cold_reports in
  let final_congestion reports =
    match List.rev reports with
    | (r : Serve.report) :: _ -> r.Serve.congestion
    | [] -> nan
  in
  let warm_final = final_congestion warm_reports in
  let cold_final = final_congestion cold_reports in
  let speedup_mean = mean cold_ms /. mean warm_ms in
  let speedup_p99 = p99 cold_ms /. p99 warm_ms in
  let max_staleness =
    List.fold_left
      (fun acc (r : Serve.report) -> max acc r.Serve.staleness)
      0 warm_reports
  in
  scalar "serve.updates_per_sec" updates_per_sec;
  scalar "serve.warm_tick_ms.mean" (mean warm_ms);
  scalar "serve.warm_tick_ms.p99" (p99 warm_ms);
  scalar "serve.cold_tick_ms.mean" (mean cold_ms);
  scalar "serve.cold_tick_ms.p99" (p99 cold_ms);
  scalar "serve.speedup.mean" speedup_mean;
  scalar "serve.speedup.p99" speedup_p99;
  scalar "serve.congestion.warm" warm_final;
  scalar "serve.congestion.cold" cold_final;
  scalar "serve.quality_ratio" (warm_final /. cold_final);
  scalar "serve.staleness.max" (float_of_int max_staleness);
  Printf.printf "throughput: %.0f updates/sec (warm replay, %.1f ms total)\n"
    updates_per_sec (warm_dt *. 1e3);
  Printf.printf
    "re-solve per tick: warm mean %.2f ms p99 %.2f ms | cold mean %.2f ms \
     p99 %.2f ms\n"
    (mean warm_ms) (p99 warm_ms) (mean cold_ms) (p99 cold_ms);
  Printf.printf "speedup: mean %.1fx, p99 %.1fx\n" speedup_mean speedup_p99;
  Printf.printf
    "quality: warm congestion %.4f vs cold %.4f (ratio %.3f), max staleness \
     %d\n"
    warm_final cold_final (warm_final /. cold_final) max_staleness;
  if speedup_p99 < 3.0 then begin
    Printf.printf
      "FAIL serve: warm p99 speedup %.2fx below the 3x floor\n" speedup_p99;
    exit 1
  end
  else
    Printf.printf "serve: ok (warm re-solve %.1fx faster at p99)\n" speedup_p99

(* --serve-faults: the fault-in-the-loop family (also BENCH_serve.json).
   Same WAN and churn stream as --serve, but a worst-k outage (picked by
   the Sweep adversary against the demand the service is carrying at the
   failure instant) strikes a third of the way in and repairs at two
   thirds.  Three replays: warm (the operating mode), per-tick cold (the
   quality oracle under the same faults), and warm with a small event
   budget (to measure how much of the outage window is served stale).
   The gate is the recovery makespan — the number of ticks after the
   failure the warm service needs before its congestion is back within
   10% of the faulted cold oracle.  A long makespan means carrying the
   weights across a topology change does not work and the service would
   have to fall back to cold re-solves exactly when it can least afford
   them. *)

let serve_fault_k = ref 3
let serve_fault_budget = ref 24

let serve_faults () =
  let module Serve = Sso_serve.Serve in
  let module Workload = Sso_demand.Workload in
  let module Update = Sso_demand.Update in
  let module Trees = Sso_oblivious.Trees in
  let module Scenario = Sso_fault.Scenario in
  let module Timeline = Sso_fault.Timeline in
  let module Fault_sweep = Sso_fault.Sweep in
  let n = !serve_nodes in
  let k = !serve_fault_k in
  header
    (Printf.sprintf "serve-faults  (worst-%d outage, %d-node WAN, %d ticks)" k
       n !serve_ticks);
  let g = Gen.random_regular (seeded 140) n 4 in
  let obl = Trees.uniform (seeded 141) ~count:4 g in
  let events =
    Workload.generate ~rate_churn:0.2 (seeded 142) ~n ~ticks:!serve_ticks
      ~pairs:!serve_churn_pairs ~churn:0.15
  in
  let fail_at = max 1 (!serve_ticks / 3) in
  let repair_at = max (fail_at + 1) (2 * !serve_ticks / 3) in
  (* The adversary picks the k edges that hurt the demand the service is
     actually carrying when the outage strikes. *)
  let demand0 =
    Update.apply Demand.empty
      (List.filter (fun (e : Update.t) -> e.Update.tick < fail_at) events)
  in
  let sweep_system = Sampler.alpha_sample (seeded 143) obl ~alpha:4 in
  let worst = Fault_sweep.worst_k ?store:!store g sweep_system demand0 ~k in
  let scenario = worst.Fault_sweep.scenario in
  Printf.printf "scenario: %s — fails tick %d, repairs tick %d\n"
    scenario.Scenario.label fail_at repair_at;
  let faults =
    Serve.faults_of_timeline [ Timeline.entry ~at:fail_at ~repair_at scenario ]
  in
  let replay ?(faults = faults) config =
    let system = Sampler.alpha_sample (seeded 143) obl ~alpha:4 in
    let srv = Serve.create ~config g system in
    let reports = Serve.replay ~faults srv events in
    reports
  in
  let cold_reports =
    replay { Serve.default_config with refresh_every = 1 }
  in
  let warm_reports = replay Serve.default_config in
  let baseline_reports = replay ~faults:[] Serve.default_config in
  let congestion_at reports t =
    List.find_map
      (fun (r : Serve.report) ->
        if r.Serve.tick = t then Some r.Serve.congestion else None)
      reports
  in
  (* Recovery makespan: once the outage is repaired the topology is back
     to normal, so the faulted warm replay must converge to its own
     unfaulted trajectory — the last tick >= repair_at still more than
     10% above it, counted from the repair (0 = instant re-absorption).
     The outage window itself is excluded: there, congestion is
     legitimately higher because the edges are gone (reported separately
     against the faulted cold oracle). *)
  let recovery_makespan =
    List.fold_left
      (fun acc (r : Serve.report) ->
        match congestion_at baseline_reports r.Serve.tick with
        | Some base
          when r.Serve.tick >= repair_at
               && r.Serve.congestion > (1.10 *. base) +. 1e-9 ->
            max acc (r.Serve.tick - repair_at + 1)
        | _ -> acc)
      0 warm_reports
  in
  let sum_field f reports =
    List.fold_left (fun acc r -> acc + f r) 0 reports
  in
  let rerouted = sum_field (fun r -> r.Serve.rerouted) warm_reports in
  let max_unroutable =
    List.fold_left (fun acc r -> max acc r.Serve.unroutable) 0 warm_reports
  in
  (* Degraded-tick fraction: replay the same outage with a small event
     budget and count the ticks served stale. *)
  let degraded_reports =
    replay { Serve.default_config with event_budget = !serve_fault_budget }
  in
  let degraded_ticks =
    sum_field
      (fun r -> if r.Serve.mode = Serve.Degraded then 1 else 0)
      degraded_reports
  in
  let deferred_total = sum_field (fun r -> r.Serve.deferred) degraded_reports in
  let degraded_fraction =
    float_of_int degraded_ticks /. float_of_int (List.length degraded_reports)
  in
  scalar "serve_faults.k" (float_of_int k);
  scalar "serve_faults.fail_tick" (float_of_int fail_at);
  scalar "serve_faults.repair_tick" (float_of_int repair_at);
  scalar "serve_faults.post_opt_ratio" worst.Fault_sweep.ratio;
  scalar "serve_faults.rerouted" (float_of_int rerouted);
  scalar "serve_faults.unroutable.max" (float_of_int max_unroutable);
  scalar "serve_faults.recovery_makespan" (float_of_int recovery_makespan);
  scalar "serve_faults.event_budget" (float_of_int !serve_fault_budget);
  scalar "serve_faults.degraded_ticks" (float_of_int degraded_ticks);
  scalar "serve_faults.degraded_fraction" degraded_fraction;
  scalar "serve_faults.deferred_total" (float_of_int deferred_total);
  let show name reports =
    let during =
      match congestion_at reports (repair_at - 1) with
      | Some c -> c
      | None -> nan
    in
    let final =
      match List.rev reports with
      | (r : Serve.report) :: _ -> r.Serve.congestion
      | [] -> nan
    in
    scalar (Printf.sprintf "serve_faults.congestion.%s.outage" name) during;
    scalar (Printf.sprintf "serve_faults.congestion.%s.final" name) final;
    Printf.printf "%-8s congestion: %.4f during outage, %.4f final\n" name
      during final
  in
  show "warm" warm_reports;
  show "cold" cold_reports;
  Printf.printf
    "outage: %d commodities displaced, %d unroutable at worst, recovery \
     makespan %d ticks\n"
    rerouted max_unroutable recovery_makespan;
  Printf.printf
    "degraded replay (budget %d): %d/%d ticks served stale (%.0f%%), %d \
     deferrals\n"
    !serve_fault_budget degraded_ticks
    (List.length degraded_reports)
    (100.0 *. degraded_fraction)
    deferred_total;
  if recovery_makespan > 6 then begin
    Printf.printf
      "FAIL serve-faults: recovery makespan %d ticks above the 6-tick floor\n"
      recovery_makespan;
    exit 1
  end
  else
    Printf.printf "serve-faults: ok (recovered within %d ticks of the outage)\n"
      recovery_makespan

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

let () =
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  if has "--big" then big_scale := true;
  if has "--no-timing" then no_timing := true;
  let rec find_value flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> find_value flag rest
    | [] -> None
  in
  let find_experiment args = find_value "--experiment" args in
  (match find_value "--jobs" args with
  | Some v -> (
      match int_of_string_opt v with
      | Some jobs when jobs >= 1 -> Pool.set_default_jobs jobs
      | _ ->
          Printf.eprintf "--jobs expects a positive integer, got %s\n" v;
          exit 1)
  | None -> ());
  (match find_value "--seed" args with
  | Some v -> (
      match int_of_string_opt v with
      | Some s -> master_seed := s
      | None ->
          Printf.eprintf "--seed expects an integer, got %s\n" v;
          exit 1)
  | None -> ());
  let trace_path = find_value "--trace" args in
  if trace_path <> None then Obs.set_tracing true;
  let cache_dir = find_value "--cache-dir" args in
  if (has "--cache" || cache_dir <> None) && not (has "--no-cache") then (
    match Store.open_ ?dir:cache_dir () with
    | st -> store := Some st
    | exception Store.Unreadable msg ->
        Printf.eprintf "--cache: %s\n" msg;
        exit 1);
  let timings : (string * float) list ref = ref [] in
  let timed_run id run =
    let t0 = Unix.gettimeofday () in
    Obs.traced ("bench." ^ id) run;
    timings := !timings @ [ (id, Unix.gettimeofday () -. t0) ]
  in
  if has "--list" then
    List.iter (fun (id, title, _) -> Printf.printf "%-4s %s\n" id title) experiments
  else if has "--kernels" then kernels ()
  else if has "--faults" then faults ()
  else if has "--obs-guard" then obs_guard ()
  else if has "--scale" then begin
    (match find_value "--scale-k" args with
    | Some v -> (
        match int_of_string_opt v with
        | Some k when k >= 2 && k mod 2 = 0 -> scale_k := k
        | _ ->
            Printf.eprintf "--scale-k expects an even integer >= 2, got %s\n" v;
            exit 1)
    | None -> ());
    (match find_value "--scale-pairs" args with
    | Some v -> (
        match int_of_string_opt v with
        | Some p when p >= 1 -> scale_pairs := p
        | _ ->
            Printf.eprintf "--scale-pairs expects a positive integer, got %s\n" v;
            exit 1)
    | None -> ());
    (match find_value "--scale-racke-trees" args with
    | Some v -> (
        match int_of_string_opt v with
        | Some t when t >= 1 -> scale_racke_trees := t
        | _ ->
            Printf.eprintf
              "--scale-racke-trees expects a positive integer, got %s\n" v;
            exit 1)
    | None -> ());
    scale ()
  end
  else if has "--serve" || has "--serve-faults" then begin
    let int_knob flag min_v target =
      match find_value flag args with
      | Some v -> (
          match int_of_string_opt v with
          | Some x when x >= min_v -> target := x
          | _ ->
              Printf.eprintf "%s expects an integer >= %d, got %s\n" flag min_v
                v;
              exit 1)
      | None -> ()
    in
    int_knob "--serve-nodes" 8 serve_nodes;
    int_knob "--serve-ticks" 2 serve_ticks;
    int_knob "--serve-pairs" 1 serve_churn_pairs;
    int_knob "--serve-fault-k" 1 serve_fault_k;
    int_knob "--serve-fault-budget" 1 serve_fault_budget;
    if has "--serve" then serve ();
    if has "--serve-faults" then serve_faults ()
  end
  else begin
    (match find_experiment args with
    | Some id -> (
        match List.find_opt (fun (eid, _, _) -> eid = id) experiments with
        | Some (eid, _, run) -> timed_run eid run
        | None ->
            Printf.eprintf "unknown experiment %s (try --list)\n" id;
            exit 1)
    | None ->
        if not (has "--timing") then
          List.iter (fun (id, _, run) -> timed_run id run) experiments);
    if (has "--timing" || not (has "--no-timing")) && find_experiment args = None
    then timing ()
  end;
  if has "--metrics" then begin
    header
      (Printf.sprintf "metrics  (jobs = %d)" (Pool.default_jobs ()));
    print_string (Obs.metrics_table ())
  end;
  (match trace_path with
  | None -> ()
  | Some path ->
      (* argv is deliberately left out of the meta: traces from the same
         seed at different --jobs must differ only in the "jobs" field. *)
      let meta =
        [
          ("seed", Trace.Int !master_seed);
          ("jobs", Trace.Int (Pool.default_jobs ()));
          ("git", Trace.String (git_describe ()));
        ]
      in
      Obs.write_trace ~path ~meta);
  match find_value "--json" args with
  | None -> ()
  | Some path ->
      let escape s =
        let b = Buffer.create (String.length s + 8) in
        String.iter
          (fun c ->
            match c with
            | '"' -> Buffer.add_string b "\\\""
            | '\\' -> Buffer.add_string b "\\\\"
            | c when Char.code c < 0x20 ->
                Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
            | c -> Buffer.add_char b c)
          s;
        Buffer.contents b
      in
      let fields f entries =
        String.concat ", " (List.map f entries)
      in
      let cache_counter name =
        Obs.counter_value (Obs.counter ("artifact." ^ name))
      in
      let json =
        Printf.sprintf
          "{\"meta\": {\"schema\": \"sso-bench\", \"version\": 1, \"seed\": \
           %d, \"jobs\": %d, \"git\": \"%s\", \"trace_schema\": %d}, \
           \"seed\": %d, \"jobs\": %d, \"cache\": {%s}, \"experiments\": \
           [%s], \"scalars\": {%s}, \"metrics\": %s}\n"
          !master_seed (Pool.default_jobs ())
          (escape (git_describe ()))
          Trace.schema_version !master_seed (Pool.default_jobs ())
          (fields
             (fun name ->
               Printf.sprintf "\"%s\": %d" name (cache_counter name))
             [ "hit"; "miss"; "corrupt"; "bytes_read"; "bytes_written" ])
          (fields
             (fun (id, seconds) ->
               Printf.sprintf "{\"id\": \"%s\", \"seconds\": %.6f}" (escape id)
                 seconds)
             !timings)
          (fields
             (fun (name, v) ->
               (* Non-finite values (unsurvivable ratios, unmeasured
                  recoveries) are not valid JSON numbers: quote them. *)
               if Float.is_finite v then
                 Printf.sprintf "\"%s\": %.17g" (escape name) v
               else Printf.sprintf "\"%s\": \"%.17g\"" (escape name) v)
             !scalars)
          (Obs.metrics_json ())
      in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc json)
