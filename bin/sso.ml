(* sso — command-line driver for the sparse semi-oblivious routing library.

   Subcommands:
     gen     generate a graph and print it in the edge-list format
     info    print statistics of a graph
     route   build a sampled path system and route a demand through it
     attack  run the Section-8 adversary on C(n,k)
     faults  fault injection: scenario sweeps, timelines, worst-k search
     serve   long-lived routing service: generate/replay update streams
     cache   inspect and maintain the artifact store (ls/stat/gc/clear)

   Examples:
     sso gen --kind hypercube --size 4 > cube.g
     sso info cube.g
     sso route cube.g --base valiant --alpha 3 --demand permutation --seed 7
     sso route cube.g --cache            # memoize the Racke construction
     sso attack --leaves 12 --middles 6 --alpha 2
     sso cache ls *)

module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Gen = Sso_graph.Gen
module Gio = Sso_graph.Gio
module Shortest = Sso_graph.Shortest
module Demand = Sso_demand.Demand
module Oblivious = Sso_oblivious.Oblivious
module Valiant = Sso_oblivious.Valiant
module Deterministic = Sso_oblivious.Deterministic
module Ksp = Sso_oblivious.Ksp
module Racke = Sso_oblivious.Racke
module Sampler = Sso_core.Sampler
module Path_system = Sso_core.Path_system
module Semi_oblivious = Sso_core.Semi_oblivious
module Lower_bound = Sso_core.Lower_bound
module Store = Sso_artifact.Store
module Memo = Sso_artifact.Memo
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace

open Cmdliner

(* Exit codes for cache problems, distinct from cmdliner's 124/125:
   10 = the store directory is unreadable, 11 = corrupt entries seen,
   12 = a --slo-p99-ms budget burned during serve replay. *)
let exit_unreadable = 10
let exit_corrupt = 11
let exit_slo = 12

(* ---- shared argument parsers ---- *)

let seed_arg =
  let doc = "PRNG seed; every run is deterministic given the seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallel stages (default: the number of cores). \
     Results are identical for any value."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"JOBS" ~doc)

let set_jobs = function
  | Some jobs when jobs >= 1 -> Sso_engine.Pool.set_default_jobs jobs
  | Some jobs ->
      Printf.eprintf "sso: --jobs must be >= 1, got %d\n" jobs;
      exit 124
  | None -> ()

let read_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

(* A GRAPH file that cannot be read exits [exit_unreadable] and one that
   does not parse exits [exit_corrupt], each with one stderr line naming
   the file. *)
let read_graph path =
  match read_file path with
  | exception Sys_error msg ->
      Printf.eprintf "sso: cannot read graph %s: %s\n" path msg;
      exit exit_unreadable
  | text -> (
      match Gio.of_string text with
      | g -> g
      | exception (Failure msg | Invalid_argument msg) ->
          Printf.eprintf "sso: malformed graph %s: %s\n" path msg;
          exit exit_corrupt)

(* ---- spec flags ----

   Each spec-valued flag has exactly one parser below.  [spec_arg] keeps
   the spelling as typed (reports echo it) next to the parsed value, and
   turns a malformed value into a one-line usage error that exits 124. *)

let check_spec ~name ~expected parse spec =
  match parse spec with
  | Some value -> Ok (spec, value)
  | None ->
      Error
        (`Msg
           (Printf.sprintf
              "option '--%s': invalid value '%s', expected one of: %s" name spec
              (String.concat ", " expected)))

let spec_info ~name ~doc = Arg.info [ name ] ~docv:(String.uppercase_ascii name) ~doc

let spec_arg ~name ~default ~expected ~doc parse =
  let spelling = Arg.(value & opt string default & spec_info ~name ~doc) in
  let check = check_spec ~name ~expected parse in
  Term.(term_result (const check $ spelling))

(* A spec flag with no default: [None] when absent. *)
let spec_opt_arg ~name ~expected ~doc parse =
  let spelling = Arg.(value & opt (some string) None & spec_info ~name ~doc) in
  let check_spec = check_spec ~name ~expected parse in
  let check = function
    | None -> Ok None
    | Some spec -> Result.map Option.some (check_spec spec)
  in
  Term.(term_result (const check $ spelling))

(* A value that parses but does not fit — an edge id past the graph's
   edges, a repair before the failure — is a usage error too: one line on
   stderr, exit 124. *)
let misfit ~name fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "sso: option '--%s': %s\n" name msg;
      exit 124)
    fmt

let edge_id ~name g e =
  if e < Graph.m g then e
  else misfit ~name "edge id %d out of range (the graph has %d edges)" e (Graph.m g)

let edge_count ~name g k =
  if k <= Graph.m g then k
  else misfit ~name "%d edges requested, the graph has %d" k (Graph.m g)

let int_at_least lo s =
  match int_of_string_opt s with Some i when i >= lo -> Some i | _ -> None

let all_some xs =
  if List.for_all Option.is_some xs then Some (List.map Option.get xs) else None

let solver_arg ~doc =
  spec_arg ~name:"solver" ~default:"mwu"
    ~expected:[ "mwu[:ITERS] (ITERS >= 1)"; "gk[:EPS] (0 < EPS < 1)"; "lp" ]
    ~doc (fun spec ->
      match String.split_on_char ':' spec with
      | [ "lp" ] -> Some Semi_oblivious.Lp
      | [ "mwu" ] -> Some Semi_oblivious.default_solver
      | [ "mwu"; iters ] ->
          Option.map (fun i -> Semi_oblivious.Mwu i) (int_at_least 1 iters)
      | [ "gk" ] -> Some (Semi_oblivious.Gk 0.1)
      | [ "gk"; eps ] -> (
          match float_of_string_opt eps with
          | Some eps when eps > 0.0 && eps < 1.0 -> Some (Semi_oblivious.Gk eps)
          | _ -> None)
      | _ -> None)

(* The base oblivious routing, built once the graph is known.  Only racke
   draws randomness, from its own split of [rng]. *)
let base_arg ?(ecube = false) ~doc () =
  spec_arg ~name:"base" ~default:"racke"
    ~expected:
      ([ "racke"; "valiant"; "ksp"; "shortest" ]
      @ if ecube then [ "ecube" ] else [])
    ~doc (fun spec ->
      match spec with
      | "racke" ->
          Some (fun ~store ~alpha:_ rng g -> Memo.racke ?store (Rng.split rng) g)
      | "valiant" -> Some (fun ~store:_ ~alpha:_ _ g -> Valiant.routing g)
      | "ksp" -> Some (fun ~store:_ ~alpha _ g -> Ksp.routing ~k:(max 4 alpha) g)
      | "shortest" ->
          Some (fun ~store:_ ~alpha:_ _ g -> Deterministic.shortest_path g)
      | "ecube" when ecube ->
          Some (fun ~store:_ ~alpha:_ _ g -> Deterministic.ecube g)
      | _ -> None)

(* The demand workload, drawn from [rng] once the graph is known. *)
let demand_arg ?(file = false) ~default ~doc () =
  spec_arg ~name:"demand" ~default
    ~expected:
      ([ "permutation"; "pairs:N (N >= 0)"; "gravity:TOTAL (TOTAL > 0)";
         "all-to-all" ]
      @ if file then [ "file:PATH" ] else [])
    ~doc (fun spec ->
      match String.split_on_char ':' spec with
      | [ "permutation" ] ->
          Some (fun rng g -> Demand.random_permutation rng (Graph.n g))
      | [ "pairs"; count ] ->
          Option.map
            (fun pairs rng g -> Demand.random_pairs rng ~n:(Graph.n g) ~pairs)
            (int_at_least 0 count)
      | [ "gravity"; total ] -> (
          match float_of_string_opt total with
          | Some total when total > 0.0 ->
              Some (fun rng g -> Demand.gravity rng ~n:(Graph.n g) ~total)
          | _ -> None)
      | [ "all-to-all" ] -> Some (fun _ g -> Demand.all_to_all (Graph.n g))
      | [ "file"; path ] when file ->
          Some (fun _ _ -> Demand.of_string (read_file path))
      | _ -> None)

(* A generated graph family, for the commands that need the generator's
   vertex layout.  Only expander draws randomness from [rng]. *)
let family_arg ?(expander = false) ~doc () =
  spec_arg ~name:"family" ~default:"torus"
    ~expected:
      ([ "torus"; "fat-tree"; "abilene"; "b4" ]
      @ if expander then [ "expander" ] else [])
    ~doc (fun spec ->
      match spec with
      | "torus" -> Some (fun _ size -> Gen.torus size size)
      | "fat-tree" -> Some (fun _ size -> Gen.fat_tree size)
      | "abilene" -> Some (fun _ _ -> fst (Gen.abilene ()))
      | "b4" -> Some (fun _ _ -> fst (Gen.b4 ()))
      | "expander" when expander ->
          Some (fun rng size -> Gen.random_regular rng size 4)
      | _ -> None)

(* ---- JSON writers ---- *)

let jstr s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Non-finite floats are quoted: JSON has no literal for them. *)
let jfloat f =
  if Float.is_nan f then "\"nan\""
  else if f = infinity then "\"inf\""
  else if f = neg_infinity then "\"-inf\""
  else Printf.sprintf "%.17g" f

(* The artifact-store hit/miss counts, as a trailing report field. *)
let cache_json = function
  | None -> ""
  | Some _ ->
      Printf.sprintf ",\n  \"cache\": {\"hit\": %d, \"miss\": %d}"
        (Obs.counter_value (Obs.counter "artifact.hit"))
        (Obs.counter_value (Obs.counter "artifact.miss"))

(* ---- artifact-cache arguments ---- *)

let cache_arg =
  let doc =
    "Memoize expensive constructions (Räcke forests) in the on-disk \
     artifact store.  Results are bit-identical with or without the cache."
  in
  Arg.(value & flag & info [ "cache" ] ~doc)

let no_cache_arg =
  let doc = "Disable the artifact cache (overrides $(b,--cache))." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let cache_dir_arg =
  let doc =
    "Artifact store directory (implies $(b,--cache)).  Default: \
     $(b,SSO_CACHE_DIR), then $(b,XDG_CACHE_HOME)/sso, then ~/.cache/sso."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let open_store cache no_cache cache_dir =
  if no_cache || not (cache || cache_dir <> None) then None
  else
    match Store.open_ ?dir:cache_dir () with
    | st -> Some st
    | exception Store.Unreadable msg ->
        Printf.eprintf "sso: cannot open the artifact store: %s\n" msg;
        exit exit_unreadable

(* ---- tracing arguments ---- *)

let trace_arg =
  let doc =
    "Record a structured execution trace (spans, per-round solver telemetry) \
     to $(docv) as JSONL.  Inspect it with $(b,sso trace)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let start_trace = function None -> () | Some _ -> Obs.set_tracing true

let finish_trace ~seed = function
  | None -> ()
  | Some path ->
      let meta =
        [
          ("seed", Trace.Int seed);
          ("jobs", Trace.Int (Sso_engine.Pool.default_jobs ()));
        ]
      in
      (match Obs.write_trace ~path ~meta with
      | () -> ()
      | exception Trace.Unreadable msg ->
          Printf.eprintf "sso: cannot write trace: %s\n" msg;
          exit exit_unreadable)

(* ---- gen ---- *)

let gen_cmd =
  let kind_arg =
    spec_arg ~name:"kind" ~default:"grid"
      ~expected:
        [ "hypercube"; "grid"; "torus"; "cycle"; "path"; "complete"; "expander";
          "two-cliques"; "abilene"; "c-gadget" ]
      ~doc:
        "Topology: hypercube, grid, torus, cycle, path, complete, expander, \
         two-cliques, abilene, c-gadget."
      (function
        | "hypercube" -> Some (fun _ size _ -> Gen.hypercube size)
        | "grid" -> Some (fun _ size _ -> Gen.grid size size)
        | "torus" -> Some (fun _ size _ -> Gen.torus size size)
        | "cycle" -> Some (fun _ size _ -> Gen.cycle size)
        | "path" -> Some (fun _ size _ -> Gen.path_graph size)
        | "complete" -> Some (fun _ size _ -> Gen.complete size)
        | "expander" -> Some (fun rng size aux -> Gen.random_regular rng size aux)
        | "two-cliques" -> Some (fun _ size _ -> Gen.two_cliques size)
        | "abilene" -> Some (fun _ _ _ -> fst (Gen.abilene ()))
        | "c-gadget" -> Some (fun _ size aux -> (Gen.c_graph size aux).Gen.c_graph)
        | _ -> None)
  in
  let size_arg =
    let doc =
      "Primary size (hypercube dimension; side for grid/torus; vertex count \
       otherwise)."
    in
    Arg.(value & opt int 4 & info [ "size" ] ~docv:"N" ~doc)
  in
  let aux_arg =
    let doc = "Secondary size (middles for c-gadget, degree for expander)." in
    Arg.(value & opt int 3 & info [ "aux" ] ~docv:"K" ~doc)
  in
  let run (_, build) size aux seed =
    print_string (Gio.to_string (build (Rng.create seed) size aux))
  in
  let doc = "generate a graph and print it as an edge list" in
  Cmd.v (Cmd.info "gen" ~doc)
    Term.(const run $ kind_arg $ size_arg $ aux_arg $ seed_arg)

(* ---- info ---- *)

let graph_pos =
  let doc = "Graph file in the edge-list format produced by $(b,sso gen)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc)

let info_cmd =
  let run path =
    let g = read_graph path in
    Printf.printf "vertices   %d\n" (Graph.n g);
    Printf.printf "edges      %d\n" (Graph.m g);
    Printf.printf "max degree %d\n" (Graph.max_degree g);
    Printf.printf "connected  %b\n" (Graph.is_connected g);
    if Graph.is_connected g then Printf.printf "diameter   %d\n" (Shortest.diameter g);
    Printf.printf "capacity   %g\n" (Graph.total_capacity g)
  in
  let doc = "print statistics of a graph" in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ graph_pos)

(* ---- route ---- *)

let route_cmd =
  let base_arg =
    base_arg ~ecube:true
      ~doc:"Base oblivious routing: racke, valiant, ksp, shortest, ecube." ()
  in
  let alpha_arg =
    let doc = "Paths sampled per pair (the paper's α); 0 = use the full support." in
    Arg.(value & opt int 4 & info [ "alpha" ] ~docv:"ALPHA" ~doc)
  in
  let cut_arg =
    let doc = "Sample α + cut_G(s,t) paths instead of α (Definition 5.2)." in
    Arg.(value & flag & info [ "with-cut" ] ~doc)
  in
  let demand_arg =
    demand_arg ~file:true ~default:"permutation"
      ~doc:
        "Demand workload: permutation, pairs:N, gravity:TOTAL, all-to-all, or \
         file:PATH (one 's t amount' line per pair)."
      ()
  in
  let solver_arg =
    solver_arg
      ~doc:
        "Stage-4 solver: mwu[:ITERS] (default), gk[:EPS] (Garg-Konemann), or \
         lp (exact, small instances)."
  in
  let run path (_, base) alpha with_cut (_, demand) (_, solver) seed jobs cache
      no_cache cache_dir trace =
    set_jobs jobs;
    start_trace trace;
    let store = open_store cache no_cache cache_dir in
    let g = read_graph path in
    let rng = Rng.create seed in
    let base_routing = base ~store ~alpha rng g in
    let system =
      if alpha = 0 then Path_system.of_oblivious_support base_routing
      else if with_cut then Sampler.alpha_cut_sample (Rng.split rng) base_routing ~alpha
      else Sampler.alpha_sample (Rng.split rng) base_routing ~alpha
    in
    (* The last draw: splitting for a workload that draws nothing leaves
       every result unchanged. *)
    let demand = demand (Rng.split rng) g in
    let congestion = Semi_oblivious.congestion ~solver g system demand in
    let opt = Semi_oblivious.opt g demand in
    let oblivious_congestion = Oblivious.congestion base_routing demand in
    Printf.printf "demand size           %.0f (%d pairs)\n" (Demand.siz demand)
      (Demand.support_size demand);
    Printf.printf "system sparsity       %d\n"
      (Path_system.sparsity_on system (Demand.support demand));
    Printf.printf "semi-oblivious cong   %.4f\n" congestion;
    Printf.printf "base oblivious cong   %.4f\n" oblivious_congestion;
    Printf.printf "offline optimum (est) %.4f\n" opt;
    Printf.printf "competitive ratio     %.3f\n" (congestion /. opt);
    finish_trace ~seed trace
  in
  let doc = "sample a path system from an oblivious routing and route a demand" in
  Cmd.v (Cmd.info "route" ~doc)
    Term.(
      const run $ graph_pos $ base_arg $ alpha_arg $ cut_arg $ demand_arg
      $ solver_arg $ seed_arg $ jobs_arg $ cache_arg $ no_cache_arg
      $ cache_dir_arg $ trace_arg)

(* ---- attack ---- *)

let attack_cmd =
  let leaves_arg =
    let doc = "Leaves per star in C(n,k)." in
    Arg.(value & opt int 12 & info [ "leaves" ] ~docv:"N" ~doc)
  in
  let middles_arg =
    let doc = "Middle vertices in C(n,k)." in
    Arg.(value & opt int 6 & info [ "middles" ] ~docv:"K" ~doc)
  in
  let alpha_arg =
    let doc = "Sparsity of the sampled system under attack." in
    Arg.(value & opt int 2 & info [ "alpha" ] ~docv:"ALPHA" ~doc)
  in
  let run leaves middles alpha seed jobs trace =
    set_jobs jobs;
    start_trace trace;
    let c = Gen.c_graph leaves middles in
    let rng = Rng.create seed in
    let base = Ksp.routing ~k:(2 * middles) c.Gen.c_graph in
    let system = Sampler.alpha_sample rng base ~alpha in
    let attack = Lower_bound.attack c system in
    let measured =
      Semi_oblivious.congestion ~solver:Semi_oblivious.Lp c.Gen.c_graph system
        attack.Lower_bound.demand
    in
    Printf.printf "gadget C(%d,%d), alpha = %d\n" leaves middles alpha;
    Printf.printf "bottleneck S'        {%s}\n"
      (String.concat "," (List.map string_of_int attack.Lower_bound.bottleneck));
    Printf.printf "matched pairs        %d\n" attack.Lower_bound.pairs_matched;
    Printf.printf "certified bound      %.3f\n" attack.Lower_bound.predicted_congestion;
    Printf.printf "measured congestion  %.3f\n" measured;
    Printf.printf "offline optimum      1.000\n";
    finish_trace ~seed trace
  in
  let doc = "run the Section-8 lower-bound adversary on C(n,k)" in
  Cmd.v (Cmd.info "attack" ~doc)
    Term.(
      const run $ leaves_arg $ middles_arg $ alpha_arg $ seed_arg $ jobs_arg
      $ trace_arg)

(* ---- simulate ---- *)

let simulate_cmd =
  let module Simulator = Sso_sim.Simulator in
  let alpha_arg =
    let doc = "Paths sampled per pair." in
    Arg.(value & opt int 4 & info [ "alpha" ] ~docv:"ALPHA" ~doc)
  in
  let packets_arg =
    let doc = "Number of random unit packets to inject." in
    Arg.(value & opt int 16 & info [ "packets" ] ~docv:"N" ~doc)
  in
  let run path alpha packets seed jobs cache no_cache cache_dir trace =
    set_jobs jobs;
    start_trace trace;
    let store = open_store cache no_cache cache_dir in
    let g = read_graph path in
    let rng = Rng.create seed in
    let base = Memo.racke ?store (Rng.split rng) g in
    let system = Sampler.alpha_sample (Rng.split rng) base ~alpha in
    let demand =
      Demand.random_pairs (Rng.split rng) ~n:(Graph.n g)
        ~pairs:(min packets (Graph.n g * (Graph.n g - 1)))
    in
    let assignment, congestion =
      Sso_core.Integral.congestion_upper (Rng.split rng) g system demand
    in
    let report name discipline =
      let stats = Simulator.completed_exn (Simulator.run ~discipline g assignment) in
      Printf.printf "%-18s makespan %4d  max queue %4d  waits %5d\n" name
        stats.Simulator.makespan stats.Simulator.max_queue stats.Simulator.total_waits
    in
    Printf.printf
      "packets %d  integral congestion %.0f  lower bound %d steps (dilation, \
       per-direction edge load)\n\n"
      (Demand.support_size demand) congestion
      (Simulator.lower_bound g assignment);
    report "fifo" Simulator.Fifo;
    report "random-rank" (Simulator.Random_rank (Rng.split rng));
    report "longest-remaining" Simulator.Longest_remaining;
    finish_trace ~seed trace
  in
  let doc = "route packets semi-obliviously and simulate their delivery" in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ graph_pos $ alpha_arg $ packets_arg $ seed_arg $ jobs_arg
      $ cache_arg $ no_cache_arg $ cache_dir_arg $ trace_arg)

(* ---- faults ---- *)

let faults_cmd =
  let module Simulator = Sso_sim.Simulator in
  let module Scenario = Sso_fault.Scenario in
  let module Timeline = Sso_fault.Timeline in
  let module Fsweep = Sso_fault.Sweep in
  let module Codec = Sso_artifact.Codec in
  (* Fault experiments generate their graph from a named family instead of
     reading a file: the SRLG derivations need the generator's vertex
     layout (torus rows, fat-tree pods). *)
  let family_arg = family_arg ~doc:"Graph family: torus, fat-tree, abilene, b4." () in
  let size_arg =
    let doc = "Family size (torus side, fat-tree k; ignored for WANs)." in
    Arg.(value & opt int 4 & info [ "size" ] ~docv:"SIZE" ~doc)
  in
  let alpha_arg =
    let doc = "Paths sampled per pair (the paper's α)." in
    Arg.(value & opt int 4 & info [ "alpha" ] ~docv:"ALPHA" ~doc)
  in
  let base_arg =
    base_arg ~doc:"Base oblivious routing: racke, valiant, ksp, shortest." ()
  in
  let demand_arg =
    demand_arg ~default:"pairs:6"
      ~doc:"Demand workload: pairs:N, permutation, gravity:TOTAL, all-to-all." ()
  in
  let solver_arg =
    solver_arg ~doc:"Stage-4 solver: mwu[:ITERS] (default), gk[:EPS], or lp."
  in
  let json_arg =
    let doc = "Emit deterministic JSON (byte-identical for any $(b,--jobs))." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let srlgs g family size =
    match family with
    | "torus" -> Scenario.torus_rows g ~rows:size ~cols:size
    | "fat-tree" -> Scenario.fat_tree_pods g ~k:size
    | _ ->
        (* WAN topologies: model node failures as shared-risk groups. *)
        List.init (Graph.n g) (Scenario.incident g)
  in
  (* Same draw order as [sso route]/[sso simulate]: base, system, demand,
     then scenario randomness — so every command sees the same sampled
     system for the same seed.  The fault families draw nothing. *)
  let setup ?store ~family:(family, build_graph) ~size ~base:(base, build_base)
      ~alpha ~demand ~seed () =
    let rng = Rng.create seed in
    let g = build_graph rng size in
    let base_routing = build_base ~store ~alpha rng g in
    let system = Sampler.alpha_sample (Rng.split rng) base_routing ~alpha in
    let demand = demand (Rng.split rng) g in
    let scen_rng = Rng.split rng in
    let system_key =
      Printf.sprintf "fam=%s;size=%d;base=%s;alpha=%d;seed=%d" family size base
        alpha seed
    in
    (g, system, demand, scen_rng, system_key)
  in
  let jbool b = if b then "true" else "false" in
  let report_json (r : Fsweep.report) =
    Printf.sprintf
      "{\"label\": %s, \"edges\": [%s], \"connected\": %s, \"survivable\": %s, \
       \"achieved\": %s, \"post_opt\": %s, \"ratio\": %s, \"recovery_rounds\": \
       %d, \"warm_congestion\": %s}"
      (jstr r.Fsweep.scenario.Scenario.label)
      (String.concat ", "
         (List.map string_of_int (Scenario.edges r.Fsweep.scenario)))
      (jbool r.Fsweep.connected) (jbool r.Fsweep.survivable)
      (jfloat r.Fsweep.achieved) (jfloat r.Fsweep.post_opt)
      (jfloat r.Fsweep.ratio) r.Fsweep.recovery_rounds
      (jfloat r.Fsweep.warm_congestion)
  in
  let summary_json (s : Fsweep.summary) =
    Printf.sprintf
      "{\"scenarios\": %d, \"disconnected\": %d, \"unsurvivable\": %d, \
       \"mean_ratio\": %s, \"worst_ratio\": %s, \"mean_recovery_rounds\": %s}"
      s.Fsweep.scenarios s.Fsweep.disconnected s.Fsweep.unsurvivable
      (jfloat s.Fsweep.mean_ratio) (jfloat s.Fsweep.worst_ratio)
      (jfloat s.Fsweep.mean_recovery_rounds)
  in
  let print_report_line (r : Fsweep.report) =
    Printf.printf "%-20s %9s %9s  achieved %8s  opt %8s  ratio %8s%s\n"
      r.Fsweep.scenario.Scenario.label
      (if r.Fsweep.connected then "connected" else "DISCONN")
      (if r.Fsweep.survivable then "ok" else "UNSURV")
      (Printf.sprintf "%.3f" r.Fsweep.achieved)
      (Printf.sprintf "%.3f" r.Fsweep.post_opt)
      (Printf.sprintf "%.3f" r.Fsweep.ratio)
      (if r.Fsweep.recovery_rounds >= 0 then
         Printf.sprintf "  recovered in %d rounds" r.Fsweep.recovery_rounds
       else "")
  in
  let sweep_cmd =
    let scenarios_arg =
      let name = "scenarios" in
      spec_arg ~name ~default:"singles"
        ~expected:
          [ "singles"; "srlg"; "random:K:COUNT (K, COUNT >= 1)";
            "degrade:FACTOR (0 < FACTOR < 1)" ]
        ~doc:
          "Scenario set: singles (every edge), srlg (rows/pods/nodes of the \
           family), random:K:COUNT (COUNT random K-edge sets), or \
           degrade:FACTOR (every edge at partial capacity)."
        (fun spec ->
          match String.split_on_char ':' spec with
          | [ "singles" ] -> Some (fun ~srlgs:_ _ g -> Fsweep.singles g)
          | [ "srlg" ] -> Some (fun ~srlgs _ _ -> srlgs ())
          | [ "random"; k; count ] -> (
              match (int_at_least 1 k, int_at_least 1 count) with
              | Some k, Some count ->
                  Some
                    (fun ~srlgs:_ rng g ->
                      let k = edge_count ~name g k in
                      List.init count (fun i ->
                          Scenario.random_k (Rng.split_at rng i) g ~k))
              | _ -> None)
          | [ "degrade"; factor ] -> (
              match float_of_string_opt factor with
              | Some factor when factor > 0.0 && factor < 1.0 ->
                  Some
                    (fun ~srlgs:_ _ g ->
                      List.init (Graph.m g) (fun e ->
                          Scenario.degrade g ~factor [ e ]))
              | _ -> None)
          | _ -> None)
    in
    let recovery_arg =
      let doc = "Also measure warm-started time-to-recover per scenario." in
      Arg.(value & flag & info [ "recovery" ] ~doc)
    in
    let run ((family_name, _) as family) size alpha ((base_name, _) as base)
        (demand_spec, demand) (solver_spec, solver) (scen_spec, scenarios)
        recovery json seed jobs cache no_cache cache_dir trace =
      set_jobs jobs;
      start_trace trace;
      let store = open_store cache no_cache cache_dir in
      let g, system, demand, scen_rng, system_key =
        setup ?store ~family ~size ~base ~alpha ~demand ~seed ()
      in
      let scenarios =
        scenarios ~srlgs:(fun () -> srlgs g family_name size) scen_rng g
      in
      let recovery = if recovery then Some Fsweep.default_recovery else None in
      let reports =
        Fsweep.run ~solver ?store ~system_key ?recovery g system demand
          scenarios
      in
      let s = Fsweep.summary reports in
      if json then begin
        Printf.printf
          "{\n  \"schema\": \"sso-faults-sweep\",\n  \"version\": 1,\n  \
           \"family\": %s,\n  \"size\": %d,\n  \"base\": %s,\n  \"alpha\": \
           %d,\n  \"demand\": %s,\n  \"solver\": %s,\n  \"scenarios\": %s,\n  \
           \"seed\": %d,\n  \"reports\": [\n"
          (jstr family_name) size (jstr base_name) alpha (jstr demand_spec)
          (jstr solver_spec) (jstr scen_spec) seed;
        List.iteri
          (fun i r ->
            Printf.printf "    %s%s\n" (report_json r)
              (if i < List.length reports - 1 then "," else ""))
          reports;
        Printf.printf "  ],\n  \"summary\": %s%s\n}\n" (summary_json s)
          (cache_json store)
      end
      else begin
        Printf.printf "family %s  size %d  alpha %d  demand %s  scenarios %d\n\n"
          family_name size alpha demand_spec (List.length scenarios);
        List.iter print_report_line reports;
        Printf.printf
          "\nsummary: %d scenarios, %d disconnected, %d unsurvivable, mean \
           ratio %.3f, worst %.3f\n"
          s.Fsweep.scenarios s.Fsweep.disconnected s.Fsweep.unsurvivable
          s.Fsweep.mean_ratio s.Fsweep.worst_ratio;
        if s.Fsweep.mean_recovery_rounds = s.Fsweep.mean_recovery_rounds then
          Printf.printf "mean recovery %.1f warm MWU rounds\n"
            s.Fsweep.mean_recovery_rounds
      end;
      finish_trace ~seed trace
    in
    let doc = "sweep failure scenarios: congestion and recovery per scenario" in
    Cmd.v (Cmd.info "sweep" ~doc)
      Term.(
        const run $ family_arg $ size_arg $ alpha_arg $ base_arg $ demand_arg
        $ solver_arg $ scenarios_arg $ recovery_arg $ json_arg $ seed_arg
        $ jobs_arg $ cache_arg $ no_cache_arg $ cache_dir_arg $ trace_arg)
  in
  let timeline_cmd =
    let scenario_arg =
      let name = "scenario" in
      spec_arg ~name ~default:"srlg:0"
        ~expected:[ "srlg:I (I >= 0)"; "edge:E (E >= 0)"; "random:K (K >= 1)" ]
        ~doc:"What fails: srlg:I (the I-th group), edge:E, or random:K."
        (fun spec ->
          match String.split_on_char ':' spec with
          | [ "srlg"; i ] ->
              Option.map
                (fun i ~srlgs _ _ ->
                  let groups = srlgs () in
                  match List.nth_opt groups i with
                  | Some s -> s
                  | None ->
                      misfit ~name
                        "SRLG index %d out of range (the family has %d groups)" i
                        (List.length groups))
                (int_at_least 0 i)
          | [ "edge"; e ] ->
              Option.map
                (fun e ~srlgs:_ _ g -> Scenario.single g (edge_id ~name g e))
                (int_at_least 0 e)
          | [ "random"; k ] ->
              Option.map
                (fun k ~srlgs:_ rng g ->
                  Scenario.random_k rng g ~k:(edge_count ~name g k))
                (int_at_least 1 k)
          | _ -> None)
    in
    let fail_at_arg =
      let doc = "Step at which the failure strikes (mid-flight)." in
      Arg.(value & opt int 2 & info [ "fail-at" ] ~docv:"STEP" ~doc)
    in
    let repair_at_arg =
      let doc = "Optional repair step (> fail step)." in
      Arg.(value & opt (some int) None & info [ "repair-at" ] ~docv:"STEP" ~doc)
    in
    let packets_arg =
      let doc = "Number of random unit packets to inject." in
      Arg.(value & opt int 12 & info [ "packets" ] ~docv:"N" ~doc)
    in
    let run ((family_name, _) as family) size alpha base (_, scenario) fail_at
        repair_at packets json seed jobs cache no_cache cache_dir trace =
      if fail_at < 1 then misfit ~name:"fail-at" "the step must be >= 1, got %d" fail_at;
      (match repair_at with
      | Some r when r <= fail_at ->
          misfit ~name:"repair-at" "the step must come after --fail-at %d, got %d"
            fail_at r
      | _ -> ());
      set_jobs jobs;
      start_trace trace;
      let store = open_store cache no_cache cache_dir in
      let g, system, demand, scen_rng, _system_key =
        setup ?store ~family ~size ~base ~alpha
          ~demand:(fun rng g ->
            Demand.random_pairs rng ~n:(Graph.n g) ~pairs:packets)
          ~seed ()
      in
      let scenario =
        scenario
          ~srlgs:(fun () -> srlgs g family_name size)
          (Rng.split_at scen_rng 0) g
      in
      let assignment, congestion =
        Sso_core.Integral.congestion_upper (Rng.split scen_rng) g system demand
      in
      let timeline = [ Timeline.entry ?repair_at ~at:fail_at scenario ] in
      let outcome = Timeline.simulate g system assignment timeline in
      let fs = Simulator.value outcome in
      let completed = match outcome with Simulator.Completed _ -> true | _ -> false in
      (* Does every demanded pair keep a candidate avoiding the dead
         edges?  When true, the failover policy delivers everything. *)
      let removed = Scenario.removed scenario in
      let pairs_covered =
        List.for_all
          (fun (s, t) ->
            List.exists
              (fun (p : Sso_graph.Path.t) ->
                not (Array.exists removed p.Sso_graph.Path.edges))
              (Path_system.paths system s t))
          (Demand.support demand)
      in
      if json then
        Printf.printf
          "{\n  \"schema\": \"sso-faults-timeline\",\n  \"version\": 1,\n  \
           \"family\": %s,\n  \"size\": %d,\n  \"alpha\": %d,\n  \"scenario\": \
           %s,\n  \"fail_at\": %d,\n  \"repair_at\": %s,\n  \"seed\": %d,\n  \
           \"congestion\": %s,\n  \"completed\": %s,\n  \
           \"all_pairs_retain_candidate\": %s,\n  \"makespan\": %d,\n  \
           \"delivered\": %d,\n  \"dropped\": %d,\n  \"rerouted\": %d,\n  \
           \"recovery_makespan\": %d,\n  \"max_queue\": %d,\n  \
           \"total_waits\": %d%s\n}\n"
          (jstr family_name) size alpha
          (jstr scenario.Scenario.label)
          fail_at
          (match repair_at with Some r -> string_of_int r | None -> "null")
          seed (jfloat congestion) (jbool completed) (jbool pairs_covered)
          fs.Simulator.base.Simulator.makespan
          fs.Simulator.base.Simulator.delivered fs.Simulator.dropped
          fs.Simulator.rerouted fs.Simulator.recovery_makespan
          fs.Simulator.base.Simulator.max_queue
          fs.Simulator.base.Simulator.total_waits (cache_json store)
      else begin
        Printf.printf "scenario %s fails at step %d%s\n" scenario.Scenario.label
          fail_at
          (match repair_at with
          | Some r -> Printf.sprintf ", repaired at %d" r
          | None -> "");
        Printf.printf "all pairs retain a candidate: %b\n" pairs_covered;
        Printf.printf
          "makespan %d  delivered %d  dropped %d  rerouted %d  recovery \
           makespan %d\n"
          fs.Simulator.base.Simulator.makespan
          fs.Simulator.base.Simulator.delivered fs.Simulator.dropped
          fs.Simulator.rerouted fs.Simulator.recovery_makespan;
        if not completed then Printf.printf "WARNING: step budget exhausted\n"
      end;
      finish_trace ~seed trace
    in
    let doc = "simulate packets while an SRLG dies mid-flight (and recovers)" in
    Cmd.v (Cmd.info "timeline" ~doc)
      Term.(
        const run $ family_arg $ size_arg $ alpha_arg $ base_arg $ scenario_arg
        $ fail_at_arg $ repair_at_arg $ packets_arg $ json_arg $ seed_arg
        $ jobs_arg $ cache_arg $ no_cache_arg $ cache_dir_arg $ trace_arg)
  in
  let worst_k_cmd =
    let k_arg =
      let doc = "Failure-set size to search for." in
      Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc)
    in
    let candidates_arg =
      let doc = "Candidate pool: the N most damaging single edges." in
      Arg.(value & opt int 8 & info [ "candidates" ] ~docv:"N" ~doc)
    in
    let run ((family_name, _) as family) size alpha base (_, demand) (_, solver)
        k candidates json seed jobs cache no_cache cache_dir trace =
      set_jobs jobs;
      start_trace trace;
      let store = open_store cache no_cache cache_dir in
      let g, system, demand, _scen_rng, system_key =
        setup ?store ~family ~size ~base ~alpha ~demand ~seed ()
      in
      let worst =
        Fsweep.worst_k ~solver ?store ~system_key ~candidates g system demand ~k
      in
      if json then
        Printf.printf
          "{\n  \"schema\": \"sso-faults-worst-k\",\n  \"version\": 1,\n  \
           \"family\": %s,\n  \"size\": %d,\n  \"alpha\": %d,\n  \"k\": %d,\n  \
           \"seed\": %d,\n  \"worst\": %s%s\n}\n"
          (jstr family_name) size alpha k seed (report_json worst) (cache_json store)
      else begin
        Printf.printf "greedy worst-%d on %s (pool %d):\n" k family_name candidates;
        print_report_line worst
      end;
      finish_trace ~seed trace
    in
    let doc = "greedy search for an adversarial correlated k-edge failure" in
    Cmd.v (Cmd.info "worst-k" ~doc)
      Term.(
        const run $ family_arg $ size_arg $ alpha_arg $ base_arg $ demand_arg
        $ solver_arg $ k_arg $ candidates_arg $ json_arg $ seed_arg $ jobs_arg
        $ cache_arg $ no_cache_arg $ cache_dir_arg $ trace_arg)
  in
  let doc = "fault injection: scenario sweeps, timelines, adversarial sets" in
  Cmd.group (Cmd.info "faults" ~doc) [ sweep_cmd; timeline_cmd; worst_k_cmd ]

(* ---- serve ---- *)

let serve_cmd =
  let module Serve = Sso_serve.Serve in
  let module Checkpoint = Sso_serve.Checkpoint in
  let module Simulator = Sso_sim.Simulator in
  let module Update = Sso_demand.Update in
  let module Workload = Sso_demand.Workload in
  let module Codec = Sso_artifact.Codec in
  let family_arg =
    family_arg ~expander:true
      ~doc:"Graph family: torus, fat-tree, abilene, b4, expander." ()
  in
  let size_arg =
    let doc =
      "Family size (torus side, fat-tree k, expander vertices; ignored for \
       WANs)."
    in
    Arg.(value & opt int 4 & info [ "size" ] ~docv:"SIZE" ~doc)
  in
  let stream_pos =
    let doc = "Update stream recorded with $(b,sso serve generate)." in
    (* [string], not [file]: a missing path must surface as our exit 10,
       not cmdliner's 124. *)
    Arg.(required & pos 0 (some string) None & info [] ~docv:"STREAM" ~doc)
  in
  let generate_cmd =
    let ticks_arg =
      let doc = "Number of ticks (tick 0 carries the initial arrivals)." in
      Arg.(value & opt int 50 & info [ "ticks" ] ~docv:"TICKS" ~doc)
    in
    let pairs_arg =
      let doc = "Active commodities maintained by the churn walk." in
      Arg.(value & opt int 16 & info [ "pairs" ] ~docv:"PAIRS" ~doc)
    in
    let churn_arg =
      let doc = "Per-tick resample probability for each active pair, in [0,1]." in
      Arg.(value & opt float 0.1 & info [ "churn" ] ~docv:"P" ~doc)
    in
    let rate_churn_arg =
      let doc = "Per-tick rate-drift probability for surviving pairs, in [0,1]." in
      Arg.(value & opt float 0.0 & info [ "rate-churn" ] ~docv:"P" ~doc)
    in
    let output_arg =
      let doc = "Write the JSONL stream to $(docv)." in
      Arg.(
        required
        & opt (some string) None
        & info [ "o"; "output" ] ~docv:"FILE" ~doc)
    in
    let run (_, build_graph) size ticks pairs churn rate_churn output seed =
      let rng = Rng.create seed in
      let g = build_graph (Rng.split rng) size in
      let events =
        Workload.generate ~rate_churn (Rng.split rng) ~n:(Graph.n g) ~ticks
          ~pairs ~churn
      in
      (match Update.save output events with
      | () -> ()
      | exception Update.Unreadable msg ->
          Printf.eprintf "sso serve: cannot write stream: %s\n" msg;
          exit exit_unreadable);
      Printf.printf "wrote %d events (%d ticks, %d pairs, churn %g) to %s\n"
        (List.length events) ticks pairs churn output
    in
    let doc = "generate a logged update stream from the churn model" in
    Cmd.v (Cmd.info "generate" ~doc)
      Term.(
        const run $ family_arg $ size_arg $ ticks_arg $ pairs_arg $ churn_arg
        $ rate_churn_arg $ output_arg $ seed_arg)
  in
  let replay_cmd =
    let alpha_arg =
      let doc = "Paths sampled per pair (the paper's α)." in
      Arg.(value & opt int 4 & info [ "alpha" ] ~docv:"ALPHA" ~doc)
    in
    let base_arg =
      base_arg ~doc:"Base oblivious routing: racke, valiant, ksp, shortest." ()
    in
    let solver_arg =
      solver_arg ~doc:"Cold-solve engine: mwu[:ITERS] (default), gk[:EPS], or lp."
    in
    let warm_iters_arg =
      let doc = "Fresh MWU rounds per warm tick." in
      Arg.(value & opt int 20 & info [ "warm-iters" ] ~docv:"N" ~doc)
    in
    let warm_weight_arg =
      let doc = "Virtual rounds the carried routing counts as." in
      Arg.(value & opt int 60 & info [ "warm-weight" ] ~docv:"N" ~doc)
    in
    let refresh_arg =
      let doc = "Cold re-solve every $(docv) solves (0 = never)." in
      Arg.(value & opt int 0 & info [ "refresh" ] ~docv:"N" ~doc)
    in
    let simulate_arg =
      let doc = "Push the replayed traffic through the packet simulator." in
      Arg.(value & flag & info [ "simulate" ] ~doc)
    in
    let period_arg =
      let doc = "Simulator steps between ticks (with $(b,--simulate))." in
      Arg.(value & opt int 4 & info [ "period" ] ~docv:"STEPS" ~doc)
    in
    let json_arg =
      let doc = "Emit deterministic JSON (byte-identical for any $(b,--jobs))." in
      Arg.(value & flag & info [ "json" ] ~doc)
    in
    let metrics_out_arg =
      let doc =
        "Write a Prometheus text-exposition snapshot of the metrics registry \
         (per-tick latency quantiles, throughput/staleness gauges, GC gauges) \
         to $(docv) after every tick and at the end.  Writes are atomic \
         (temp + rename), so a scraper never sees a torn file."
      in
      Arg.(
        value & opt (some string) None
        & info [ "metrics-out" ] ~docv:"FILE" ~doc)
    in
    let slo_arg =
      let doc =
        "p99 budget for per-tick solve latency, in milliseconds.  After the \
         replay, the SLO verdict is reported on stderr; a burned budget \
         (p99 over $(docv)) exits 12.  Stdout stays byte-identical."
      in
      Arg.(
        value & opt (some float) None
        & info [ "slo-p99-ms" ] ~docv:"MS" ~doc)
    in
    let overload_arg =
      let doc =
        "Wall-clock overload budget for a whole tick (admission + solve), in \
         milliseconds.  Verdict on stderr after the replay; any tick over \
         budget exits 12.  Stdout stays byte-identical."
      in
      Arg.(
        value & opt (some float) None
        & info [ "overload-ms" ] ~docv:"MS" ~doc)
    in
    let faults_arg =
      let module Scenario = Sso_fault.Scenario in
      let module Timeline = Sso_fault.Timeline in
      let module Sweep = Sso_fault.Sweep in
      let name = "faults" in
      let scenario kind =
        match String.split_on_char ':' kind with
        | [ "edges"; ids ] -> (
            match all_some (List.map (int_at_least 0) (String.split_on_char '+' ids)) with
            | Some ids when List.length (List.sort_uniq compare ids) = List.length ids ->
                Some
                  (fun g _ _ _ -> Scenario.of_edges g (List.map (edge_id ~name g) ids))
            | _ -> None)
        | [ "random"; k ] ->
            Option.map
              (fun k g _ _ rng -> Scenario.random_k rng g ~k:(edge_count ~name g k))
              (int_at_least 1 k)
        | [ "worst"; k ] ->
            Option.map
              (fun k g system events _ ->
                let demand0 =
                  match Update.by_tick events with
                  | (_, batch) :: _ -> Update.apply Demand.empty batch
                  | [] -> Demand.empty
                in
                if Demand.support demand0 = [] then
                  misfit ~name "worst:K needs a stream with initial demand";
                let k = edge_count ~name g k in
                (Sweep.worst_k g system demand0 ~k).Sweep.scenario)
              (int_at_least 1 k)
        | _ -> None
      in
      (* TICK or TICK-REPAIR, with 1 <= TICK < REPAIR. *)
      let window w =
        match all_some (List.map (int_at_least 1) (String.split_on_char '-' w)) with
        | Some [ at ] -> Some (at, None)
        | Some [ at; r ] when r > at -> Some (at, Some r)
        | _ -> None
      in
      let item s =
        match String.split_on_char '@' s with
        | [ kind; w ] -> (
            match (scenario kind, window w) with
            | Some scenario, Some (at, repair_at) ->
                Some
                  (fun g system events rng ->
                    Timeline.entry ?repair_at ~at (scenario g system events rng))
            | _ -> None)
        | _ -> None
      in
      spec_opt_arg ~name
        ~expected:
          [ "edges:E1+E2@T[-R]"; "random:K@T[-R]"; "worst:K@T[-R]";
            "a comma-separated list of these (1 <= T < R, K >= 1)" ]
        ~doc:
          "Live fault schedule: comma-separated items of the form \
           $(b,edges:E1+E2@T[-R]) (fail the listed edge ids at tick T, \
           repair at R), $(b,random:K@T[-R]) (K seed-derived random edges), \
           or $(b,worst:K@T[-R]) (the greedy worst-K adversarial set \
           computed against the stream's initial demand).  Failed edges take \
           their candidate paths down with them; the solve runs on the \
           survivors.  Ticks are >= 1."
        (fun spec -> all_some (List.map item (String.split_on_char ',' spec)))
    in
    let checkpoint_every_arg =
      let doc =
        "Write a checkpoint to $(b,--checkpoint-dir) every $(docv) processed \
         ticks (0 = never; a bare $(b,--checkpoint-dir) implies 1)."
      in
      Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
    in
    let checkpoint_dir_arg =
      let doc = "Directory for checkpoint files (created if missing)." in
      Arg.(
        value & opt (some string) None
        & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)
    in
    let resume_arg =
      let doc =
        "Resume from the latest checkpoint in $(b,--checkpoint-dir): restore \
         the service state, skip ticks at or before it, and continue — the \
         final routing digest is byte-identical to an uninterrupted replay.  \
         A checkpoint from a different stream, configuration, or sampler \
         seed exits 11; with no checkpoint present the replay starts fresh."
      in
      Arg.(value & flag & info [ "resume" ] ~doc)
    in
    let crash_after_arg =
      let doc =
        "Kill the process (exit 137, no cleanup) right after processing tick \
         $(docv) — the chaos harness's crash injection."
      in
      Arg.(
        value & opt (some int) None
        & info [ "crash-after" ] ~docv:"TICK" ~doc)
    in
    let event_budget_arg =
      let doc =
        "Per-tick admission budget: apply at most $(docv) events per tick \
         and defer the rest to the next tick (0 = unlimited)."
      in
      Arg.(value & opt int 0 & info [ "event-budget" ] ~docv:"N" ~doc)
    in
    let max_staleness_arg =
      let doc =
        "Consecutive over-budget ticks allowed to serve the stale routing \
         (degraded mode) before a re-solve is forced."
      in
      Arg.(value & opt int 4 & info [ "max-staleness" ] ~docv:"N" ~doc)
    in
    let mode_name = function
      | Serve.Cold -> "cold"
      | Serve.Warm -> "warm"
      | Serve.Degraded -> "degraded"
    in
    let report_json (r : Serve.report) =
      Printf.sprintf
        "{\"tick\": %d, \"events\": %d, \"arrivals\": %d, \"departures\": %d, \
         \"rate_changes\": %d, \"pairs\": %d, \"admitted\": %d, \"retired\": \
         %d, \"deferred\": %d, \"failed_edges\": %d, \"rerouted\": %d, \
         \"unroutable\": %d, \"congestion\": %s, \"mode\": %s, \
         \"staleness\": %d}"
        r.Serve.tick r.Serve.events r.Serve.arrivals r.Serve.departures
        r.Serve.rate_changes r.Serve.active_pairs r.Serve.admitted
        r.Serve.retired r.Serve.deferred r.Serve.failed_edges r.Serve.rerouted
        r.Serve.unroutable (jfloat r.Serve.congestion)
        (jstr (mode_name r.Serve.mode)) r.Serve.staleness
    in
    let run stream (family, build_graph) size alpha (base, build_base)
        (solver_spec, solver) warm_iters warm_weight
        refresh simulate period json metrics_out slo_p99_ms overload_ms
        faults_spec checkpoint_every checkpoint_dir resume crash_after
        event_budget max_staleness seed jobs cache no_cache cache_dir trace =
      set_jobs jobs;
      (match slo_p99_ms with
      | Some b when not (b > 0.0) ->
          Printf.eprintf "sso serve: --slo-p99-ms must be positive, got %g\n" b;
          exit 124
      | _ -> ());
      (match overload_ms with
      | Some b when not (b > 0.0) ->
          Printf.eprintf "sso serve: --overload-ms must be positive, got %g\n" b;
          exit 124
      | _ -> ());
      if event_budget < 0 then begin
        Printf.eprintf "sso serve: --event-budget must be non-negative\n";
        exit 124
      end;
      if max_staleness < 0 then begin
        Printf.eprintf "sso serve: --max-staleness must be non-negative\n";
        exit 124
      end;
      if checkpoint_every < 0 then begin
        Printf.eprintf "sso serve: --checkpoint-every must be non-negative\n";
        exit 124
      end;
      if (checkpoint_every > 0 || resume) && checkpoint_dir = None then begin
        Printf.eprintf
          "sso serve: --checkpoint-every/--resume need --checkpoint-dir\n";
        exit 124
      end;
      let checkpoint_every =
        if checkpoint_dir <> None && checkpoint_every = 0 then 1
        else checkpoint_every
      in
      start_trace trace;
      let store = open_store cache no_cache cache_dir in
      let events =
        match Update.load stream with
        | events -> events
        | exception Update.Unreadable msg ->
            Printf.eprintf "sso serve: %s\n" msg;
            exit exit_unreadable
        | exception Update.Corrupt msg ->
            Printf.eprintf "sso serve: %s\n" msg;
            exit exit_corrupt
      in
      (* Same draw order as the other commands: graph, base, system, then
         consumer randomness — the same seed sees the same sampled system
         everywhere. *)
      let rng = Rng.create seed in
      let g = build_graph (Rng.split rng) size in
      let base_routing = build_base ~store ~alpha rng g in
      let system = Sampler.alpha_sample (Rng.split rng) base_routing ~alpha in
      let sim_rng = Rng.split rng in
      let fault_rng = Rng.split rng in
      let config =
        { Serve.solver = solver;
          warm_iters;
          warm_weight;
          refresh_every = refresh;
          event_budget;
          max_staleness }
      in
      (* The schedule bridges into the per-tick Fail/Repair events the
         service consumes. *)
      let faults =
        match faults_spec with
        | None -> []
        | Some (_, items) ->
            Serve.faults_of_timeline
              (List.map (fun item -> item g system events fault_rng) items)
      in
      if simulate && faults <> [] then begin
        Printf.eprintf
          "sso serve: --faults models routing-level failures; combine with \
           the packet-level `sso faults timeline` instead of --simulate\n";
        exit 124
      end;
      (* The stream digest pins every checkpoint to the exact stream (and
         the config repr to the exact policy) it was taken under; a
         resume against anything else is corruption, not divergence. *)
      let stream_digest = Checkpoint.events_digest events in
      let config_repr = Checkpoint.config_repr config in
      let srv, resume_tick =
        if not resume then (Serve.create ~config g system, -1)
        else
          let dir = Option.get checkpoint_dir in
          match Checkpoint.latest ~dir with
          | None -> (Serve.create ~config g system, -1)
          | Some (_, path) -> (
              match Checkpoint.load ~graph:g path with
              | exception Checkpoint.Unreadable msg ->
                  Printf.eprintf "sso serve: %s\n" msg;
                  exit exit_unreadable
              | exception Codec.Corrupt msg ->
                  Printf.eprintf "sso serve: checkpoint %s: %s\n" path msg;
                  exit exit_corrupt
              | ckpt_digest, ckpt_config, state -> (
                  if not (Int64.equal ckpt_digest stream_digest) then begin
                    Printf.eprintf
                      "sso serve: checkpoint %s was taken against a \
                       different update stream\n"
                      path;
                    exit exit_corrupt
                  end;
                  if ckpt_config <> config_repr then begin
                    Printf.eprintf
                      "sso serve: checkpoint %s was taken under a different \
                       configuration (%s)\n"
                      path ckpt_config;
                    exit exit_corrupt
                  end;
                  match Serve.restore ~config g system state with
                  | srv ->
                      Printf.eprintf "resuming from %s (tick %d)\n" path
                        state.Serve.s_tick;
                      (srv, state.Serve.s_tick)
                  | exception Codec.Corrupt msg ->
                      Printf.eprintf "sso serve: checkpoint %s: %s\n" path msg;
                      exit exit_corrupt))
      in
      let events =
        List.filter (fun (e : Update.t) -> e.Update.tick > resume_tick) events
      in
      let faults = List.filter (fun (tick, _) -> tick > resume_tick) faults in
      (* Periodic exposition writer: refresh GC gauges, freeze the whole
         registry, render, atomic write — wall-clock data flows only to
         this file, never to stdout or the digest. *)
      let write_metrics =
        match metrics_out with
        | None -> None
        | Some path ->
            Some
              (fun () ->
                try Serve.write_metrics ~path
                with Sys_error msg ->
                  Printf.eprintf "sso serve: cannot write metrics: %s\n" msg;
                  exit exit_unreadable)
      in
      let processed = ref 0 in
      let on_tick (r : Serve.report) (_ : Sso_flow.Routing.t) =
        (match write_metrics with Some write -> write () | None -> ());
        (match checkpoint_dir with
        | Some dir when checkpoint_every > 0 ->
            incr processed;
            if !processed mod checkpoint_every = 0 then begin
              match
                Checkpoint.write ~dir ~stream_digest ~graph:g ~config
                  (Serve.snapshot srv)
              with
              | (_ : string) -> ()
              | exception Checkpoint.Unreadable msg ->
                  Printf.eprintf "sso serve: %s\n" msg;
                  exit exit_unreadable
            end
        | _ -> ());
        match crash_after with
        | Some t when r.Serve.tick >= t ->
            (* A hard kill, not an exit: no flush, no atexit, no trace
               finalization — exactly what the chaos harness resumes
               from. *)
            Unix._exit 137
        | _ -> ()
      in
      let on_tick = Some on_tick in
      let t0 = Obs.now_ns () in
      let outcome, reports =
        match
          if simulate then
            let outcome, reports =
              Serve.simulate ?on_tick sim_rng ~period srv events
            in
            (Some outcome, reports)
          else (None, Serve.replay ?on_tick ~faults srv events)
        with
        | result -> result
        | exception Update.Corrupt msg ->
            Printf.eprintf "sso serve: %s\n" msg;
            exit exit_corrupt
      in
      Option.iter (fun write -> write ()) write_metrics;
      let wall_ns = Obs.now_ns () - t0 in
      let digest =
        match Serve.routing srv with
        | Some r -> Codec.hex_of_key (Codec.fnv1a64 (Codec.encode_routing r))
        | None -> String.make 16 '0'
      in
      let final_congestion =
        match List.rev reports with r :: _ -> r.Serve.congestion | [] -> 0.0
      in
      let final_pairs =
        match List.rev reports with r :: _ -> r.Serve.active_pairs | [] -> 0
      in
      let sim_json =
        match outcome with
        | None -> ""
        | Some outcome ->
            let s = Simulator.value outcome in
            Printf.sprintf
              ",\n  \"sim\": {\"completed\": %s, \"packets\": %d, \
               \"delivered\": %d, \"finish_time\": %d, \"mean_latency\": %s, \
               \"p99_latency\": %s, \"peak_queue\": %d}"
              (match outcome with
              | Simulator.Completed _ -> "true"
              | Simulator.Out_of_budget _ -> "false")
              s.Simulator.packets s.Simulator.delivered s.Simulator.finish_time
              (jfloat s.Simulator.mean_latency) (jfloat s.Simulator.p99_latency)
              s.Simulator.peak_queue
      in
      if json then begin
        Printf.printf
          "{\n  \"schema\": \"sso-serve-replay\",\n  \"version\": 2,\n  \
           \"family\": %s,\n  \"size\": %d,\n  \"alpha\": %d,\n  \"base\": \
           %s,\n  \"solver\": %s,\n  \"warm_iters\": %d,\n  \"warm_weight\": \
           %d,\n  \"refresh\": %d,\n  \"event_budget\": %d,\n  \
           \"max_staleness\": %d,\n  \"faults\": %s,\n  \"seed\": %d,\n  \
           \"events\": %d,\n  \"ticks\": [\n"
          (jstr family) size alpha (jstr base) (jstr solver_spec) warm_iters
          warm_weight refresh event_budget max_staleness
          (match faults_spec with None -> "null" | Some (s, _) -> jstr s)
          seed (List.length events);
        List.iteri
          (fun i r ->
            Printf.printf "    %s%s\n" (report_json r)
              (if i < List.length reports - 1 then "," else ""))
          reports;
        Printf.printf
          "  ],\n  \"final\": {\"pairs\": %d, \"congestion\": %s, \"digest\": \
           %s}%s%s\n}\n"
          final_pairs (jfloat final_congestion) (jstr digest) sim_json
          (cache_json store)
      end
      else begin
        Printf.printf "family %s  size %d  alpha %d  base %s  solver %s\n"
          family size alpha base solver_spec;
        Printf.printf "stream %s  events %d  ticks %d\n\n" stream
          (List.length events) (List.length reports);
        List.iter
          (fun (r : Serve.report) ->
            Printf.printf
              "tick %4d  %-8s  events %3d (+%d -%d ~%d)  pairs %4d  admitted \
               %3d  retired %3d  deferred %3d  failed %2d  rerouted %3d  \
               unroutable %2d  staleness %2d  cong %.4f\n"
              r.Serve.tick (mode_name r.Serve.mode) r.Serve.events
              r.Serve.arrivals r.Serve.departures r.Serve.rate_changes
              r.Serve.active_pairs r.Serve.admitted r.Serve.retired
              r.Serve.deferred r.Serve.failed_edges r.Serve.rerouted
              r.Serve.unroutable r.Serve.staleness r.Serve.congestion)
          reports;
        Printf.printf "\nfinal: pairs %d  congestion %.6f  digest %s\n"
          final_pairs final_congestion digest;
        match outcome with
        | None -> ()
        | Some outcome ->
            let s = Simulator.value outcome in
            Printf.printf
              "sim: %s  delivered %d/%d  finish %d  mean latency %.3f  p99 \
               %.3f  peak queue %d\n"
              (match outcome with
              | Simulator.Completed _ -> "completed"
              | Simulator.Out_of_budget _ -> "OUT-OF-BUDGET")
              s.Simulator.delivered s.Simulator.packets s.Simulator.finish_time
              s.Simulator.mean_latency s.Simulator.p99_latency
              s.Simulator.peak_queue
      end;
      (* Wall-clock throughput goes to stderr: stdout must stay
         byte-identical across runs and job counts. *)
      Printf.eprintf "replayed %d events in %.1f ms (%.0f updates/sec)\n"
        (List.length events)
        (float_of_int wall_ns /. 1e6)
        (float_of_int (List.length events) /. (float_of_int wall_ns /. 1e9));
      finish_trace ~seed trace;
      (* SLO/overload verdicts last, on stderr only (wall clock): the
         trace and all deterministic output are complete before a burn
         exits 12. *)
      (match slo_p99_ms with
      | None -> ()
      | Some budget_ms ->
          let slo = Serve.check_slo ~budget_ms reports in
          Printf.eprintf
            "slo: p99 solve %.3f ms vs budget %.3f ms — %s (%d/%d ticks over \
             budget)\n"
            slo.Serve.p99_ms slo.Serve.p99_budget_ms
            (if slo.Serve.burned then "BURNED" else "ok")
            slo.Serve.burns (List.length reports);
          if slo.Serve.burned then exit exit_slo);
      match overload_ms with
      | None -> ()
      | Some budget_ms ->
          let o = Serve.check_overload ~budget_ms reports in
          Printf.eprintf
            "overload: max tick %.3f ms vs budget %.3f ms — %s (%d/%d ticks \
             over budget)\n"
            o.Serve.max_tick_ms o.Serve.budget_tick_ms
            (if o.Serve.overloaded then "OVERLOADED" else "ok")
            o.Serve.slow_ticks (List.length reports);
          if o.Serve.overloaded then exit exit_slo
    in
    let doc = "replay a logged update stream through the routing service" in
    Cmd.v (Cmd.info "replay" ~doc)
      Term.(
        const run $ stream_pos $ family_arg $ size_arg $ alpha_arg $ base_arg
        $ solver_arg $ warm_iters_arg $ warm_weight_arg $ refresh_arg
        $ simulate_arg $ period_arg $ json_arg $ metrics_out_arg $ slo_arg
        $ overload_arg $ faults_arg $ checkpoint_every_arg
        $ checkpoint_dir_arg $ resume_arg $ crash_after_arg
        $ event_budget_arg $ max_staleness_arg $ seed_arg $ jobs_arg
        $ cache_arg $ no_cache_arg $ cache_dir_arg $ trace_arg)
  in
  let doc = "long-lived routing service: generate and replay update streams" in
  Cmd.group (Cmd.info "serve" ~doc) [ generate_cmd; replay_cmd ]

(* ---- cache ---- *)

let cache_cmd =
  (* Every subcommand exits 0 on success, [exit_unreadable] (10) when the
     store directory cannot be opened or listed, and — for the read-only
     inspections — [exit_corrupt] (11) when damaged entries were seen. *)
  let with_store cache_dir f =
    match
      let store = Store.open_ ?dir:cache_dir () in
      f store
    with
    | () -> ()
    | exception Store.Unreadable msg ->
        Printf.eprintf "sso cache: %s\n" msg;
        exit exit_unreadable
  in
  let report_corrupt corrupt =
    if corrupt <> [] then begin
      Printf.eprintf
        "sso cache: %d corrupt entries (run 'sso cache gc' to remove them)\n"
        (List.length corrupt);
      exit exit_corrupt
    end
  in
  let ls_cmd =
    let run cache_dir =
      with_store cache_dir (fun store ->
          let listing = Store.scan store in
          List.iter
            (fun (e : Store.entry) ->
              Printf.printf "%s  %-18s %10d  %s\n" e.Store.entry_key
                e.Store.entry_kind e.Store.entry_bytes e.Store.entry_description)
            listing.Store.entries;
          List.iter
            (fun name -> Printf.printf "%-16s  CORRUPT\n" name)
            listing.Store.corrupt;
          report_corrupt listing.Store.corrupt)
    in
    let doc = "list cached artifacts (key, kind, payload bytes, recipe)" in
    Cmd.v (Cmd.info "ls" ~doc) Term.(const run $ cache_dir_arg)
  in
  let stat_cmd =
    let run cache_dir =
      with_store cache_dir (fun store ->
          let listing = Store.scan store in
          let bytes =
            List.fold_left
              (fun acc (e : Store.entry) -> acc + e.Store.entry_bytes)
              0 listing.Store.entries
          in
          Printf.printf "directory  %s\n" (Store.dir store);
          Printf.printf "entries    %d\n" (List.length listing.Store.entries);
          Printf.printf "payload    %d bytes\n" bytes;
          Printf.printf "corrupt    %d\n" (List.length listing.Store.corrupt);
          (* Per-kind breakdown: which artifact families occupy the store
             (racke forests vs alpha-sample arenas vs fault reports). *)
          let kinds = Hashtbl.create 8 in
          List.iter
            (fun (e : Store.entry) ->
              let count, sz =
                Option.value
                  (Hashtbl.find_opt kinds e.Store.entry_kind)
                  ~default:(0, 0)
              in
              Hashtbl.replace kinds e.Store.entry_kind
                (count + 1, sz + e.Store.entry_bytes))
            listing.Store.entries;
          Hashtbl.fold (fun kind stats acc -> (kind, stats) :: acc) kinds []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          |> List.iter (fun (kind, (count, sz)) ->
                 Printf.printf "  %-18s %6d entries  %10d bytes\n" kind count
                   sz);
          report_corrupt listing.Store.corrupt)
    in
    let doc = "print store location, entry count, payload size, and per-kind breakdown" in
    Cmd.v (Cmd.info "stat" ~doc) Term.(const run $ cache_dir_arg)
  in
  let gc_cmd =
    let run cache_dir =
      with_store cache_dir (fun store ->
          Printf.printf "removed %d damaged or stale files\n" (Store.gc store))
    in
    let doc = "remove corrupt entries and leftover temp files" in
    Cmd.v (Cmd.info "gc" ~doc) Term.(const run $ cache_dir_arg)
  in
  let clear_cmd =
    let run cache_dir =
      with_store cache_dir (fun store ->
          Printf.printf "removed %d entries\n" (Store.clear store))
    in
    let doc = "remove every cached artifact" in
    Cmd.v (Cmd.info "clear" ~doc) Term.(const run $ cache_dir_arg)
  in
  let doc = "inspect and maintain the on-disk artifact store" in
  Cmd.group (Cmd.info "cache" ~doc) [ ls_cmd; stat_cmd; gc_cmd; clear_cmd ]

(* ---- trace ---- *)

let trace_cmd =
  (* Exit conventions mirror [sso cache]: 10 when the file cannot be
     read, 11 when it is not a valid version-1 sso trace. *)
  let trace_pos p =
    let doc = "JSONL trace produced with $(b,--trace FILE)." in
    (* [string], not [file]: a missing path must surface as our exit 10,
       not cmdliner's 124. *)
    Arg.(required & pos p (some string) None & info [] ~docv:"TRACE" ~doc)
  in
  let load path =
    match Trace.load path with
    | t -> t
    | exception Trace.Unreadable msg ->
        Printf.eprintf "sso trace: %s\n" msg;
        exit exit_unreadable
    | exception Trace.Corrupt msg ->
        Printf.eprintf "sso trace: %s\n" msg;
        exit exit_corrupt
  in
  let ms ns = float_of_int ns /. 1e6 in
  let value_str = function
    | Trace.Int i -> string_of_int i
    | Trace.Float f -> Printf.sprintf "%g" f
    | Trace.Bool b -> string_of_bool b
    | Trace.String s -> s
  in
  let print_solves solves =
    List.iteri
      (fun i (s : Trace.solve) ->
        let rounds = Array.of_list s.Trace.s_rounds in
        let n = Array.length rounds in
        Printf.printf "\nsolve #%d  solver=%s  pairs=%d  iters=%d  rounds=%d\n"
          (i + 1) s.Trace.s_solver s.Trace.s_pairs s.Trace.s_iters n;
        if n > 0 then begin
          Printf.printf "%8s %12s %12s %12s %8s\n" "round" "congestion"
            "avg-cong" "potential" "paths";
          (* Log-spaced: the first, last and power-of-two rounds. *)
          let keep r = r = 1 || r = n || r land (r - 1) = 0 in
          Array.iter
            (fun (r : Trace.round) ->
              if keep r.Trace.r_round then
                Printf.printf "%8d %12.4f %12.4f %12.4g %8d\n" r.Trace.r_round
                  r.Trace.r_cong r.Trace.r_avg r.Trace.r_potential
                  r.Trace.r_paths)
            rounds
        end)
      solves
  in
  let summary_cmd =
    let run path =
      let t = load path in
      Printf.printf "trace      %s\n" path;
      List.iter
        (fun (k, v) -> Printf.printf "meta       %-6s %s\n" k (value_str v))
        t.Trace.meta;
      Printf.printf "events     %d (%d dropped at capture)\n"
        (List.length t.Trace.events) t.Trace.dropped;
      if t.Trace.dropped > 0 then
        Printf.printf
          "WARNING    ring buffers saturated at capture: %d events were \
           dropped, so the aggregates below are incomplete (raise \
           Obs.set_ring_capacity or trace a smaller run)\n"
          t.Trace.dropped;
      let spans = Trace.self_totals t.Trace.events in
      if spans <> [] then begin
        (* Ranked by self time (duration minus child spans); self% is the
           share of all traced self time, so the column sums to 100. *)
        let traced_self =
          List.fold_left (fun acc (_, _, _, self) -> acc + self) 0 spans
        in
        Printf.printf "\n%-36s %8s %12s %12s %7s\n" "span" "calls" "total ms"
          "self ms" "self%";
        List.iter
          (fun (name, calls, total_ns, self_ns) ->
            Printf.printf "%-36s %8d %12.3f %12.3f %6.1f%%\n" name calls
              (ms total_ns) (ms self_ns)
              (100.0 *. float_of_int self_ns /. float_of_int (max 1 traced_self)))
          spans
      end;
      let counts = Trace.event_counts t.Trace.events in
      if counts <> [] then begin
        Printf.printf "\n%-36s %8s\n" "event" "count";
        List.iter
          (fun (name, count) -> Printf.printf "%-36s %8d\n" name count)
          counts
      end;
      let solves = Trace.mwu_solves t.Trace.events in
      if solves <> [] then begin
        Printf.printf "\nMWU convergence (log-spaced rounds):\n";
        print_solves solves
      end
    in
    let doc =
      "overview: meta, spans ranked by self time, event counts, MWU \
       convergence"
    in
    Cmd.v (Cmd.info "summary" ~doc) Term.(const run $ trace_pos 0)
  in
  let diff_cmd =
    let run path_a path_b =
      let a = load path_a and b = load path_b in
      let totals t =
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (name, _, total_ns, _) -> Hashtbl.replace tbl name total_ns)
          (Trace.self_totals t.Trace.events);
        tbl
      in
      let ta = totals a and tb = totals b in
      let names = Hashtbl.create 16 in
      Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) ta;
      Hashtbl.iter (fun k _ -> Hashtbl.replace names k ()) tb;
      let rows =
        Hashtbl.fold
          (fun name () acc ->
            let va = Option.value ~default:0 (Hashtbl.find_opt ta name) in
            let vb = Option.value ~default:0 (Hashtbl.find_opt tb name) in
            (name, va, vb, vb - va) :: acc)
          names []
      in
      let rows =
        List.sort
          (fun (_, _, _, d1) (_, _, _, d2) -> compare (abs d2) (abs d1))
          rows
      in
      Printf.printf "%-36s %12s %12s %12s %8s\n" "span" "A ms" "B ms"
        "delta ms" "ratio";
      List.iter
        (fun (name, va, vb, d) ->
          Printf.printf "%-36s %12.3f %12.3f %+12.3f %8s\n" name (ms va)
            (ms vb) (ms d)
            (if va = 0 then "-"
             else Printf.sprintf "%.2f" (float_of_int vb /. float_of_int va)))
        rows;
      let counts t =
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (name, c) -> Hashtbl.replace tbl name c)
          (Trace.event_counts t.Trace.events);
        tbl
      in
      let ca = counts a and cb = counts b in
      let enames = Hashtbl.create 16 in
      Hashtbl.iter (fun k _ -> Hashtbl.replace enames k ()) ca;
      Hashtbl.iter (fun k _ -> Hashtbl.replace enames k ()) cb;
      let erows =
        List.sort compare
          (Hashtbl.fold
             (fun name () acc ->
               let va = Option.value ~default:0 (Hashtbl.find_opt ca name) in
               let vb = Option.value ~default:0 (Hashtbl.find_opt cb name) in
               if va <> vb then (name, va, vb) :: acc else acc)
             enames [])
      in
      if erows <> [] then begin
        Printf.printf "\n%-36s %10s %10s\n" "event count changes" "A" "B";
        List.iter
          (fun (name, va, vb) ->
            Printf.printf "%-36s %10d %10d\n" name va vb)
          erows
      end
    in
    let doc = "compare two traces: span time and event count deltas" in
    Cmd.v (Cmd.info "diff" ~doc)
      Term.(const run $ trace_pos 0 $ trace_pos 1)
  in
  let flame_cmd =
    let weight_arg =
      let doc =
        "Stack weight: $(b,ns) (self time, the flamegraph default) or \
         $(b,calls) (call counts — jobs-invariant, byte-identical for any \
         $(b,--jobs) of the traced run)."
      in
      Arg.(value & opt string "ns" & info [ "weight" ] ~docv:"WEIGHT" ~doc)
    in
    let run path weight =
      (match weight with
      | "ns" | "calls" -> ()
      | other ->
          Printf.eprintf "sso trace: --weight must be ns or calls, got %S\n"
            other;
          exit 124);
      let t = load path in
      (* One folded line per distinct span path — feed to flamegraph.pl or
         speedscope.  Self time only: a parent's line excludes its
         children, so the weights sum to total traced time. *)
      List.iter
        (fun (stack, calls, self_ns) ->
          Printf.printf "%s %d\n" stack
            (if weight = "calls" then calls else self_ns))
        (Trace.folded_stacks t.Trace.events)
    in
    let doc = "folded flamegraph stacks (span path, self weight) from a trace" in
    Cmd.v (Cmd.info "flame" ~doc) Term.(const run $ trace_pos 0 $ weight_arg)
  in
  let doc = "analyze JSONL execution traces recorded with --trace" in
  Cmd.group (Cmd.info "trace" ~doc)
    [ summary_cmd; diff_cmd; flame_cmd ]

(* ---- theory ---- *)

let theory_cmd =
  let module Theory = Sso_core.Theory in
  let n_arg =
    let doc = "Number of vertices." in
    Arg.(value & opt int 1024 & info [ "n" ] ~docv:"N" ~doc)
  in
  let m_arg =
    let doc = "Number of edges (defaults to 4n)." in
    Arg.(value & opt (some int) None & info [ "m" ] ~docv:"M" ~doc)
  in
  let run n m =
    let m = match m with Some m -> m | None -> 4 * n in
    Printf.printf "paper bounds for n = %d, m = %d\n\n" n m;
    Printf.printf "Theorem 2.3 sparsity  (log n/log log n)   %d paths/pair\n"
      (Theory.theorem_2_3_sparsity ~n);
    Printf.printf "Theorem 2.3 competitiveness shape         %.1f\n"
      (Theory.theorem_2_3_competitiveness ~n);
    Printf.printf "\n%5s | %16s %16s %10s\n" "alpha" "Thm 2.5 upper"
      "Cor 8.3 lower" "gadget k";
    List.iter
      (fun alpha ->
        Printf.printf "%5d | %16.2f %16.2f %10d\n" alpha
          (Theory.theorem_2_5_competitiveness ~n ~alpha)
          (Theory.lower_bound_cor_8_3 ~n ~alpha)
          (Theory.lower_bound_gadget_k ~n ~alpha))
      [ 1; 2; 3; 4; 6; 8 ];
    Printf.printf "\nLemma 5.6 failure prob (h=1, |supp|=1)    %.3g\n"
      (Theory.weak_route_failure_probability ~m ~supp:1 ~h:1);
    Printf.printf "Cor 5.7 union-bound failure (h=1)         %.3g\n"
      (Theory.union_bound_failure ~m ~h:1);
    Printf.printf "Lemma 6.3 rounding slack (+3 ln m)        %.2f\n"
      (Theory.rounding_bound ~m ~frac_congestion:0.0)
  in
  let doc = "print the paper's closed-form bounds for given parameters" in
  Cmd.v (Cmd.info "theory" ~doc) Term.(const run $ n_arg $ m_arg)

let () =
  let doc = "sparse semi-oblivious routing toolkit" in
  let info = Cmd.info "sso" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd; info_cmd; route_cmd; attack_cmd; simulate_cmd; faults_cmd;
            serve_cmd; theory_cmd; cache_cmd; trace_cmd;
          ]))
