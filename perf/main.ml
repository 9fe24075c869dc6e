(* Pipeline benchmark entry point.

   Usage (from the repository root, through perf/run.sh which builds it):
     perf/run.sh --workload fattree-install --seed 1 --seconds 15 --trace 0
     perf/run.sh --workload all --seed 1            # every workload in turn
     main.exe --selfcheck BENCHMARK.json            # reduced-size self-check

   The last stdout line is the JSON result; the lines before it are a
   human-readable table and a "# record" line with the run's provenance.
   See perf/README.md for the workloads, metrics and the layer map. *)

module Json = Sso_obs.Trace.Json

let workloads =
  [ ("fattree-install", Fattree.run); ("wan-churn", Wan.run); ("cube-ratio", Cube.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (fattree-install|wan-churn|cube-ratio) --seed N \
     --seconds S --trace (0|1)\n\
    \       main.exe --selfcheck BENCHMARK.json";
  exit 2

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Runs one workload with a private scratch directory, removed afterwards. *)
let run_one ~small ~seed ~seconds ~trace (name, run) =
  Harness.reset ();
  let root = ".perf_tmp" in
  let tmp_dir = Filename.concat root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  mkdir_p tmp_dir;
  let cfg = { Harness.seed; seconds; trace; small; tmp_dir } in
  let r =
    Fun.protect
      ~finally:(fun () ->
        Harness.remove_tree tmp_dir;
        try Sys.rmdir root with Sys_error _ -> ())
      (fun () -> run cfg)
  in
  (cfg, r)

(* ---- self-check ---- *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("selfcheck: " ^ s); exit 1) fmt

let member k j = match Json.member k j with Some v -> v | None -> fail "missing key %s" k

let str = function Json.Str s -> s | _ -> fail "expected a string"

let specs_of j =
  match j with
  | Json.Arr l -> List.map (fun m -> (str (member "name" m), str (member "unit" m))) l
  | _ -> fail "expected an array"

let pairs specs = List.map (fun s -> (s.Harness.name, s.Harness.unit_)) specs

(* The declarations in BENCHMARK.json and the ones this program prints
   must be the same lists. *)
let check_declarations path =
  let j = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  if specs_of (member "end_to_end" j) <> pairs Harness.end_to_end then
    fail "end_to_end in %s differs from the metrics the program prints" path;
  if specs_of (member "per_layer" j) <> pairs Harness.per_layer then
    fail "per_layer in %s differs from the metrics the program prints" path;
  let names =
    match member "workloads" j with
    | Json.Arr l -> List.map (fun w -> str (member "name" w)) l
    | _ -> fail "workloads is not an array"
  in
  if names <> List.map fst workloads then fail "workloads in %s differ" path

(* Parses a result line and checks its shape: exactly the four keys, a
   correct run with no failures, and every declared metric with its unit
   and a finite value.  Returns the metric values. *)
let check_line ~what ~trace line =
  let j = Json.parse line in
  (match j with
  | Json.Obj kvs when List.map fst kvs = [ "correct"; "attempted"; "failed"; "metrics" ] -> ()
  | _ -> fail "%s: result keys are not correct/attempted/failed/metrics" what);
  if member "correct" j <> Json.Bool true then fail "%s: correct is not true" what;
  if member "failed" j <> Json.Num "0" then fail "%s: failed is not 0" what;
  (match Json.number (member "attempted" j) with
  | Some a when a >= 1. -> ()
  | _ -> fail "%s: attempted < 1" what);
  let specs = if trace then Harness.per_layer else Harness.end_to_end in
  let metrics = member "metrics" j in
  (match metrics with
  | Json.Obj kvs when List.length kvs = List.length specs -> ()
  | _ -> fail "%s: metrics do not match the declared list" what);
  List.map
    (fun s ->
      let m = member s.Harness.name metrics in
      if str (member "unit" m) <> s.unit_ then fail "%s: %s has the wrong unit" what s.name;
      match Json.number (member "value" m) with
      | Some v when Float.is_finite v -> (s, v)
      | _ -> fail "%s: %s has no finite value" what s.name)
    specs

(* Counts that repeat exactly between two runs in one process.  GC and
   allocation counts repeat only between fresh processes: the first run
   of a process also pays one-time initialisation. *)
let deterministic (s : Harness.spec) =
  List.mem s.unit_ [ "count"; "count/op"; "B"; "congestion" ]
  && not (String.starts_with ~prefix:"gc." s.name)

let selfcheck path =
  check_declarations path;
  List.iter
    (fun ((name, _) as w) ->
      let go trace =
        let cfg, r = run_one ~small:true ~seed:7 ~seconds:0.1 ~trace w in
        let what = Printf.sprintf "%s trace=%b" name trace in
        (check_line ~what ~trace (Harness.json_line cfg r), r)
      in
      let _, plain = go false in
      let traced, r1 = go true in
      let traced', r2 = go true in
      if List.assoc "obs.dropped_events" (List.map (fun (s, v) -> (s.Harness.name, v)) traced) <> 0.
      then fail "%s: the traced run dropped events" name;
      (* Quality figures and layer counts repeat exactly at one seed. *)
      List.iter2
        (fun (s, a) (_, b) ->
          if deterministic s && a <> b then fail "%s: %s differs between runs" name s.Harness.name)
        traced traced';
      List.iter
        (fun r ->
          if List.assoc "congestion_mean" r.Harness.e2e
             <> List.assoc "congestion_mean" plain.Harness.e2e
             || r.quality <> plain.quality
          then fail "%s: quality differs between runs" name)
        [ r1; r2 ];
      Printf.printf "selfcheck %s: ok\n%!" name)
    workloads

(* ---- command line ---- *)

let () =
  Sso_engine.Pool.set_default_jobs Harness.jobs;
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "--selfcheck"; path ] -> selfcheck path
  | _ ->
      let rec parse acc = function
        | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
            parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let opts = parse [] args in
      if List.exists (fun (k, _) -> not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ])) opts
      then usage ();
      let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
      let num k conv = match conv (get k) with Some v -> v | None -> usage () in
      let seed = num "seed" int_of_string_opt in
      let seconds = num "seconds" float_of_string_opt in
      let trace =
        match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
      in
      if seconds <= 0. || seed < 0 then usage ();
      let w =
        match List.assoc_opt (get "workload") workloads with
        | Some run -> (get "workload", run)
        | None -> usage ()
      in
      let cfg, r = run_one ~small:false ~seed ~seconds ~trace w in
      Harness.emit cfg ~workload:(fst w) r
