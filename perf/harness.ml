(* Shared machinery of the pipeline benchmark: metric declarations, wall
   timers around public library calls, per-op checks, sample statistics,
   counter deltas, the traced-run analysis and the result printer.

   Nothing here reaches into the libraries' internals: every time is taken
   by this file's own clock around a public call, and every count is a
   delta of an existing Obs counter or of the GC's allocation totals. *)

module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace

(* ---- metric declarations (mirrored by BENCHMARK.json; the self-check
   compares the two) ---- *)

type spec = { name : string; unit_ : string }

let spec name unit_ = { name; unit_ }

let end_to_end =
  [
    spec "setup_s" "s";
    spec "setup_warm_s" "s";
    spec "op_p50_ms" "ms";
    spec "op_tail_ms" "ms";
    spec "ops_per_s" "1/s";
    spec "peak_rss_mb" "MB";
    spec "congestion_mean" "congestion";
  ]

let per_layer =
  [
    spec "oblivious.racke_forest_ms" "ms";
    spec "oblivious.frt_build_ms" "ms";
    spec "oblivious.racke_self_ms" "ms";
    spec "oblivious.alloc_mw" "Mword";
    spec "artifact.forest_load_ms" "ms";
    spec "artifact.forest_bytes" "B";
    spec "core.materialize_ms" "ms";
    spec "core.paths_materialized" "count";
    spec "core.arena_bytes" "B";
    spec "flow.stage4_ms" "ms";
    spec "flow.stage5_ms" "ms";
    spec "flow.rounding_ms" "ms";
    spec "flow.mwu_iterations" "count/op";
    spec "flow.oracle_calls" "count/op";
    spec "flow.sssp_batches" "count/op";
    spec "serve.solve_ms" "ms";
    spec "serve.admit_ms" "ms";
    spec "serve.fault_window_p50_ms" "ms";
    spec "serve.admitted" "count";
    spec "serve.warm_solves" "count";
    spec "serve.cold_solves" "count";
    spec "serve.rerouted" "count";
    spec "checkpoint.restore_ms" "ms";
    spec "checkpoint.bytes" "B";
    spec "sim.run_ms" "ms";
    spec "sim.packets" "count/op";
    spec "sim.total_waits" "count/op";
    spec "sim.max_queue" "count/op";
    spec "gc.minor_mw" "Mword/op";
    spec "gc.major_collections" "count/op";
    spec "obs.trace_overhead" "x";
    spec "obs.unattributed_frac" "frac";
    spec "obs.dropped_events" "count";
  ]

(* ---- run configuration ---- *)

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  small : bool;  (** reduced sizes, for the self-check *)
  tmp_dir : string;  (** scratch space inside the working directory *)
}

(* The benchmark measures the single-domain pipeline: nothing contends, so
   a faster layer saves exactly its share of the blocking steps. *)
let jobs = 1

(* ---- statistics ---- *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.

(* The tail is the highest percentile of this ladder that leaves at least
   ten samples beyond it; a shorter run reports a lower percentile rather
   than a tail resting on a handful of samples. *)
let tail_ladder = [ 99.9; 99.; 95.; 90.; 75.; 50. ]

let tail xs =
  let n = List.length xs in
  let beyond p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  let p =
    match List.find_opt (fun p -> beyond p >= 10) tail_ladder with
    | Some p -> p
    | None -> 50.
  in
  (p, percentile xs p)

(* ---- clocks, host-speed calibration and layer timers ---- *)

let now () = Unix.gettimeofday ()
let ms_since t0 = (now () -. t0) *. 1000.

(* Shared hosts change speed in phases lasting seconds: the same loop can
   take 1.5x longer for a few seconds at a time, which no run length
   averages away.  So every time this benchmark reports is scaled to a
   reference host speed: a fixed kernel (no allocation, no library code)
   is timed next to the measured work, and a wall time [w] taken while
   the kernel ran in [k] ms is reported as [w * reference_kernel_ms / k].
   A change to the libraries moves [w] and not [k]; a slow phase of the
   host moves both.  The kernel mixes streaming, pointer chasing, float,
   transcendental and integer work because no single one of them tracks
   both the array-bound Stage-4 MWU and the heap-bound Stage-5 Dijkstra
   through a slow phase.  Raw wall times stay in the result record. *)
let reference_kernel_ms = 5.

let kernel_ints = Array.init (1 lsl 18) (fun i -> (i * 7919) land 1023)

(* One cycle through 2^16 slots in a fixed pseudo-random order. *)
let kernel_chase =
  let n = 1 lsl 16 in
  let order = Array.init n (fun i -> (i * 40503) land (n - 1)) in
  let next = Array.make n 0 in
  Array.iteri (fun i v -> next.(v) <- order.((i + 1) land (n - 1))) order;
  next

let kernel_floats = Array.init 8192 (fun i -> float_of_int i /. 8192.)

let kernel () =
  let t0 = now () in
  let s = ref 0 in
  for _ = 1 to 2 do
    Array.iter (fun x -> s := !s + x) kernel_ints
  done;
  let j = ref 0 in
  for _ = 1 to 1 lsl 16 do
    j := kernel_chase.(!j)
  done;
  let f = ref 0. in
  for _ = 1 to 16 do
    Array.iter (fun x -> f := (!f *. 0.999) +. x) kernel_floats
  done;
  for _ = 1 to 8 do
    Array.iter (fun x -> f := !f +. exp x) kernel_floats
  done;
  let h = ref 1 in
  for i = 1 to 1 lsl 18 do
    h := (!h * 31) lxor (i lsr 3)
  done;
  ignore (Sys.opaque_identity (!s + !j + !h, !f));
  ms_since t0

(* One kernel timing jitters by 10-20% and the host's phases last
   seconds, so the speed estimate is the median of the last [window]
   timings — about half a second of work at the calibration rates the
   workloads pick.  A fixed-size window keeps each calibration's
   allocation the same in every run, so GC counts repeat. *)
let window = 6
let kernel_times = Array.make window reference_kernel_ms
let kernel_next = ref 0
let scale = ref 1.

let calibrate () =
  kernel_times.(!kernel_next mod window) <- kernel ();
  incr kernel_next;
  scale := reference_kernel_ms /. median (Array.to_list kernel_times)

let calibrate_n n =
  for _ = 1 to n do
    calibrate ()
  done

(* Reference-speed factor: reference kernel ms over the current estimate. *)
let host_scale () = !scale

(* A set-up sample, bracketed by kernel timings: the speed estimate is
   the median of the three before and the three after.  Returns the
   result, reference-speed seconds and raw seconds. *)
let timed_setup f =
  let bracket () = List.init 3 (fun _ -> kernel ()) in
  let before = bracket () in
  let t0 = now () in
  let r = f () in
  let w = now () -. t0 in
  let after = bracket () in
  calibrate ();
  (r, w *. reference_kernel_ms /. median (before @ after), w)

(* A set-up sample made of steps, each scaled by the speed estimate taken
   right before it — for a set-up of many short calls, which one bracket
   around the whole sample tracks poorly through a phase change.
   Returns the result, reference-speed seconds and raw seconds. *)
type step = { step : 'a. (unit -> 'a) -> 'a }

let timed_steps f =
  let scaled = ref 0. and raw = ref 0. in
  let step g =
    calibrate ();
    let t0 = now () in
    let r = g () in
    let w = now () -. t0 in
    raw := !raw +. w;
    scaled := !scaled +. (w *. host_scale ());
    r
  in
  let r = f { step } in
  (r, !scaled, !raw)

let layer_samples : (string, float list) Hashtbl.t = Hashtbl.create 16
let layer_ms name = Option.value (Hashtbl.find_opt layer_samples name) ~default:[]
let record_layer name ms = Hashtbl.replace layer_samples name (ms :: layer_ms name)
let reset_layers () = Hashtbl.reset layer_samples

(* [f ()] under an Obs span [name] when tracing, which [Trace.self_totals]
   later splits against the spans the library emits inside it. *)
let span name f = if Obs.tracing () then Obs.with_span (Obs.span name) f else f ()

(* [layer name f] times one public call: traced, under a span; untraced,
   its reference-speed ms land in [name]'s sample list. *)
let layer name f =
  if Obs.tracing () then span name f
  else begin
    let t0 = now () in
    let r = f () in
    record_layer name (ms_since t0 *. host_scale ());
    r
  end

(* ---- whole-pass loop ---- *)

(* Runs [pass 0], [pass 1], ... : as many whole passes as fit in
   [seconds] when one takes [nominal] seconds at reference speed, and at
   least one.  The count depends on [seconds] only, never on the host's
   speed, so every run at one seed does the same work and allocates the
   same heap: op mix, GC counts and peak RSS repeat.  Returns the count. *)
let passes ~seconds ~nominal pass =
  let n = max 1 (int_of_float (Float.round (seconds /. nominal))) in
  for i = 0 to n - 1 do
    pass i
  done;
  n

(* ---- counters ---- *)

type counts = {
  minor_words : float;
  major_collections : int;
  mwu_iterations : int;
  oracle_calls : int;
  sssp_batches : int;
}

let c_iters = Obs.counter "mwu.iterations"
let c_oracle = Obs.counter "mwu.oracle_calls"
let c_sssp = Obs.counter "mwu.sssp_batches"

let counts () =
  let st = Gc.quick_stat () in
  {
    minor_words = st.Gc.minor_words;
    major_collections = st.Gc.major_collections;
    mwu_iterations = Obs.counter_value c_iters;
    oracle_calls = Obs.counter_value c_oracle;
    sssp_batches = Obs.counter_value c_sssp;
  }

let counts_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    major_collections = b.major_collections - a.major_collections;
    mwu_iterations = b.mwu_iterations - a.mwu_iterations;
    oracle_calls = b.oracle_calls - a.oracle_calls;
    sssp_batches = b.sssp_batches - a.sssp_batches;
  }

let counts_add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    major_collections = a.major_collections + b.major_collections;
    mwu_iterations = a.mwu_iterations + b.mwu_iterations;
    oracle_calls = a.oracle_calls + b.oracle_calls;
    sssp_batches = a.sssp_batches + b.sssp_batches;
  }

let zero_counts =
  { minor_words = 0.; major_collections = 0; mwu_iterations = 0; oracle_calls = 0; sssp_batches = 0 }

(* ---- ops ---- *)

type ops = {
  calibrate_every : int;  (** ops between two calibrations *)
  kernels : int;  (** kernel timings per calibration *)
  mutable count : int;
  mutable times : float list;  (** reference-speed ms per op, every pass *)
  mutable raw : float list;  (** wall ms per op *)
  mutable first : counts;  (** counter deltas summed over first-pass ops *)
  mutable first_ops : int;
}

(* The kernel is re-timed [kernels] times every [calibrate_every] ops —
   about every 100 ms of work; counting ops rather than time keeps the
   kernel's few words of allocation at the same points in every run. *)
let new_ops ?(kernels = 1) ~calibrate_every () =
  { calibrate_every; kernels; count = 0; times = []; raw = []; first = zero_counts; first_ops = 0 }

(* Times one op.  First-pass ops also accumulate their counter deltas; the
   first pass runs the same seed-fixed ops in every run, so at jobs 1 the
   per-op counts repeat exactly. *)
let time_op ops ~first f =
  if ops.count mod ops.calibrate_every = 0 then calibrate_n ops.kernels;
  ops.count <- ops.count + 1;
  let c0 = if first then counts () else zero_counts in
  let t0 = now () in
  let r = f () in
  let w = ms_since t0 in
  let d = w *. host_scale () in
  ops.times <- d :: ops.times;
  ops.raw <- w :: ops.raw;
  if first then begin
    ops.first <- counts_add ops.first (counts_diff c0 (counts ()));
    ops.first_ops <- ops.first_ops + 1
  end;
  r

let ops_per_s ops ~units =
  let total = List.fold_left ( +. ) 0. ops.times in
  float_of_int units /. (total /. 1000.)

let op_metrics ops =
  let tail_pct, tail_ms = tail ops.times in
  ( tail_pct,
    [ ("op_p50_ms", median ops.times); ("op_tail_ms", tail_ms) ] )

let per_op_counts ops =
  let per x = float_of_int x /. float_of_int (max 1 ops.first_ops) in
  let d = ops.first in
  [
    ("flow.mwu_iterations", per d.mwu_iterations);
    ("flow.oracle_calls", per d.oracle_calls);
    ("flow.sssp_batches", per d.sssp_batches);
    ("gc.minor_mw", d.minor_words /. 1e6 /. float_of_int (max 1 ops.first_ops));
    ("gc.major_collections", per d.major_collections);
  ]

(* ---- output checks ---- *)

let attempted = ref 0
let failed = ref 0
let op_ok = ref true

let expect what cond =
  if not cond then begin
    op_ok := false;
    Printf.eprintf "check failed: %s\n%!" what
  end

(* One checked operation: counts as attempted, and as failed when it
   raises or any [expect] inside it fails. *)
let attempt f =
  incr attempted;
  op_ok := true;
  let r =
    match f () with
    | r -> Some r
    | exception e ->
        op_ok := false;
        Printf.eprintf "operation raised: %s\n%!" (Printexc.to_string e);
        None
  in
  if not !op_ok then incr failed;
  r

let reset () =
  attempted := 0;
  failed := 0;
  reset_layers ();
  calibrate_n window

let close_to a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs a)

(* ---- process facts ---- *)

let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.))
          | Some _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.

(* All output lines of a shell command, stderr discarded; the child is
   always waited for. *)
let command_lines cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Some (List.filter (fun l -> l <> "") lines)
  | _ -> None

(* The revision is reported only when the working directory is itself the
   top of a git checkout; an exported tree says "unknown". *)
let git_revision () =
  let cwd = Unix.realpath (Sys.getcwd ()) in
  match command_lines "git rev-parse --show-toplevel HEAD" with
  | Some [ top; rev ] when (try Unix.realpath top = cwd with _ -> false) ->
      let dirty =
        match command_lines "git status --porcelain" with
        | Some [] -> "false"
        | Some _ -> "true"
        | None -> "null"
      in
      (Printf.sprintf "%S" rev, dirty)
  | _ -> ("\"unknown\"", "null")

let remove_tree dir =
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  rm dir

(* ---- traced run ---- *)

(* Tracing switched on for [f ()], with rings large enough that nothing
   is dropped; returns [f]'s result and the sorted event stream. *)
let traced f =
  Obs.set_ring_capacity (1 lsl 22);
  Obs.clear_trace ();
  Obs.set_tracing true;
  let r = Fun.protect ~finally:(fun () -> Obs.set_tracing false) f in
  (r, Obs.events ())

(* Total and self ms of one span name in a trace, or zeros. *)
let span_ms self_totals name =
  match List.find_opt (fun (n, _, _, _) -> n = name) self_totals with
  | Some (_, calls, total, self) ->
      (calls, float_of_int total /. 1e6, float_of_int self /. 1e6)
  | None -> (0, 0., 0.)

(* The traced op phase: its ops, and the wall interval [t0, t1] (Unix
   seconds) it ran in. *)
type traced_ops = { t_ops : ops; t0 : float; t1 : float; t_units : int }

(* Per-layer metrics every traced run reports: the tracing overhead
   (traced over untraced throughput), the share of traced op time that no
   top-level benchmark span covers, and the ring drops. *)
let obs_metrics events ~untraced ~units ~layer_names t =
  let lo = int_of_float (t.t0 *. 1e9) and hi = int_of_float (t.t1 *. 1e9) in
  let covered =
    List.fold_left
      (fun acc (e : Trace.event) ->
        if e.kind = Trace.Span && e.depth = 0 && List.mem e.name layer_names
           && e.ts_ns >= lo && e.ts_ns <= hi
        then acc + e.dur_ns
        else acc)
      0 events
  in
  let op_ns = 1e6 *. List.fold_left ( +. ) 0. t.t_ops.raw in
  [
    ( "obs.trace_overhead",
      ops_per_s t.t_ops ~units:t.t_units /. ops_per_s untraced ~units );
    ( "obs.unattributed_frac",
      if op_ns <= 0. then 0. else Float.max 0. (1. -. (float_of_int covered /. op_ns)) );
    ("obs.dropped_events", float_of_int (Obs.dropped_events ()));
  ]

(* ---- results ---- *)

let raw_medians ops ~setup ~warm =
  [
    ("setup_s", median setup);
    ("setup_warm_s", median warm);
    ("op_p50_ms", median ops.raw);
    ("kernel_ms", reference_kernel_ms /. host_scale ());
  ]

type result = {
  e2e : (string * float) list;
  layers : (string * float) list;  (** missing layers print as 0: bypassed *)
  samples : (string * int) list;  (** sample count behind each metric *)
  tail_pct : float;
  raw : (string * float) list;  (** raw wall-time medians, for the record *)
  quality : (string * float * string) list;
      (** workload-specific quality figures: name, value, unit *)
  self_times : (string * int * int * int) list;  (** traced run only *)
}

let fmt_float v = Printf.sprintf "%.17g" v

let metric_values cfg r =
  let specs, values = if cfg.trace then (per_layer, r.layers) else (end_to_end, r.e2e) in
  List.map
    (fun s ->
      let v =
        match List.assoc_opt s.name values with
        | Some v -> v
        | None when cfg.trace -> 0.
        | None -> failwith ("workload did not report " ^ s.name)
      in
      (s, v))
    specs

let json_line cfg r =
  let ms = metric_values cfg r in
  let correct = !failed = 0 && List.for_all (fun (_, v) -> Float.is_finite v) ms in
  let body =
    List.map
      (fun (s, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.name
          (if Float.is_finite v then fmt_float v else "null")
          s.unit_)
      ms
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct !attempted !failed (String.concat ", " body)

let record_line cfg ~workload r =
  let rev, dirty = git_revision () in
  let kv l f = String.concat ", " (List.map f l) in
  Printf.sprintf
    "{\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
     \"git_rev\": %s, \"dirty\": %s, \"jobs\": %d, \"nproc\": %d, \
     \"ocaml\": %S, \"tail_percentile\": %s, \"failed_frac\": %s, \
     \"samples\": {%s}, \"raw_wall\": {%s}, \"quality\": {%s}}"
    workload cfg.seed (fmt_float cfg.seconds) cfg.trace rev dirty jobs
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (fmt_float r.tail_pct)
    (fmt_float (float_of_int !failed /. float_of_int (max 1 !attempted)))
    (kv r.samples (fun (n, c) -> Printf.sprintf "%S: %d" n c))
    (kv r.raw (fun (n, v) -> Printf.sprintf "%S: %s" n (fmt_float v)))
    (kv r.quality (fun (n, v, u) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (fmt_float v) u))

(* Human-readable table, then the result record, then (last line) the
   machine-readable result. *)
let emit cfg ~workload r =
  Printf.printf "workload %s  seed %d  trace %b\n" workload cfg.seed cfg.trace;
  let count name =
    match List.assoc_opt name r.samples with Some n -> Printf.sprintf "n=%d" n | None -> ""
  in
  List.iter
    (fun (s, v) -> Printf.printf "  %-28s %14.6g %-10s %s\n" s.name v s.unit_ (count s.name))
    (metric_values cfg r);
  List.iter
    (fun (n, v, u) -> Printf.printf "  %-28s %14.6g %-10s (quality)\n" n v u)
    r.quality;
  Printf.printf "  %-28s %14.6g %-10s\n" "failed_frac"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    "frac";
  if r.self_times <> [] then begin
    Printf.printf "  traced self times (calls, total ms, self ms):\n";
    List.iter
      (fun (n, calls, total, self) ->
        Printf.printf "    %-32s %8d %12.3f %12.3f\n" n calls
          (float_of_int total /. 1e6) (float_of_int self /. 1e6))
      r.self_times
  end;
  Printf.printf "# record %s\n" (record_line cfg ~workload r);
  print_endline (json_line cfg r)
