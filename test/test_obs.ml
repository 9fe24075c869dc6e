(* Tests for Sso_obs: JSONL codec round-trips, the load error contract,
   ring-buffer saturation, and — the load-bearing property — identical
   trace event sequences at any job count. *)

module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace
module File = Sso_obs.File
module Pool = Sso_engine.Pool
module Rng = Sso_prng.Rng
module Graph = Sso_graph.Graph
module Gen = Sso_graph.Gen
module Demand = Sso_demand.Demand
module Yen = Sso_graph.Yen
module Min_congestion = Sso_flow.Min_congestion
module Racke = Sso_oblivious.Racke
module Path_system = Sso_core.Path_system

(* A Stage-4 candidate index over per-pair path lists, built the way
   every index is: installed in a path system, then unpacked. *)
let index g cands =
  Path_system.to_slice_candidates (Path_system.of_pairs g cands) (List.map fst cands)

let temp_trace () = Filename.temp_file "sso_obs_test" ".jsonl"

let value_str = function
  | Trace.Int i -> Printf.sprintf "i:%d" i
  | Trace.Float f -> Printf.sprintf "f:%h" f
  | Trace.Bool b -> Printf.sprintf "b:%b" b
  | Trace.String s -> Printf.sprintf "s:%S" s

let event_str (e : Trace.event) =
  Printf.sprintf "%d.%d %s %s depth=%d [%s]" e.Trace.slot e.Trace.seq
    (match e.Trace.kind with Trace.Span -> "span" | Trace.Event -> "event")
    e.Trace.name e.Trace.depth
    (String.concat ";"
       (List.map (fun (k, v) -> k ^ "=" ^ value_str v) e.Trace.attrs))

(* Structural equality with NaN = NaN. *)
let value_equal (a : Trace.value) (b : Trace.value) =
  match (a, b) with
  | Trace.Float x, Trace.Float y -> (Float.is_nan x && Float.is_nan y) || x = y
  | a, b -> a = b

let attrs_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ka, va) (kb, vb) -> ka = kb && value_equal va vb)
       a b

let event_equal (a : Trace.event) (b : Trace.event) =
  a.Trace.slot = b.Trace.slot && a.Trace.seq = b.Trace.seq
  && a.Trace.ts_ns = b.Trace.ts_ns && a.Trace.kind = b.Trace.kind
  && a.Trace.name = b.Trace.name && a.Trace.dur_ns = b.Trace.dur_ns
  && a.Trace.depth = b.Trace.depth
  && attrs_equal a.Trace.attrs b.Trace.attrs

let trace_equal (a : Trace.t) (b : Trace.t) =
  attrs_equal a.Trace.meta b.Trace.meta
  && a.Trace.dropped = b.Trace.dropped
  && List.length a.Trace.events = List.length b.Trace.events
  && List.for_all2 event_equal a.Trace.events b.Trace.events

(* ---- codec ---- *)

let sample_trace =
  let ev slot seq kind name dur depth attrs =
    { Trace.slot; seq; ts_ns = 1000 + seq; kind; name; dur_ns = dur; depth; attrs }
  in
  {
    Trace.meta =
      [
        ("seed", Trace.Int 7);
        ("jobs", Trace.Int 4);
        ("git", Trace.String "v1.2-3-gdeadbee-dirty \"quoted\"\n\ttab");
      ];
    dropped = 3;
    events =
      [
        ev 0 0 Trace.Event "mwu.solve" 0 0
          [ ("solver", Trace.String "unrestricted"); ("pairs", Trace.Int 32) ];
        ev 0 1 Trace.Event "mwu.round" 0 1
          [
            ("round", Trace.Int 1);
            ("round_congestion", Trace.Float 3.125);
            ("avg_congestion", Trace.Float 0.1);
            ("weird", Trace.Float nan);
            ("inf", Trace.Float infinity);
            ("ninf", Trace.Float neg_infinity);
            ("neg", Trace.Float (-0.0));
            ("flag", Trace.Bool true);
          ];
        ev 2 0 Trace.Span "stage4.mwu" 123456 2 [];
      ];
  }

let test_roundtrip () =
  let path = temp_trace () in
  Trace.save path sample_trace;
  let loaded = Trace.load path in
  Sys.remove path;
  Alcotest.(check bool) "round-trips" true (trace_equal sample_trace loaded)

let test_empty_roundtrip () =
  let path = temp_trace () in
  let t = { Trace.meta = []; dropped = 0; events = [] } in
  Trace.save path t;
  let loaded = Trace.load path in
  Sys.remove path;
  Alcotest.(check bool) "empty trace round-trips" true (trace_equal t loaded)

let test_save_failure_cleans_up () =
  (* Saving onto a directory fails with [Unreadable], and the temporary
     written beside it is removed. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sso_obs_save_test.%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o700;
  let target = Filename.concat dir "trace.jsonl" in
  Unix.mkdir target 0o700;
  Fun.protect ~finally:(fun () ->
      Array.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.is_directory p then Unix.rmdir p else Sys.remove p)
        (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  Alcotest.(check bool) "Unreadable" true
    (match Trace.save target sample_trace with
    | () -> false
    | exception File.Unreadable _ -> true);
  Alcotest.(check (list string)) "no temporary left" [ "trace.jsonl" ]
    (Array.to_list (Sys.readdir dir))

let prop_attrs_roundtrip =
  let open QCheck in
  let value_gen =
    Gen.oneof
      [
        Gen.map (fun i -> Trace.Int i) Gen.int;
        Gen.map (fun f -> Trace.Float f) Gen.float;
        Gen.map (fun b -> Trace.Bool b) Gen.bool;
        Gen.map (fun s -> Trace.String s) Gen.string;
      ]
  in
  let attrs_gen =
    Gen.list_size (Gen.int_range 0 8)
      (Gen.pair (Gen.string_size ~gen:Gen.printable (Gen.int_range 1 12)) value_gen)
  in
  let print attrs =
    String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ value_str v) attrs)
  in
  Support.to_alcotest
    (Test.make ~count:200 ~name:"attr lists survive save/load"
       (make ~print attrs_gen)
       (fun attrs ->
         let t =
           {
             Trace.meta = attrs;
             dropped = 0;
             events =
               [
                 {
                   Trace.slot = 0;
                   seq = 0;
                   ts_ns = 1;
                   kind = Trace.Event;
                   name = "e";
                   dur_ns = 0;
                   depth = 0;
                   attrs;
                 };
               ];
           }
         in
         let path = temp_trace () in
         Trace.save path t;
         let loaded = Trace.load path in
         Sys.remove path;
         trace_equal t loaded))

(* ---- load error contract (mirrors sso cache: 10 unreadable, 11 corrupt) ---- *)

let write path text = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let expect_unreadable name f =
  match f () with
  | (_ : Trace.t) -> Alcotest.failf "%s: expected Unreadable" name
  | exception File.Unreadable _ -> ()

let expect_corrupt name f =
  match f () with
  | (_ : Trace.t) -> Alcotest.failf "%s: expected Corrupt" name
  | exception File.Corrupt _ -> ()

let test_load_contract () =
  expect_unreadable "missing file" (fun () ->
      Trace.load "/nonexistent/sso/trace.jsonl");
  let path = temp_trace () in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  write path "this is not json\n";
  expect_corrupt "garbage" (fun () -> Trace.load path);
  write path "{\"schema\":\"other\",\"version\":2,\"meta\":{},\"dropped\":0,\"events\":0}\n";
  expect_corrupt "wrong schema tag" (fun () -> Trace.load path);
  write path "{\"schema\":\"sso-trace\",\"version\":999,\"meta\":{},\"dropped\":0,\"events\":0}\n";
  expect_corrupt "unsupported version" (fun () -> Trace.load path);
  (* A version-1 file (events, then a histogram trailer) is refused by its
     version; a trailer line under a version-2 header is not an event. *)
  let event_line =
    "{\"slot\":0,\"seq\":0,\"ts_ns\":1,\"kind\":\"event\",\"name\":\"e\",\"dur_ns\":0,\"depth\":0,\"attrs\":{}}\n"
  and trailer_line =
    "{\"kind\":\"histogram\",\"name\":\"span.e\",\"count\":1,\"sum\":5,\"buckets\":{\"2\":1}}\n"
  in
  let header version =
    Printf.sprintf
      "{\"schema\":\"sso-trace\",\"version\":%d,\"meta\":{},\"dropped\":0,\"events\":1}\n"
      version
  in
  write path (header 1 ^ event_line ^ trailer_line);
  expect_corrupt "version 1 with a trailer" (fun () -> Trace.load path);
  write path (header 2 ^ event_line ^ trailer_line);
  expect_corrupt "trailer line in version 2" (fun () -> Trace.load path);
  write path
    "{\"schema\":\"sso-trace\",\"version\":2,\"meta\":{},\"dropped\":0,\"events\":2}\n\
     {\"slot\":0,\"seq\":0,\"ts_ns\":1,\"kind\":\"event\",\"name\":\"e\",\"dur_ns\":0,\"depth\":0,\"attrs\":{}}\n";
  expect_corrupt "truncated" (fun () -> Trace.load path);
  write path "";
  expect_corrupt "empty file" (fun () -> Trace.load path)

(* ---- parser fuzzing: byte mutations never escape the contract ---- *)

let fuzz_trace_content =
  lazy
    (let span seq name depth =
       { Trace.slot = 0; seq; ts_ns = 1000 * seq; kind = Trace.Span; name;
         dur_ns = 100 * (3 - depth); depth;
         attrs = [ ("pairs", Trace.Int seq); ("ratio", Trace.Float 1.25) ] }
     in
     let t =
       { Trace.meta = [ ("seed", Trace.Int 7) ];
         dropped = 0;
         events =
           [ span 0 "oracle" 2; span 1 "stage4.mwu" 1; span 2 "sample" 1;
             span 3 "route" 0; span 4 "report" 0 ] }
     in
     let path = temp_trace () in
     Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
     Trace.save path t;
     In_channel.with_open_bin path In_channel.input_all)

let prop_trace_mutations_never_escape =
  Support.to_alcotest
    (QCheck.Test.make ~count:500
       ~name:"mutated traces load, or fail as Unreadable/Corrupt"
       QCheck.(triple small_nat (int_bound 10_000) (int_bound 10_000))
       (fun (kind, pos, extra) ->
         let path = temp_trace () in
         Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
         write path (Support.mutate (Lazy.force fuzz_trace_content) kind pos extra);
         match Trace.load path with
         | (_ : Trace.t) -> true
         | exception (File.Unreadable _ | File.Corrupt _) -> true
         | exception _ -> false))

(* ---- ring saturation ---- *)

let test_ring_saturation () =
  Obs.clear_trace ();
  Obs.set_ring_capacity 8;
  Fun.protect ~finally:(fun () ->
      Obs.set_ring_capacity (1 lsl 20);
      Obs.set_tracing false;
      Obs.clear_trace ())
  @@ fun () ->
  Obs.set_tracing true;
  for i = 0 to 19 do
    Obs.event "tick" ~attrs:[ ("i", Trace.Int i) ]
  done;
  Obs.set_tracing false;
  let events = Obs.events () in
  Alcotest.(check int) "capacity bounds the ring" 8 (List.length events);
  Alcotest.(check int) "dropped counted" 12 (Obs.dropped_events ());
  let seqs = List.map (fun (e : Trace.event) -> e.Trace.seq) events in
  Alcotest.(check (list int)) "newest events survive"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ] seqs

let test_capacity_validation () =
  let expect_invalid name msg f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument got ->
        Alcotest.(check string) name msg got
  in
  expect_invalid "zero capacity"
    "Obs.set_ring_capacity: capacity must be >= 1, got 0" (fun () ->
      Obs.set_ring_capacity 0);
  expect_invalid "negative capacity"
    "Obs.set_ring_capacity: capacity must be >= 1, got -3" (fun () ->
      Obs.set_ring_capacity (-3));
  expect_invalid "zero quantile window"
    "Obs.quantile: window must be >= 1, got 0" (fun () ->
      ignore (Obs.quantile ~window:0 "obs.test.badwindow"))

(* Saturate several per-domain rings at once: with 4 worker domains and a
   tiny capacity, every domain's ring overwrites.  Which events survive
   depends on task scheduling, but the accounting must not: drops are
   emitted minus survived, and the merged view stays strictly
   (slot, seq)-ordered. *)
let test_multidomain_saturation () =
  let tasks = 16 and per_task = 10 in
  Obs.clear_trace ();
  Obs.set_ring_capacity 8;
  Fun.protect ~finally:(fun () ->
      Obs.set_ring_capacity (1 lsl 20);
      Obs.set_tracing false;
      Obs.clear_trace ())
  @@ fun () ->
  Obs.set_tracing true;
  Support.with_jobs 4 @@ fun () ->
  ignore
    (Pool.parallel_init tasks (fun i ->
         for j = 0 to per_task - 1 do
           Obs.event "sat.tick"
             ~attrs:[ ("task", Trace.Int i); ("j", Trace.Int j) ]
         done;
         i));
  Obs.set_tracing false;
  let events = Obs.events () in
  let survived = List.length events in
  Alcotest.(check bool) "some events dropped" true
    (Obs.dropped_events () > 0);
  Alcotest.(check int) "drops account for every emitted event"
    ((tasks * per_task) - survived)
    (Obs.dropped_events ());
  let rec ordered = function
    | a :: (b :: _ as rest) ->
        (a.Trace.slot < b.Trace.slot
        || (a.Trace.slot = b.Trace.slot && a.Trace.seq < b.Trace.seq))
        && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "survivors strictly (slot, seq)-ordered" true
    (ordered events)

(* ---- gauges and rolling quantiles ---- *)

let test_gauge () =
  let g = Obs.gauge "obs.test.gauge" in
  Alcotest.(check bool) "find-or-create" true (g == Obs.gauge "obs.test.gauge");
  Obs.set_gauge g 2.5;
  Alcotest.(check (float 0.0)) "set/get" 2.5 (Obs.gauge_value g);
  Obs.reset_metrics ();
  Alcotest.(check (float 0.0)) "reset zeroes" 0.0 (Obs.gauge_value g)

let test_quantile () =
  let q = Obs.quantile ~window:4 "obs.test.quantile" in
  Alcotest.(check bool) "empty estimate is nan" true
    (Float.is_nan (Obs.quantile_estimate q 0.5));
  List.iter (Obs.observe_quantile q) [ 1; 2; 3; 100 ];
  (* 1 -> bucket 0 (upper 1), 2,3 -> bucket 1 (upper 3),
     100 -> bucket 6 (upper 127). *)
  Alcotest.(check (float 0.0)) "p50 quotes bucket 1's boundary" 3.0
    (Obs.quantile_estimate q 0.5);
  Alcotest.(check (float 0.0)) "p100 quotes the max bucket" 127.0
    (Obs.quantile_estimate q 1.0);
  (* A fifth sample evicts the oldest (1): window is [2;3;100;1000]. *)
  Obs.observe_quantile q 1000;
  Alcotest.(check (float 0.0)) "eviction shifts the window" 3.0
    (Obs.quantile_estimate q 0.25);
  Alcotest.(check (float 0.0)) "new max visible" 1023.0
    (Obs.quantile_estimate q 1.0);
  Alcotest.(check int) "all-time count survives eviction" 5
    (Obs.quantile_count q);
  (match Obs.quantile_estimate q 0.0 with
  | (_ : float) -> Alcotest.fail "p = 0 accepted"
  | exception Invalid_argument _ -> ());
  Obs.reset_metrics ();
  Alcotest.(check bool) "reset empties the window" true
    (Float.is_nan (Obs.quantile_estimate q 0.5));
  Alcotest.(check int) "reset zeroes the count" 0 (Obs.quantile_count q)

(* Tracing off is one flag test: the trace-only wrappers and the serve
   loop's quantile sketch allocate nothing per call, so instrumented hot
   paths cost what they cost uninstrumented.  [with_span] is left out: it
   always times its span for the metrics registry. *)
let test_tracing_off_allocates_nothing () =
  Obs.set_tracing false;
  let q = Obs.quantile "obs.test.alloc_free" in
  let body () = () in
  let minor_words call =
    let before = Gc.minor_words () in
    for i = 1 to 1000 do
      call i
    done;
    Gc.minor_words () -. before
  in
  let check name call =
    Alcotest.(check (float 0.0)) (name ^ ": minor words over 1000 calls") 0.0
      (minor_words call)
  in
  check "traced" (fun _ -> Obs.traced "obs.test.off" body);
  check "event" (fun _ -> Obs.event "obs.test.off");
  check "observe_quantile" (fun i -> Obs.observe_quantile q i);
  Obs.reset_metrics ()

(* ---- Prometheus exposition ---- *)

let test_exposition () =
  Obs.reset_metrics ();
  Obs.incr ~by:3 (Obs.counter "xp.count");
  Obs.set_gauge (Obs.gauge "xp.g") 2.5;
  Obs.observe_quantile (Obs.quantile "xp.q") 5;
  let h = Obs.histogram "xp.h" in
  Obs.observe h 1;
  Obs.observe h 5;
  let sp = Obs.span "xp.s" in
  Obs.with_span sp ignore;
  Obs.with_span sp ignore;
  let text = Obs.expose (Obs.snapshot ()) in
  let has line =
    Alcotest.(check bool) (Printf.sprintf "exposes %S" line) true
      (List.mem line (String.split_on_char '\n' text))
  in
  has "# TYPE sso_xp_count_total counter";
  has "sso_xp_count_total 3";
  has "# TYPE sso_xp_g gauge";
  has "sso_xp_g 2.5";
  has "# TYPE sso_xp_q summary";
  has "sso_xp_q{quantile=\"0.5\"} 7";
  has "sso_xp_q{quantile=\"0.99\"} 7";
  has "sso_xp_q_sum 5";
  has "sso_xp_q_count 1";
  has "# TYPE sso_xp_h histogram";
  has "sso_xp_h_bucket{le=\"1\"} 1";
  (* Bucket 1 (le 3) is empty but must still appear: cumulative series
     are gap-free. *)
  has "sso_xp_h_bucket{le=\"3\"} 1";
  has "sso_xp_h_bucket{le=\"7\"} 2";
  has "sso_xp_h_bucket{le=\"+Inf\"} 2";
  has "sso_xp_h_sum 6";
  has "sso_xp_h_count 2";
  (* A span's counter pair is its duration histogram's sum and count. *)
  let ns = Obs.span_total_ns sp in
  has (Printf.sprintf "sso_xp_s_ns_total %d" ns);
  has (Printf.sprintf "sso_span_xp_s_sum %d" ns);
  has "sso_xp_s_calls_total 2";
  has "sso_span_xp_s_count 2";
  (* Every line of the rendering is HELP, TYPE, or a sample. *)
  List.iter
    (fun line ->
      if line <> "" then
        Alcotest.(check bool)
          (Printf.sprintf "line %S well-formed" line)
          true
          (String.length line > 0
          && (String.starts_with ~prefix:"# HELP sso_" line
             || String.starts_with ~prefix:"# TYPE sso_" line
             || (String.starts_with ~prefix:"sso_" line
                && String.contains line ' '))))
    (String.split_on_char '\n' text);
  Obs.reset_metrics ()

(* ---- span-tree profiling ---- *)

let test_folded_stacks () =
  let sp slot seq name dur depth =
    {
      Trace.slot;
      seq;
      ts_ns = 0;
      kind = Trace.Span;
      name;
      dur_ns = dur;
      depth;
      attrs = [];
    }
  in
  (* Post-order within each slot: children precede their parent at a
     greater depth.  Slot 1 is an independent stream. *)
  let events =
    [
      sp 0 0 "child" 10 1;
      sp 0 1 "child" 20 1;
      sp 0 2 "root" 100 0;
      sp 1 0 "other" 5 0;
    ]
  in
  Alcotest.(check (list (triple string int int)))
    "folded stacks"
    [ ("other", 1, 5); ("root", 1, 70); ("root;child", 2, 30) ]
    (Trace.folded_stacks events);
  Alcotest.(check (list (triple string int int)))
    "self totals (name, calls, self) by self desc"
    [ ("root", 1, 70); ("child", 2, 30); ("other", 1, 5) ]
    (List.map
       (fun (name, calls, _total, self) -> (name, calls, self))
       (Trace.self_totals events))

(* ---- the drop count lives in the trace header only ---- *)

let test_write_trace_records_dropped () =
  Obs.clear_trace ();
  Obs.set_ring_capacity 2;
  Fun.protect ~finally:(fun () ->
      Obs.set_ring_capacity (1 lsl 20);
      Obs.set_tracing false;
      Obs.clear_trace ())
  @@ fun () ->
  Obs.set_tracing true;
  for _ = 1 to 5 do
    Obs.event "meta.test"
  done;
  Obs.set_tracing false;
  let path = temp_trace () in
  Obs.write_trace ~path ~meta:[ ("seed", Trace.Int 1) ];
  let loaded = Trace.load path in
  Sys.remove path;
  Alcotest.(check int) "header dropped" 3 loaded.Trace.dropped;
  Alcotest.(check (list string)) "meta as given" [ "seed" ]
    (List.map fst loaded.Trace.meta)

(* ---- determinism across job counts ---- *)

let normalize (e : Trace.event) = { e with Trace.ts_ns = 0; dur_ns = 0 }

let workload () =
  let g = Gen.grid 4 4 in
  ignore (Racke.routing (Rng.create 11) ~trees:6 g);
  let d = Demand.random_pairs (Rng.create 12) ~n:(Graph.n g) ~pairs:5 in
  ignore (Min_congestion.mwu_unrestricted ~iters:8 g d);
  ignore
    (Pool.parallel_init 5 (fun i ->
         Obs.traced "task.body" (fun () ->
             Obs.event "task.tick" ~attrs:[ ("i", Trace.Int i) ];
             i)))

let capture jobs =
  Support.with_jobs jobs @@ fun () ->
  Obs.clear_trace ();
  Obs.set_tracing true;
  Fun.protect ~finally:(fun () -> Obs.set_tracing false) workload;
  List.map (fun e -> event_str (normalize e)) (Obs.events ())

let test_jobs_determinism () =
  let serial = capture 1 in
  let parallel = capture 4 in
  Alcotest.(check bool) "trace is non-trivial" true (List.length serial > 20);
  Alcotest.(check (list string)) "jobs:1 equals jobs:4" serial parallel;
  Obs.clear_trace ()

let capture_events jobs =
  Support.with_jobs jobs @@ fun () ->
  Obs.clear_trace ();
  Obs.set_tracing true;
  Fun.protect ~finally:(fun () -> Obs.set_tracing false) workload;
  let events = List.map normalize (Obs.events ()) in
  Obs.clear_trace ();
  events

let test_flame_jobs_invariant () =
  (* Same workload, different job counts: stack paths and call counts
     must match exactly (self ns are zeroed by [normalize] here; in real
     traces they are wall clock, which is why the CLI's byte-identity
     check uses --weight calls). *)
  let folded jobs = Trace.folded_stacks (capture_events jobs) in
  Alcotest.(check (list (triple string int int)))
    "folded stacks jobs:1 = jobs:4" (folded 1) (folded 4)

(* A parallel region's tasks start at the submitter's span depth, so the
   spans they close nest under the span open at submission — at any job
   count, one tree rather than an orphan root per task. *)
let test_task_spans_nest () =
  let capture jobs =
    Support.with_jobs jobs @@ fun () ->
    Obs.clear_trace ();
    Obs.set_tracing true;
    Fun.protect ~finally:(fun () -> Obs.set_tracing false) (fun () ->
        Obs.traced "region.outer" (fun () ->
            Obs.traced "region.before" ignore;
            ignore
              (Pool.parallel_init 6 (fun i ->
                   Obs.traced "region.task" (fun () ->
                       Obs.traced "region.leaf" (fun () -> Unix.sleepf 0.001);
                       i)))));
    let events = Obs.events () in
    Obs.clear_trace ();
    events
  in
  let stacks jobs =
    let events = capture jobs in
    let folded = Trace.folded_stacks events in
    let dur name =
      List.fold_left
        (fun acc (e : Trace.event) -> if e.Trace.name = name then acc + e.Trace.dur_ns else acc)
        0 events
    in
    let outer_self =
      match List.find_opt (fun (path, _, _) -> path = "region.outer") folded with
      | Some (_, _, self) -> self
      | None -> Alcotest.fail "region.outer is not a root"
    in
    Alcotest.(check int)
      (Printf.sprintf "jobs %d: parent self = duration - children, clamped" jobs)
      (max 0 (dur "region.outer" - dur "region.before" - dur "region.task"))
      outer_self;
    List.map (fun (path, calls, _) -> (path, calls)) folded
  in
  let expected =
    [
      ("region.outer", 1);
      ("region.outer;region.before", 1);
      ("region.outer;region.task", 6);
      ("region.outer;region.task;region.leaf", 6);
    ]
  in
  Alcotest.(check (list (pair string int))) "jobs 1: one tree" expected (stacks 1);
  Alcotest.(check (list (pair string int))) "jobs 4: one tree" expected (stacks 4)

(* ---- MWU convergence semantics ---- *)

(* Trace one solve; return its congestion and its [mwu.round] records. *)
let traced_solve solve =
  Obs.clear_trace ();
  Obs.set_tracing true;
  let { Min_congestion.congestion; _ } =
    Fun.protect ~finally:(fun () -> Obs.set_tracing false) solve
  in
  let events = Obs.events () in
  Obs.clear_trace ();
  match Trace.mwu_solves events with
  | [ s ] -> (congestion, s)
  | solves -> Alcotest.failf "expected one solve, got %d" (List.length solves)

let final_avg (s : Trace.solve) =
  (List.nth s.Trace.s_rounds (List.length s.Trace.s_rounds - 1)).Trace.r_avg

let test_mwu_convergence () =
  let g = Gen.grid 4 4 in
  let d = Demand.random_pairs (Rng.create 5) ~n:(Graph.n g) ~pairs:6 in
  let congestion, s =
    traced_solve (fun () -> Option.get (Min_congestion.mwu_unrestricted ~iters:8 g d))
  in
  Alcotest.(check string) "solver label" "unrestricted" s.Trace.s_solver;
  Alcotest.(check int) "pairs" 6 s.Trace.s_pairs;
  Alcotest.(check int) "iters" 8 s.Trace.s_iters;
  let rounds = s.Trace.s_rounds in
  Alcotest.(check (list int)) "rounds in order" [ 1; 2; 3; 4; 5; 6; 7; 8 ]
    (List.map (fun r -> r.Trace.r_round) rounds);
  List.iter
    (fun (r : Trace.round) ->
      Alcotest.(check bool) "positive congestion" true (r.Trace.r_cong > 0.0);
      Alcotest.(check bool) "support grows" true (r.Trace.r_paths >= 6))
    rounds;
  Alcotest.(check (float 1e-6))
    "final averaged congestion matches the returned routing" congestion
    (final_avg s);
  (* A warm solve whose routing seeds only one of the two pairs: the
     seeded pair has played [weight + round] times, the new pair only
     [round], and the averaged congestion must weigh each accordingly. *)
  let g = Gen.grid 3 3 in
  let ksp s t = Yen.k_shortest g ~k:3 s t in
  let cands_old = [ ((0, 8), ksp 0 8) ] in
  let warm =
    (Min_congestion.lp_on_slices g (index g cands_old) (Demand.single_pair 0 8 1.0)).routing
  in
  let sc = index g (cands_old @ [ ((2, 6), ksp 2 6) ]) in
  let d = Demand.of_list [ (0, 8, 1.0); (2, 6, 1.0) ] in
  let congestion, s =
    traced_solve (fun () ->
        Min_congestion.mwu_on_slices ~iters:20 ~warm:(warm, 50) g sc d)
  in
  Alcotest.(check (float 1e-6))
    "partially seeded warm solve: final averaged congestion matches" congestion
    (final_avg s)

(* One MWU core serves every best-response oracle, so a candidate solve
   and an unrestricted (Dijkstra) solve emit the same [mwu.round]
   attribute set — [sssp_settled] is 0 where nothing is searched — and
   the convergence aggregation reads both. *)
let test_mwu_round_attrs_uniform () =
  let g = Gen.grid 4 4 in
  let d = Demand.random_pairs (Rng.create 5) ~n:(Graph.n g) ~pairs:6 in
  let cands =
    List.map
      (fun (s, t) -> ((s, t), Yen.k_shortest g ~k:3 s t))
      (Demand.support d)
  in
  Obs.clear_trace ();
  Obs.set_tracing true;
  Fun.protect ~finally:(fun () -> Obs.set_tracing false) (fun () ->
      ignore (Min_congestion.mwu_on_slices ~iters:4 g (index g cands) d);
      ignore (Min_congestion.mwu_unrestricted ~iters:4 g d));
  let events = Obs.events () in
  Obs.clear_trace ();
  let rounds label =
    List.filter
      (fun (e : Trace.event) ->
        e.Trace.name = "mwu.round"
        && List.assoc_opt "solver" e.Trace.attrs = Some (Trace.String label))
      events
  in
  let keys (e : Trace.event) = List.sort compare (List.map fst e.Trace.attrs) in
  let settled (e : Trace.event) =
    match List.assoc_opt "sssp_settled" e.Trace.attrs with
    | Some (Trace.Int k) -> k
    | _ -> Alcotest.fail "mwu.round without an integer sssp_settled"
  in
  let reference = keys (List.hd (rounds "unrestricted")) in
  Alcotest.(check bool) "sssp_settled reported" true (List.mem "sssp_settled" reference);
  List.iter
    (fun label ->
      let rs = rounds label in
      Alcotest.(check int) (label ^ " rounds") 4 (List.length rs);
      List.iter
        (fun e -> Alcotest.(check (list string)) (label ^ " attribute keys") reference (keys e))
        rs)
    [ "on_paths"; "unrestricted" ];
  List.iter
    (fun e -> Alcotest.(check int) "on_paths searches nothing" 0 (settled e))
    (rounds "on_paths");
  List.iter
    (fun e -> Alcotest.(check bool) "unrestricted settles vertices" true (settled e > 0))
    (rounds "unrestricted");
  let solves = Trace.mwu_solves events in
  Alcotest.(check (list string)) "aggregated solves"
    [ "on_paths"; "unrestricted" ]
    (List.map (fun s -> s.Trace.s_solver) solves);
  List.iter
    (fun (s : Trace.solve) ->
      Alcotest.(check (list int)) (s.Trace.s_solver ^ " rounds in order") [ 1; 2; 3; 4 ]
        (List.map (fun r -> r.Trace.r_round) s.Trace.s_rounds);
      List.iter
        (fun (r : Trace.round) ->
          Alcotest.(check bool) (s.Trace.s_solver ^ " averaged congestion read") true
            (Float.is_finite r.Trace.r_avg && r.Trace.r_avg > 0.0);
          Alcotest.(check bool) (s.Trace.s_solver ^ " support read") true (r.Trace.r_paths >= 6))
        s.Trace.s_rounds)
    solves

let () =
  Alcotest.run "sso_obs"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "empty round-trip" `Quick test_empty_roundtrip;
          prop_attrs_roundtrip;
          Alcotest.test_case "failed save cleans up" `Quick
            test_save_failure_cleans_up;
        ] );
      ( "contract",
        [
          Alcotest.test_case "load errors" `Quick test_load_contract;
          prop_trace_mutations_never_escape;
        ] );
      ( "registry",
        [
          Alcotest.test_case "ring saturation" `Quick test_ring_saturation;
          Alcotest.test_case "capacity validation" `Quick
            test_capacity_validation;
          Alcotest.test_case "multi-domain saturation" `Quick
            test_multidomain_saturation;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "tracing off allocates nothing" `Quick
            test_tracing_off_allocates_nothing;
          Alcotest.test_case "exposition" `Quick test_exposition;
          Alcotest.test_case "dropped in header" `Quick
            test_write_trace_records_dropped;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs 1 vs 4" `Quick test_jobs_determinism;
          Alcotest.test_case "folded stacks" `Quick test_folded_stacks;
          Alcotest.test_case "flame jobs invariant" `Quick
            test_flame_jobs_invariant;
          Alcotest.test_case "task spans nest under submitter" `Quick
            test_task_spans_nest;
          Alcotest.test_case "mwu convergence" `Quick test_mwu_convergence;
          Alcotest.test_case "mwu round attributes uniform" `Quick
            test_mwu_round_attrs_uniform;
        ] );
    ]
