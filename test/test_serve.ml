(* Tests for the routing service: the update-stream codec, batch
   application, incremental re-optimization under churn, and the
   jobs-invariance of replayed streams. *)

module Rng = Sso_prng.Rng
module Gen = Sso_graph.Gen
module Path = Sso_graph.Path
module Demand = Sso_demand.Demand
module Update = Sso_demand.Update
module Workload = Sso_demand.Workload
module Routing = Sso_flow.Routing
module Ksp = Sso_oblivious.Ksp
module Trees = Sso_oblivious.Trees
module Arena = Sso_graph.Arena
module Sampler = Sso_core.Sampler
module Path_system = Sso_core.Path_system
module Serve = Sso_serve.Serve
module Checkpoint = Sso_serve.Checkpoint
module Scenario = Sso_fault.Scenario
module Timeline = Sso_fault.Timeline
module Simulator = Sso_sim.Simulator
module Codec = Sso_artifact.Codec
module Obs = Sso_obs.Obs
module File = Sso_obs.File
module Semi_oblivious = Sso_core.Semi_oblivious

let ev tick src dst kind = { Update.tick; src; dst; kind }

let with_temp_file f =
  let path = Filename.temp_file "sso_serve_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* A checkpoint blob read back the way a resume reads it. *)
let decode_checkpoint ~graph blob =
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc blob);
      Checkpoint.load ~graph path)

(* ---- update-stream codec ---- *)

let test_update_roundtrip () =
  let events =
    [
      ev 0 0 1 (Update.Arrive 1.0);
      ev 0 2 3 (Update.Arrive 2.5);
      ev 1 0 1 (Update.Set_rate 0.75);
      ev 3 2 3 Update.Depart;
    ]
  in
  with_temp_file (fun path ->
      Update.save path events;
      let events' = Update.load path in
      Alcotest.(check bool) "roundtrip" true
        (events = events'))

let prop_stream_roundtrip =
  QCheck.Test.make ~name:"generated streams round-trip through the codec"
    ~count:25 QCheck.small_int (fun seed ->
      let events =
        Workload.generate ~rate_churn:0.5 (Rng.create seed) ~n:10 ~ticks:6
          ~pairs:5 ~churn:0.4
      in
      with_temp_file (fun path ->
          Update.save path events;
          events = Update.load path))

let expect_corrupt name content =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      Alcotest.(check bool) name true
        (try
           ignore (Update.load path);
           false
         with File.Corrupt _ -> true))

let test_load_contract () =
  Alcotest.(check bool) "missing file is unreadable" true
    (try
       ignore (Update.load "/nonexistent/sso-stream.jsonl");
       false
     with File.Unreadable _ -> true);
  expect_corrupt "garbage" "not an update stream\n";
  expect_corrupt "empty" "";
  expect_corrupt "wrong schema"
    "{\"schema\":\"sso-trace\",\"version\":1,\"events\":0}\n";
  expect_corrupt "wrong version"
    "{\"schema\":\"sso-serve-stream\",\"version\":99,\"events\":0}\n";
  expect_corrupt "truncated"
    "{\"schema\":\"sso-serve-stream\",\"version\":1,\"events\":2}\n\
     {\"tick\":0,\"src\":0,\"dst\":1,\"op\":\"arrive\",\"rate\":1}\n";
  expect_corrupt "tick regression"
    "{\"schema\":\"sso-serve-stream\",\"version\":1,\"events\":2}\n\
     {\"tick\":2,\"src\":0,\"dst\":1,\"op\":\"arrive\",\"rate\":1}\n\
     {\"tick\":1,\"src\":1,\"dst\":2,\"op\":\"arrive\",\"rate\":1}\n";
  expect_corrupt "unknown op"
    "{\"schema\":\"sso-serve-stream\",\"version\":1,\"events\":1}\n\
     {\"tick\":0,\"src\":0,\"dst\":1,\"op\":\"burst\",\"rate\":1}\n";
  expect_corrupt "non-positive rate"
    "{\"schema\":\"sso-serve-stream\",\"version\":1,\"events\":1}\n\
     {\"tick\":0,\"src\":0,\"dst\":1,\"op\":\"arrive\",\"rate\":0}\n"

let test_save_rejects_invalid_streams () =
  let expect_invalid name events =
    Alcotest.(check bool) name true
      (try
         with_temp_file (fun path -> Update.save path events);
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid "diagonal pair" [ ev 0 3 3 (Update.Arrive 1.0) ];
  expect_invalid "negative rate" [ ev 0 0 1 (Update.Arrive (-1.0)) ];
  expect_invalid "tick regression"
    [ ev 2 0 1 (Update.Arrive 1.0); ev 1 1 2 (Update.Arrive 1.0) ]

(* ---- batch application ---- *)

let test_apply () =
  let d =
    Update.apply Demand.empty
      [
        ev 0 0 1 (Update.Arrive 1.0);
        ev 0 0 1 (Update.Arrive 2.0);
        ev 0 2 3 (Update.Arrive 1.0);
      ]
  in
  Alcotest.(check (float 1e-9)) "arrivals sum" 3.0 (Demand.get d 0 1);
  let d = Update.apply d [ ev 1 0 1 (Update.Set_rate 0.25) ] in
  Alcotest.(check (float 1e-9)) "set replaces" 0.25 (Demand.get d 0 1);
  let d = Update.apply d [ ev 2 0 1 Update.Depart ] in
  Alcotest.(check (float 1e-9)) "depart removes" 0.0 (Demand.get d 0 1);
  Alcotest.(check int) "one pair left" 1 (Demand.support_size d);
  let corrupts name events =
    Alcotest.(check bool) name true
      (try
         ignore (Update.apply d events);
         false
       with File.Corrupt _ -> true)
  in
  corrupts "inactive depart" [ ev 3 0 1 Update.Depart ];
  corrupts "inactive set" [ ev 3 0 1 (Update.Set_rate 1.0) ]

(* The batch fold as it was before it became an O(events · log pairs)
   update of the demand map: the whole demand rebuilt through a table on
   every batch, with the same checks in the same order. *)
let rebuild_apply demand events =
  let violation (e : Update.t) =
    if e.Update.tick < 0 then Some (Printf.sprintf "negative tick %d" e.Update.tick)
    else if e.Update.src < 0 || e.Update.dst < 0 then
      Some (Printf.sprintf "negative endpoint in %d->%d" e.Update.src e.Update.dst)
    else if e.Update.src = e.Update.dst then
      Some (Printf.sprintf "diagonal pair %d->%d" e.Update.src e.Update.dst)
    else
      match e.Update.kind with
      | Update.Depart -> None
      | Update.Arrive r | Update.Set_rate r ->
          if Float.is_finite r && r > 0.0 then None
          else
            Some
              (Printf.sprintf "%s %d->%d with non-positive rate %g"
                 (match e.Update.kind with Update.Arrive _ -> "arrive" | _ -> "set")
                 e.Update.src e.Update.dst r)
  in
  let table = Hashtbl.create 64 in
  Demand.fold (fun s t amount () -> Hashtbl.replace table (s, t) amount) demand ();
  List.iter
    (fun (e : Update.t) ->
      (match violation e with
      | Some msg -> raise (File.Corrupt ("invalid event: " ^ msg))
      | None -> ());
      let pair = (e.Update.src, e.Update.dst) in
      match e.Update.kind with
      | Update.Arrive r ->
          let old = match Hashtbl.find_opt table pair with Some v -> v | None -> 0.0 in
          Hashtbl.replace table pair (old +. r)
      | Update.Depart ->
          if not (Hashtbl.mem table pair) then
            raise
              (File.Corrupt
                 (Printf.sprintf "tick %d: departure of inactive pair %d->%d" e.Update.tick
                    e.Update.src e.Update.dst));
          Hashtbl.remove table pair
      | Update.Set_rate r ->
          if not (Hashtbl.mem table pair) then
            raise
              (File.Corrupt
                 (Printf.sprintf "tick %d: rate change of inactive pair %d->%d" e.Update.tick
                    e.Update.src e.Update.dst));
          Hashtbl.replace table pair r)
    events;
  Demand.of_list (Hashtbl.fold (fun (s, t) amount acc -> (s, t, amount) :: acc) table [])

let prop_apply_matches_rebuild =
  (* Pairs among 4 vertices, so batches hit active pairs, repeat pairs
     and re-arrivals.  About a quarter of the batches are valid; the rest
     fail on an inactive departure or rate change, a non-positive rate, a
     diagonal pair or a negative endpoint. *)
  let commodity = QCheck.Gen.(map (fun (s, k) -> (s, (s + 1 + k) mod 4)) (pair (0 -- 3) (0 -- 2))) in
  let initial = QCheck.Gen.(list_size (0 -- 8) (pair commodity (float_range 0.1 5.0)))
  and event =
    QCheck.Gen.(
      map3
        (fun kind (s, d) rate ->
          match kind with
          | 0 | 1 | 2 | 3 -> ev 7 s d (Update.Arrive rate)
          | 4 | 5 -> ev 7 s d Update.Depart
          | 6 | 7 -> ev 7 s d (Update.Set_rate rate)
          | 8 -> ev 7 s s Update.Depart
          | _ -> ev 7 (-1) d (Update.Arrive rate))
        (0 -- 9) commodity (float_range (-0.5) 5.0))
  in
  QCheck.Test.make ~name:"Update.apply equals the rebuilding fold" ~count:500
    (QCheck.make QCheck.Gen.(pair initial (list_size (0 -- 8) event)))
    (fun (initial, events) ->
      let demand = Demand.of_list (List.map (fun ((s, t), v) -> (s, t, v)) initial) in
      let outcome f =
        match f demand events with
        | d -> Ok (Demand.fold (fun s t v acc -> (s, t, Int64.bits_of_float v) :: acc) d [])
        | exception File.Corrupt msg -> Error msg
      in
      outcome Update.apply = outcome rebuild_apply)

let test_by_tick () =
  let events =
    [
      ev 0 0 1 (Update.Arrive 1.0);
      ev 0 1 2 (Update.Arrive 1.0);
      ev 2 0 1 Update.Depart;
      ev 5 3 4 (Update.Arrive 1.0);
    ]
  in
  let groups = Update.by_tick events in
  Alcotest.(check (list int)) "tick keys" [ 0; 2; 5 ]
    (List.map fst groups);
  Alcotest.(check (list int)) "batch sizes" [ 2; 1; 1 ]
    (List.map (fun (_, b) -> List.length b) groups)

(* ---- service stepping ---- *)

let make_service ?config () =
  let g = Gen.grid 4 4 in
  let obl = Ksp.routing ~k:4 g in
  let ps = Sampler.alpha_sample (Rng.create 5) obl ~alpha:3 in
  Serve.create ?config g ps

let test_step_admits_and_retires () =
  let srv = make_service () in
  Alcotest.(check bool) "no routing yet" true (Serve.routing srv = None);
  let r0 =
    Serve.step srv ~tick:0
      [ ev 0 0 1 (Update.Arrive 1.0); ev 0 2 3 (Update.Arrive 1.0) ]
  in
  Alcotest.(check bool) "first solve is cold" true (r0.Serve.mode = Serve.Cold);
  Alcotest.(check int) "two admitted" 2 r0.Serve.admitted;
  Alcotest.(check int) "two active" 2 r0.Serve.active_pairs;
  Alcotest.(check int) "cold staleness" 0 r0.Serve.staleness;
  let r1 =
    Serve.step srv ~tick:1
      [ ev 1 2 3 Update.Depart; ev 1 4 5 (Update.Arrive 1.0) ]
  in
  Alcotest.(check bool) "churn tick is warm" true (r1.Serve.mode = Serve.Warm);
  Alcotest.(check int) "one admitted" 1 r1.Serve.admitted;
  Alcotest.(check int) "one retired" 1 r1.Serve.retired;
  Alcotest.(check int) "warm staleness" 1 r1.Serve.staleness;
  (* A returning pair was already materialized: admission is free. *)
  let r2 = Serve.step srv ~tick:2 [ ev 2 2 3 (Update.Arrive 1.0) ] in
  Alcotest.(check int) "re-admission is free" 0 r2.Serve.admitted;
  Alcotest.(check int) "three active" 3 r2.Serve.active_pairs;
  Alcotest.(check bool) "congestion positive" true (r2.Serve.congestion > 0.0)

(* The Stage-4 index the service keeps across ticks holds the active
   pairs only: a retired pair's candidates are unpacked again when it
   returns, and a live-system change (fail, repair) resets the index. *)
let test_index_follows_changes () =
  let srv = make_service () in
  let unpacked = Obs.counter "serve.index_unpacked" in
  let resets = Obs.counter "serve.index_resets" in
  let step tick ?faults events =
    let u0 = Obs.counter_value unpacked and r0 = Obs.counter_value resets in
    ignore (Serve.step srv ~tick ?faults events);
    (Obs.counter_value unpacked - u0, Obs.counter_value resets - r0)
  in
  let expect name want got = Alcotest.(check (pair int int)) name want got in
  expect "two arrivals" (2, 0)
    (step 0 [ ev 0 0 1 (Update.Arrive 1.0); ev 0 2 3 (Update.Arrive 1.0) ]);
  expect "a departure unpacks nothing" (0, 0) (step 1 [ ev 1 2 3 Update.Depart ]);
  expect "a returning pair is unpacked again" (1, 0) (step 2 [ ev 2 2 3 (Update.Arrive 1.0) ]);
  expect "a rate change unpacks nothing" (0, 0) (step 3 [ ev 3 0 1 (Update.Set_rate 2.0) ]);
  expect "a failure resets" (2, 1) (step 4 ~faults:[ Serve.Fail 4 ] []);
  expect "a quiet tick under failure" (0, 0) (step 5 []);
  expect "a repair resets" (2, 1) (step 6 ~faults:[ Serve.Repair 4 ] [])

let test_step_rejects_bad_batches () =
  let srv = make_service () in
  ignore (Serve.step srv ~tick:3 [ ev 3 0 1 (Update.Arrive 1.0) ]);
  let corrupts name tick events =
    Alcotest.(check bool) name true
      (try
         ignore (Serve.step srv ~tick events);
         false
       with File.Corrupt _ -> true)
  in
  corrupts "non-increasing tick" 3 [ ev 3 1 2 (Update.Arrive 1.0) ];
  corrupts "mislabelled event" 5 [ ev 4 1 2 (Update.Arrive 1.0) ];
  corrupts "endpoint out of range" 6 [ ev 6 1 99 (Update.Arrive 1.0) ]

let test_step_to_empty_demand () =
  let srv = make_service () in
  ignore (Serve.step srv ~tick:0 [ ev 0 0 1 (Update.Arrive 1.0) ]);
  let r = Serve.step srv ~tick:1 [ ev 1 0 1 Update.Depart ] in
  Alcotest.(check int) "no active pairs" 0 r.Serve.active_pairs;
  Alcotest.(check (float 1e-9)) "no congestion" 0.0 r.Serve.congestion

let test_refresh_and_staleness () =
  let events =
    Workload.generate (Rng.create 41) ~n:16 ~ticks:7 ~pairs:6 ~churn:1.0
  in
  let srv =
    make_service ~config:{ Serve.default_config with refresh_every = 3 } ()
  in
  let reports = Serve.replay srv events in
  Alcotest.(check (list string)) "cold every third solve"
    [ "cold"; "warm"; "warm"; "cold"; "warm"; "warm"; "cold" ]
    (List.map
       (fun r ->
         match r.Serve.mode with
         | Serve.Cold -> "cold"
         | Serve.Warm -> "warm"
         | Serve.Degraded -> "degraded")
       reports);
  Alcotest.(check (list int)) "staleness resets on refresh"
    [ 0; 1; 2; 0; 1; 2; 0 ]
    (List.map (fun r -> r.Serve.staleness) reports);
  let srv = make_service () in
  let reports = Serve.replay srv events in
  Alcotest.(check (list int)) "never refreshes by default"
    [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.map (fun r -> r.Serve.staleness) reports)

(* ---- warm-vs-cold equivalence (at 1 and 4 workers) ---- *)

let churn_events = Workload.generate (Rng.create 31) ~n:16 ~ticks:8 ~pairs:10 ~churn:0.3

let check_warm_tracks_cold jobs =
  Support.with_jobs jobs @@ fun () ->
  let warm_srv =
    make_service ~config:{ Serve.default_config with warm_iters = 60; warm_weight = 20 } ()
  in
  let warm = Serve.replay warm_srv churn_events in
  let cold_srv =
    make_service ~config:{ Serve.default_config with refresh_every = 1 } ()
  in
  let cold = Serve.replay cold_srv churn_events in
  List.iter2
    (fun (w : Serve.report) (c : Serve.report) ->
      Alcotest.(check bool)
        (Printf.sprintf
           "tick %d: warm %.4f within tolerance of cold %.4f (jobs %d)"
           w.Serve.tick w.Serve.congestion c.Serve.congestion jobs)
        true
        (w.Serve.congestion <= 1.10 *. c.Serve.congestion +. 1e-9))
    warm cold

let test_warm_tracks_cold_j1 () = check_warm_tracks_cold 1
let test_warm_tracks_cold_j4 () = check_warm_tracks_cold 4

(* ---- jobs-invariance of a replayed stream ---- *)

let replay_fingerprint jobs =
  Support.with_jobs jobs @@ fun () ->
  let srv = make_service () in
  let reports = Serve.replay srv churn_events in
  let digest =
    match Serve.routing srv with
    | Some r -> Codec.hex_of_key (Codec.fnv1a64 (Codec.encode_routing r))
    | None -> Alcotest.fail "expected a routing after replay"
  in
  (reports, digest)

let report_equal (a : Serve.report) (b : Serve.report) =
  (* Everything but the wall-clock [solve_ns]/[tick_ns] fields. *)
  a.Serve.tick = b.Serve.tick
  && a.Serve.events = b.Serve.events
  && a.Serve.arrivals = b.Serve.arrivals
  && a.Serve.departures = b.Serve.departures
  && a.Serve.rate_changes = b.Serve.rate_changes
  && a.Serve.active_pairs = b.Serve.active_pairs
  && a.Serve.admitted = b.Serve.admitted
  && a.Serve.retired = b.Serve.retired
  && a.Serve.deferred = b.Serve.deferred
  && a.Serve.failed_edges = b.Serve.failed_edges
  && a.Serve.rerouted = b.Serve.rerouted
  && a.Serve.unroutable = b.Serve.unroutable
  && Float.equal a.Serve.congestion b.Serve.congestion
  && a.Serve.mode = b.Serve.mode
  && a.Serve.staleness = b.Serve.staleness

let test_replay_jobs_invariant () =
  let r1, d1 = replay_fingerprint 1 in
  let r4, d4 = replay_fingerprint 4 in
  Alcotest.(check string) "routing digest" d1 d4;
  Alcotest.(check int) "report count" (List.length r1) (List.length r4);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "tick %d report" a.Serve.tick)
        true (report_equal a b))
    r1 r4

(* ---- simulation ---- *)

let test_simulate () =
  let srv = make_service () in
  let outcome, reports =
    Serve.simulate (Rng.create 3) ~period:4 srv churn_events
  in
  Alcotest.(check int) "one report per tick" 8 (List.length reports);
  (match outcome with
  | Simulator.Completed _ -> ()
  | Simulator.Out_of_budget _ -> Alcotest.fail "simulation ran out of budget");
  let stats = Simulator.value outcome in
  Alcotest.(check bool) "packets injected" true (stats.Simulator.packets > 0);
  Alcotest.(check int) "all delivered" stats.Simulator.packets
    stats.Simulator.delivered

(* ---- SLO ---- *)

let blank_report ~solve_ns ~tick_ns =
  { Serve.tick = 0; events = 0; arrivals = 0; departures = 0;
    rate_changes = 0; active_pairs = 0; admitted = 0; retired = 0;
    deferred = 0; failed_edges = 0; rerouted = 0; unroutable = 0;
    congestion = 0.0; mode = Serve.Cold; staleness = 0; solve_ns; tick_ns }

let test_check_slo () =
  let report solve_ns = blank_report ~solve_ns ~tick_ns:solve_ns in
  (* 1..10 ms of solve time; nearest-rank p99 of 10 samples is the max. *)
  let reports = List.init 10 (fun i -> report ((i + 1) * 1_000_000)) in
  let burned = Serve.check_slo ~budget_ms:5.0 reports in
  Alcotest.(check (float 1e-9)) "p99 is the max sample" 10.0
    burned.Serve.p99_ms;
  Alcotest.(check bool) "burned" true burned.Serve.burned;
  Alcotest.(check int) "ticks over budget" 5 burned.Serve.burns;
  let ok = Serve.check_slo ~budget_ms:15.0 reports in
  Alcotest.(check bool) "within budget" false ok.Serve.burned;
  Alcotest.(check int) "no burns" 0 ok.Serve.burns;
  let empty = Serve.check_slo ~budget_ms:1.0 [] in
  Alcotest.(check bool) "empty replay never burns" false empty.Serve.burned;
  Alcotest.(check (float 0.0)) "empty replay p99" 0.0 empty.Serve.p99_ms;
  match Serve.check_slo ~budget_ms:0.0 reports with
  | (_ : Serve.slo) -> Alcotest.fail "zero budget accepted"
  | exception Invalid_argument _ -> ()

let test_check_overload () =
  let report tick_ns = blank_report ~solve_ns:0 ~tick_ns in
  let reports = List.init 10 (fun i -> report ((i + 1) * 1_000_000)) in
  let o = Serve.check_overload ~budget_ms:5.0 reports in
  Alcotest.(check bool) "overloaded" true o.Serve.overloaded;
  Alcotest.(check int) "slow ticks" 5 o.Serve.slow_ticks;
  Alcotest.(check (float 1e-9)) "max tick" 10.0 o.Serve.max_tick_ms;
  let ok = Serve.check_overload ~budget_ms:15.0 reports in
  Alcotest.(check bool) "within budget" false ok.Serve.overloaded;
  let empty = Serve.check_overload ~budget_ms:1.0 [] in
  Alcotest.(check bool) "empty replay" false empty.Serve.overloaded;
  match Serve.check_overload ~budget_ms:0.0 reports with
  | (_ : Serve.overload) -> Alcotest.fail "zero budget accepted"
  | exception Invalid_argument _ -> ()

(* ---- faults in the loop ---- *)

let test_step_faults () =
  let srv = make_service () in
  let r0 =
    Serve.step srv ~tick:0
      [ ev 0 0 1 (Update.Arrive 1.0); ev 0 5 10 (Update.Arrive 1.0) ]
  in
  Alcotest.(check int) "nothing failed yet" 0 r0.Serve.failed_edges;
  (* Kill an edge the current routing actually uses: the report must
     count the displaced commodity. *)
  let used_edge =
    match Serve.routing srv with
    | Some r -> (
        match Routing.distribution r 0 1 with
        | (_, p) :: _ -> p.Path.edges.(0)
        | [] -> Alcotest.fail "expected a distribution for 0->1")
    | None -> Alcotest.fail "expected a routing"
  in
  let r1 = Serve.step srv ~tick:1 ~faults:[ Serve.Fail used_edge ] [] in
  Alcotest.(check int) "one edge down" 1 r1.Serve.failed_edges;
  Alcotest.(check bool) "displaced pairs counted" true (r1.Serve.rerouted >= 1);
  Alcotest.(check (list int)) "failed_edges accessor" [ used_edge ]
    (Serve.snapshot srv).Serve.s_failed;
  Alcotest.(check bool) "still serves both pairs" true
    (r1.Serve.active_pairs = 2 && r1.Serve.unroutable = 0);
  (* The degraded-graph routing must not touch the dead edge. *)
  (match Serve.routing srv with
  | Some r ->
      List.iter
        (fun (s, d) ->
          List.iter
            (fun (_, p) ->
              Alcotest.(check bool) "no weight on the dead edge" false
                (Array.exists (fun e -> e = used_edge) p.Path.edges))
            (Routing.distribution r s d))
        (Routing.pairs r)
  | None -> Alcotest.fail "expected a routing");
  let r2 = Serve.step srv ~tick:2 ~faults:[ Serve.Repair used_edge ] [] in
  Alcotest.(check int) "repaired" 0 r2.Serve.failed_edges;
  (* Contradictory fault events are stream corruption. *)
  let corrupts name faults =
    Alcotest.(check bool) name true
      (try
         ignore (Serve.step srv ~tick:9 ~faults []);
         false
       with File.Corrupt _ -> true)
  in
  corrupts "repair of healthy edge" [ Serve.Repair used_edge ];
  corrupts "edge out of range" [ Serve.Fail 100000 ];
  ignore (Serve.step srv ~tick:20 ~faults:[ Serve.Fail used_edge ] []);
  corrupts "double failure" [ Serve.Fail used_edge ]

let test_unroutable_pair_sheds_and_recovers () =
  let srv = make_service () in
  ignore
    (Serve.step srv ~tick:0
       [ ev 0 0 1 (Update.Arrive 1.0); ev 0 12 15 (Update.Arrive 1.0) ]);
  (* Fail every candidate of 0->1: the pair must be shed as unroutable,
     not crash the solve — and come back with the repair. *)
  let doomed =
    List.sort_uniq compare
      (List.concat_map
         (fun p -> Array.to_list p.Path.edges)
         (Path_system.paths (Serve.system srv) 0 1))
  in
  let r1 =
    Serve.step srv ~tick:1 ~faults:(List.map (fun e -> Serve.Fail e) doomed) []
  in
  Alcotest.(check int) "one pair unroutable" 1 r1.Serve.unroutable;
  Alcotest.(check int) "both still active" 2 r1.Serve.active_pairs;
  (match Serve.routing srv with
  | Some r -> Alcotest.(check bool) "dropped from the routing" true
      (Routing.distribution r 0 1 = [])
  | None -> Alcotest.fail "expected a routing");
  let r2 =
    Serve.step srv ~tick:2
      ~faults:(List.map (fun e -> Serve.Repair e) doomed)
      []
  in
  Alcotest.(check int) "routable again" 0 r2.Serve.unroutable;
  match Serve.routing srv with
  | Some r ->
      Alcotest.(check bool) "back in the routing" true
        (Routing.distribution r 0 1 <> [])
  | None -> Alcotest.fail "expected a routing"

let test_faults_of_timeline () =
  let g = Gen.grid 4 4 in
  let s12 = Scenario.of_edges g [ 1; 2 ] in
  let s3 = Scenario.of_edges g [ 3 ] in
  let faults =
    Serve.faults_of_timeline
      [ Timeline.entry ~at:2 ~repair_at:5 s12; Timeline.entry ~at:2 s3 ]
  in
  Alcotest.(check bool) "fail and repair ticks" true
    (faults
    = [ (2, [ Serve.Fail 1; Serve.Fail 2; Serve.Fail 3 ]);
        (5, [ Serve.Repair 1; Serve.Repair 2 ]) ]);
  (* Same-tick repair-then-refail is expressible: repairs come first. *)
  let refail =
    Serve.faults_of_timeline
      [ Timeline.entry ~at:1 ~repair_at:3 s3; Timeline.entry ~at:3 s3 ]
  in
  Alcotest.(check bool) "repairs precede failures" true
    (refail = [ (1, [ Serve.Fail 3 ]); (3, [ Serve.Repair 3; Serve.Fail 3 ]) ]);
  let degradation = Scenario.degrade g ~factor:0.5 [ 1 ] in
  match Serve.faults_of_timeline [ Timeline.entry ~at:1 degradation ] with
  | (_ : (int * Serve.fault list) list) ->
      Alcotest.fail "degradation accepted"
  | exception Invalid_argument _ -> ()

let test_fault_replay_jobs_invariant () =
  let faults = [ (2, [ Serve.Fail 4; Serve.Fail 9 ]); (6, [ Serve.Repair 4 ]) ] in
  let fingerprint jobs =
    Support.with_jobs jobs @@ fun () ->
    let srv = make_service () in
    let reports = Serve.replay ~faults srv churn_events in
    match Serve.routing srv with
    | Some r ->
        (reports, Codec.hex_of_key (Codec.fnv1a64 (Codec.encode_routing r)))
    | None -> Alcotest.fail "expected a routing"
  in
  let r1, d1 = fingerprint 1 in
  let r4, d4 = fingerprint 4 in
  Alcotest.(check string) "faulted digest" d1 d4;
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "tick %d faulted report" a.Serve.tick)
        true (report_equal a b))
    r1 r4

(* ---- overload shedding and degraded mode ---- *)

let test_overload_sheds_and_degrades () =
  let config =
    { Serve.default_config with event_budget = 2; max_staleness = 1 }
  in
  let srv = make_service ~config () in
  let arrive tick s d = ev tick s d (Update.Arrive 1.0) in
  (* 4 arrivals against a budget of 2: half applied, half deferred.  No
     routing exists yet, so the tick cannot degrade — it solves cold on
     what it admitted. *)
  let r0 =
    Serve.step srv ~tick:0
      [ arrive 0 0 1; arrive 0 1 2; arrive 0 2 3; arrive 0 3 4 ]
  in
  Alcotest.(check int) "applied up to budget" 2 r0.Serve.events;
  Alcotest.(check int) "rest deferred" 2 r0.Serve.deferred;
  Alcotest.(check bool) "cold, not degraded" true (r0.Serve.mode = Serve.Cold);
  Alcotest.(check int) "two pairs live" 2 r0.Serve.active_pairs;
  (* Still over budget and a routing exists: serve it stale. *)
  let r1 = Serve.step srv ~tick:1 [ arrive 1 4 5; arrive 1 5 6; arrive 1 6 7 ] in
  Alcotest.(check bool) "degraded" true (r1.Serve.mode = Serve.Degraded);
  Alcotest.(check int) "backlog applied first" 2 r1.Serve.events;
  Alcotest.(check int) "still shedding" 3 r1.Serve.deferred;
  Alcotest.(check int) "staleness counts degraded ticks" 1 r1.Serve.staleness;
  (* The degraded routing still covers everything that is active. *)
  (match Serve.routing srv with
  | Some r -> Alcotest.(check bool) "covers the active demand" true
      (Routing.covers r (Serve.demand srv))
  | None -> Alcotest.fail "expected a routing");
  (* max_staleness = 1: the next over-budget tick must re-solve. *)
  let r2 = Serve.step srv ~tick:2 [] in
  Alcotest.(check bool) "forced re-solve" true (r2.Serve.mode = Serve.Warm);
  Alcotest.(check int) "one left over" 1 r2.Serve.deferred;
  let r3 = Serve.step srv ~tick:3 [] in
  Alcotest.(check int) "drained" 0 r3.Serve.deferred;
  Alcotest.(check int) "all pairs eventually admitted" 7
    r3.Serve.active_pairs;
  Alcotest.(check bool) "queue empty" true (Serve.pending srv = [])

let test_budgeted_replay_converges () =
  (* A budgeted replay drains its backlog on trailing ticks, so it ends
     on exactly the demand an unbudgeted replay reaches. *)
  let budgeted =
    make_service ~config:{ Serve.default_config with event_budget = 3 } ()
  in
  let reports = Serve.replay budgeted churn_events in
  let plain = make_service () in
  let plain_reports = Serve.replay plain churn_events in
  Alcotest.(check bool) "same final demand" true
    (Support.demand_equal (Serve.demand budgeted) (Serve.demand plain));
  Alcotest.(check bool) "backlog drained" true (Serve.pending budgeted = []);
  Alcotest.(check bool) "drain ticks appended" true
    (List.length reports >= List.length plain_reports);
  let applied rs = List.fold_left (fun a r -> a + r.Serve.events) 0 rs in
  Alcotest.(check int) "every event applied exactly once" (applied plain_reports)
    (applied reports)

(* ---- checkpoint / restore ---- *)

let sample_on g = Sampler.alpha_sample (Rng.create 5) (Ksp.routing ~k:4 g) ~alpha:3

let make_parts () =
  let g = Gen.grid 4 4 in
  (g, sample_on g)

(* The base of perf's wan-churn workload: an α=4 sample of a 4-tree uniform
   spanning-tree mixture. *)
let make_tree_parts () =
  let g = Gen.torus 4 4 in
  let obl = Trees.uniform (Rng.create 3) ~count:4 g in
  (g, Sampler.alpha_sample (Rng.create 5) obl ~alpha:4)

let split_events cut events =
  ( List.filter (fun (e : Update.t) -> e.Update.tick <= cut) events,
    List.filter (fun (e : Update.t) -> e.Update.tick > cut) events )

let digest_of srv =
  match Serve.routing srv with
  | Some r -> Codec.hex_of_key (Codec.fnv1a64 (Codec.encode_routing r))
  | None -> Alcotest.fail "expected a routing"

(* Golden pin for a faulted replay, recorded before the fault-recovery
   and churn warm starts were merged into one routine: an edge fails
   mid-stream and is repaired two ticks later.  The digest covers the
   final routing and every tick's congestion bits, at jobs 1 and 4. *)
let test_faulted_replay_golden () =
  let faults = [ (3, [ Serve.Fail 4 ]); (5, [ Serve.Repair 4 ]) ] in
  List.iter
    (fun jobs ->
      Support.with_jobs jobs @@ fun () ->
      let srv = make_service () in
      let reports = Serve.replay ~faults srv churn_events in
      let congestion =
        String.concat " "
          (List.map
             (fun r -> Printf.sprintf "%Lx" (Int64.bits_of_float r.Serve.congestion))
             reports)
      in
      Alcotest.(check string)
        (Printf.sprintf "faulted replay (jobs %d)" jobs)
        "b7b557a82c482a45 4e8128952e6332d0786888cc1372ed81"
        (digest_of srv ^ " " ^ Digest.to_hex (Digest.string congestion)))
    [ 1; 4 ]

(* The index the service keeps across ticks against a fresh one: every
   tick of a churn replay through a fail/repair window must serve the
   routing, bit for bit, that [Semi_oblivious.route] (warm-started on a
   warm tick) gives on a freshly built index of the live candidates,
   from the same warm routing.  The index counters must show that tick
   work follows the changes: a tick unpacks only the pairs new to it, and
   only a fault or repair tick, which replaces the live system, resets
   the index and unpacks the whole support. *)
let check_index_matches_fresh jobs =
  Support.with_jobs jobs @@ fun () ->
  let g, system = make_parts () in
  let config = Serve.default_config in
  let srv = Serve.create ~config g system in
  let faults =
    [ (2, [ Serve.Fail 4; Serve.Fail 9 ]); (4, [ Serve.Repair 4 ]); (6, [ Serve.Repair 9 ]) ]
  in
  let batches = Update.by_tick churn_events in
  let unpacked = Obs.counter "serve.index_unpacked" in
  let resets = Obs.counter "serve.index_resets" in
  let failed = ref [] and previous = ref [] in
  for tick = 0 to 7 do
    let batch = Option.value (List.assoc_opt tick batches) ~default:[] in
    let fs = Option.value (List.assoc_opt tick faults) ~default:[] in
    let warm = Serve.routing srv in
    let u0 = Obs.counter_value unpacked and r0 = Obs.counter_value resets in
    let report = Serve.step srv ~tick ~faults:fs batch in
    List.iter
      (function
        | Serve.Fail e -> failed := e :: !failed
        | Serve.Repair e -> failed := List.filter (fun e' -> e' <> e) !failed)
      fs;
    let down = !failed in
    let live =
      if down = [] then system
      else Path_system.filter (fun a i -> not (Arena.exists a i (fun e -> List.mem e down))) system
    in
    let demand = Serve.demand srv in
    let routable = Demand.filter (fun s d _ -> Path_system.slice_count live s d > 0) demand in
    let routing, congestion =
      match (report.Serve.mode, warm) with
      | _ when Demand.support_size routable = 0 -> (Routing.make g [], 0.0)
      | Serve.Warm, Some warm ->
          Semi_oblivious.route
            ~solver:(Semi_oblivious.Mwu config.Serve.warm_iters)
            ~warm_start:(warm, config.Serve.warm_weight) g live routable
      | (Serve.Cold | Serve.Warm | Serve.Degraded), _ ->
          Semi_oblivious.route ~solver:config.Serve.solver g live routable
    in
    let label what = Printf.sprintf "tick %d: %s (jobs %d)" tick what jobs in
    Alcotest.(check string) (label "routing digest")
      (Codec.hex_of_key (Codec.fnv1a64 (Codec.encode_routing routing)))
      (digest_of srv);
    Alcotest.(check int64) (label "congestion bits") (Int64.bits_of_float congestion)
      (Int64.bits_of_float report.Serve.congestion);
    let support = Demand.support demand in
    let fresh = List.filter (fun p -> not (List.mem p !previous)) support in
    Alcotest.(check int) (label "index resets") (if fs = [] then 0 else 1)
      (Obs.counter_value resets - r0);
    Alcotest.(check int) (label "pairs unpacked")
      (List.length (if fs = [] then fresh else support))
      (Obs.counter_value unpacked - u0);
    previous := support
  done

let test_index_matches_fresh_j1 () = check_index_matches_fresh 1
let test_index_matches_fresh_j4 () = check_index_matches_fresh 4

let check_kill_and_resume ?(parts = make_parts) ~faults ~cut jobs =
  Support.with_jobs jobs @@ fun () ->
  let make_service () =
    let g, system = parts () in
    Serve.create g system
  in
  let full = make_service () in
  ignore (Serve.replay ~faults full churn_events);
  let reference = digest_of full in
  (* Run the prefix, checkpoint through the binary codec, restore into a
     freshly sampled system, finish the suffix. *)
  let prefix, suffix = split_events cut churn_events in
  let pre_faults = List.filter (fun (t, _) -> t <= cut) faults in
  let post_faults = List.filter (fun (t, _) -> t > cut) faults in
  let interrupted = make_service () in
  ignore (Serve.replay ~faults:pre_faults interrupted prefix);
  let stream_digest = Checkpoint.events_digest churn_events in
  let g, system = parts () in
  let blob =
    Checkpoint.encode ~stream_digest ~graph:g ~config:Serve.default_config
      (Serve.snapshot interrupted)
  in
  let digest', repr, state = decode_checkpoint ~graph:g blob in
  Alcotest.(check bool) "stream digest round-trips" true
    (Int64.equal digest' stream_digest);
  Alcotest.(check string) "config round-trips"
    (Checkpoint.config_repr Serve.default_config)
    repr;
  let resumed = Serve.restore g system state in
  ignore (Serve.replay ~faults:post_faults resumed suffix);
  Alcotest.(check string)
    (Printf.sprintf "resume at tick %d == uninterrupted (jobs %d)" cut jobs)
    reference (digest_of resumed)

let test_kill_and_resume_j1 () =
  List.iter (fun cut -> check_kill_and_resume ~faults:[] ~cut 1) [ 2; 5 ]

let test_kill_and_resume_j4 () =
  List.iter (fun cut -> check_kill_and_resume ~faults:[] ~cut 4) [ 2; 5 ]

let test_kill_and_resume_with_faults () =
  (* The fault window straddles the cut: the failed set must survive the
     checkpoint for the repair to be legal after restore. *)
  let faults =
    [ (1, [ Serve.Fail 4; Serve.Fail 9 ]); (6, [ Serve.Repair 4 ]) ]
  in
  List.iter (fun jobs -> check_kill_and_resume ~faults ~cut:3 jobs) [ 1; 4 ]

let test_kill_and_resume_tree_mixture () =
  List.iter
    (fun jobs ->
      List.iter
        (fun cut ->
          check_kill_and_resume ~parts:make_tree_parts ~faults:[] ~cut jobs)
        [ 2; 5 ])
    [ 1; 4 ]

let test_checkpoint_contract () =
  let srv = make_service () in
  ignore
    (Serve.step srv ~tick:0
       [ ev 0 0 1 (Update.Arrive 1.0); ev 0 2 3 (Update.Arrive 1.5) ]);
  let g, _ = make_parts () in
  let blob =
    Checkpoint.encode ~stream_digest:7L ~graph:g ~config:Serve.default_config
      (Serve.snapshot srv)
  in
  let corrupt name blob =
    Alcotest.(check bool) name true
      (try
         ignore (decode_checkpoint ~graph:g blob);
         false
       with File.Corrupt _ -> true)
  in
  (* Any single flipped bit anywhere must be caught by the checksum. *)
  List.iter
    (fun i ->
      let b = Bytes.of_string blob in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      corrupt (Printf.sprintf "bit flip at byte %d" i) (Bytes.to_string b))
    [ 0; 1; 2; String.length blob / 2; String.length blob - 1 ];
  corrupt "truncated" (String.sub blob 0 (String.length blob - 3));
  corrupt "empty" "";
  (* A checkpoint against a differently seeded sampler must be refused
     by restore, not silently resumed. *)
  let _, _, state = decode_checkpoint ~graph:g blob in
  let other =
    Sampler.alpha_sample (Rng.create 6) (Ksp.routing ~k:4 g) ~alpha:3
  in
  match Serve.restore g other state with
  | (_ : Serve.t) -> Alcotest.fail "mismatched sampler accepted"
  | exception File.Corrupt _ -> ()

(* Damage inside [s_system] itself, past the checkpoint checksum: the
   payload decoder or the per-pair comparison must refuse it as
   [Corrupt], and no other exception may escape. *)
let test_restore_rejects_damaged_system () =
  let srv = make_service () in
  ignore (Serve.replay srv (fst (split_events 3 churn_events)));
  let state = Serve.snapshot srv in
  let g, _ = make_parts () in
  let payload = state.Serve.s_system in
  let a, ranges = Codec.decode_path_system_slices g payload in
  let refused name s_system =
    let _, system = make_parts () in
    match Serve.restore g system { state with Serve.s_system } with
    | (_ : Serve.t) -> Alcotest.failf "%s: damaged system accepted" name
    | exception File.Corrupt _ -> ()
    | exception e ->
        Alcotest.failf "%s: raised %s, not Corrupt" name (Printexc.to_string e)
  in
  (* The undamaged payload restores. *)
  ignore (Serve.restore g (snd (make_parts ())) state);
  (* Byte offset of the first pair's first slot: header, pair count,
     endpoints, candidate count, hop count. *)
  let first_slot =
    let (s, d), (first, count) = List.hd ranges in
    let w = Codec.writer () in
    Codec.write_u8 w (Char.code payload.[0]);
    Codec.write_u8 w (Char.code payload.[1]);
    List.iter (Codec.write_varint w)
      [ List.length ranges; s; d; count; Arena.hops a first ];
    let prefix = Codec.contents w in
    Alcotest.(check bool) "slot offset located" true
      (count > 0 && String.starts_with ~prefix payload);
    String.length prefix
  in
  let flip pos mask =
    let b = Bytes.of_string payload in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
    Bytes.to_string b
  in
  List.iter
    (fun mask ->
      refused (Printf.sprintf "first slot ^ %#x" mask) (flip first_slot mask);
      refused (Printf.sprintf "last slot ^ %#x" mask)
        (flip (String.length payload - 1) mask))
    [ 0x01; 0x02; 0x80 ];
  (* Two same-length candidates of one pair swapped: endpoints, hop
     counts and the candidate count all agree, only the slot bytes do
     not. *)
  (match
     List.find_opt
       (fun (_, (first, count)) ->
         count >= 2 && Arena.hops a first = Arena.hops a (first + 1))
       ranges
   with
  | None -> Alcotest.fail "no pair with two same-length candidates"
  | Some (_, (first, _)) ->
      let b = Arena.create g in
      for i = 0 to Arena.length a - 1 do
        let j =
          if i = first then first + 1 else if i = first + 1 then first else i
        in
        ignore (Arena.append_slice b a j)
      done;
      refused "same-length candidates swapped"
        (Codec.encode_path_system_slices b ranges));
  let reencode ranges = Codec.encode_path_system_slices a ranges in
  let (pair, (first, count)), rest = (List.hd ranges, List.tl ranges) in
  refused "one candidate dropped"
    (reencode ((pair, (first, count - 1)) :: rest));
  let n = Sso_graph.Graph.n g in
  refused "empty out-of-range pair" (reencode (((n, 0), (0, 0)) :: ranges));
  refused "populated out-of-range pair"
    (reencode (((0, n), (first, count)) :: rest));
  refused "trailing bytes" (payload ^ "\000")

(* ---- restore: verify every saved pair, then install the saved bytes ---- *)

let restore_state () =
  let srv = make_service () in
  ignore (Serve.replay srv (fst (split_events 3 churn_events)));
  Serve.snapshot srv

let arena_length system = Arena.length (Path_system.arena system)

(* A refused checkpoint leaves the system it was given as it was: no new
   index entry and no arena bytes, even when the disagreeing pair comes
   after pairs that matched. *)
let test_rejected_restore_installs_nothing () =
  let state = restore_state () in
  let g, _ = make_parts () in
  let a, ranges = Codec.decode_path_system_slices g state.Serve.s_system in
  let unchanged name (g, system) s_system =
    (* One pair is installed beforehand, so "unchanged" is not "empty". *)
    ignore (Path_system.slice_range system 0 15);
    let pairs = Path_system.known_pairs system and length = arena_length system in
    (match Serve.restore g system { state with Serve.s_system } with
    | (_ : Serve.t) -> Alcotest.failf "%s: accepted" name
    | exception File.Corrupt _ -> ());
    Alcotest.(check (list (pair int int))) (name ^ ": no new index entry") pairs
      (Path_system.known_pairs system);
    Alcotest.(check int) (name ^ ": same arena length") length (arena_length system)
  in
  let payload = state.Serve.s_system in
  let last = String.length payload - 1 in
  List.iter
    (fun mask ->
      let b = Bytes.of_string payload in
      Bytes.set b last (Char.chr (Char.code payload.[last] lxor mask));
      unchanged (Printf.sprintf "last slot ^ %#x" mask) (make_parts ()) (Bytes.to_string b))
    [ 0x01; 0x02 ];
  (* The last pair with two distinct same-length candidates has them
     swapped: the payload decodes, every earlier pair matches, and only
     that pair's slot bytes disagree. *)
  let first, earlier =
    List.fold_left
      (fun (found, k) (_, (first, count)) ->
        let found =
          if count >= 2 && Arena.hops a first = Arena.hops a (first + 1)
             && not (Arena.equal_slices a first a (first + 1))
          then Some (first, k)
          else found
        in
        (found, k + 1))
      (None, 0) ranges
    |> fst |> Option.get
  in
  Alcotest.(check bool) "matching pairs precede the swapped one" true (earlier > 0);
  let b = Arena.create g in
  for i = 0 to Arena.length a - 1 do
    let j = if i = first then first + 1 else if i = first + 1 then first else i in
    ignore (Arena.append_slice b a j)
  done;
  unchanged "swapped slots" (make_parts ()) (Codec.encode_path_system_slices b ranges);
  let other = Sampler.alpha_sample (Rng.create 6) (Ksp.routing ~k:4 g) ~alpha:3 in
  unchanged "wrong seed" (g, other) state.Serve.s_system;
  let other = Sampler.alpha_sample (Rng.create 5) (Ksp.routing ~k:4 g) ~alpha:2 in
  unchanged "wrong alpha" (g, other) state.Serve.s_system

(* A system that already holds some checkpointed pairs keeps their slices
   and gains only the missing pairs; the service resumes with the same
   snapshot. *)
let test_restore_into_partly_installed () =
  let state = restore_state () in
  let g, system = make_parts () in
  let a, ranges = Codec.decode_path_system_slices g state.Serve.s_system in
  (* Every third pair, in reverse, so the held pairs' layout differs from
     the payload's. *)
  let held = List.rev (List.filteri (fun i _ -> i mod 3 = 0) (List.map fst ranges)) in
  let held_ranges = List.map (fun (s, t) -> ((s, t), Path_system.slice_range system s t)) held in
  let length = arena_length system in
  let resumed = Serve.restore g system state in
  List.iter
    (fun ((s, t), r) ->
      Alcotest.(check (pair int int)) (Printf.sprintf "held %d->%d keeps its slices" s t) r
        (Path_system.slice_range system s t))
    held_ranges;
  let missing =
    List.fold_left
      (fun acc (pair, (_, count)) -> if List.mem pair held then acc else acc + count)
      0 ranges
  in
  Alcotest.(check int) "only the missing pairs are installed" (length + missing)
    (arena_length system);
  Alcotest.(check int) "every slice was saved" (Arena.length a)
    (arena_length system);
  Alcotest.(check bool) "the snapshot round-trips" true
    (Serve.snapshot resumed = state)

(* Restoring into a fresh system lays the arena out exactly as
   materializing the checkpointed pairs in sorted order would. *)
let test_restored_arena_matches_fresh () =
  let state = restore_state () in
  let g, system = make_parts () in
  ignore (Serve.restore g system state);
  let fresh = sample_on g in
  let pairs = List.map fst (snd (Codec.decode_path_system_slices g state.Serve.s_system)) in
  Path_system.materialize fresh pairs;
  let arena = Path_system.arena system and fresh_arena = Path_system.arena fresh in
  Alcotest.(check int) "arena length" (Arena.length fresh_arena) (Arena.length arena);
  Alcotest.(check int) "memory bytes" (Arena.memory_bytes fresh_arena) (Arena.memory_bytes arena);
  List.iter
    (fun (s, t) ->
      let first, count = Path_system.slice_range system s t in
      let first', count' = Path_system.slice_range fresh s t in
      Alcotest.(check (pair int int)) (Printf.sprintf "%d->%d range" s t) (first', count')
        (first, count);
      for k = 0 to count - 1 do
        Alcotest.(check bool) (Printf.sprintf "%d->%d slice %d" s t k) true
          (Arena.equal_slices arena (first + k) fresh_arena (first' + k))
      done)
    pairs

let test_checkpoint_files () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sso_ckpt_test.%d" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
  @@ fun () ->
  Alcotest.(check bool) "no dir, no latest" true (Checkpoint.latest ~dir = None);
  let srv = make_service () in
  let g, _ = make_parts () in
  ignore (Serve.step srv ~tick:0 [ ev 0 0 1 (Update.Arrive 1.0) ]);
  let p0 =
    Checkpoint.write ~dir ~stream_digest:1L ~graph:g
      ~config:Serve.default_config (Serve.snapshot srv)
  in
  ignore (Serve.step srv ~tick:7 [ ev 7 2 3 (Update.Arrive 1.0) ]);
  let p7 =
    Checkpoint.write ~dir ~stream_digest:1L ~graph:g
      ~config:Serve.default_config (Serve.snapshot srv)
  in
  Alcotest.(check bool) "both files exist" true
    (Sys.file_exists p0 && Sys.file_exists p7);
  (match Checkpoint.latest ~dir with
  | Some (tick, path) ->
      Alcotest.(check int) "latest tick" 7 tick;
      Alcotest.(check string) "latest path" p7 path
  | None -> Alcotest.fail "expected a latest checkpoint");
  let _, _, state = Checkpoint.load ~graph:g p7 in
  Alcotest.(check int) "tick restored" 7 state.Serve.s_tick;
  Alcotest.(check bool) "no stale temporaries" true
    (Array.for_all
       (fun f -> not (String.length f >= 4 && String.sub f 0 4 = "ckpt")
                 || Filename.check_suffix f ".bin")
       (Sys.readdir dir));
  match Checkpoint.load ~graph:g (Filename.concat dir "missing.bin") with
  | (_ : int64 * string * Serve.state) -> Alcotest.fail "missing file loaded"
  | exception File.Unreadable _ -> ()

(* ---- metrics snapshot hygiene ---- *)

let test_write_metrics_cleanup () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sso_metrics_test.%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () ->
      Array.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.is_directory p then Unix.rmdir p else Sys.remove p)
        (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let target = Filename.concat dir "metrics.prom" in
  Serve.write_metrics ~path:target;
  Alcotest.(check bool) "snapshot written" true (Sys.file_exists target);
  Alcotest.(check int) "no temporaries on success" 1
    (Array.length (Sys.readdir dir));
  (* Make the rename fail (target is a directory): the temporary must
     not be left behind. *)
  Sys.remove target;
  Unix.mkdir target 0o700;
  (match Serve.write_metrics ~path:target with
  | () -> Alcotest.fail "rename onto a directory succeeded"
  | exception File.Unreadable _ -> ());
  Alcotest.(check int) "no stale .tmp after failure" 1
    (Array.length (Sys.readdir dir))

(* Every in-place writer, handed a target that is a directory, must fail
   with [File.Unreadable] and leave nothing beside the target.  [write]
   receives the target path and raises; the result is what is left in the
   enclosing directory. *)
let leftovers_after_failed_write name write =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "sso_writer_test.%d.%s" (Unix.getpid ()) name)
  in
  Unix.mkdir dir 0o700;
  let target = Filename.concat dir name in
  Unix.mkdir target 0o700;
  Fun.protect ~finally:(fun () ->
      Array.iter
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.is_directory p then Unix.rmdir p else Sys.remove p)
        (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  Alcotest.(check bool) (name ^ ": write fails") true (write dir target);
  Alcotest.(check (list string)) (name ^ ": no temporary left") [ name ]
    (Array.to_list (Sys.readdir dir))

let test_writers_clean_up () =
  leftovers_after_failed_write "stream.jsonl" (fun _ target ->
      match Update.save target [ ev 0 0 1 (Update.Arrive 1.0) ] with
      | () -> false
      | exception File.Unreadable _ -> true);
  let srv = make_service () in
  let g, _ = make_parts () in
  ignore (Serve.step srv ~tick:0 [ ev 0 0 1 (Update.Arrive 1.0) ]);
  leftovers_after_failed_write "ckpt-0000000000.bin" (fun dir _ ->
      match
        Checkpoint.write ~dir ~stream_digest:1L ~graph:g
          ~config:Serve.default_config (Serve.snapshot srv)
      with
      | _ -> false
      | exception File.Unreadable _ -> true);
  let recipe = Sso_artifact.Store.recipe ~kind:"writer-test" [] in
  leftovers_after_failed_write
    (Codec.hex_of_key (Sso_artifact.Store.key recipe) ^ ".art")
    (fun dir _ ->
      let st = Sso_artifact.Store.open_ ~dir () in
      match Sso_artifact.Store.put st recipe "payload" with
      | () -> false
      | exception File.Unreadable _ -> true);
  leftovers_after_failed_write "metrics.prom" (fun _ target ->
      match Serve.write_metrics ~path:target with
      | () -> false
      | exception File.Unreadable _ -> true)

(* ---- parser fuzzing: byte mutations never escape the contract ---- *)

let fuzz_stream_content =
  lazy
    (let events =
       Workload.generate ~rate_churn:0.3 (Rng.create 97) ~n:12 ~ticks:5
         ~pairs:6 ~churn:0.4
     in
     with_temp_file (fun path ->
         Update.save path events;
         let ic = open_in_bin path in
         Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () -> really_input_string ic (in_channel_length ic))))

let prop_stream_mutations_never_escape =
  QCheck.Test.make
    ~name:"mutated streams parse, or fail as Unreadable/Corrupt"
    ~count:600
    QCheck.(triple small_nat small_nat small_nat)
    (fun (kind, pos, extra) ->
      let mutated = Support.mutate (Lazy.force fuzz_stream_content) kind pos extra in
      with_temp_file (fun path ->
          let oc = open_out_bin path in
          output_string oc mutated;
          close_out oc;
          match Update.load path with
          | (_ : Update.t list) -> true
          | exception File.Unreadable _ -> true
          | exception File.Corrupt _ -> true
          | exception _ -> false))

let fuzz_checkpoint_blob =
  lazy
    (let srv = make_service () in
     ignore
       (Serve.replay srv
          (Workload.generate (Rng.create 53) ~n:16 ~ticks:3 ~pairs:5
             ~churn:0.3));
     let g, _ = make_parts () in
     ( g,
       Checkpoint.encode ~stream_digest:42L ~graph:g
         ~config:Serve.default_config (Serve.snapshot srv) ))

let prop_checkpoint_mutations_never_escape =
  QCheck.Test.make
    ~name:"mutated checkpoints decode, or fail as Corrupt"
    ~count:500
    QCheck.(triple small_nat small_nat small_nat)
    (fun (kind, pos, extra) ->
      let g, blob = Lazy.force fuzz_checkpoint_blob in
      match decode_checkpoint ~graph:g (Support.mutate blob kind pos extra) with
      | (_ : int64 * string * Serve.state) -> true
      | exception File.Corrupt _ -> true
      | exception _ -> false)

let test_create_rejects_bad_config () =
  let reject name config =
    Alcotest.(check bool) name true
      (try
         ignore (make_service ~config ());
         false
       with Invalid_argument _ -> true)
  in
  reject "warm_iters" { Serve.default_config with warm_iters = 0 };
  reject "warm_weight" { Serve.default_config with warm_weight = 0 };
  reject "refresh_every" { Serve.default_config with refresh_every = -1 };
  reject "event_budget" { Serve.default_config with event_budget = -1 };
  reject "max_staleness" { Serve.default_config with max_staleness = -1 }

(* ---- the service's economics on a WAN-sized instance ---- *)

(* A 64-node 4-regular WAN, an α = 4 sample of a 4-tree Wilson mixture,
   and a 40-tick churn stream over 64 pairs; seeds 140–143 are children of
   master seed 0, as in [bench/main.exe]'s seeding. *)
let wan_graph, wan_replay =
  let seeded k = Rng.split_at (Rng.create 0) k in
  let g = Gen.random_regular (seeded 140) 64 4 in
  let obl = Trees.uniform (seeded 141) ~count:4 g in
  let events =
    Workload.generate ~rate_churn:0.2 (seeded 142) ~n:64 ~ticks:40 ~pairs:64 ~churn:0.15
  in
  ( g,
    fun ?faults config ->
      let system = Sampler.alpha_sample (seeded 143) obl ~alpha:4 in
      Serve.replay ?faults (Serve.create ~config g system) events )

(* Carrying the MWU weights across ticks must beat re-solving every tick
   from scratch by a wide margin, or the service has no reason to exist:
   the cold replay spends at least 3x the warm replay's MWU rounds. *)
let test_warm_rounds_beat_cold () =
  let iterations = Obs.counter "mwu.iterations" in
  let rounds config =
    let before = Obs.counter_value iterations in
    ignore (wan_replay config);
    Obs.counter_value iterations - before
  in
  let cold = rounds { Serve.default_config with refresh_every = 1 } in
  let warm = rounds Serve.default_config in
  Alcotest.(check bool)
    (Printf.sprintf "cold %d MWU rounds >= 3 x warm %d" cold warm)
    true
    (cold >= 3 * warm)

(* Recovery makespan: once an outage is repaired the topology is back to
   normal, so the faulted warm replay must return within 10% of its own
   unfaulted trajectory.  The makespan counts ticks from the repair to the
   last tick still above that (0 = instant re-absorption) and must stay
   within 6.  The outage is the one [Sweep.worst_k ~k:3] picks on this
   instance against the demand live when it strikes: edge 1 alone, failed
   a third of the way in and repaired at two thirds. *)
let test_outage_recovery_makespan () =
  let fail_at = 13 and repair_at = 26 in
  let faults =
    Serve.faults_of_timeline
      [ Timeline.entry ~at:fail_at ~repair_at (Scenario.single wan_graph 1) ]
  in
  let faulted = wan_replay ~faults Serve.default_config in
  let baseline = wan_replay Serve.default_config in
  let makespan =
    List.fold_left
      (fun acc (r : Serve.report) ->
        match List.find_opt (fun (b : Serve.report) -> b.Serve.tick = r.Serve.tick) baseline with
        | Some b
          when r.Serve.tick >= repair_at
               && r.Serve.congestion > (1.10 *. b.Serve.congestion) +. 1e-9 ->
            max acc (r.Serve.tick - repair_at + 1)
        | _ -> acc)
      0 faulted
  in
  Alcotest.(check bool)
    (Printf.sprintf "recovery makespan %d ticks <= 6" makespan)
    true (makespan <= 6)

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_update_roundtrip;
          Alcotest.test_case "load contract" `Quick test_load_contract;
          Alcotest.test_case "save rejects" `Quick
            test_save_rejects_invalid_streams;
        ] );
      ( "apply",
        [
          Alcotest.test_case "semantics" `Quick test_apply;
          Alcotest.test_case "by_tick" `Quick test_by_tick;
        ] );
      ( "service",
        [
          Alcotest.test_case "admit and retire" `Quick
            test_step_admits_and_retires;
          Alcotest.test_case "index follows changes" `Quick test_index_follows_changes;
          Alcotest.test_case "bad batches" `Quick test_step_rejects_bad_batches;
          Alcotest.test_case "empty demand" `Quick test_step_to_empty_demand;
          Alcotest.test_case "refresh and staleness" `Quick
            test_refresh_and_staleness;
          Alcotest.test_case "bad config" `Quick test_create_rejects_bad_config;
          Alcotest.test_case "check_slo" `Quick test_check_slo;
          Alcotest.test_case "check_overload" `Quick test_check_overload;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fail and repair" `Quick test_step_faults;
          Alcotest.test_case "unroutable pair" `Quick
            test_unroutable_pair_sheds_and_recovers;
          Alcotest.test_case "timeline bridge" `Quick test_faults_of_timeline;
          Alcotest.test_case "faulted replay golden pin" `Quick
            test_faulted_replay_golden;
          Alcotest.test_case "jobs-invariant faulted replay" `Quick
            test_fault_replay_jobs_invariant;
          Alcotest.test_case "outage recovery makespan" `Quick
            test_outage_recovery_makespan;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "budget sheds, staleness caps" `Quick
            test_overload_sheds_and_degrades;
          Alcotest.test_case "budgeted replay converges" `Quick
            test_budgeted_replay_converges;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "kill and resume (jobs 1)" `Quick
            test_kill_and_resume_j1;
          Alcotest.test_case "kill and resume (jobs 4)" `Quick
            test_kill_and_resume_j4;
          Alcotest.test_case "kill and resume over a tree mixture" `Quick
            test_kill_and_resume_tree_mixture;
          Alcotest.test_case "restore rejects a damaged system" `Quick
            test_restore_rejects_damaged_system;
          Alcotest.test_case "kill and resume across faults" `Quick
            test_kill_and_resume_with_faults;
          Alcotest.test_case "corruption contract" `Quick
            test_checkpoint_contract;
          Alcotest.test_case "files and latest" `Quick test_checkpoint_files;
          Alcotest.test_case "rejected restore installs nothing" `Quick
            test_rejected_restore_installs_nothing;
          Alcotest.test_case "restore into a partly installed system" `Quick
            test_restore_into_partly_installed;
          Alcotest.test_case "restored arena matches a fresh one" `Quick
            test_restored_arena_matches_fresh;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "atomic snapshot hygiene" `Quick
            test_write_metrics_cleanup;
          Alcotest.test_case "failed writers leave no temporary" `Quick
            test_writers_clean_up;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "warm tracks cold (jobs 1)" `Quick
            test_warm_tracks_cold_j1;
          Alcotest.test_case "warm tracks cold (jobs 4)" `Quick
            test_warm_tracks_cold_j4;
          Alcotest.test_case "jobs-invariant replay" `Quick
            test_replay_jobs_invariant;
          Alcotest.test_case "warm spends a third of cold's rounds" `Quick
            test_warm_rounds_beat_cold;
          Alcotest.test_case "kept index equals a fresh one (jobs 1)" `Quick
            test_index_matches_fresh_j1;
          Alcotest.test_case "kept index equals a fresh one (jobs 4)" `Quick
            test_index_matches_fresh_j4;
        ] );
      ( "simulation",
        [ Alcotest.test_case "timed load" `Quick test_simulate ] );
      ( "properties",
        List.map Support.to_alcotest
          [
            prop_stream_roundtrip;
            prop_apply_matches_rebuild;
            prop_stream_mutations_never_escape;
            prop_checkpoint_mutations_never_escape;
          ] );
    ]
