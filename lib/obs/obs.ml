let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(* ---- tracing switch ---- *)

let tracing_flag = Atomic.make false
let set_tracing b = Atomic.set tracing_flag b
let tracing () = Atomic.get tracing_flag

(* ---- deterministic streams ----

   A stream is one logical emitter: the main thread between parallel
   regions, or a single task of a parallel region.  Slots come from a
   global cursor, so a task's slot (pre-assigned by the pool, in submission
   order) is independent of which domain runs it or when. *)

type stream = { slot : int; mutable next_seq : int }

let cursor = Atomic.make 0
let reserve_slots n = Atomic.fetch_and_add cursor n
let stream_key : stream option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current_stream () =
  let r = Domain.DLS.get stream_key in
  match !r with
  | Some st -> st
  | None ->
      let st = { slot = reserve_slots 1; next_seq = 0 } in
      r := Some st;
      st

let fresh_stream () = Domain.DLS.get stream_key := None

(* Span nesting depth, per domain.  [in_task] sets it to the submitter's
   depth, so a task's spans report the same depths whether it ran inline
   (jobs=1) or on a worker, and nest under the span open at submission. *)
let depth_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)
let span_depth () = !(Domain.DLS.get depth_key)

let in_task ~depth slot f =
  let r = Domain.DLS.get stream_key in
  let d = Domain.DLS.get depth_key in
  let old_stream = !r and old_depth = !d in
  r := Some { slot; next_seq = 0 };
  d := depth;
  Fun.protect
    ~finally:(fun () ->
      r := old_stream;
      d := old_depth)
    f

(* ---- per-domain ring buffers ---- *)

type buffer = {
  mutable store : Trace.event array;
  mutable len : int; (* occupied prefix of [store] *)
  mutable head : int; (* next overwrite position once saturated *)
  mutable dropped : int;
}

let buffers_lock = Mutex.create ()
let all_buffers : buffer list ref = ref []
let ring_capacity = Atomic.make (1 lsl 20)

let set_ring_capacity n =
  if n < 1 then
    invalid_arg
      (Printf.sprintf "Obs.set_ring_capacity: capacity must be >= 1, got %d" n);
  Atomic.set ring_capacity n

let buffer_key : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = { store = [||]; len = 0; head = 0; dropped = 0 } in
      Mutex.lock buffers_lock;
      all_buffers := b :: !all_buffers;
      Mutex.unlock buffers_lock;
      b)

let push b e =
  let cap = Atomic.get ring_capacity in
  if b.len < cap then begin
    if b.len = Array.length b.store then begin
      let grown = min cap (max 64 (2 * Array.length b.store)) in
      let ns = Array.make grown e in
      Array.blit b.store 0 ns 0 b.len;
      b.store <- ns
    end;
    b.store.(b.len) <- e;
    b.len <- b.len + 1
  end
  else begin
    (* Saturated: overwrite the oldest.  Wrap on [len], not the physical
       store size — the store may be larger than a lowered capacity. *)
    b.store.(b.head) <- e;
    b.head <- (b.head + 1) mod b.len;
    b.dropped <- b.dropped + 1
  end

let record kind name dur_ns attrs =
  let st = current_stream () in
  let seq = st.next_seq in
  st.next_seq <- seq + 1;
  let e =
    {
      Trace.slot = st.slot;
      seq;
      ts_ns = now_ns ();
      kind;
      name;
      dur_ns;
      depth = !(Domain.DLS.get depth_key);
      attrs;
    }
  in
  push (Domain.DLS.get buffer_key) e

let event ?(attrs = []) name =
  if Atomic.get tracing_flag then record Trace.Event name 0 attrs

let traced ?(attrs = []) name f =
  if not (Atomic.get tracing_flag) then f ()
  else begin
    let d = Domain.DLS.get depth_key in
    let depth0 = !d in
    let t0 = now_ns () in
    d := depth0 + 1;
    Fun.protect
      ~finally:(fun () ->
        let dur = max 0 (now_ns () - t0) in
        d := depth0;
        record Trace.Span name dur attrs)
      f
  end

(* ---- metrics registry ----

   Counters and accumulators are atomics so hot paths never take the
   registry lock; the lock only guards find-or-create and enumeration. *)

type counter = { cname : string; value : int Atomic.t }

type histogram = {
  hname : string;
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_buckets : int Atomic.t array; (* index = floor(log2 sample), 0 for <= 1 *)
}

type span = {
  sname : string;
  total_ns : int Atomic.t;
  calls : int Atomic.t;
  shist : histogram;
}

type gauge = { gname : string; gvalue : float Atomic.t }

(* A rolling-window quantile sketch: the log2 bucket of each of the last
   [window] observations, plus per-bucket occupancy over that window.
   Quantile estimates are bucket upper boundaries, so for the same
   observation sequence the estimate is exact-deterministic — there is no
   sampling and no merge order.  All-time count/sum ride along for the
   Prometheus summary lines. *)
type quantile = {
  qname : string;
  q_lock : Mutex.t;
  q_window : int array; (* circular: bucket index per retained sample *)
  mutable q_len : int;
  mutable q_pos : int; (* next write position *)
  q_buckets : int array; (* occupancy per bucket over the window *)
  mutable q_count : int; (* all-time observations *)
  mutable q_sum : int; (* all-time sum *)
}

let lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let spans : (string, span) Hashtbl.t = Hashtbl.create 32
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 32
let quantiles : (string, quantile) Hashtbl.t = Hashtbl.create 32

let registered tbl make name =
  Mutex.lock lock;
  let entry =
    match Hashtbl.find_opt tbl name with
    | Some e -> e
    | None ->
        let e = make name in
        Hashtbl.replace tbl name e;
        e
  in
  Mutex.unlock lock;
  entry

let counter name =
  registered counters (fun cname -> { cname; value = Atomic.make 0 }) name

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.value by)
let counter_value c = Atomic.get c.value

let histogram name =
  registered histograms
    (fun hname ->
      {
        hname;
        h_count = Atomic.make 0;
        h_sum = Atomic.make 0;
        h_buckets = Array.init 63 (fun _ -> Atomic.make 0);
      })
    name

let bucket_of v =
  if v <= 1 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 1 do
      v := !v lsr 1;
      b := !b + 1
    done;
    !b
  end

let observe h v =
  Atomic.incr h.h_count;
  ignore (Atomic.fetch_and_add h.h_sum v);
  Atomic.incr h.h_buckets.(bucket_of v)

let gauge name =
  registered gauges (fun gname -> { gname; gvalue = Atomic.make 0.0 }) name

let set_gauge g v = Atomic.set g.gvalue v
let gauge_value g = Atomic.get g.gvalue

let default_quantile_window = 1024

let quantile ?(window = default_quantile_window) name =
  if window < 1 then
    invalid_arg
      (Printf.sprintf "Obs.quantile: window must be >= 1, got %d" window);
  registered quantiles
    (fun qname ->
      {
        qname;
        q_lock = Mutex.create ();
        q_window = Array.make window 0;
        q_len = 0;
        q_pos = 0;
        q_buckets = Array.make 63 0;
        q_count = 0;
        q_sum = 0;
      })
    name

let observe_quantile q v =
  let b = bucket_of v in
  Mutex.lock q.q_lock;
  let cap = Array.length q.q_window in
  if q.q_len = cap then
    (* Saturated: the slot being overwritten holds the oldest sample. *)
    q.q_buckets.(q.q_window.(q.q_pos)) <- q.q_buckets.(q.q_window.(q.q_pos)) - 1
  else q.q_len <- q.q_len + 1;
  q.q_window.(q.q_pos) <- b;
  q.q_pos <- (q.q_pos + 1) mod cap;
  q.q_buckets.(b) <- q.q_buckets.(b) + 1;
  q.q_count <- q.q_count + 1;
  q.q_sum <- q.q_sum + v;
  Mutex.unlock q.q_lock

(* Upper boundary of log2 bucket [b]: bucket 0 holds samples <= 1, bucket
   b >= 1 holds [2^b, 2^(b+1)-1].  Estimates quote these boundaries, never
   interpolated sample values, so they are a pure function of the bucket
   occupancy — identical for the same observations at any [--jobs]. *)
let bucket_upper b = if b = 0 then 1.0 else Float.of_int ((1 lsl (b + 1)) - 1)

let quantile_estimate_locked q p =
  if q.q_len = 0 then Float.nan
  else begin
    let rank =
      Int.max 1
        (Int.min q.q_len
           (int_of_float (Float.ceil (p *. float_of_int q.q_len))))
    in
    let b = ref 0 and cum = ref 0 in
    while
      !cum + q.q_buckets.(!b) < rank && !b < Array.length q.q_buckets - 1
    do
      cum := !cum + q.q_buckets.(!b);
      b := !b + 1
    done;
    bucket_upper !b
  end

let quantile_estimate q p =
  if not (p > 0.0 && p <= 1.0) then
    invalid_arg
      (Printf.sprintf "Obs.quantile_estimate: p must be in (0, 1], got %g" p);
  Mutex.lock q.q_lock;
  let v = quantile_estimate_locked q p in
  Mutex.unlock q.q_lock;
  v

let quantile_count q =
  Mutex.lock q.q_lock;
  let c = q.q_count in
  Mutex.unlock q.q_lock;
  c

let span name =
  (* Register the histogram first: [registered]'s lock is not reentrant,
     so it must not be created inside the make closure. *)
  let shist = histogram ("span." ^ name) in
  registered spans
    (fun sname ->
      { sname; total_ns = Atomic.make 0; calls = Atomic.make 0; shist })
    name

let with_span ?(attrs = []) sp f =
  let trace = Atomic.get tracing_flag in
  let d = Domain.DLS.get depth_key in
  let depth0 = !d in
  if trace then d := depth0 + 1;
  let t0 = now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let dur = max 0 (now_ns () - t0) in
      ignore (Atomic.fetch_and_add sp.total_ns dur);
      ignore (Atomic.fetch_and_add sp.calls 1);
      observe sp.shist dur;
      if trace then begin
        d := depth0;
        record Trace.Span sp.sname dur attrs
      end)
    f

let time name f = with_span (span name) f
let span_total_ns sp = Atomic.get sp.total_ns
let span_calls sp = Atomic.get sp.calls

let reset_metrics () =
  Mutex.lock lock;
  Hashtbl.iter (fun _ c -> Atomic.set c.value 0) counters;
  Hashtbl.iter
    (fun _ s ->
      Atomic.set s.total_ns 0;
      Atomic.set s.calls 0)
    spans;
  Hashtbl.iter
    (fun _ h ->
      Atomic.set h.h_count 0;
      Atomic.set h.h_sum 0;
      Array.iter (fun b -> Atomic.set b 0) h.h_buckets)
    histograms;
  Hashtbl.iter (fun _ g -> Atomic.set g.gvalue 0.0) gauges;
  Hashtbl.iter
    (fun _ q ->
      Mutex.lock q.q_lock;
      q.q_len <- 0;
      q.q_pos <- 0;
      Array.fill q.q_buckets 0 (Array.length q.q_buckets) 0;
      q.q_count <- 0;
      q.q_sum <- 0;
      Mutex.unlock q.q_lock)
    quantiles;
  Mutex.unlock lock

let metrics_snapshot () =
  Mutex.lock lock;
  let cs =
    Hashtbl.fold (fun name c acc -> (name, Atomic.get c.value) :: acc) counters []
  in
  let ss =
    Hashtbl.fold
      (fun name s acc -> (name, Atomic.get s.total_ns, Atomic.get s.calls) :: acc)
      spans []
  in
  Mutex.unlock lock;
  ( List.sort compare (List.filter (fun (_, v) -> v <> 0) cs),
    List.sort compare (List.filter (fun (_, _, c) -> c <> 0) ss) )

let metrics_table () =
  let cs, ss = metrics_snapshot () in
  if cs = [] && ss = [] then ""
  else begin
    let buf = Buffer.create 256 in
    if cs <> [] then begin
      Buffer.add_string buf (Printf.sprintf "%-32s %14s\n" "counter" "value");
      List.iter
        (fun (name, v) ->
          Buffer.add_string buf (Printf.sprintf "%-32s %14d\n" name v))
        cs
    end;
    if ss <> [] then begin
      if cs <> [] then Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Printf.sprintf "%-32s %10s %12s %12s\n" "span" "calls" "total ms"
           "ms/call");
      List.iter
        (fun (name, ns, calls) ->
          let ms = float_of_int ns /. 1e6 in
          Buffer.add_string buf
            (Printf.sprintf "%-32s %10d %12.2f %12.3f\n" name calls ms
               (ms /. float_of_int (max 1 calls))))
        ss
    end;
    Buffer.contents buf
  end

let metrics_json () =
  let cs, ss = metrics_snapshot () in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Printf.sprintf "%S: %d" name v))
    cs;
  Buffer.add_string buf "}, \"spans\": {";
  List.iteri
    (fun i (name, ns, calls) ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf
        (Printf.sprintf "%S: {\"ns\": %d, \"calls\": %d}" name ns calls))
    ss;
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* ---- trace collection ---- *)

let snapshot_buffers () =
  Mutex.lock buffers_lock;
  let bufs = !all_buffers in
  Mutex.unlock buffers_lock;
  bufs

let events () =
  let collected =
    List.concat_map
      (fun b ->
        let out = ref [] in
        for i = b.len - 1 downto 0 do
          out := b.store.(i) :: !out
        done;
        !out)
      (snapshot_buffers ())
  in
  List.sort
    (fun (a : Trace.event) (b : Trace.event) ->
      compare (a.slot, a.seq) (b.slot, b.seq))
    collected

let dropped_events () =
  List.fold_left (fun acc b -> acc + b.dropped) 0 (snapshot_buffers ())

let histogram_records () =
  Mutex.lock lock;
  let hs =
    Hashtbl.fold
      (fun name h acc ->
        let count = Atomic.get h.h_count in
        if count = 0 then acc
        else begin
          let buckets = ref [] in
          for b = Array.length h.h_buckets - 1 downto 0 do
            let c = Atomic.get h.h_buckets.(b) in
            if c > 0 then buckets := (b, c) :: !buckets
          done;
          {
            Trace.h_name = name;
            h_count = count;
            h_sum = Atomic.get h.h_sum;
            h_buckets = !buckets;
          }
          :: acc
        end)
      histograms []
  in
  Mutex.unlock lock;
  List.sort (fun a b -> compare a.Trace.h_name b.Trace.h_name) hs

(* ---- Prometheus exposition ----

   [snapshot] freezes the whole registry under the lock; [expose] renders
   the frozen frame as Prometheus text exposition format v0.0.4.  Both
   live outside every deterministic output path: exposition values carry
   wall-clock latencies and GC state, so they must never feed digests or
   byte-compared stdout — the same boundary [solve_ns] already draws. *)

type exposition = {
  x_counters : (string * int) list;
  x_gauges : (string * float) list;
  x_spans : (string * int * int) list; (* name, total_ns, calls *)
  x_histograms : (string * int * int * (int * int) list) list;
      (* name, count, sum, (bucket, occupancy) ascending *)
  x_quantiles : (string * int * int * (float * float) list) list;
      (* name, all-time count, all-time sum, (p, estimate) *)
}

let exposed_quantile_levels = [ 0.5; 0.9; 0.99 ]

let snapshot () =
  Mutex.lock lock;
  let sorted_by_name key xs = List.sort (fun a b -> compare (key a) (key b)) xs in
  let cs =
    Hashtbl.fold (fun name c acc -> (name, Atomic.get c.value) :: acc) counters []
  in
  let gs =
    Hashtbl.fold (fun name g acc -> (name, Atomic.get g.gvalue) :: acc) gauges []
  in
  let ss =
    Hashtbl.fold
      (fun name s acc -> (name, Atomic.get s.total_ns, Atomic.get s.calls) :: acc)
      spans []
  in
  let hs =
    Hashtbl.fold
      (fun name h acc ->
        let buckets = ref [] in
        for b = Array.length h.h_buckets - 1 downto 0 do
          let c = Atomic.get h.h_buckets.(b) in
          if c > 0 then buckets := (b, c) :: !buckets
        done;
        (name, Atomic.get h.h_count, Atomic.get h.h_sum, !buckets) :: acc)
      histograms []
  in
  let qs =
    Hashtbl.fold
      (fun name q acc ->
        Mutex.lock q.q_lock;
        let levels =
          List.map (fun p -> (p, quantile_estimate_locked q p))
            exposed_quantile_levels
        in
        let entry = (name, q.q_count, q.q_sum, levels) in
        Mutex.unlock q.q_lock;
        entry :: acc)
      quantiles []
  in
  Mutex.unlock lock;
  {
    x_counters = sorted_by_name (fun (n, _) -> n) cs;
    x_gauges = sorted_by_name (fun (n, _) -> n) gs;
    x_spans = sorted_by_name (fun (n, _, _) -> n) ss;
    x_histograms = sorted_by_name (fun (n, _, _, _) -> n) hs;
    x_quantiles = sorted_by_name (fun (n, _, _, _) -> n) qs;
  }

(* GC gauges are sampled only when this is called (the serve metrics
   writer does, right before each snapshot) — never from inside traced or
   digest-producing code, where a [Gc.quick_stat] allocation would leak
   timing state into deterministic output. *)
let sample_gc_gauges () =
  let st = Gc.quick_stat () in
  set_gauge (gauge "gc.heap_words") (float_of_int st.Gc.heap_words);
  set_gauge (gauge "gc.minor_collections") (float_of_int st.Gc.minor_collections);
  set_gauge (gauge "gc.major_collections") (float_of_int st.Gc.major_collections);
  set_gauge (gauge "gc.compactions") (float_of_int st.Gc.compactions)

(* Metric names: [a-zA-Z_:][a-zA-Z0-9_:]*, so the registry's dotted names
   are mapped to an sso_ prefix with every other character squashed to
   '_'.  ("serve.solve_ns" -> "sso_serve_solve_ns".) *)
let prom_name name =
  let b = Buffer.create (String.length name + 4) in
  Buffer.add_string b "sso_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let expose x =
  let buf = Buffer.create 4096 in
  let head name kind help =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  List.iter
    (fun (name, v) ->
      let n = prom_name name ^ "_total" in
      head n "counter" (Printf.sprintf "sso counter %s" name);
      Buffer.add_string buf (Printf.sprintf "%s %d\n" n v))
    x.x_counters;
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      head n "gauge" (Printf.sprintf "sso gauge %s" name);
      Buffer.add_string buf (Printf.sprintf "%s %s\n" n (prom_float v)))
    x.x_gauges;
  List.iter
    (fun (name, total_ns, calls) ->
      let n = prom_name name ^ "_ns_total" in
      head n "counter" (Printf.sprintf "sso span %s wall time" name);
      Buffer.add_string buf (Printf.sprintf "%s %d\n" n total_ns);
      let n = prom_name name ^ "_calls_total" in
      head n "counter" (Printf.sprintf "sso span %s calls" name);
      Buffer.add_string buf (Printf.sprintf "%s %d\n" n calls))
    x.x_spans;
  List.iter
    (fun (name, count, sum, buckets) ->
      let n = prom_name name in
      head n "histogram" (Printf.sprintf "sso log2 histogram %s" name);
      let cum = ref 0 and next = ref 0 in
      List.iter
        (fun (b, c) ->
          (* Emit every registered boundary up to [b] so the cumulative
             series is monotone and gap-free. *)
          while !next <= b do
            if !next < b then
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n
                   (prom_float (bucket_upper !next))
                   !cum);
            next := !next + 1
          done;
          cum := !cum + c;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n
               (prom_float (bucket_upper b))
               !cum))
        buckets;
      Buffer.add_string buf (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n count);
      Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" n sum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n count))
    x.x_histograms;
  List.iter
    (fun (name, count, sum, levels) ->
      let n = prom_name name in
      head n "summary" (Printf.sprintf "sso rolling quantile %s" name);
      List.iter
        (fun (p, v) ->
          (* %g, not %.17g: the label is a level tag (0.5/0.9/0.99), not a
             measurement — it must read back exactly as written. *)
          Buffer.add_string buf
            (Printf.sprintf "%s{quantile=\"%g\"} %s\n" n p (prom_float v)))
        levels;
      Buffer.add_string buf (Printf.sprintf "%s_sum %d\n" n sum);
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n count))
    x.x_quantiles;
  Buffer.contents buf

let clear_trace () =
  Mutex.lock buffers_lock;
  List.iter
    (fun b ->
      b.store <- [||];
      b.len <- 0;
      b.head <- 0;
      b.dropped <- 0)
    !all_buffers;
  Mutex.unlock buffers_lock;
  Atomic.set cursor 0;
  fresh_stream ()

let write_trace ~path ~meta =
  let dropped = dropped_events () in
  (* Mirror the drop count into meta (unless the caller already set it):
     the header [dropped] field is load-bearing for [sso trace summary]'s
     truncation warning, and meta keeps it visible to generic readers. *)
  let meta =
    if List.mem_assoc "dropped_events" meta then meta
    else meta @ [ ("dropped_events", Trace.Int dropped) ]
  in
  Trace.save path
    {
      Trace.meta;
      dropped;
      events = events ();
      histograms = histogram_records ();
    }
