module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Arena = Sso_graph.Arena
module Rng = Sso_prng.Rng
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace

type discipline = Fifo | Random_rank of Rng.t | Longest_remaining

type stats = { makespan : int; delivered : int; max_queue : int; total_waits : int }

type 'a outcome = Completed of 'a | Out_of_budget of 'a

let value = function Completed s | Out_of_budget s -> s

let completed_exn = function
  | Completed s -> s
  | Out_of_budget _ -> failwith "Simulator: step budget exceeded (bug?)"

(* Routes live in a run-local arena; the hop/vertex sequences of every
   route are unpacked once into two flat int arrays, and packets carry
   offsets into them (a slice handle plus its unpacked position) instead
   of per-packet arrays.  Failover routes are appended to the same store
   mid-run. *)
type store = {
  arena : Arena.t;
  mutable eflat : int array; (* edge ids of all routes, back to back *)
  mutable vflat : int array; (* vertex sequences, hops+1 per route *)
  mutable elen : int;
  mutable vlen : int;
}

let grow arr len need =
  if len + need <= Array.length arr then arr
  else begin
    let arr' = Array.make (max (len + need) (2 * (Array.length arr + 1))) 0 in
    Array.blit arr 0 arr' 0 len;
    arr'
  end

(* Unpack one arena slice onto the end of the flat store; returns its
   (edge offset, vertex offset, hops). *)
let push_slice st i =
  let h = Arena.hops st.arena i in
  st.eflat <- grow st.eflat st.elen h;
  st.vflat <- grow st.vflat st.vlen (h + 1);
  let eoff = st.elen and voff = st.vlen in
  st.vflat.(voff) <- Arena.src st.arena i;
  let j = ref 0 in
  Arena.iter_edges_vertices st.arena i (fun e v' ->
      st.eflat.(eoff + !j) <- e;
      st.vflat.(voff + !j + 1) <- v';
      incr j);
  st.elen <- st.elen + h;
  st.vlen <- st.vlen + h + 1;
  (eoff, voff, h)

type packet = {
  id : int;
  ppair : int * int; (* demand pair this packet serves *)
  mutable slice : int; (* current route's arena handle *)
  mutable eoff : int; (* its edges at eflat.(eoff ..) *)
  mutable voff : int; (* its vertices at vflat.(voff ..) *)
  mutable nhops : int;
  mutable at : int; (* hops already crossed: current vertex is voff+at *)
  rank : float; (* priority for Random_rank *)
}

let congestion_and_dilation g st packets =
  let loads = Array.make (Graph.m g) 0 in
  let dil = ref 0 in
  List.iter
    (fun p ->
      dil := max !dil p.nhops;
      for j = 0 to p.nhops - 1 do
        let e = st.eflat.(p.eoff + j) in
        loads.(e) <- loads.(e) + 1
      done)
    packets;
  let cong = Array.fold_left max 0 loads in
  (cong, !dil)

let build_packets g rng_opt assignment =
  let arena = Arena.create g in
  Array.iter
    (fun (_, paths) ->
      Array.iter (fun (p : Path.t) -> ignore (Arena.append_path arena p)) paths)
    assignment;
  let ids = Array.init (Arena.length arena) Fun.id in
  let off, eflat, vflat = Arena.unpack_with_vertices arena ids in
  let st =
    { arena; eflat; vflat; elen = Array.length eflat; vlen = Array.length vflat }
  in
  let next_id = ref 0 in
  let packets = ref [] in
  Array.iter
    (fun (pair, paths) ->
      Array.iter
        (fun (_ : Path.t) ->
          let i = !next_id in
          let rank = match rng_opt with Some rng -> Rng.float rng | None -> 0.0 in
          packets :=
            {
              id = i;
              ppair = pair;
              slice = i;
              eoff = off.(i);
              voff = off.(i) + i;
              nhops = off.(i + 1) - off.(i);
              at = 0;
              rank;
            }
            :: !packets;
          incr next_id)
        paths)
    assignment;
  (st, List.rev !packets)

(* The simulator moves at most ⌊cap⌋ packets per step across an edge in
   each direction, so no schedule beats the dilation, nor any (edge,
   direction)'s packet count over that width. *)
let lower_bound g assignment =
  let st, packets = build_packets g None assignment in
  let loads = Array.make (2 * Graph.m g) 0 in
  let dil = ref 0 in
  List.iter
    (fun p ->
      dil := max !dil p.nhops;
      for j = 0 to p.nhops - 1 do
        let e = st.eflat.(p.eoff + j) in
        let u, _ = Graph.endpoints g e in
        let slot = (2 * e) + if st.vflat.(p.voff + j) = u then 0 else 1 in
        loads.(slot) <- loads.(slot) + 1
      done)
    packets;
  let bound = ref !dil in
  Array.iteri
    (fun slot c ->
      let width = max 1 (int_of_float (Float.floor (Graph.cap g (slot / 2)))) in
      bound := max !bound ((c + width - 1) / width))
    loads;
  !bound

let upper_bound_cd g assignment =
  let st, packets = build_packets g None assignment in
  let cong, dil = congestion_and_dilation g st packets in
  (cong * dil) + dil

let compare_priority discipline a b =
  match discipline with
  | Fifo -> compare a.id b.id
  | Random_rank _ -> compare (b.rank, b.id) (a.rank, a.id)
  | Longest_remaining ->
      let ra = a.nhops - a.at and rb = b.nhops - b.at in
      compare (rb, a.id) (ra, b.id)

let run ?(discipline = Fifo) ?max_steps g assignment =
  Obs.traced "sim.run" @@ fun () ->
  let rng_opt = match discipline with Random_rank rng -> Some rng | _ -> None in
  let st, packets = build_packets g rng_opt assignment in
  let total = List.length packets in
  let cong, dil = congestion_and_dilation g st packets in
  let budget =
    match max_steps with
    | Some b -> b
    | None -> 64 * ((cong * dil) + cong + dil + 1)
  in
  let active = List.filter (fun p -> p.nhops > 0) packets in
  let remaining = ref active in
  let time = ref 0 in
  let max_queue = ref 0 in
  let total_waits = ref 0 in
  let out_of_budget = ref false in
  while !remaining <> [] && not !out_of_budget do
    if !time >= budget then out_of_budget := true
    else begin
      incr time;
      (* Group waiting packets by (next edge, direction). *)
      let queues = Hashtbl.create 64 in
      List.iter
        (fun p ->
          let e = st.eflat.(p.eoff + p.at) in
          let from_v = st.vflat.(p.voff + p.at) in
          let key = (e, from_v) in
          let q = try Hashtbl.find queues key with Not_found -> [] in
          Hashtbl.replace queues key (p :: q))
        !remaining;
      Hashtbl.iter
        (fun (e, _) queue ->
          let width = max 1 (int_of_float (Float.floor (Graph.cap g e))) in
          let sorted = List.sort (compare_priority discipline) queue in
          let queue_len = List.length sorted in
          if queue_len > !max_queue then max_queue := queue_len;
          List.iteri
            (fun i p ->
              if i < width then p.at <- p.at + 1 else incr total_waits)
            sorted)
        queues;
      remaining := List.filter (fun p -> p.at < p.nhops) !remaining
    end
  done;
  let stats =
    {
      makespan = !time;
      delivered = total - List.length !remaining;
      max_queue = !max_queue;
      total_waits = !total_waits;
    }
  in
  if Obs.tracing () then
    Obs.event "sim.result"
      ~attrs:
        [
          ("makespan", Trace.Int stats.makespan);
          ("delivered", Trace.Int stats.delivered);
          ("max_queue", Trace.Int stats.max_queue);
          ("total_waits", Trace.Int stats.total_waits);
          ("congestion", Trace.Int cong);
          ("dilation", Trace.Int dil);
        ];
  if !out_of_budget then Out_of_budget stats else Completed stats

(* ---------- Fault injection ---------- *)

type edge_change = { edge : int; at_step : int; factor : float }

type fault_stats = {
  base : stats;
  dropped : int;
  rerouted : int;
  recovery_makespan : int;
}

let run_faulted ?(discipline = Fifo) ?max_steps ~changes ~failover g assignment =
  Obs.traced "sim.run_faulted" @@ fun () ->
  let m = Graph.m g in
  List.iter
    (fun c ->
      if c.edge < 0 || c.edge >= m then
        invalid_arg "Simulator.run_faulted: edge id out of range";
      if c.at_step < 1 then
        invalid_arg "Simulator.run_faulted: change step must be >= 1";
      if not (c.factor >= 0.0) then
        invalid_arg "Simulator.run_faulted: capacity factor must be >= 0")
    changes;
  let rng_opt = match discipline with Random_rank rng -> Some rng | _ -> None in
  let st, packets = build_packets g rng_opt assignment in
  let total = List.length packets in
  let cong, dil = congestion_and_dilation g st packets in
  let budget =
    ref
      (match max_steps with
      | Some b -> b
      | None -> 64 * ((cong * dil) + cong + dil + 1))
  in
  let factor = Array.make m 1.0 in
  let alive e = factor.(e) > 0.0 in
  let pending =
    ref
      (List.stable_sort
         (fun a b -> compare (a.at_step, a.edge) (b.at_step, b.edge))
         changes)
  in
  let rerouted_ids = Hashtbl.create 16 in
  let dropped = ref 0 in
  let rerouted = ref 0 in
  let first_failure = ref max_int in
  let last_recovery = ref 0 in
  let remaining = ref (List.filter (fun p -> p.nhops > 0) packets) in
  let time = ref 0 in
  let max_queue = ref 0 in
  let total_waits = ref 0 in
  let out_of_budget = ref false in
  while !remaining <> [] && not !out_of_budget do
    if !time >= !budget then out_of_budget := true
    else begin
      incr time;
      (* Apply due capacity changes (in (step, edge) order), then fail
         affected packets over. *)
      let due, rest = List.partition (fun c -> c.at_step <= !time) !pending in
      pending := rest;
      if due <> [] then begin
        let killed = ref false in
        List.iter
          (fun c ->
            if c.factor = 0.0 && alive c.edge then begin
              killed := true;
              if !first_failure = max_int then first_failure := !time
            end;
            factor.(c.edge) <- c.factor;
            if Obs.tracing () then
              Obs.event "fault.sim.change"
                ~attrs:
                  [
                    ("step", Trace.Int !time);
                    ("edge", Trace.Int c.edge);
                    ("factor", Trace.Float c.factor);
                  ])
          due;
        if !killed then
          remaining :=
            List.filter_map
              (fun p ->
                let dead = ref false in
                for i = p.at to p.nhops - 1 do
                  if not (alive st.eflat.(p.eoff + i)) then dead := true
                done;
                if not !dead then Some p
                else begin
                  let v = st.vflat.(p.voff + p.at) in
                  match failover ~pair:p.ppair ~at_vertex:v ~alive with
                  | None ->
                      incr dropped;
                      if Obs.tracing () then
                        Obs.event "fault.sim.drop"
                          ~attrs:
                            [
                              ("step", Trace.Int !time);
                              ("packet", Trace.Int p.id);
                              ("src", Trace.Int (fst p.ppair));
                              ("dst", Trace.Int (snd p.ppair));
                            ];
                      None
                  | Some q ->
                      if q.Path.src <> v || q.Path.dst <> snd p.ppair then
                        invalid_arg
                          "Simulator.run_faulted: failover path endpoints mismatch";
                      if Array.exists (fun e -> not (alive e)) q.Path.edges then
                        invalid_arg
                          "Simulator.run_faulted: failover path crosses a dead edge";
                      incr rerouted;
                      Hashtbl.replace rerouted_ids p.id ();
                      (* Detours lengthen the optimal schedule; grow the
                         default budget so a legitimate failover is never
                         misreported as exhaustion. *)
                      (match max_steps with
                      | Some _ -> ()
                      | None -> budget := !budget + (64 * (Array.length q.Path.edges + 1)));
                      if Obs.tracing () then
                        Obs.event "fault.sim.reroute"
                          ~attrs:
                            [
                              ("step", Trace.Int !time);
                              ("packet", Trace.Int p.id);
                              ("hops", Trace.Int (Array.length q.Path.edges));
                            ];
                      let i = Arena.append_path st.arena q in
                      let eoff, voff, nhops = push_slice st i in
                      p.slice <- i;
                      p.eoff <- eoff;
                      p.voff <- voff;
                      p.nhops <- nhops;
                      p.at <- 0;
                      Some p
                end)
              !remaining
      end;
      let queues = Hashtbl.create 64 in
      List.iter
        (fun p ->
          let e = st.eflat.(p.eoff + p.at) in
          let from_v = st.vflat.(p.voff + p.at) in
          let key = (e, from_v) in
          let q = try Hashtbl.find queues key with Not_found -> [] in
          Hashtbl.replace queues key (p :: q))
        !remaining;
      Hashtbl.iter
        (fun (e, _) queue ->
          let width =
            if not (alive e) then 0
            else max 1 (int_of_float (Float.floor (Graph.cap g e *. factor.(e))))
          in
          let sorted = List.sort (compare_priority discipline) queue in
          let queue_len = List.length sorted in
          if queue_len > !max_queue then max_queue := queue_len;
          List.iteri
            (fun i p ->
              if i < width then p.at <- p.at + 1 else incr total_waits)
            sorted)
        queues;
      remaining :=
        List.filter
          (fun p ->
            if p.at < p.nhops then true
            else begin
              if Hashtbl.mem rerouted_ids p.id && !time > !last_recovery then
                last_recovery := !time;
              false
            end)
          !remaining
    end
  done;
  let undelivered = List.length !remaining in
  let base =
    {
      makespan = !time;
      delivered = total - !dropped - undelivered;
      max_queue = !max_queue;
      total_waits = !total_waits;
    }
  in
  let recovery_makespan =
    if !rerouted = 0 || !first_failure = max_int then 0
    else max 0 (!last_recovery - !first_failure)
  in
  let fs = { base; dropped = !dropped; rerouted = !rerouted; recovery_makespan } in
  if Obs.tracing () then
    Obs.event "fault.sim.result"
      ~attrs:
        [
          ("makespan", Trace.Int base.makespan);
          ("delivered", Trace.Int base.delivered);
          ("dropped", Trace.Int fs.dropped);
          ("rerouted", Trace.Int fs.rerouted);
          ("recovery_makespan", Trace.Int fs.recovery_makespan);
        ];
  if !out_of_budget then Out_of_budget fs else Completed fs

type timed_packet = { pair : int * int; route : Path.t; release : int }

type load_stats = {
  finish_time : int;
  packets : int;
  delivered : int;
  mean_latency : float;
  p99_latency : float;
  mean_queueing : float;
  peak_queue : int;
}

type flight = {
  fp : packet;
  freleased : int;
  mutable farrived : int; (* -1 while in flight *)
}

let run_timed ?(discipline = Fifo) ?max_steps g timed =
  Obs.traced "sim.run_timed" @@ fun () ->
  List.iter
    (fun { release; _ } ->
      if release < 0 then invalid_arg "Simulator.run_timed: negative release time")
    timed;
  let rng_opt = match discipline with Random_rank rng -> Some rng | _ -> None in
  let arena = Arena.create g in
  List.iter (fun { route; _ } -> ignore (Arena.append_path arena route)) timed;
  let ids = Array.init (Arena.length arena) Fun.id in
  let off, eflat, vflat = Arena.unpack_with_vertices arena ids in
  let st =
    { arena; eflat; vflat; elen = Array.length eflat; vlen = Array.length vflat }
  in
  let flights =
    List.mapi
      (fun id { pair; release; _ } ->
        let rank = match rng_opt with Some rng -> Rng.float rng | None -> 0.0 in
        let nhops = off.(id + 1) - off.(id) in
        {
          fp =
            {
              id;
              ppair = pair;
              slice = id;
              eoff = off.(id);
              voff = off.(id) + id;
              nhops;
              at = 0;
              rank;
            };
          freleased = release;
          farrived = (if nhops = 0 then release else -1);
        })
      timed
  in
  let total_hops = List.fold_left (fun acc f -> acc + f.fp.nhops) 0 flights in
  let last_release = List.fold_left (fun acc f -> max acc f.freleased) 0 flights in
  let budget =
    match max_steps with
    | Some b -> b
    | None -> last_release + (8 * (total_hops + 1)) + 64
  in
  let compare_priority a b =
    match discipline with
    | Fifo -> compare (a.freleased, a.fp.id) (b.freleased, b.fp.id)
    | Random_rank _ -> compare (b.fp.rank, b.fp.id) (a.fp.rank, a.fp.id)
    | Longest_remaining ->
        let ra = a.fp.nhops - a.fp.at and rb = b.fp.nhops - b.fp.at in
        compare (rb, a.fp.id) (ra, b.fp.id)
  in
  let time = ref 0 in
  let peak_queue = ref 0 in
  let remaining = ref (List.filter (fun f -> f.farrived < 0) flights) in
  let out_of_budget = ref false in
  while !remaining <> [] && not !out_of_budget do
    if !time >= budget then out_of_budget := true
    else begin
      incr time;
      let queues = Hashtbl.create 64 in
      List.iter
        (fun f ->
          if f.freleased < !time then begin
            let e = st.eflat.(f.fp.eoff + f.fp.at) in
            let from_v = st.vflat.(f.fp.voff + f.fp.at) in
            let key = (e, from_v) in
            let q = try Hashtbl.find queues key with Not_found -> [] in
            Hashtbl.replace queues key (f :: q)
          end)
        !remaining;
      Hashtbl.iter
        (fun (e, _) queue ->
          let width = max 1 (int_of_float (Float.floor (Graph.cap g e))) in
          let sorted = List.sort compare_priority queue in
          let len = List.length sorted in
          if len > !peak_queue then peak_queue := len;
          List.iteri
            (fun i f ->
              if i < width then begin
                f.fp.at <- f.fp.at + 1;
                if f.fp.at >= f.fp.nhops then f.farrived <- !time
              end)
            sorted)
        queues;
      remaining := List.filter (fun f -> f.farrived < 0) !remaining
    end
  done;
  (* Latency statistics are over delivered flights only; on a completed run
     that is every flight. *)
  let arrived = List.filter (fun f -> f.farrived >= 0) flights in
  let latencies =
    List.map (fun f -> float_of_int (f.farrived - f.freleased)) arrived
  in
  let queueing =
    List.map
      (fun f -> float_of_int (f.farrived - f.freleased - f.fp.nhops))
      arrived
  in
  let mean xs =
    match xs with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  let p99 xs =
    match xs with
    | [] -> 0.0
    | _ ->
        let arr = Array.of_list xs in
        Array.sort Float.compare arr;
        let n = Array.length arr in
        arr.(min (n - 1) (max 0 (int_of_float (Float.ceil (0.99 *. float_of_int n)) - 1)))
  in
  let stats =
    {
      finish_time = List.fold_left (fun acc f -> max acc f.farrived) 0 arrived;
      packets = List.length flights;
      delivered = List.length arrived;
      mean_latency = mean latencies;
      p99_latency = p99 latencies;
      mean_queueing = mean queueing;
      peak_queue = !peak_queue;
    }
  in
  if Obs.tracing () then
    Obs.event "sim.result"
      ~attrs:
        [
          ("finish_time", Trace.Int stats.finish_time);
          ("packets", Trace.Int stats.packets);
          ("delivered", Trace.Int stats.delivered);
          ("mean_latency", Trace.Float stats.mean_latency);
          ("p99_latency", Trace.Float stats.p99_latency);
          ("mean_queueing", Trace.Float stats.mean_queueing);
          ("peak_queue", Trace.Int stats.peak_queue);
        ];
  if !out_of_budget then Out_of_budget stats else Completed stats
