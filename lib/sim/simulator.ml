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

type edge_change = { edge : int; at_step : int; factor : float }

type fault_stats = {
  base : stats;
  dropped : int;
  rerouted : int;
  recovery_makespan : int;
}

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

(* Routes live in a run-local arena; the hop/vertex sequences of every
   route are unpacked once into two flat int arrays, and packets carry
   offsets into them instead of per-packet arrays.  Failover routes are
   appended to the same store mid-run. *)
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

(* Append a route to the store; returns its (edge offset, vertex offset,
   hops). *)
let push_route st (q : Path.t) =
  let i = Arena.append_path st.arena q in
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
  released : int; (* moves from step released + 1 on *)
  rank : float; (* priority for Random_rank *)
  mutable eoff : int; (* current route's edges at eflat.(eoff ..) *)
  mutable voff : int; (* its vertices at vflat.(voff ..) *)
  mutable nhops : int;
  mutable at : int; (* hops already crossed: current vertex is voff+at *)
  mutable arrival : int; (* step it reached its destination; -1 if it has not *)
  mutable rerouted : bool;
}

(* One packet per (pair, route, release) triple, with ids in list order.
   Random_rank draws each packet's rank here, in id order. *)
let load g discipline triples =
  let arena = Arena.create g in
  List.iter (fun (_, route, _) -> ignore (Arena.append_path arena route)) triples;
  let ids = Array.init (Arena.length arena) Fun.id in
  let off, eflat, vflat = Arena.unpack_with_vertices arena ids in
  let st =
    { arena; eflat; vflat; elen = Array.length eflat; vlen = Array.length vflat }
  in
  let packet id (ppair, _, released) =
    let rank = match discipline with Random_rank rng -> Rng.float rng | _ -> 0.0 in
    let nhops = off.(id + 1) - off.(id) in
    {
      id;
      ppair;
      released;
      rank;
      eoff = off.(id);
      voff = off.(id) + id;
      nhops;
      at = 0;
      arrival = (if nhops = 0 then released else -1);
      rerouted = false;
    }
  in
  (st, Array.of_list (List.mapi packet triples))

let load_assignment g discipline assignment =
  load g discipline
    (Array.fold_right
       (fun (pair, paths) acc ->
         Array.fold_right (fun route acc -> (pair, route, 0) :: acc) paths acc)
       assignment [])

(* Transmission width of edge [e] at capacity factor [f]: at least one
   packet per step while the edge is alive, none once it is dead. *)
let width g e f =
  if f > 0.0 then max 1 (int_of_float (Float.floor (Graph.cap g e *. f))) else 0

(* Packets crossing each (edge, direction) — slot 2e for u→v, 2e+1 for
   v→u where (u, v) are the edge's endpoints — and the dilation. *)
let directed_loads g st packets =
  let loads = Array.make (2 * Graph.m g) 0 in
  let dil = ref 0 in
  Array.iter
    (fun p ->
      dil := max !dil p.nhops;
      for j = 0 to p.nhops - 1 do
        let e = st.eflat.(p.eoff + j) in
        let u, _ = Graph.endpoints g e in
        let slot = (2 * e) + if st.vflat.(p.voff + j) = u then 0 else 1 in
        loads.(slot) <- loads.(slot) + 1
      done)
    packets;
  (loads, !dil)

(* Edge congestion: packets over an edge in both directions. *)
let congestion loads =
  let c = ref 0 in
  for e = 0 to (Array.length loads / 2) - 1 do
    c := max !c (loads.(2 * e) + loads.((2 * e) + 1))
  done;
  !c

(* Default budgets leave this much slack per unit of schedule length. *)
let slack = 64

let default_budget g st packets =
  let loads, dil = directed_loads g st packets in
  let cong = congestion loads in
  (slack * ((cong * dil) + cong + dil + 1), cong, dil)

(* The simulator moves at most ⌊cap⌋ packets per step across an edge in
   each direction, so no schedule beats the dilation, nor any (edge,
   direction)'s packet count over that width. *)
let lower_bound g assignment =
  let st, packets = load_assignment g Fifo assignment in
  let loads, dil = directed_loads g st packets in
  let bound = ref dil in
  Array.iteri
    (fun slot c ->
      let w = width g (slot / 2) 1.0 in
      bound := max !bound ((c + w - 1) / w))
    loads;
  !bound

let upper_bound_cd g assignment =
  let st, packets = load_assignment g Fifo assignment in
  let loads, dil = directed_loads g st packets in
  (congestion loads * dil) + dil

(* FIFO serves the earliest release first; every discipline breaks ties by
   packet id. *)
let compare_priority discipline a b =
  let lex c tie = if c <> 0 then c else tie in
  match discipline with
  | Fifo -> lex (Int.compare a.released b.released) (Int.compare a.id b.id)
  | Random_rank _ -> lex (Float.compare b.rank a.rank) (Int.compare b.id a.id)
  | Longest_remaining ->
      lex (Int.compare (b.nhops - b.at) (a.nhops - a.at)) (Int.compare a.id b.id)

let no_failover ~pair:_ ~at_vertex:_ ~alive:_ = None

type result = {
  steps : int;
  exhausted : bool; (* the budget ran out with packets in flight *)
  max_queue : int;
  total_waits : int;
  dropped : int;
  reroutes : int;
  first_death : int; (* step of the first edge death; max_int if none *)
}

(* The one store-and-forward step loop.  Each step first applies the due
   capacity changes and, if an edge died, fails every packet whose
   remaining route crosses a dead edge over to [failover]'s route (or
   drops it).  It then groups the released packets by (next edge,
   direction) and moves each queue forward by the edge's width, in
   discipline order.  [regrow] extends the budget by [slack · (hops + 1)]
   per reroute.  Packets record their arrival step in place. *)
let simulate ~discipline ~budget ?(regrow = false) ?(changes = [])
    ?(failover = no_failover) g st packets =
  let factor = Array.make (Graph.m g) 1.0 in
  let alive e = factor.(e) > 0.0 in
  let pending =
    ref
      (List.stable_sort
         (fun a b -> compare (a.at_step, a.edge) (b.at_step, b.edge))
         changes)
  in
  let budget = ref budget in
  let time = ref 0 and max_queue = ref 0 and total_waits = ref 0 in
  let dropped = ref 0 and reroutes = ref 0 and first_death = ref max_int in
  let event name attrs =
    if Obs.tracing () then Obs.event name ~attrs:(("step", Trace.Int !time) :: attrs)
  in
  let apply c =
    let kills = c.factor = 0.0 && alive c.edge in
    if kills && !first_death = max_int then first_death := !time;
    factor.(c.edge) <- c.factor;
    event "fault.sim.change" [ ("edge", Trace.Int c.edge); ("factor", Trace.Float c.factor) ];
    kills
  in
  let route_died p =
    let dead = ref false in
    for i = p.at to p.nhops - 1 do
      if not (alive st.eflat.(p.eoff + i)) then dead := true
    done;
    !dead
  in
  (* Move [p] onto [failover]'s route, or drop it; false once [p] has left
     the network. *)
  let reroute p =
    let v = st.vflat.(p.voff + p.at) in
    match failover ~pair:p.ppair ~at_vertex:v ~alive with
    | None ->
        incr dropped;
        event "fault.sim.drop"
          [
            ("packet", Trace.Int p.id);
            ("src", Trace.Int (fst p.ppair));
            ("dst", Trace.Int (snd p.ppair));
          ];
        false
    | Some q ->
        if q.Path.src <> v || q.Path.dst <> snd p.ppair then
          invalid_arg "Simulator.run_faulted: failover path endpoints mismatch";
        if Array.exists (fun e -> not (alive e)) q.Path.edges then
          invalid_arg "Simulator.run_faulted: failover path crosses a dead edge";
        incr reroutes;
        p.rerouted <- true;
        let hops = Array.length q.Path.edges in
        (* Detours lengthen the optimal schedule; a grown budget never
           misreports a legitimate failover as exhaustion. *)
        if regrow then budget := !budget + (slack * (hops + 1));
        event "fault.sim.reroute" [ ("packet", Trace.Int p.id); ("hops", Trace.Int hops) ];
        let eoff, voff, nhops = push_route st q in
        p.eoff <- eoff;
        p.voff <- voff;
        p.nhops <- nhops;
        p.at <- 0;
        (* An empty route: the packet already stands at its destination. *)
        if nhops = 0 then p.arrival <- !time;
        nhops > 0
  in
  let remaining = ref (List.filter (fun p -> p.arrival < 0) (Array.to_list packets)) in
  let exhausted = ref false in
  while !remaining <> [] && not !exhausted do
    if !time >= !budget then exhausted := true
    else begin
      incr time;
      let due, rest = List.partition (fun c -> c.at_step <= !time) !pending in
      pending := rest;
      if List.fold_left (fun killed c -> apply c || killed) false due then
        remaining := List.filter (fun p -> (not (route_died p)) || reroute p) !remaining;
      let queues = Hashtbl.create 64 in
      List.iter
        (fun p ->
          if p.released < !time then begin
            let key = (st.eflat.(p.eoff + p.at), st.vflat.(p.voff + p.at)) in
            let q = try Hashtbl.find queues key with Not_found -> [] in
            Hashtbl.replace queues key (p :: q)
          end)
        !remaining;
      Hashtbl.iter
        (fun (e, _) queue ->
          let w = width g e factor.(e) in
          let sorted = List.sort (compare_priority discipline) queue in
          max_queue := max !max_queue (List.length sorted);
          List.iteri
            (fun i p ->
              if i < w then begin
                p.at <- p.at + 1;
                if p.at = p.nhops then p.arrival <- !time
              end
              else incr total_waits)
            sorted)
        queues;
      remaining := List.filter (fun p -> p.arrival < 0) !remaining
    end
  done;
  {
    steps = !time;
    exhausted = !exhausted;
    max_queue = !max_queue;
    total_waits = !total_waits;
    dropped = !dropped;
    reroutes = !reroutes;
    first_death = !first_death;
  }

let outcome r x = if r.exhausted then Out_of_budget x else Completed x

let count_delivered packets =
  Array.fold_left (fun n p -> if p.arrival >= 0 then n + 1 else n) 0 packets

let stats_of r packets : stats =
  {
    makespan = r.steps;
    delivered = count_delivered packets;
    max_queue = r.max_queue;
    total_waits = r.total_waits;
  }

let run ?(discipline = Fifo) ?max_steps g assignment =
  Obs.traced "sim.run" @@ fun () ->
  let st, packets = load_assignment g discipline assignment in
  let default, cong, dil = default_budget g st packets in
  let budget = Option.value max_steps ~default in
  let r = simulate ~discipline ~budget g st packets in
  let stats = stats_of r packets in
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
  outcome r stats

let run_faulted ?(discipline = Fifo) ?max_steps ~changes ~failover g assignment =
  Obs.traced "sim.run_faulted" @@ fun () ->
  List.iter
    (fun c ->
      if c.edge < 0 || c.edge >= Graph.m g then
        invalid_arg "Simulator.run_faulted: edge id out of range";
      if c.at_step < 1 then
        invalid_arg "Simulator.run_faulted: change step must be >= 1";
      if not (c.factor >= 0.0) then
        invalid_arg "Simulator.run_faulted: capacity factor must be >= 0")
    changes;
  let st, packets = load_assignment g discipline assignment in
  let default, _, _ = default_budget g st packets in
  let budget = Option.value max_steps ~default in
  let r =
    simulate ~discipline ~budget ~regrow:(max_steps = None) ~changes ~failover g st
      packets
  in
  let base = stats_of r packets in
  let last_recovery =
    Array.fold_left
      (fun t p -> if p.rerouted then max t p.arrival else t)
      0 packets
  in
  let recovery_makespan =
    if r.reroutes = 0 then 0 else max 0 (last_recovery - r.first_death)
  in
  let fs = { base; dropped = r.dropped; rerouted = r.reroutes; recovery_makespan } in
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
  outcome r fs

let run_timed ?(discipline = Fifo) ?max_steps g timed =
  Obs.traced "sim.run_timed" @@ fun () ->
  List.iter
    (fun { release; _ } ->
      if release < 0 then invalid_arg "Simulator.run_timed: negative release time")
    timed;
  let st, packets =
    load g discipline (List.map (fun { pair; route; release } -> (pair, route, release)) timed)
  in
  let total_hops = Array.fold_left (fun acc p -> acc + p.nhops) 0 packets in
  let last_release = Array.fold_left (fun acc p -> max acc p.released) 0 packets in
  let budget =
    Option.value max_steps ~default:(last_release + (8 * (total_hops + 1)) + 64)
  in
  let r = simulate ~discipline ~budget g st packets in
  (* Latency statistics are over delivered packets only; on a completed
     run that is every packet. *)
  let arrived = List.filter (fun p -> p.arrival >= 0) (Array.to_list packets) in
  let latencies = List.map (fun p -> float_of_int (p.arrival - p.released)) arrived in
  let queueing =
    List.map (fun p -> float_of_int (p.arrival - p.released - p.nhops)) arrived
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
      finish_time = List.fold_left (fun acc p -> max acc p.arrival) 0 arrived;
      packets = Array.length packets;
      delivered = List.length arrived;
      mean_latency = mean latencies;
      p99_latency = p99 latencies;
      mean_queueing = mean queueing;
      peak_queue = r.max_queue;
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
  outcome r stats
