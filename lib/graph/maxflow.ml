(* Dinic on a residual digraph.  Arcs are stored in flat arrays; arc [2k]
   and [2k+1] are the two directions of undirected edge [k] when built with
   [digraph_of], and in general [a lxor 1] is the reverse of arc [a].
   Outgoing arcs live in CSR form — vertex [v]'s arcs are
   [out_arc.(out_off.(v) .. out_off.(v+1) - 1)] — so level BFS and blocking
   DFS scan one flat int array instead of chasing per-vertex boxes. *)

type net = {
  nv : int;
  head : int array; (* arc -> head vertex *)
  residual : float array; (* arc -> remaining capacity *)
  out_off : int array; (* vertex -> first outgoing-arc slot *)
  out_arc : int array; (* packed outgoing arcs *)
  origin : int array; (* arc -> originating undirected edge id *)
}

let build g capf =
  let nv = Graph.n g in
  let m = Graph.m g in
  let head = Array.make (2 * m) 0 in
  let residual = Array.make (2 * m) 0.0 in
  let origin = Array.make (2 * m) 0 in
  let deg = Array.make nv 0 in
  Array.iter
    (fun (e : Graph.edge) ->
      head.(2 * e.id) <- e.v;
      head.((2 * e.id) + 1) <- e.u;
      residual.(2 * e.id) <- capf e;
      residual.((2 * e.id) + 1) <- capf e;
      origin.(2 * e.id) <- e.id;
      origin.((2 * e.id) + 1) <- e.id;
      deg.(e.u) <- deg.(e.u) + 1;
      deg.(e.v) <- deg.(e.v) + 1)
    (Graph.edges g);
  let out_off = Array.make (nv + 1) 0 in
  for v = 0 to nv - 1 do
    out_off.(v + 1) <- out_off.(v) + deg.(v)
  done;
  let out_arc = Array.make (2 * m) 0 in
  let fill = Array.make nv 0 in
  Array.iter
    (fun (e : Graph.edge) ->
      out_arc.(out_off.(e.u) + fill.(e.u)) <- 2 * e.id;
      fill.(e.u) <- fill.(e.u) + 1;
      out_arc.(out_off.(e.v) + fill.(e.v)) <- (2 * e.id) + 1;
      fill.(e.v) <- fill.(e.v) + 1)
    (Graph.edges g);
  { nv; head; residual; out_off; out_arc; origin }

let eps = 1e-9

module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace

let dinic_phases = Obs.counter "dinic.phases"
let dinic_augmentations = Obs.counter "dinic.augmentations"

let bfs_levels net s t =
  let level = Array.make net.nv (-1) in
  level.(s) <- 0;
  let queue = Queue.create () in
  Queue.add s queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    for i = net.out_off.(v) to net.out_off.(v + 1) - 1 do
      let a = net.out_arc.(i) in
      let w = net.head.(a) in
      if net.residual.(a) > eps && level.(w) < 0 then begin
        level.(w) <- level.(v) + 1;
        Queue.add w queue
      end
    done
  done;
  if level.(t) < 0 then None else Some level

(* [iter.(v)] is an absolute cursor into [out_arc], starting at
   [out_off.(v)] — the standard current-arc optimization, now pointer-free. *)
let rec dfs_push net level iter t v limit =
  if v = t then limit
  else begin
    let pushed = ref 0.0 in
    let stop = net.out_off.(v + 1) in
    while iter.(v) < stop && limit -. !pushed > eps do
      let a = net.out_arc.(iter.(v)) in
      let w = net.head.(a) in
      if net.residual.(a) > eps && level.(w) = level.(v) + 1 then begin
        let amount =
          dfs_push net level iter t w (min (limit -. !pushed) net.residual.(a))
        in
        if amount > eps then begin
          net.residual.(a) <- net.residual.(a) -. amount;
          net.residual.(a lxor 1) <- net.residual.(a lxor 1) +. amount;
          pushed := !pushed +. amount
        end
        else iter.(v) <- iter.(v) + 1
      end
      else iter.(v) <- iter.(v) + 1
    done;
    !pushed
  end

let run net s t =
  let total = ref 0.0 in
  let continue = ref true in
  while !continue do
    match bfs_levels net s t with
    | None -> continue := false
    | Some level ->
        Obs.incr dinic_phases;
        let iter = Array.sub net.out_off 0 net.nv in
        let phase_augs = ref 0 in
        let pushed = ref (dfs_push net level iter t s infinity) in
        while !pushed > eps do
          Obs.incr dinic_augmentations;
          phase_augs := !phase_augs + 1;
          total := !total +. !pushed;
          pushed := dfs_push net level iter t s infinity
        done;
        if Obs.tracing () then
          Obs.event "dinic.phase"
            ~attrs:
              [
                ("augmentations", Trace.Int !phase_augs);
                ("flow", Trace.Float !total);
              ]
  done;
  !total

let max_flow g s t =
  if s = t then 0.0
  else
    let net = build g (fun e -> e.Graph.cap) in
    run net s t

let cut g s t =
  if s = t then 0
  else
    let net = build g (fun _ -> 1.0) in
    let value = run net s t in
    int_of_float (Float.round value)
