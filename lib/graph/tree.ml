module Rng = Sso_prng.Rng

type t = {
  root : int;
  parent_edge : int array;
  parent : int array;
  depth : int array;
}

(* Complete a parent-edge array into a rooted tree: parent vertices, and
   depths memoized so each vertex is filled once — O(n) in all. *)
let rooted g root parent_edge =
  let n = Graph.n g in
  let parent =
    Array.init n (fun v ->
        let e = parent_edge.(v) in
        if e < 0 then -1 else Graph.other_end g e v)
  in
  let depth = Array.make n (-1) in
  depth.(root) <- 0;
  let rec fill v =
    if depth.(v) < 0 then begin
      fill parent.(v);
      depth.(v) <- depth.(parent.(v)) + 1
    end
  in
  for v = 0 to n - 1 do
    fill v
  done;
  { root; parent_edge; parent; depth }

let bfs_tree g root =
  let n = Graph.n g in
  let parent_edge = Array.make n (-1) in
  let seen = Array.make n false in
  seen.(root) <- true;
  let queue = Queue.create () in
  Queue.add root queue;
  let visited = ref 1 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun (e, w) ->
        if not seen.(w) then begin
          seen.(w) <- true;
          parent_edge.(w) <- e;
          incr visited;
          Queue.add w queue
        end)
      (Graph.adj g v)
  done;
  if !visited <> n then invalid_arg "Tree.bfs_tree: graph is disconnected";
  rooted g root parent_edge

let wilson rng g =
  let n = Graph.n g in
  if not (Graph.is_connected g) then invalid_arg "Tree.wilson: graph is disconnected";
  let root = Rng.int rng n in
  let in_tree = Array.make n false in
  in_tree.(root) <- true;
  let parent_edge = Array.make n (-1) in
  (* Per-vertex next step of the current walk (loop erasure happens by
     overwriting: only the last exit of each vertex survives). *)
  let next_edge = Array.make n (-1) in
  for start = 0 to n - 1 do
    if not in_tree.(start) then begin
      (* Random walk from [start] until the tree is hit. *)
      let v = ref start in
      while not in_tree.(!v) do
        let e, w = Rng.choose rng (Graph.adj g !v) in
        next_edge.(!v) <- e;
        v := w
      done;
      (* Retrace the loop-erased walk and attach it. *)
      let v = ref start in
      while not in_tree.(!v) do
        let e = next_edge.(!v) in
        parent_edge.(!v) <- e;
        in_tree.(!v) <- true;
        v := Graph.other_end g e !v
      done
    end
  done;
  rooted g root parent_edge

let path t s dst =
  if s = dst then Path.trivial s
  else begin
    let parent = t.parent and depth = t.depth in
    (* Lift the deeper endpoint to the other's depth, then both together
       until they meet at the lowest common ancestor. *)
    let a = ref s and b = ref dst in
    while depth.(!a) > depth.(!b) do
      a := parent.(!a)
    done;
    while depth.(!b) > depth.(!a) do
      b := parent.(!b)
    done;
    while !a <> !b do
      a := parent.(!a);
      b := parent.(!b)
    done;
    let up = depth.(s) - depth.(!a) in
    let hops = up + depth.(dst) - depth.(!a) in
    (* Up from [s] fills the front; up from [dst] fills the back, reversed. *)
    let edges = Array.make hops 0 in
    let v = ref s in
    for i = 0 to up - 1 do
      edges.(i) <- t.parent_edge.(!v);
      v := parent.(!v)
    done;
    let v = ref dst in
    for i = hops - 1 downto up do
      edges.(i) <- t.parent_edge.(!v);
      v := parent.(!v)
    done;
    Path.unsafe_of_edges ~src:s ~dst edges
  end
