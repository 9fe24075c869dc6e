module Graph = Sso_graph.Graph
module Path = Sso_graph.Path
module Demand = Sso_demand.Demand
module Rng = Sso_prng.Rng

type assignment = ((int * int) * Path.t array) array

let round rng routing demand =
  if not (Demand.is_integral demand) then
    invalid_arg "Rounding.round: demand must be integral";
  let entries =
    Demand.fold
      (fun s t amount acc ->
        let count = int_of_float (Float.round amount) in
        let paths = Array.init count (fun _ -> Routing.sample_path rng routing s t) in
        ((s, t), paths) :: acc)
      demand []
  in
  Array.of_list entries

let edge_loads g assignment =
  let loads = Array.make (Graph.m g) 0.0 in
  Array.iter
    (fun (_, paths) ->
      Array.iter
        (fun (p : Path.t) ->
          Array.iter (fun e -> loads.(e) <- loads.(e) +. 1.0) p.Path.edges)
        paths)
    assignment;
  loads

let congestion g assignment =
  let loads = edge_loads g assignment in
  let best = ref 0.0 in
  Array.iteri
    (fun e load ->
      let c = load /. Graph.cap g e in
      if c > !best then best := c)
    loads;
  !best

let best_round ?(tries = 10) rng g routing demand =
  if tries <= 0 then invalid_arg "Rounding.best_round: tries must be positive";
  let rec go i best best_cong =
    if i >= tries then best
    else begin
      let a = round rng routing demand in
      let c = congestion g a in
      if c < best_cong then go (i + 1) a c else go (i + 1) best best_cong
    end
  in
  let first = round rng routing demand in
  go 1 first (congestion g first)

let local_search g ~candidates assignment =
  let assignment = Array.map (fun (pair, paths) -> (pair, Array.copy paths)) assignment in
  let total_packets =
    Array.fold_left (fun acc (_, paths) -> acc + Array.length paths) 0 assignment
  in
  let budget = 10 * max 1 total_packets in
  let loads = edge_loads g assignment in
  let cong_of e = loads.(e) /. Graph.cap g e in
  let max_cong () =
    let best = ref 0.0 in
    Array.iteri (fun e _ -> if cong_of e > !best then best := cong_of e) loads;
    !best
  in
  let apply_delta (p : Path.t) delta =
    Array.iter (fun e -> loads.(e) <- loads.(e) +. delta) p.Path.edges
  in
  (* Evaluate the max congestion over a set of edges after a hypothetical
     move; we only need to compare edges touched by the two paths plus the
     current maximum. *)
  let moved = ref 0 in
  let progress = ref true in
  while !progress && !moved < budget do
    progress := false;
    let current = max_cong () in
    (* Find one maximally congested edge. *)
    let hot = ref (-1) in
    Array.iteri
      (fun e _ -> if !hot < 0 && cong_of e >= current -. 1e-12 then hot := e)
      loads;
    if !hot >= 0 && current > 0.0 then begin
      let hot = !hot in
      (* Try to reroute some packet crossing the hot edge. *)
      let try_move () =
        Array.exists
          (fun ((s, t), paths) ->
            Array.exists
              (fun i ->
                let p = paths.(i) in
                if not (Path.mem_edge p hot) then false
                else begin
                  let alternatives = candidates s t in
                  let eval q =
                    (* Max congestion over edges of p and q after swap. *)
                    apply_delta p (-1.0);
                    apply_delta q 1.0;
                    let local = ref 0.0 in
                    Array.iter (fun e -> local := Float.max !local (cong_of e)) p.Path.edges;
                    Array.iter (fun e -> local := Float.max !local (cong_of e)) q.Path.edges;
                    apply_delta q (-1.0);
                    apply_delta p 1.0;
                    !local
                  in
                  let best =
                    List.fold_left
                      (fun acc q ->
                        if Path.equal q p then acc
                        else
                          let v = eval q in
                          match acc with
                          | Some (bv, _) when bv <= v -> acc
                          | _ -> Some (v, q))
                      None alternatives
                  in
                  match best with
                  | Some (v, q) when v < cong_of hot -. 1e-12 ->
                      apply_delta p (-1.0);
                      apply_delta q 1.0;
                      paths.(i) <- q;
                      incr moved;
                      true
                  | _ -> false
                end)
              (Array.init (Array.length paths) Fun.id))
          assignment
      in
      if try_move () then progress := true
    end
  done;
  assignment
