module PathSet = Set.Make (Path)

let k_shortest g ~k s t =
  if k <= 0 then []
  else if s = t then [ Path.trivial s ]
  else begin
    (* One unit-weight buffer serves every search.  A spur search bans
       edges by setting them to [infinity] (the kernel never admits an
       infinite distance), and [ban] restores them to 1.0 afterwards. *)
    let weights = Array.make (Graph.m g) 1.0 in
    let search src = (Shortest.dijkstra_targets g ~weights src [| t |]).(0) in
    match search s with
    | None -> []
    | Some first ->
        let accepted = ref [ first ] in
        let accepted_set = ref (PathSet.singleton first) in
        let candidates = ref PathSet.empty in
        let continue = ref true in
        while List.length !accepted < k && !continue do
          let prev = List.hd !accepted in
          let prev_vertices = Path.vertices g prev in
          (* Spur from every prefix of the most recently accepted path. *)
          for i = 0 to Path.hops prev - 1 do
            let spur = prev_vertices.(i) in
            let root_edges = Array.sub prev.Path.edges 0 i in
            let ban w =
              (* Ban the next edge of every accepted path sharing this
                 root, and every edge at a root vertex before the spur, to
                 keep paths simple. *)
              List.iter
                (fun (p : Path.t) ->
                  if Path.hops p > i && Array.sub p.Path.edges 0 i = root_edges then
                    weights.(p.Path.edges.(i)) <- w)
                !accepted;
              for j = 0 to i - 1 do
                Graph.iter_adj g prev_vertices.(j) (fun e _ -> weights.(e) <- w)
              done
            in
            ban infinity;
            let spur_path = search spur in
            ban 1.0;
            match spur_path with
            | None -> ()
            | Some spur_path ->
                let candidate =
                  Path.of_edges g ~src:s ~dst:t
                    (Array.append root_edges spur_path.Path.edges)
                in
                if
                  Path.is_simple g candidate
                  && (not (PathSet.mem candidate !accepted_set))
                then candidates := PathSet.add candidate !candidates
          done;
          (* Accept the lightest remaining candidate. *)
          let best = ref None in
          PathSet.iter
            (fun p ->
              let w = Path.weight weights p in
              match !best with
              | Some (bw, _) when bw <= w -> ()
              | _ -> best := Some (w, p))
            !candidates;
          match !best with
          | None -> continue := false
          | Some (_, p) ->
              candidates := PathSet.remove p !candidates;
              accepted := p :: !accepted;
              accepted_set := PathSet.add p !accepted_set
        done;
        List.rev !accepted
  end
