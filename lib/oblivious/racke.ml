module Graph = Sso_graph.Graph
module Rng = Sso_prng.Rng
module Pool = Sso_engine.Pool
module Obs = Sso_obs.Obs
module Trace = Sso_obs.Trace

let build_span = Obs.span "racke.build"
let tree_loads_span = Obs.span "racke.tree_loads"
let trees_counter = Obs.counter "racke.trees"

(* Edges are routed in fixed chunks (never a function of the job count):
   each chunk streams its routes' edges ({!Frt.iter_route}) into its
   domain's dense scratch, in edge-index order, and emits the edges it
   touched, in first-touch order, beside their partial sums.  The chunks
   merge serially in chunk order.  A chunk lists an edge at most once, so
   each edge's total is its partials added in chunk order whatever the
   order within a chunk: the float sums are identical at any [--jobs].
   The scratch is O(m) once per domain, not per chunk, and a chunk leaves
   it zeroed.  Capacities are positive, so a zero sum marks an edge the
   chunk has not touched yet. *)
let tree_load_chunks = 64

(* Trees per MWU round (see {!forest}). *)
let batch = 4

type load_scratch = { mutable sums : float array; mutable touched : int array }

let load_scratch_key =
  Domain.DLS.new_key (fun () -> { sums = [||]; touched = [||] })

let load_scratch_for m =
  let sc = Domain.DLS.get load_scratch_key in
  if Array.length sc.sums < m then begin
    sc.sums <- Array.make m 0.0;
    sc.touched <- Array.make m 0
  end;
  sc

let tree_loads g tree =
  let m = Graph.m g in
  let loads = Array.make m 0.0 in
  if m > 0 then begin
    let edges = Graph.edges g in
    let chunks = min tree_load_chunks m in
    let partials =
      Pool.parallel_init chunks (fun k ->
          let lo = k * m / chunks and hi = (k + 1) * m / chunks in
          let sc = load_scratch_for m in
          let sums = sc.sums and touched = sc.touched in
          let count = ref 0 and cap = [| 0.0 |] in
          let add e' =
            if sums.(e') = 0.0 then begin
              touched.(!count) <- e';
              incr count
            end;
            sums.(e') <- sums.(e') +. cap.(0)
          in
          (* Zero what was touched even if a route raises, so the next
             chunk on this domain starts from clean scratch. *)
          Fun.protect
            ~finally:(fun () ->
              for i = 0 to !count - 1 do
                sums.(touched.(i)) <- 0.0
              done)
            (fun () ->
              for idx = lo to hi - 1 do
                let e : Graph.edge = edges.(idx) in
                cap.(0) <- e.cap;
                Frt.iter_route tree e.u e.v add
              done;
              let ids = Array.sub touched 0 !count in
              let partial = Array.make !count 0.0 in
              for i = 0 to !count - 1 do
                partial.(i) <- sums.(ids.(i))
              done;
              (ids, partial)))
    in
    Array.iter
      (fun (ids, partial) ->
        for i = 0 to Array.length ids - 1 do
          loads.(ids.(i)) <- loads.(ids.(i)) +. partial.(i)
        done)
      partials;
    for e = 0 to m - 1 do
      loads.(e) <- loads.(e) /. edges.(e).cap
    done
  end;
  loads

let default_trees g =
  let n = Graph.n g in
  let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) ((v + 1) / 2) in
  (2 * log2 0 n) + 4

let forest rng ?trees g =
  let count = match trees with Some c -> c | None -> default_trees g in
  if count <= 0 then invalid_arg "Racke.forest: need at least one tree";
  let m = Graph.m g in
  let cum = Array.make m 0.0 in
  (* Exponential penalties, normalized for stability; eta balances greed
     against diversity across the fixed number of rounds.  Trees are built
     in rounds of [batch]: every tree of a round shares the penalties
     accumulated by earlier rounds and gets its own index-keyed RNG child,
     so the mixture never depends on [--jobs].  The trees of a round are
     built one after another, each by a serial {!Frt.build}; the
     parallelism lives {e inside} each {!tree_loads} pass (edge chunks),
     where it scales with the graph instead of with the round width. *)
  let eta = 1.0 in
  let base_rng = Rng.split rng in
  let forest_rev = ref [] in
  let attrs =
    if Obs.tracing () then
      [ ("trees", Trace.Int count); ("batch", Trace.Int batch) ]
    else []
  in
  Obs.with_span ~attrs build_span (fun () ->
      (* Each round's lengths, shared by its trees: every build copies
         them, so the next round refills the same array. *)
      let lengths = Array.make m 0.0 in
      let built = ref 0 in
      while !built < count do
        let b = min batch (count - !built) in
        let first = !built in
        (* Both max folds compare with [>], not [Float.max] (which calls
           [caml_signbit_float] whenever its second operand is not
           larger): [cum] and the tree loads are finite sums of
           non-negative terms, never NaN, and each running max starts
           at +0.0 or above, so it never holds -0.0 and the two agree
           bit for bit. *)
        let max_cum = ref 0.0 in
        for e = 0 to m - 1 do
          let c = cum.(e) in
          if c > !max_cum then max_cum := c
        done;
        let max_cum = !max_cum in
        for e = 0 to m - 1 do
          lengths.(e) <- Float.exp (eta *. (cum.(e) -. max_cum)) /. Graph.cap g e
        done;
        let round =
          Array.init b (fun i ->
              let tree_rng = Rng.split_at base_rng (first + i) in
              let tree = Frt.build tree_rng g ~lengths in
              let loads =
                Obs.with_span tree_loads_span (fun () -> tree_loads g tree)
              in
              (tree, loads))
        in
        Array.iteri
          (fun i (tree, loads) ->
            Obs.incr trees_counter;
            let peak = ref 1e-12 in
            for e = 0 to m - 1 do
              let l = loads.(e) in
              if l > !peak then peak := l
            done;
            let peak = !peak in
            for e = 0 to m - 1 do
              cum.(e) <- cum.(e) +. (loads.(e) /. peak)
            done;
            if Obs.tracing () then
              Obs.event "racke.tree"
                ~attrs:
                  [
                    ("tree", Trace.Int (first + i));
                    ("peak", Trace.Float peak);
                    ("levels", Trace.Int (Frt.levels tree));
                  ];
            forest_rev := tree :: !forest_rev)
          round;
        built := !built + b
      done);
  List.rev !forest_rev

let of_forest g forest =
  let forest = Array.of_list forest in
  let count = Array.length forest in
  if count = 0 then invalid_arg "Racke.of_forest: empty forest";
  Oblivious.mixture ~name:"racke" g
    (Array.make count (1.0 /. float_of_int count))
    (fun s t i -> Frt.route forest.(i) s t)

let routing rng ?trees g = of_forest g (forest rng ?trees g)
