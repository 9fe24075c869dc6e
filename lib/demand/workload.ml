module Rng = Sso_prng.Rng

type t = Demand.t list

let diurnal rng ~n ~epochs ~peak_total =
  if epochs <= 0 then invalid_arg "Workload.diurnal: epochs must be positive";
  if peak_total <= 0.0 then invalid_arg "Workload.diurnal: peak_total must be positive";
  List.init epochs (fun i ->
      let phase = 2.0 *. Float.pi *. float_of_int i /. float_of_int epochs in
      (* Sinusoid between 0.25 and 1.0 of the peak. *)
      let level = 0.625 +. (0.375 *. Float.sin (phase -. (Float.pi /. 2.0))) in
      Demand.gravity rng ~n ~total:(peak_total *. level))

let random_walk rng ~n ~epochs ~pairs ~churn =
  if epochs <= 0 then invalid_arg "Workload.random_walk: epochs must be positive";
  if not (churn >= 0.0 && churn <= 1.0) then
    invalid_arg "Workload.random_walk: churn must lie in [0,1]";
  if pairs <= 0 || pairs > n * (n - 1) / 2 then
    invalid_arg "Workload.random_walk: pairs out of range";
  let fresh_pair active =
    let rec draw () =
      let s = Rng.int rng n and t = Rng.int rng n in
      if s <> t && not (Hashtbl.mem active (s, t)) then (s, t) else draw ()
    in
    draw ()
  in
  let active = Hashtbl.create pairs in
  for _ = 1 to pairs do
    let p = fresh_pair active in
    Hashtbl.replace active p ()
  done;
  List.init epochs (fun _ ->
      (* Churn: resample a fraction of the active pairs. *)
      let current = Hashtbl.fold (fun p () acc -> p :: acc) active [] in
      List.iter
        (fun p ->
          if Rng.float rng < churn then begin
            Hashtbl.remove active p;
            let q = fresh_pair active in
            Hashtbl.replace active q ()
          end)
        current;
      Demand.of_list (Hashtbl.fold (fun (s, t) () acc -> (s, t, 1.0) :: acc) active []))

let generate ?(rate_churn = 0.0) rng ~n ~ticks ~pairs ~churn =
  if ticks <= 0 then
    invalid_arg
      (Printf.sprintf "Workload.generate: ticks must be positive, got %d" ticks);
  if not (churn >= 0.0 && churn <= 1.0) then
    invalid_arg
      (Printf.sprintf "Workload.generate: churn must lie in [0,1], got %g"
         churn);
  if not (rate_churn >= 0.0 && rate_churn <= 1.0) then
    invalid_arg
      (Printf.sprintf "Workload.generate: rate_churn must lie in [0,1], got %g"
         rate_churn);
  if pairs <= 0 || pairs > n * (n - 1) / 2 then
    invalid_arg
      (Printf.sprintf
         "Workload.generate: pairs must lie in [1, n(n-1)/2] = [1, %d], got %d"
         (n * (n - 1) / 2)
         pairs);
  let fresh_pair active =
    let rec draw () =
      let s = Rng.int rng n and t = Rng.int rng n in
      if s <> t && not (Hashtbl.mem active (s, t)) then (s, t) else draw ()
    in
    draw ()
  in
  let events = ref [] in
  let emit tick (src, dst) kind = events := { Update.tick; src; dst; kind } :: !events in
  (* Tick 0 bootstraps the active set; it mirrors [random_walk]'s initial
     draw exactly (same rng consumption), so applying ticks 0..k yields
     [random_walk]'s epoch k-1 for every k >= 1 when [rate_churn] is 0 —
     the equivalence the property tests pin down. *)
  let active = Hashtbl.create pairs in
  for _ = 1 to pairs do
    let p = fresh_pair active in
    Hashtbl.replace active p ();
    emit 0 p (Update.Arrive 1.0)
  done;
  for tick = 1 to ticks - 1 do
    let current = Hashtbl.fold (fun p () acc -> p :: acc) active [] in
    List.iter
      (fun p ->
        if Rng.float rng < churn then begin
          Hashtbl.remove active p;
          emit tick p Update.Depart;
          let q = fresh_pair active in
          Hashtbl.replace active q ();
          emit tick q (Update.Arrive 1.0)
        end)
      current;
    if rate_churn > 0.0 then begin
      let survivors = Hashtbl.fold (fun p () acc -> p :: acc) active [] in
      List.iter
        (fun p ->
          if Rng.float rng < rate_churn then
            (* Rates drift in [0.5, 1.5): bounded away from 0 so the pair
               stays active, bounded above so congestion stays comparable. *)
            emit tick p (Update.Set_rate (0.5 +. Rng.float rng)))
        survivors
    end
  done;
  List.rev !events

let hotspot_sweep ~n = List.init n (fun target -> Demand.hotspot ~n ~target)
