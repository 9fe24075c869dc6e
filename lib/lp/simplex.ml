type relation = Le | Eq | Ge

type constr = { coeffs : (int * float) list; relation : relation; rhs : float }

type problem = { num_vars : int; objective : (int * float) list; constraints : constr list }

type outcome =
  | Optimal of { objective : float; solution : float array; duals : float array }
  | Infeasible
  | Unbounded

let eps = 1e-9

(* Tableau layout: [rows] is an m × (ncols + 1) matrix whose last column is
   the right-hand side; [basis.(i)] is the column basic in row i.  Column
   order: original variables, then slack/surplus columns, then artificial
   columns.  Both phases run the same pivot loop with different cost rows. *)

type tableau = {
  rows : float array array;
  basis : int array;
  ncols : int; (* columns excluding the rhs *)
  rhs : int; (* index of the rhs column = ncols *)
}

let pivot t ~row ~col =
  let prow = t.rows.(row) in
  let p = prow.(col) in
  for j = 0 to t.rhs do
    prow.(j) <- prow.(j) /. p
  done;
  Array.iteri
    (fun i r ->
      if i <> row then begin
        let factor = r.(col) in
        if Float.abs factor > 0.0 then
          for j = 0 to t.rhs do
            r.(j) <- r.(j) -. (factor *. prow.(j))
          done
      end)
    t.rows;
  t.basis.(row) <- col

(* Pivot steps allowed in one phase. *)
let max_pivots = 200_000

(* One simplex phase: minimize cost·x starting from the current basis.
   [cost] has length ncols.  Returns [`Optimal reduced] (the final
   reduced costs) or [`Unbounded].  Bland's rule (smallest eligible
   index) guarantees termination. *)
let run_phase t ~cost ~allowed =
  let m = Array.length t.rows in
  (* Reduced costs: z.(j) = cost.(j) - cost_B · B^{-1} A_j, maintained by
     recomputation each iteration — simple and robust at our sizes. *)
  let reduced = Array.make t.ncols 0.0 in
  let objective_row () =
    Array.blit cost 0 reduced 0 t.ncols;
    for i = 0 to m - 1 do
      let cb = cost.(t.basis.(i)) in
      if Float.abs cb > 0.0 then
        for j = 0 to t.ncols - 1 do
          reduced.(j) <- reduced.(j) -. (cb *. t.rows.(i).(j))
        done
    done
  in
  let rec iterate steps =
    if steps > max_pivots then failwith "Simplex: pivot budget exceeded";
    objective_row ();
    (* Bland: entering column = smallest index with reduced cost < -eps. *)
    let entering = ref (-1) in
    (try
       for j = 0 to t.ncols - 1 do
         if allowed j && reduced.(j) < -.eps then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal reduced
    else begin
      let col = !entering in
      (* Ratio test; Bland tie-break on smallest basis index. *)
      let leave = ref (-1) in
      let best = ref infinity in
      for i = 0 to m - 1 do
        let a = t.rows.(i).(col) in
        if a > eps then begin
          let ratio = t.rows.(i).(t.rhs) /. a in
          if
            ratio < !best -. eps
            || (ratio < !best +. eps && (!leave < 0 || t.basis.(i) < t.basis.(!leave)))
          then begin
            best := ratio;
            leave := i
          end
        end
      done;
      if !leave < 0 then `Unbounded
      else begin
        pivot t ~row:!leave ~col;
        iterate (steps + 1)
      end
    end
  in
  iterate 0

let solve { num_vars; objective; constraints } =
  let check_index (j, _) =
    if j < 0 || j >= num_vars then invalid_arg "Simplex.solve: variable index out of range"
  in
  List.iter check_index objective;
  List.iter (fun { coeffs; _ } -> List.iter check_index coeffs) constraints;
  let m = List.length constraints in
  (* Normalize rows to have non-negative rhs. *)
  let normalized =
    List.map
      (fun { coeffs; relation; rhs } ->
        if rhs < 0.0 then
          let coeffs = List.map (fun (j, a) -> (j, -.a)) coeffs in
          let relation = match relation with Le -> Ge | Ge -> Le | Eq -> Eq in
          (coeffs, relation, -.rhs, true)
        else (coeffs, relation, rhs, false))
      constraints
  in
  (* Count extra columns. *)
  let num_slack =
    List.fold_left
      (fun acc (_, rel, _, _) -> match rel with Le | Ge -> acc + 1 | Eq -> acc)
      0 normalized
  in
  (* Every row gets an artificial except Le rows, whose slack can start
     basic. *)
  let num_art =
    List.fold_left
      (fun acc (_, rel, _, _) -> match rel with Le -> acc | Ge | Eq -> acc + 1)
      0 normalized
  in
  let ncols = num_vars + num_slack + num_art in
  let rows = Array.init m (fun _ -> Array.make (ncols + 1) 0.0) in
  let basis = Array.make m (-1) in
  let slack_next = ref num_vars in
  let art_next = ref (num_vars + num_slack) in
  (* Per row: the column whose reduced cost gives the row's dual, and
     the factor that turns that reduced cost into the dual of the row as
     given (before a negative rhs was flipped). *)
  let dual_cols = Array.make m (0, 0.0) in
  List.iteri
    (fun i (coeffs, rel, rhs, flipped) ->
      let sign = if flipped then 1.0 else -1.0 in
      let row = rows.(i) in
      List.iter (fun (j, a) -> row.(j) <- row.(j) +. a) coeffs;
      row.(ncols) <- rhs;
      (match rel with
      | Le ->
          row.(!slack_next) <- 1.0;
          basis.(i) <- !slack_next;
          dual_cols.(i) <- (!slack_next, sign);
          incr slack_next
      | Ge ->
          row.(!slack_next) <- -1.0;
          dual_cols.(i) <- (!slack_next, -.sign);
          incr slack_next;
          row.(!art_next) <- 1.0;
          basis.(i) <- !art_next;
          incr art_next
      | Eq ->
          row.(!art_next) <- 1.0;
          basis.(i) <- !art_next;
          dual_cols.(i) <- (!art_next, sign);
          incr art_next))
    normalized;
  let t = { rows; basis; ncols; rhs = ncols } in
  let art_start = num_vars + num_slack in
  (* Phase 1: minimize sum of artificials. *)
  let outcome =
    if num_art = 0 then `Feasible
    else begin
      let cost1 = Array.make ncols 0.0 in
      for j = art_start to ncols - 1 do
        cost1.(j) <- 1.0
      done;
      match run_phase t ~cost:cost1 ~allowed:(fun _ -> true) with
      | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
      | `Optimal _ ->
          let value =
            Array.to_list t.basis
            |> List.mapi (fun i b -> if b >= art_start then t.rows.(i).(t.rhs) else 0.0)
            |> List.fold_left ( +. ) 0.0
          in
          if value > 1e-6 then `Infeasible else `Feasible
    end
  in
  match outcome with
  | `Infeasible -> Infeasible
  | `Feasible -> (
      (* Phase 2: original objective; artificial columns barred from
         re-entering.  Degenerate artificials may linger in the basis at
         value 0, which is harmless. *)
      let cost2 = Array.make ncols 0.0 in
      List.iter (fun (j, c) -> cost2.(j) <- cost2.(j) +. c) objective;
      let allowed j = j < art_start in
      match run_phase t ~cost:cost2 ~allowed with
      | `Unbounded -> Unbounded
      | `Optimal reduced ->
          let solution = Array.make num_vars 0.0 in
          Array.iteri
            (fun i b -> if b < num_vars then solution.(b) <- t.rows.(i).(t.rhs))
            t.basis;
          (* A tableau that drifted numerically (tiny pivots compound)
             can end on a point that breaks its own rows: refuse it. *)
          let breaks { coeffs; relation; rhs } =
            let lhs, size =
              List.fold_left
                (fun (lhs, size) (j, a) ->
                  let term = a *. solution.(j) in
                  (lhs +. term, size +. Float.abs term))
                (0.0, Float.abs rhs) coeffs
            in
            let tol = 1e-6 *. (1.0 +. size) in
            match relation with
            | Le -> lhs > rhs +. tol
            | Ge -> lhs < rhs -. tol
            | Eq -> Float.abs (lhs -. rhs) > tol
          in
          if Array.exists (fun x -> x < -1e-6) solution || List.exists breaks constraints then
            failwith "Simplex: numerical breakdown (the solution breaks a constraint)";
          let objective =
            List.fold_left (fun acc (j, c) -> acc +. (c *. solution.(j))) 0.0 objective
          in
          (* Row i's unit column (slack, surplus or artificial) has phase-2
             cost 0, so its reduced cost is -y_i times its coefficient. *)
          let duals =
            Array.map (fun (col, sign) -> sign *. reduced.(col)) dual_cols
          in
          Optimal { objective; solution; duals })
