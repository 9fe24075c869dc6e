(** Dense two-phase primal simplex.

    This is the exact solver behind the min-congestion routing LPs
    (Stage 4 of the semi-oblivious pipeline and the offline optimum on
    small instances).  Problems are given in the standard form

    {v minimize c·x  subject to  A_i · x (≤|=|≥) b_i,  x ≥ 0 v}

    The implementation is a textbook tableau method with Bland's
    anti-cycling rule and a small numerical tolerance; it targets the
    modest problem sizes arising in experiments (hundreds of variables),
    not industrial scale.  The approximate MWU solver in [lib/flow] covers
    large instances and is cross-validated against this one in tests. *)

type relation = Le | Eq | Ge

type constr = { coeffs : (int * float) list; relation : relation; rhs : float }
(** Sparse row: [coeffs] lists [(variable index, coefficient)]. *)

type problem = { num_vars : int; objective : (int * float) list; constraints : constr list }
(** Minimize [objective · x] over [x ≥ 0] subject to [constraints].
    Variable indices must lie in [0 .. num_vars-1]. *)

type outcome =
  | Optimal of { objective : float; solution : float array; duals : float array }
      (** [duals.(i)] is the dual y_i of constraint [i] as given, read from
          the final reduced cost of its slack, surplus or artificial column
          (sign flipped back for a row negated to make its rhs ≥ 0):
          [y_i <= 0] on [Le], [>= 0] on [Ge], free on [Eq], [y·A_j <= c_j]
          for every variable j, and [b·y = objective]. *)
  | Infeasible
  | Unbounded

val solve : problem -> outcome
(** Solve the problem.  Each phase takes at most [200_000] pivot steps;
    exceeding that raises [Failure].  So does an optimum that breaks a row
    by more than [1e-6] relative (or has a variable below [-1e-6]): the
    tableau is never refactorized, so rounding can compound on
    ill-conditioned or larger LPs. *)
