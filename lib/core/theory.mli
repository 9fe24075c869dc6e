(** Closed-form evaluators for the paper's bounds.

    Every quantitative statement of the paper as an executable formula, so
    experiments and tests can print "theory vs measured" side by side and
    sanity-check parameter regimes.  Formulas follow the paper's notation:
    [n] vertices, [m] edges, sparsity [α], confidence parameter [h],
    demand size [D = siz(d)] with support size [|supp(d)|]. *)

val sample_competitiveness : m:int -> alpha:int -> h:int -> float
(** Lemma 5.6 / Corollary 5.7's explicit competitiveness of an
    [(α+cut)]-sample: [α + m^(16(h+7)/α)].  Grows astronomically for small
    [α] — the point of printing it is to see where the asymptotic regime
    starts, not to compare against measurements directly. *)

val weak_route_failure_probability : m:int -> supp:int -> h:int -> float
(** Lemma 5.6: the probability that the dynamic process fails to keep half
    of a fixed special demand, [m^(-(h+3)·|supp(d)|)]. *)

val union_bound_failure : m:int -> h:int -> float
(** Corollary 5.7: failure probability over all special demands,
    [m^(-h)]. *)

val bad_pattern_count_bound : m:int -> d_size:float -> alpha:int -> float
(** Lemma 5.13: at most [m^(4D/α)] bad patterns (returned as a log₁₀ when
    it overflows — see {!log10_bad_pattern_count}). *)

val log10_bad_pattern_count : m:int -> d_size:float -> alpha:int -> float
(** log₁₀ of the Lemma 5.13 bound, safe for any parameters. *)

val rounding_bound : m:int -> frac_congestion:float -> float
(** Lemma 6.3 / Corollary 6.4: [2·cong_ℝ + 3·ln m]. *)

val theorem_2_3_sparsity : n:int -> int
(** Θ(log n / log log n), the sparsity Theorem 2.3 uses (concretely
    [⌈log₂ n / log₂ log₂ n⌉] for n ≥ 4, else 1). *)

val theorem_2_3_competitiveness : n:int -> float
(** O(log³n / log log n) with unit constant — an asymptotic shape to plot
    alongside measurements, not a certified constant. *)

val theorem_2_5_competitiveness : n:int -> alpha:int -> float
(** [n^(1/α)] with unit constant — the low-sparsity trade-off shape. *)

val lower_bound_cor_8_3 : n:int -> alpha:int -> float
(** Corollary 8.3: no α-sparse integral system beats
    [n^(1/2α) / (2 log₂ n)]-competitiveness on permutations of [G(n)]. *)

val lower_bound_gadget_k : n:int -> alpha:int -> int
(** [k = ⌊n^(1/2α)⌋], the middle count the Section 8 construction uses. *)

val kkt91_bound : n:int -> max_degree:int -> float
(** [KKT91]: deterministic oblivious routing suffers [≥ √n / Δ] congestion
    on some permutation (constant dropped). *)
