let check_positive name v = if v <= 0 then invalid_arg ("Theory: " ^ name ^ " must be positive")

let sample_competitiveness ~m ~alpha ~h =
  check_positive "m" m;
  check_positive "alpha" alpha;
  check_positive "h" h;
  let mf = float_of_int m in
  float_of_int alpha
  +. Float.pow mf (16.0 *. float_of_int (h + 7) /. float_of_int alpha)

let weak_route_failure_probability ~m ~supp ~h =
  check_positive "m" m;
  check_positive "supp" supp;
  check_positive "h" h;
  Float.pow (float_of_int m) (-.float_of_int ((h + 3) * supp))

let union_bound_failure ~m ~h =
  check_positive "m" m;
  check_positive "h" h;
  Float.pow (float_of_int m) (-.float_of_int h)

let log10_bad_pattern_count ~m ~d_size ~alpha =
  check_positive "m" m;
  check_positive "alpha" alpha;
  if d_size < 0.0 then invalid_arg "Theory: d_size must be non-negative";
  4.0 *. d_size /. float_of_int alpha *. Float.log10 (float_of_int m)

let bad_pattern_count_bound ~m ~d_size ~alpha =
  Float.pow 10.0 (log10_bad_pattern_count ~m ~d_size ~alpha)

let rounding_bound ~m ~frac_congestion =
  check_positive "m" m;
  if frac_congestion < 0.0 then invalid_arg "Theory: congestion must be non-negative";
  (2.0 *. frac_congestion) +. (3.0 *. Float.log (float_of_int m))

let log2 x = Float.log x /. Float.log 2.0

let theorem_2_3_sparsity ~n =
  check_positive "n" n;
  if n < 4 then 1
  else begin
    let nf = float_of_int n in
    let value = log2 nf /. log2 (log2 nf) in
    max 1 (int_of_float (Float.ceil value))
  end

let theorem_2_3_competitiveness ~n =
  check_positive "n" n;
  if n < 4 then 1.0
  else begin
    let nf = float_of_int n in
    Float.pow (log2 nf) 3.0 /. log2 (log2 nf)
  end

let theorem_2_5_competitiveness ~n ~alpha =
  check_positive "n" n;
  check_positive "alpha" alpha;
  Float.pow (float_of_int n) (1.0 /. float_of_int alpha)

let lower_bound_gadget_k ~n ~alpha =
  check_positive "n" n;
  check_positive "alpha" alpha;
  max 1
    (int_of_float
       (Float.pow (float_of_int n) (1.0 /. (2.0 *. float_of_int alpha))))

let lower_bound_cor_8_3 ~n ~alpha =
  check_positive "n" n;
  check_positive "alpha" alpha;
  if n < 2 then 1.0
  else begin
    let nf = float_of_int n in
    Float.pow nf (1.0 /. (2.0 *. float_of_int alpha)) /. (2.0 *. log2 nf)
  end

let kkt91_bound ~n ~max_degree =
  check_positive "n" n;
  check_positive "max_degree" max_degree;
  Float.sqrt (float_of_int n) /. float_of_int max_degree
