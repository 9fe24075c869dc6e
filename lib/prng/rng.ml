(* xoshiro256** with splitmix64 seeding.  See rng.mli for the contract. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64 step: used both for seeding and for [split]. *)
let splitmix_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix_next state in
  let s1 = splitmix_next state in
  let s2 = splitmix_next state in
  let s3 = splitmix_next state in
  { s0; s1; s2; s3 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let int64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let state = ref (int64 t) in
  let s0 = splitmix_next state in
  let s1 = splitmix_next state in
  let s2 = splitmix_next state in
  let s3 = splitmix_next state in
  { s0; s1; s2; s3 }

let split_at t i =
  if i < 0 then invalid_arg "Rng.split_at: index must be non-negative";
  (* Mix the full current state with the index (FNV-style fold), then
     expand through splitmix64 exactly as [create]/[split] do.  Reads [t]
     without advancing it, so children keyed by distinct indices can be
     derived concurrently from one parent. *)
  let open Int64 in
  let h = ref (logxor t.s0 (mul (add (of_int i) 1L) 0x9E3779B97F4A7C15L)) in
  let fold x = h := mul (logxor !h x) 0x100000001B3L in
  fold t.s1;
  fold t.s2;
  fold t.s3;
  let state = ref !h in
  let s0 = splitmix_next state in
  let s1 = splitmix_next state in
  let s2 = splitmix_next state in
  let s3 = splitmix_next state in
  { s0; s1; s2; s3 }

let fingerprint t =
  (* FNV-1a fold of the four state words; reads without advancing, so the
     fingerprint identifies the stream a consumer is about to draw from. *)
  let open Int64 in
  let h = ref 0xCBF29CE484222325L in
  let fold x = h := mul (logxor !h x) 0x100000001B3L in
  fold t.s0;
  fold t.s1;
  fold t.s2;
  fold t.s3;
  !h

let bits62 t = Int64.to_int (Int64.shift_right_logical (int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on 62 uniform bits for exact uniformity. *)
  let limit = 0x3FFFFFFFFFFFFFFF - (0x3FFFFFFFFFFFFFFF mod bound) in
  let rec draw () =
    let v = bits62 t in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let float t =
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int v *. 0x1.0p-53

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let discrete t w =
  let total = Array.fold_left ( +. ) 0.0 w in
  if not (total > 0.0) then invalid_arg "Rng.discrete: weights must have positive sum";
  let target = float t *. total in
  let n = Array.length w in
  let rec scan i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. w.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0
