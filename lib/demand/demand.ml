module Rng = Sso_prng.Rng

module Pair = struct
  type t = int * int

  (* Lexicographic, as polymorphic [compare] orders int pairs, without
     its generic dispatch. *)
  let compare (s1, t1) (s2, t2) = match Int.compare s1 s2 with 0 -> Int.compare t1 t2 | c -> c
end

module Pmap = Map.Make (Pair)

type t = float Pmap.t

let of_list triples =
  List.fold_left
    (fun acc (s, t, v) ->
      if s = t then invalid_arg "Demand.of_list: diagonal entry";
      if v < 0.0 then invalid_arg "Demand.of_list: negative demand";
      if v = 0.0 then acc
      else
        Pmap.update (s, t)
          (function None -> Some v | Some w -> Some (w +. v))
          acc)
    Pmap.empty triples

let empty = Pmap.empty

let get d s t = match Pmap.find_opt (s, t) d with Some v -> v | None -> 0.0

let mem d s t = Pmap.mem (s, t) d

let set d s t v =
  if s = t then invalid_arg "Demand.set: diagonal entry";
  if not (v > 0.0) then invalid_arg "Demand.set: amount must be positive";
  Pmap.add (s, t) v d

let remove d s t = Pmap.remove (s, t) d

let support d = List.map fst (Pmap.bindings d)

let support_size d = Pmap.cardinal d

let siz d = Pmap.fold (fun _ v acc -> acc +. v) d 0.0

let fold f d init = Pmap.fold (fun (s, t) v acc -> f s t v acc) d init

let filter f d = Pmap.filter (fun (s, t) v -> f s t v) d

let add d1 d2 = Pmap.union (fun _ a b -> Some (a +. b)) d1 d2

let scale c d =
  if c < 0.0 then invalid_arg "Demand.scale: negative factor";
  if c = 0.0 then empty else Pmap.map (fun v -> c *. v) d

let eps = 1e-9

let is_integral d =
  Pmap.for_all (fun _ v -> Float.abs (v -. Float.round v) < eps) d

let is_zero_one d = Pmap.for_all (fun _ v -> Float.abs (v -. 1.0) < eps) d

let is_special g ~alpha d =
  Pmap.for_all
    (fun (s, t) v ->
      let target = float_of_int (alpha + Sso_graph.Maxflow.cut g s t) in
      Float.abs (v -. target) < eps)
    d

let random_permutation rng n =
  let p = Rng.permutation rng n in
  of_list
    (List.filter_map
       (fun s -> if p.(s) = s then None else Some (s, p.(s), 1.0))
       (List.init n Fun.id))

let random_pairs rng ~n ~pairs =
  if pairs > n * (n - 1) then invalid_arg "Demand.random_pairs: too many pairs";
  let chosen = Hashtbl.create pairs in
  let out = ref [] in
  while Hashtbl.length chosen < pairs do
    let s = Rng.int rng n and t = Rng.int rng n in
    if s <> t && not (Hashtbl.mem chosen (s, t)) then begin
      Hashtbl.add chosen (s, t) ();
      out := (s, t, 1.0) :: !out
    end
  done;
  of_list !out

let reverse_bits d v =
  let r = ref 0 in
  for bit = 0 to d - 1 do
    if v land (1 lsl bit) <> 0 then r := !r lor (1 lsl (d - 1 - bit))
  done;
  !r

(* [1 lsl d] wraps for d >= 63 (and [List.init] fails on the negative n
   at 62), so a vertex count passed where the dimension belongs would
   silently build an empty or degenerate demand. *)
let check_dimension fn d =
  if d > 30 then
    invalid_arg
      (Printf.sprintf
         "%s: dimension %d exceeds 30 (the argument is the hypercube dimension d, not \
          the vertex count 2^d)"
         fn d)

let bit_reversal d =
  if d < 1 then invalid_arg "Demand.bit_reversal: dimension must be >= 1";
  check_dimension "Demand.bit_reversal" d;
  let n = 1 lsl d in
  of_list
    (List.filter_map
       (fun s ->
         let t = reverse_bits d s in
         if s = t then None else Some (s, t, 1.0))
       (List.init n Fun.id))

let transpose d =
  check_dimension "Demand.transpose" d;
  if d < 2 || d mod 2 <> 0 then
    invalid_arg "Demand.transpose: dimension must be even and >= 2";
  let half = d / 2 in
  let mask = (1 lsl half) - 1 in
  let n = 1 lsl d in
  of_list
    (List.filter_map
       (fun s ->
         let low = s land mask and high = s lsr half in
         let t = (low lsl half) lor high in
         if s = t then None else Some (s, t, 1.0))
       (List.init n Fun.id))

let all_to_all n =
  of_list
    (List.concat_map
       (fun s ->
         List.filter_map (fun t -> if s = t then None else Some (s, t, 1.0)) (List.init n Fun.id))
       (List.init n Fun.id))

let single_pair s t v = of_list [ (s, t, v) ]

let gravity rng ~n ~total =
  if total <= 0.0 then invalid_arg "Demand.gravity: total must be positive";
  let activity = Array.init n (fun _ -> 1.0 -. Rng.float rng) in
  let raw =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun t -> if s = t then None else Some (s, t, activity.(s) *. activity.(t)))
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  let mass = List.fold_left (fun acc (_, _, v) -> acc +. v) 0.0 raw in
  of_list (List.map (fun (s, t, v) -> (s, t, v *. total /. mass)) raw)

let of_string text =
  let entries =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then None
        else
          match List.filter (fun s -> s <> "") (String.split_on_char ' ' line) with
          | [ s; t; v ] -> (
              match (int_of_string_opt s, int_of_string_opt t, float_of_string_opt v) with
              | Some s, Some t, Some v -> Some (s, t, v)
              | _ -> failwith "Demand.of_string: bad line")
          | _ -> failwith "Demand.of_string: bad line")
      (String.split_on_char '\n' text)
  in
  try of_list entries
  with Invalid_argument msg -> failwith ("Demand.of_string: " ^ msg)

let hotspot ~n ~target =
  if target < 0 || target >= n then invalid_arg "Demand.hotspot: target out of range";
  of_list
    (List.filter_map
       (fun s -> if s = target then None else Some (s, target, 1.0))
       (List.init n Fun.id))

let ring_shift ~n ~shift =
  if shift mod n = 0 then invalid_arg "Demand.ring_shift: shift must be non-zero mod n";
  of_list (List.init n (fun s -> (s, (s + shift) mod n, 1.0)))
