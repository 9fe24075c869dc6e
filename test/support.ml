(* Helpers the test suites share: demand predicates, the job-count
   switch for jobs-invariance tests, the property runner and the byte
   mutator of the parser-fuzzing properties. *)

module Demand = Sso_demand.Demand

(* Same support, and entries within 1e-12 of each other. *)
let demand_equal a b =
  Demand.support a = Demand.support b
  && List.for_all
       (fun (s, t) -> Float.abs (Demand.get a s t -. Demand.get b s t) < 1e-12)
       (Demand.support a)

(* A {0,1}-demand where every vertex sends at most once and receives at
   most once. *)
let is_permutation d =
  let distinct l = List.length (List.sort_uniq compare l) = List.length l in
  let support = Demand.support d in
  Demand.is_zero_one d && distinct (List.map fst support) && distinct (List.map snd support)

module Pool = Sso_engine.Pool

(* [f ()] with the process pool at [jobs], the previous job count
   restored afterwards, whether [f] returns or raises. *)
let with_jobs jobs f =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs before) f

(* The seed every property draws from, so a failing case reproduces run
   after run.  Setting [QCHECK_SEED] overrides it: qcheck-alcotest reads
   that variable itself when no generator is passed. *)
let qcheck_seed = 424242

let to_alcotest test =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some _ -> QCheck_alcotest.to_alcotest test
  | None -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) test

(* One byte-level damage of [content], chosen by [kind]: a truncation at
   [pos], a flipped bit at [pos], or an 8-byte chunk from [pos] inserted
   again at [extra]. *)
let mutate content kind pos extra =
  let len = String.length content in
  if len = 0 then content
  else
    match kind mod 3 with
    | 0 -> String.sub content 0 (pos mod (len + 1))
    | 1 ->
        let b = Bytes.of_string content in
        let i = pos mod len in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (extra mod 8))));
        Bytes.to_string b
    | _ ->
        let i = pos mod len in
        let j = extra mod len in
        let chunk = String.sub content i (min 8 (len - i)) in
        String.sub content 0 j ^ chunk
        ^ String.sub content j (len - j)
