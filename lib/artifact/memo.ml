module Graph = Sso_graph.Graph
module Rng = Sso_prng.Rng
module File = Sso_obs.File
module Oblivious = Sso_oblivious.Oblivious
module Racke = Sso_oblivious.Racke
module Frt = Sso_oblivious.Frt
module Sampler = Sso_core.Sampler
module Path_system = Sso_core.Path_system

let hex = Codec.hex_of_key

(* ---- Räcke forests ---- *)

(* ["batch"] is {!Racke.forest}'s round width, fixed at 4; the field
   keeps the keys of forests cached when the width was a parameter. *)
let racke_recipe ?trees ~rng g =
  let trees = match trees with Some t -> t | None -> Racke.default_trees g in
  Store.recipe ~kind:"racke-forest"
    [
      ("graph", hex (Codec.graph_digest g));
      ("trees", string_of_int trees);
      ("batch", "4");
      ("rng", hex (Rng.fingerprint rng));
    ]

let racke_forest ?store rng ?trees g =
  match store with
  | None -> Racke.forest rng ?trees g
  | Some st ->
      let recipe = racke_recipe ?trees ~rng g in
      let rebuild () =
        let forest = Racke.forest rng ?trees g in
        Store.put st recipe
          (Codec.encode_forest (List.map Frt.to_parts forest));
        forest
      in
      let decode payload =
        try List.map (Frt.of_parts g) (Codec.decode_forest payload)
        with Invalid_argument msg -> raise (File.Corrupt msg)
      in
      match Store.find st recipe decode with Some forest -> forest | None -> rebuild ()

let racke ?store rng ?trees g = Racke.of_forest g (racke_forest ?store rng ?trees g)

(* ---- α-samples ---- *)

let alpha_sample ?store ~base_key rng r ~alpha ~pairs =
  let g = Oblivious.graph r in
  match store with
  | None -> Sampler.alpha_sample rng r ~alpha
  | Some st ->
      let pairs = List.sort_uniq compare pairs in
      let recipe =
        Store.recipe ~kind:"alpha-sample"
          [
            ("graph", hex (Codec.graph_digest g));
            ("base", base_key);
            ("oblivious", Oblivious.name r);
            ("alpha", string_of_int alpha);
            ("rng", hex (Rng.fingerprint rng));
            ("pairs", hex (Codec.pairs_digest pairs));
          ]
      in
      (* Construct the fallback in both paths: it consumes the same RNG
         state either way (one split now, per-pair split_at children on
         query), keeping caller-visible draws identical cold and warm. *)
      let fallback = Sampler.alpha_sample rng r ~alpha in
      let save () =
        Path_system.materialize fallback pairs;
        let ranges =
          List.map
            (fun (s, t) -> ((s, t), Path_system.slice_range fallback s t))
            pairs
        in
        Store.put st recipe
          (Codec.encode_path_system_slices (Path_system.arena fallback) ranges);
        fallback
      in
      (* A payload that decodes but breaks the candidate contract (a
         repeated path within a pair) is damage too; a rejected preload
         leaves [fallback] as it was. *)
      let preload payload =
        let arena, ranges = Codec.decode_path_system_slices g payload in
        try Path_system.preload fallback arena ranges
        with Invalid_argument msg -> raise (File.Corrupt msg)
      in
      match Store.find st recipe preload with Some () -> fallback | None -> save ()
