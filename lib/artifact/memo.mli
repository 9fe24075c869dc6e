(** Memoizing wrappers: the expensive constructions, backed by {!Store}.

    Each wrapper is a drop-in for the underlying constructor; pass
    [?store] to enable caching (omitted ⇒ identical to calling the
    constructor directly).  The determinism contract: for a fixed seed, a
    warm run produces bit-identical results to the cold run that populated
    the cache, at any job count.  Two ingredients make that hold:

    - payloads round-trip bit-exactly ({!Codec}), and decoded objects are
      installed as stored: a forest's trees through
      {!Sso_oblivious.Frt.of_parts}, an α-sample's candidates copied slice
      by slice ({!Sso_core.Path_system.preload});
    - RNG consumption visible to the caller is the same on hit and miss.
      Pass each wrapper a {e dedicated} generator (callers here always pass
      [Rng.split parent], which advances the parent at the call site
      either way); on a hit the child is simply never drawn from, and
      sampled systems key their per-pair draws by [Rng.split_at], so
      queries outside the cached pair set draw exactly what the cold run
      would have. *)

val racke_recipe : ?trees:int -> rng:Sso_prng.Rng.t -> Sso_graph.Graph.t -> Store.recipe
(** The recipe {!racke} uses: kind ["racke-forest"], keyed by graph
    digest, tree count, round width (always 4) and the RNG fingerprint.
    Take it {e before} the generator is consumed (fingerprinting does not
    advance it). *)

val racke_forest :
  ?store:Store.t -> Sso_prng.Rng.t -> ?trees:int -> Sso_graph.Graph.t ->
  Sso_oblivious.Frt.t list
(** The MWU tree mixture behind {!racke}, cached under the same
    ["racke-forest"] recipe: a hit decodes the stored {!Codec.encode_forest}
    payload through {!Sso_oblivious.Frt.of_parts} instead of re-running the
    construction.  Exposed for callers that need the trees themselves
    (digests, per-tree diagnostics, the scale bench) rather than the
    mixture routing. *)

val racke :
  ?store:Store.t -> Sso_prng.Rng.t -> ?trees:int -> Sso_graph.Graph.t ->
  Sso_oblivious.Oblivious.t
(** {!Sso_oblivious.Racke.routing} with the MWU tree mixture cached as an
    {!Codec.encode_forest} payload.  A hit skips the entire construction
    (FRT builds and capacity-routing passes) and rebuilds the routing with
    {!Sso_oblivious.Racke.of_forest}; shortest-path state is recomputed
    lazily and deterministically from the stored edge lengths. *)

val alpha_sample :
  ?store:Store.t ->
  base_key:string ->
  Sso_prng.Rng.t ->
  Sso_oblivious.Oblivious.t ->
  alpha:int ->
  pairs:(int * int) list ->
  Sso_core.Path_system.t
(** {!Sso_core.Sampler.alpha_sample} with the materialized candidate sets
    for [pairs] cached.  [base_key] must canonically name the base
    routing's identity (e.g. [Codec.hex_of_key (Store.key recipe)] of the
    recipe that built it): the sampled paths depend on the base routing's
    distributions, which the oblivious name + graph digest alone do not
    pin down.  The fallback sampler is constructed on both hit and miss,
    so caller-visible RNG consumption is identical.  A hit decodes the
    payload into an arena and {!Sso_core.Path_system.preload}s its slices
    into the fallback (byte copies, no boxed paths); pairs outside the
    cached set sample from their own [split_at] children exactly as a cold
    run would.  A payload that decodes but fails the candidate checks (a
    pair listed twice, a path repeated within a pair) is counted as
    [artifact.corrupt] and re-sampled, like any damaged entry. *)
