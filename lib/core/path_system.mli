(** Path systems (Definition 2.1) — the semi-oblivious routing object.

    A path system associates to each ordered vertex pair [(s,t)] a set
    [P(s,t)] of simple (s,t)-paths, fixed before any demand is revealed
    (Stage 2 of the pipeline in Section 2.1).  It is [α]-sparse when every
    [|P(s,t)| ≤ α].

    Pair sets can be quadratically large while experiments only ever query
    the pairs in some demand's support, so a system may be backed by a lazy
    generator (memoized, so repeated queries see the same sample — this
    is what makes lazy α-sampling equivalent to sampling everything
    upfront: per-pair samples are independent).

    Storage is a shared {!Sso_graph.Arena}: each pair maps to a range of
    consecutive slice handles, so sparsity queries are O(1) per pair, the
    Stage-4 solvers index candidates without materializing path lists
    ({!unpack_pair}, {!to_slice_candidates}), and failover policies walk
    candidate slices in place.  The routings a Stage-4 solve returns are
    slices of {!arena} too.  {!paths} reconstructs boxed
    {!Sso_graph.Path.t} values on demand, for callers that inspect a
    pair's candidates (samplers, failover, tests) rather than solve on
    them. *)

type t
(** Pairs are ordered vertex pairs of {!graph}: any query or install of
    a pair outside it raises
    [Invalid_argument "Path_system: pair out of range"]. *)

(** {1 Construction}

    Candidates enter a system through one install routine, whatever their
    source: boxed paths from a generator ({!of_pairs}, {!of_generator}),
    slices of another system's arena ({!filter}) or of a decoded payload
    ({!preload}, {!adopt}).  Every pair's list is checked on arena slices
    before its index entry is published: each path must run from [s] to
    [t] ([Invalid_argument "Path_system: path endpoints do not match
    pair"]) and no path may repeat within the pair
    ([Invalid_argument "Path_system: duplicate path in candidate set"]).
    A rejected list installs nothing: no index entry, and no bytes in
    the arena.  Repeats in a list of up to 8 candidates are found by
    comparing every two slices' packed bytes, allocating nothing; longer
    lists sort their handles by {!Sso_graph.Arena.hash_slice}, O(k log k)
    for [k] candidates.  Boxed paths must also be walks of the graph (the
    arena append checks that); slices are copied as packed bytes, without
    building a {!Sso_graph.Path.t}. *)

val of_pairs : Sso_graph.Graph.t -> ((int * int) * Sso_graph.Path.t list) list -> t
(** Eager construction over a graph; pairs must be distinct
    ([Invalid_argument "Path_system.of_pairs: duplicate pair"]). *)

val of_generator : Sso_graph.Graph.t -> (int -> int -> Sso_graph.Path.t list) -> t
(** Lazy construction; the generator is consulted once per pair, and its
    paths are checked when the pair is first queried. *)

val preload : t -> Sso_graph.Arena.t -> ((int * int) * (int * int)) list -> unit
(** [preload ps a ranges] installs, per [(pair, (first, count))], the
    slices [first .. first + count - 1] of [a] as the pair's candidates,
    in slice order.  [a] must be over the system's graph (the same
    value, e.g. a payload decoded against {!graph}).  One walk over
    [ranges] checks every pair, a second copies their bytes, so on
    [Invalid_argument] the system is unchanged.
    The pairs must not be installed yet
    ([Invalid_argument "Path_system.preload: duplicate pair"]).  They
    must also be distinct, which is not checked here: ranges come from
    [Codec.decode_path_system_slices], and the decoder rejects a
    repeated pair.  Other pairs still come from the system's generator. *)

val adopt :
  t -> Sso_graph.Arena.t -> ((int * int) * (int * int)) list -> (unit, int * int) result
(** [adopt ps a ranges] is {!preload} for a payload that must match the
    system: each pair's slices of [a] are verified, then the saved bytes
    are installed.  Verification walks [ranges] in order.  A pair that is
    not installed yet asks the system's generator, whose candidates must
    equal the slices in count and, one by one, edge by edge
    ({!Sso_graph.Arena.equal_path}, or {!Sso_graph.Arena.equal_slices}
    for slice sources); the generator's answer itself is not installed.
    An installed pair must hold the same slices.  Every pair also passes
    the install check.  Then the pairs not yet installed are copied from
    [a], in range order, as {!preload} copies them; installed pairs keep
    their slices.  Over a fresh system the arena therefore holds the
    bytes materializing the pairs in range order through the generator
    would have written.
    [Error pair] names the first pair that disagrees, and nothing is
    installed; [Invalid_argument] from the install check also leaves the
    system unchanged.  Ranges must be distinct pairs, as for {!preload}.
    Traced as [restore.verify] and [restore.install]. *)

val graph : t -> Sso_graph.Graph.t
(** The graph the system's paths live on. *)

val arena : t -> Sso_graph.Arena.t
(** The shared arena holding every materialized candidate path.  Slice
    handles obtained from {!slice_range}/{!iter_slices} resolve here.
    Reads of installed slices are lock-free; the arena grows under the
    system's internal lock as new pairs are generated. *)

val paths : t -> int -> int -> Sso_graph.Path.t list
(** [P(s,t)]; [[]] when the system offers no paths for the pair.  Safe to
    call from pool workers: the memo index is mutex-guarded and generation
    is serialized, so every caller sees the same per-pair sets.  Each call
    reconstructs boxed paths from the arena (in generation order); callers
    on hot paths should prefer {!slice_range} and the arena kernels. *)

val slice_range : t -> int -> int -> int * int
(** [(first, count)]: the pair's candidates occupy arena slices
    [first .. first + count - 1], in generation order.  Generates and
    installs the pair on first query, like {!paths}. *)

val slice_count : t -> int -> int -> int
(** [|P(s,t)|] without materializing anything — O(1) once installed. *)

val iter_slices : t -> int -> int -> (int -> unit) -> unit
(** Apply a function to each candidate slice handle of a pair, in
    generation order. *)

val materialize : t -> (int * int) list -> unit
(** The one bulk install: generate the given pairs in list order, on the
    calling domain.  Each pair not yet installed appends its candidates to
    {!arena}, so its slices start where the arena ended at the pair's
    first occurrence in the list; a repeated or already-installed pair
    costs one O(1) lookup and appends nothing.  The routing service's
    admission and the α-sample cache's save rely on that layout.  Parallel
    call sites materialize the pairs a sweep will query before fanning
    out, keeping generation order — and thus any generator-internal RNG
    draws — independent of the job count. *)

val installed : t -> int -> int -> bool
(** Whether the pair is materialized, without generating it. *)

val known_pairs : t -> (int * int) list
(** Pairs materialized so far (all pairs for an eager system), in
    lexicographic order. *)

val sparsity_on : t -> (int * int) list -> int
(** [max |P(s,t)|] over the given pairs — O(1) per pair on the arena
    index. *)

val is_alpha_sparse : t -> alpha:int -> (int * int) list -> bool

val union : t -> t -> t
(** Pointwise union of candidate sets (used by the completion-time ladder
    of Lemma 2.8, which unions one sample per hop scale). *)

val filter : (Sso_graph.Arena.t -> int -> bool) -> t -> t
(** [filter keep ps] is the lazy view of [ps] that offers, per pair, the
    candidates whose slice [i] in [arena ps] satisfies [keep (arena ps) i],
    in the parent's order.  Failure views pass
    [fun a i -> not (Arena.exists a i down)]; hop caps pass
    [fun a i -> Arena.hops a i <= h].  Survivors are copied as slices. *)

val of_oblivious_support : Sso_oblivious.Oblivious.t -> t
(** The (lazily queried) full support of an oblivious routing — the
    "dense" system the paper's sparse samples are measured against.  A
    path that several mixture components share (e.g. two spanning trees
    with the same (s,t) path) appears once, at its first occurrence in
    the distribution. *)

val unpack_pair : t -> int -> int -> Sso_flow.Slice_candidates.piece
(** One pair's candidates unpacked from {!arena} (generated on first
    query, like {!slice_range}): the per-pair step of
    {!to_slice_candidates}.  A pair's candidates never change once
    installed, so a caller that solves overlapping supports on one
    system may keep its pieces and join them with
    {!Sso_flow.Slice_candidates.concat}.  The routing service does so for
    its active pairs, and drops them all whenever its live system is
    replaced: a failure view offers other candidates. *)

val to_slice_candidates : t -> (int * int) list -> Sso_flow.Slice_candidates.t
(** The Stage-4 candidate index for the given pairs: every pair (sorted
    with a monomorphic pair comparator, deduplicated) through
    {!unpack_pair}, joined by {!Sso_flow.Slice_candidates.concat}; no
    path lists materialized.  Input to both Stage-4 engines,
    {!Sso_flow.Min_congestion.lp_on_slices} and
    {!Sso_flow.Min_congestion.mwu_on_slices}. *)
