(** Valiant's trick on the hypercube [VB81].

    To route [s → t], pick a uniformly random intermediate vertex [r] and
    greedily bit-fix [s → r], then [r → t].  On any permutation demand the
    expected congestion of every edge is O(1), which makes this the
    textbook competitive oblivious routing for hypercubes and the base
    distribution for the paper's hypercube/permutation warm-up
    (Section 5.1).

    The distribution enumerates all [2^d] intermediates, so only use
    {!Oblivious.distribution} on moderate dimensions; {!Oblivious.sampler}
    is what the α-sampler uses and is cheap: the routing is an
    {!Oblivious.mixture} over intermediates, so a draw concatenates only
    the two legs through the intermediate it picks. *)

val routing : Sso_graph.Graph.t -> Oblivious.t
(** [routing g] for [g] a hypercube built by {!Sso_graph.Gen.hypercube}
    (vertex ids are bit patterns).  @raise Invalid_argument if the vertex
    count is not a power of two. *)

val bitfix_path : Sso_graph.Graph.t -> int -> int -> Sso_graph.Path.t
(** Greedy bit-fixing path from [s] to [t] (correct lowest-index differing
    bit first) — the deterministic "e-cube" route. *)

val generalized : base:Oblivious.t -> Oblivious.t
(** Valiant's trick over an arbitrary deterministic base routing on any
    graph: route [s → r → t] through a uniformly random intermediate [r],
    with both legs taken from [base]'s (first) path.  Reduces to the
    classic hypercube trick when [base] is e-cube.  The per-pair support
    is Θ(n), so use {!Oblivious.distribution} on moderate graphs; like
    {!routing}, it is a mixture, so sampling routes only the drawn
    intermediates. *)
