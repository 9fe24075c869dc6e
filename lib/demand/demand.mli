(** Demand matrices (Definition 2.2).

    A demand maps ordered vertex pairs [(s, t)], [s <> t], to non-negative
    reals.  We store only the support, as all workloads in the paper and
    the experiments are sparse.  Construction normalizes: zero entries are
    dropped, repeated pairs are summed, and diagonal entries are rejected. *)

module Pair : sig
  type t = int * int

  val compare : t -> t -> int
  (** Lexicographic order on [(s, t)] with [Int.compare]: the order of
      polymorphic [compare] on int pairs. *)
end

type t
(** Immutable demand. *)

val of_list : (int * int * float) list -> t
(** Build from [(s, t, amount)] triples.  Negative amounts and diagonal
    pairs raise [Invalid_argument]; zeros are dropped; duplicates add up. *)

val empty : t

val get : t -> int -> int -> float
(** [get d s t] is [d(s,t)] (0 outside the support). *)

val mem : t -> int -> int -> bool
(** [(s, t)] is in the support. *)

val set : t -> int -> int -> float -> t
(** [set d s t v] is [d] with [d(s,t) = v], O(log |supp d|).
    @raise Invalid_argument for a diagonal pair or [v] not positive. *)

val remove : t -> int -> int -> t
(** [remove d s t] is [d] with [(s, t)] out of the support. *)

val support : t -> (int * int) list
(** [supp(d)]: pairs with positive demand, in lexicographic order. *)

val support_size : t -> int

val siz : t -> float
(** [siz(d) = Σ_{s≠t} d(s,t)] (Definition 2.2). *)

val fold : (int -> int -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the support in lexicographic order. *)

val filter : (int -> int -> float -> bool) -> t -> t

val add : t -> t -> t
(** Pointwise sum. *)

val scale : float -> t -> t
(** [scale c d] multiplies every entry by [c ≥ 0]. *)

(** {1 Classifiers} *)

val is_integral : t -> bool
(** Every entry is a whole number (up to 1e-9). *)

val is_zero_one : t -> bool
(** Every entry equals 1 ({0,1}-demand). *)

val is_special : Sso_graph.Graph.t -> alpha:int -> t -> bool
(** α-special (Definition 5.5): every entry is [0] or
    [α + cut_G(s,t)]. *)

(** {1 Generators} *)

val random_permutation : Sso_prng.Rng.t -> int -> t
(** A uniformly random full permutation demand on [n] vertices (fixed
    points dropped, so the size is typically [n - Θ(1)]). *)

val random_pairs : Sso_prng.Rng.t -> n:int -> pairs:int -> t
(** [pairs] uniformly random distinct ordered pairs, each with demand 1. *)

val bit_reversal : int -> t
(** On a [2^d]-vertex hypercube: [s → reverse of s's bit pattern].  The
    classical adversarial permutation for deterministic oblivious routing
    ([KKT91]-style instances).  @raise Invalid_argument unless
    [1 <= d <= 30] — [d] is the dimension, not the vertex count. *)

val transpose : int -> t
(** On a [2^d]-vertex hypercube with even [d]: swap the low and high halves
    of the address bits — the matrix-transpose permutation, the other
    classical hard instance.  @raise Invalid_argument unless [d] is even
    and [2 <= d <= 30]. *)

val all_to_all : int -> t
(** Demand 1 between every ordered pair ([n(n-1)] packets). *)

val single_pair : int -> int -> float -> t

val gravity : Sso_prng.Rng.t -> n:int -> total:float -> t
(** Gravity-model traffic matrix (standard in traffic engineering, used by
    SMORE's evaluation): each vertex draws an activity level [a_v] uniform
    in [(0, 1]]; [d(s,t) ∝ a_s · a_t] scaled so that [siz d = total]. *)

val hotspot : n:int -> target:int -> t
(** All-to-one: every other vertex sends one packet to [target] — the
    incast workload where any single-path system collapses onto the
    target's incident edges. *)

val ring_shift : n:int -> shift:int -> t
(** [s → (s + shift) mod n] for every [s] — the canonical permutation on
    rings/tori.  [shift mod n] must be non-zero. *)

(** {1 Serialization}

    One [<s> <t> <amount>] line per support pair; [#]-comments and blank
    lines ignored. *)

val of_string : string -> t
(** @raise Failure on malformed input. *)
