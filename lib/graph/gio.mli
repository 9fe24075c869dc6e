(** Plain-text graph serialization.

    Format: first line [n <vertices>], then one [<u> <v> [cap]] line per
    edge (capacity defaults to 1).  Lines starting with [#] are comments.
    Round-trips through {!to_string} / {!of_string}. *)

val to_string : Graph.t -> string

val of_string : string -> Graph.t
(** @raise Failure on malformed input. *)
