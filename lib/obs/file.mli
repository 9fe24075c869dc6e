(** The file contract: every persisted file (store entries, checkpoints,
    update streams, traces, metrics snapshots, graph and demand inputs)
    is read and written here, and damaged input surfaces as exactly one
    of two exceptions.  The [sso] CLI maps {!Unreadable} to exit code 10
    and {!Corrupt} to 11. *)

exception Unreadable of string
(** The file cannot be read or written: an I/O problem (missing, a
    directory, no permission, a failed rename), not a format problem. *)

exception Corrupt of string
(** The bytes were read but are not a valid file of the expected kind:
    bad syntax, a wrong tag or version, a failed checksum, a truncation,
    or a value that breaks the format's invariants. *)

val unreadable : ('a, unit, string, 'b) format4 -> 'a
(** [unreadable fmt ...] raises {!Unreadable} with the formatted message. *)

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with the formatted message. *)

val read : string -> string
(** The whole file.  @raise Unreadable with the message
    [<path>: <reason>] when it cannot be opened or read (a directory
    included). *)

val readdir : string -> string array
(** The directory's entries, as [Sys.readdir].  @raise Unreadable when it
    cannot be listed. *)

val mkdir_p : string -> unit
(** Create the directory and its missing parents.  @raise Unreadable
    naming the first directory that cannot be created. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path f] runs [f] on a fresh [path.tmp.<pid>] (the name the
    artifact store's gc sweeps), closes it and renames it over [path],
    so readers see the old file or the whole new one.  On any failure the
    channel is closed and the temporary removed before the exception is
    re-raised, an I/O error ([Sys_error]) as {!Unreadable} with the
    message [cannot write <path>: <reason>]. *)
