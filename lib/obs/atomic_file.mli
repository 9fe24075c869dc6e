(** Crash-safe file replacement, shared by every writer that publishes a
    file in place (stores, checkpoints, streams, traces, metrics). *)

val write : string -> (out_channel -> unit) -> unit
(** [write path f] runs [f] on a fresh [path.tmp.<pid>] (the name the
    artifact store's gc sweeps), closes it and renames it over
    [path], so readers see the old file or the whole new one.  On any
    failure the channel is closed and the temporary removed before the
    exception ([Sys_error] for I/O) is re-raised; callers map it to their
    own error. *)
