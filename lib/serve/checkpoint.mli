(** On-disk checkpoints of the routing service (DESIGN.md §14).

    A checkpoint is a single self-validating binary blob wrapping a
    {!Serve.state}: a one-byte kind tag and version, the digest of the
    update stream it was taken against, the graph digest, a canonical
    rendering of the service configuration, the state fields (demand,
    routing, deferred events, failed edges, and the v2 slice payload of
    every materialized pair), and a trailing FNV-1a-64 checksum of
    everything before it.  Decoding verifies the checksum {e first}, so
    any bit flip anywhere in the file surfaces as {!Sso_obs.File.Corrupt}
    before a single field is parsed — a damaged checkpoint can never
    half-restore.  An I/O failure (missing directory, permission, a
    directory where the file should be) is {!Sso_obs.File.Unreadable}:
    exit 10 against 11 for damaged bytes.

    Files are written atomically (tmp + rename) as [ckpt-<tick>.bin]
    inside the checkpoint directory; {!latest} picks the highest tick.
    Resuming is exact: restoring the latest checkpoint and replaying the
    remaining ticks yields output byte-identical to an uninterrupted
    replay, at any [--jobs] (see the determinism argument in
    DESIGN.md §14). *)

val events_digest : Sso_demand.Update.t list -> int64
(** Canonical digest of an update stream (binary event encoding, FNV-1a)
    — stored in each checkpoint so resuming against a different stream
    is refused as corrupt instead of silently diverging. *)

val config_repr : Serve.config -> string
(** Canonical one-line rendering of a service configuration — stored in
    each checkpoint; a resume under a different configuration is
    refused. *)

val encode :
  stream_digest:int64 ->
  graph:Sso_graph.Graph.t ->
  config:Serve.config ->
  Serve.state -> string
(** The checkpoint blob. *)

val write :
  dir:string ->
  stream_digest:int64 ->
  graph:Sso_graph.Graph.t ->
  config:Serve.config ->
  Serve.state -> string
(** Encode and atomically publish the checkpoint under [dir] (created with
    its missing parents) as [ckpt-<tick>.bin], tick zero-padded so
    lexicographic is numeric order, returning its path.  The temporary
    sibling is removed on any failure.  @raise Sso_obs.File.Unreadable
    when the filesystem says no, [Invalid_argument] if the state predates
    the first tick. *)

val latest : dir:string -> (int * string) option
(** The highest-tick checkpoint in [dir] as [(tick, path)]; [None] when
    the directory is missing or holds no [ckpt-*.bin]. *)

val load :
  graph:Sso_graph.Graph.t -> string -> int64 * string * Serve.state
(** Read and decode a checkpoint file: [(stream_digest, config_repr,
    state)].  The caller compares the digest and configuration against
    its own before {!Serve.restore}.  @raise Sso_obs.File.Unreadable on
    IO failure, {!Sso_obs.File.Corrupt} on checksum mismatch, bad tag or
    version, or any malformed field. *)
