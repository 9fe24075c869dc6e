(** Content-addressed on-disk artifact cache.

    Keys are the 64-bit FNV-1a hash of the canonical encoding of a
    {!recipe} — the full description of how an artifact is produced
    (constructor kind, parameters, graph digest, RNG fingerprint) — so two
    runs that would compute the same object read and write the same entry,
    and any change to the inputs changes the key.

    Entries are single files [<16-hex-digits>.art] holding a magic number,
    the recipe's kind and description (a hash-collision guard), the payload,
    and an FNV-1a checksum of the payload.  Writes go to a temp file and are
    [rename]d into place, so a crashed or concurrent writer never leaves a
    half-written entry under a live key.  Reads verify the checksum; any
    damage makes the entry a miss and removes the stale file — a corrupt
    payload is never deserialized.

    A human-readable [manifest.txt] in the store directory logs one line per
    write.  {!Sso_obs.Obs} counters [artifact.hit], [artifact.miss],
    [artifact.corrupt], [artifact.bytes_read], and [artifact.bytes_written]
    expose cache behaviour to [--metrics].

    The store directory raises {!Sso_obs.File.Unreadable} when it cannot
    be created, read, or is not a directory; per-entry damage is silent
    (a miss). *)

(** {1 Recipes} *)

type recipe
(** What an artifact is a function of.  Equal recipes address equal
    entries. *)

val recipe : kind:string -> (string * string) list -> recipe
(** [recipe ~kind params]: [kind] names the constructor
    (e.g. ["racke-forest"]); [params] are name/value components in a fixed
    caller-chosen order (digests as hex, numbers as decimal). *)

val key : recipe -> int64
(** FNV-1a of the canonical encoding of the recipe. *)

(** {1 The store} *)

type t

val open_ : ?dir:string -> unit -> t
(** Open (creating if needed) the store at [dir].  Without [dir] the
    location resolves, in order, to [SSO_CACHE_DIR], [XDG_CACHE_HOME/sso],
    [HOME/.cache/sso], then [_artifacts] in the working directory.
    @raise Sso_obs.File.Unreadable if the directory cannot be created or
    is not a directory. *)

val dir : t -> string

val find : t -> recipe -> (string -> 'a) -> 'a option
(** [find t recipe decode]: the cached payload, decoded, or [None] on
    miss.  Entries whose stored recipe description disagrees with
    [recipe] count as misses.  Corrupt entries (bad magic, version,
    checksum, or truncation) and payloads [decode] rejects with
    {!Sso_obs.File.Corrupt} count in [artifact.corrupt] and as misses,
    and their files are removed.  [artifact.hit] counts only the payloads
    [decode] accepts. *)

val put : t -> recipe -> string -> unit
(** Store a payload under the recipe's key (atomic: temp file + rename)
    and append a manifest line.  @raise Sso_obs.File.Unreadable if the
    directory has disappeared or is not writable. *)

(** {1 Inspection and maintenance} *)

type entry = {
  entry_key : string;  (** 16 hex digits *)
  entry_kind : string;
  entry_description : string;
  entry_bytes : int;  (** payload size *)
}

type listing = {
  entries : entry list;  (** valid entries, sorted by key *)
  corrupt : string list;  (** file names of damaged entries *)
}

val scan : t -> listing
(** Inspect every entry without removing anything.
    @raise Sso_obs.File.Unreadable if the directory cannot be listed. *)

val gc : t -> int
(** Remove corrupt entries and leftover temp files, rewrite the manifest
    from the survivors; returns the number of files removed.
    @raise Sso_obs.File.Unreadable if the directory cannot be listed. *)

val clear : t -> int
(** Remove every entry (and the manifest); returns the number of entries
    removed.  @raise Sso_obs.File.Unreadable if the directory cannot be
    listed. *)
