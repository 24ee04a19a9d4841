(** The durability facade the engine wires in: one directory holding
    one {e generation} — a single {!Journal} file — and the bookkeeping
    to roll generations forward.

    Directory layout (generation [g]):
    {v
    DIR/journal-<g>.log    the image written when g was opened (empty
                           for g = 0), then every append since
    v}

    {b Boot.}  [open_] picks the highest-numbered [journal-<g>.log]
    (0 when there is none), deletes every other [journal-*] file —
    only a crash in the middle of a compaction leaves one: the
    generation it replaced, or a temp image that was never renamed —
    and recovers the file with {!Journal.recover}: the longest valid
    prefix is kept and a torn tail truncated.  The recovered records
    are handed out once via {!replay}, which the engine uses to
    pre-warm its LRU.  Other files in [DIR] are neither read nor
    touched.

    {b Compaction.}  [compact] writes the caller's current entries as
    the first records of [journal-<g+1>.log] with
    {!Journal.write_image} (temp file, fsync, rename: the rename
    publishes the generation), closes generation [g], deletes its file,
    and appends continue in the new one.  A crash at any point leaves
    the highest-numbered journal on disk complete: [g]'s before the
    rename, [g+1]'s after it.

    {b Observability.}  Every store owns an {!Ssg_obs.Metrics} registry
    ([ssg_store_*]: replayed records, appended records, journal bytes,
    fsyncs, compactions, torn-tail recoveries, generation) that the
    engine splices into its Prometheus exposition, and emits
    [store.append] / [store.replay] / [store.compact] spans on the
    process tracer when enabled.

    Single-writer: one store per directory per process.  Appends and
    compactions are serialized by an internal lock and are safe to call
    from worker domains and connection threads concurrently. *)

type t

(** When appends reach the platter:
    - [Always] — fsync after every record;
    - [Group n] — group commit, one fsync per [n] records;
    - [Never] — leave it to the OS (a host crash may cost the tail,
      recovered at next boot as torn). *)
type sync_policy = Always | Group of int | Never

(** CLI syntax: ["always"], ["never"], ["group:N"]. *)
val sync_of_string : string -> (sync_policy, string) result

val sync_to_string : sync_policy -> string

(** [open_ ~dir ()] — creates [dir] (and parents) if missing, recovers
    the live generation, opens its journal for appending.  [sync]
    defaults to [Group 8]; [compact_bytes] (default 4 MiB) is the
    {!journal_bytes} at which {!should_compact} turns true.
    @raise Invalid_argument on [Group n] with [n < 1] or
    [compact_bytes < 1].
    @raise Unix.Unix_error if the directory is unusable. *)
val open_ : ?sync:sync_policy -> ?compact_bytes:int -> dir:string -> unit -> t

val dir : t -> string
val generation : t -> int

(** Records recovered at [open_] (image and appends alike). *)
val replayed_records : t -> int

(** Torn tails found at [open_]: 0 or 1. *)
val torn_recoveries : t -> int

(** Bytes appended to the generation after its image.  Nothing on disk
    marks where an image ends, so after [open_] the whole recovered
    file counts: a restart can bring a compaction forward, never defer
    one.  0 right after {!compact}. *)
val journal_bytes : t -> int

(** True once a torn write wedged the journal (appends are dropped and
    compaction refuses to run — the store is simulating a crashed
    writer). *)
val wedged : t -> bool

(** [replay t f] delivers the records recovered at [open_], file order
    (the image first, then the appends — later records overwrite earlier
    ones on replay into a cache), then drops the in-memory copy.
    Returns the count.  Second call: 0. *)
val replay : t -> (key:string -> value:string -> unit) -> int

(** [append t ~key ~value] journals one record, honoring the sync
    policy; returns [false] when dropped (wedged journal) or torn.
    [~torn:true] injects a deterministic torn write (see
    {!Journal.append}). *)
val append : ?torn:bool -> t -> key:string -> value:string -> bool

(** True when {!journal_bytes} has outgrown [compact_bytes] (and the
    store is not wedged). *)
val should_compact : t -> bool

(** [compact t ~entries] rolls the generation forward with [entries] as
    the new generation's image (callers pass the live cache, LRU-first
    so replay reconstructs recency).  Returns the image size in
    records; 0 on a wedged store (nothing is changed). *)
val compact : t -> entries:(string * string) list -> int

(** The store's metric registry ([ssg_store_*]), for splicing into a
    larger exposition. *)
val metrics : t -> Ssg_obs.Metrics.t

(** Sync and close the journal.  Idempotent; later appends are
    dropped. *)
val close : t -> unit
