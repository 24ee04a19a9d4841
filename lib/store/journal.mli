(** The append-only result log: one {!Record}-framed [(key, value)] per
    completed job, written by exactly one process (the owning worker).
    A store generation is one such file: its {!write_image} (the live
    cache at the compaction that opened it, empty for generation 0)
    followed by the appends since.

    Appends go straight to the descriptor with [O_APPEND]; durability
    is governed by [fsync_every] — the group-commit knob:
    - [1] — fsync after every record (safest, slowest);
    - [n > 1] — group commit: fsync once per [n] records;
    - [0] — never fsync (the OS decides; a host crash may lose the
      page-cache tail, which replay then recovers as a torn tail).

    {b Torn writes.}  [append ~torn:true] deliberately writes only a
    prefix of the framed record and {e wedges} the journal — every
    later append is silently dropped — simulating a process killed
    mid-write at a deterministic point.  Replay of the resulting file
    exercises the longest-valid-prefix recovery for real. *)

type t

(** [open_append ~fsync_every path] opens (creating if missing) for
    append-only writes.
    @raise Invalid_argument if [fsync_every < 0].
    @raise Unix.Unix_error if the path is unusable. *)
val open_append : fsync_every:int -> string -> t

(** Current file size in bytes (including any torn tail written through
    this handle). *)
val bytes : t -> int

(** fsync calls issued so far through this handle. *)
val fsyncs : t -> int

(** True once a torn write wedged the handle; later appends are
    dropped. *)
val wedged : t -> bool

(** [append t ~key ~value] writes one framed record; returns [false]
    when the record was dropped (wedged handle) or deliberately torn.
    [~torn:true] writes half the record, fsyncs, and wedges the
    handle. *)
val append : ?torn:bool -> t -> key:string -> value:string -> bool

(** Sync (unless wedged) and close.  Idempotent. *)
val close : t -> unit

(** [recover path ~f] replays the log at [path]: every leading valid
    record is delivered to [f] in file order; a torn tail ends the walk
    and is cut off the file, so the next boot sees a clean log.  A
    missing file is an empty log, not an error. *)
val recover :
  string -> f:(key:string -> value:string -> unit) -> Record.recovery

(** [write_image path entries] writes [entries], in list order, as the
    whole content of [path]: to [path ^ ".tmp"], fsynced, then renamed
    over [path].  The rename is the only step that changes [path], so a
    crash leaves [path] absent or complete, and at worst a partial temp
    file beside it; {!open_append} then continues the file.
    @raise Unix.Unix_error if the directory is unusable. *)
val write_image : string -> (string * string) list -> unit
