(** The on-disk framing of one [(key, value)] store record — the unit
    a journal file, compaction image and appends alike, is a
    concatenation of.

    Layout (all integers 4-byte big-endian):
    {v
    +----------+----------+---------+-----+---------+-------+
    | body_len |  crc32   | key_len | key | val_len | value |
    +----------+----------+---------+-----+---------+-------+
         4          4          4      ...      4       ...
    v}
    [body_len] counts everything after the crc field; [crc32] is
    {!Crc32.digest} of exactly those bytes.  No escaping, no
    delimiters: framing is exact under any partial write, which is what
    makes the longest-valid-prefix recovery of a torn tail well
    defined.

    {b Decoder contract.}  {!unframe} and {!scan} raise [Failure] — and
    {e only} [Failure] — on malformed input, matching the
    [Ssg_engine.Protocol] decoder contract; the one-byte-mutation fuzz
    property asserts that every single-byte corruption of a framed
    record is rejected (the CRC guarantees it). *)

(** Hard cap on one record's body ([16 MiB]); both the encoder and the
    decoder refuse larger records rather than attempting unbounded
    allocation on a garbage length field. *)
val max_record_bytes : int

(** [frame ~key ~value] — the complete on-disk encoding.
    @raise Failure if the record would exceed {!max_record_bytes}. *)
val frame : key:string -> value:string -> string

(** [unframe s] decodes exactly one record occupying all of [s].
    @raise Failure on anything else: short input, a length field that
    disagrees with [String.length s], a CRC mismatch, or body fields
    that do not tile the body exactly. *)
val unframe : string -> string * string

(** The result of walking a file image record by record:
    [records] valid records were delivered, occupying the first
    [valid_bytes] bytes; [torn] means the walk stopped at a partial or
    corrupt record before the end of the image (the torn tail starts at
    offset [valid_bytes]). *)
type recovery = { records : int; valid_bytes : int; torn : bool }

(** [scan contents ~f] delivers every leading valid record to [f] in
    file order and reports how far it got.  Never raises on malformed
    input — corruption ends the walk instead (longest valid prefix). *)
val scan : string -> f:(key:string -> value:string -> unit) -> recovery
