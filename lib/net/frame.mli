(** Length-prefixed frames and the request-id envelope.

    The wire unit everywhere is a {e frame}: a 4-byte big-endian payload
    length, then the payload.  This module adds the {e multiplexing
    envelope} on top: a payload whose first byte is {!id_magic} carries
    an 8-byte big-endian request id before the inner payload, and a
    connection may answer its requests {b out of order} — each reply
    repeats the id of the request it answers.

    The magic byte is not the first byte of any protocol payload
    (request and reply tags are distinct constants), so a reader tells
    an enveloped payload from a bare one by that byte alone.  Every
    request travels in the envelope; the one bare payload on the wire
    is an [Error] reply that has no id to repeat. *)

(** Frames larger than this (16 MiB) are refused by both sides. *)
val max_frame_bytes : int

(** First byte of an id-framed payload. *)
val id_magic : char

(** [with_id ~id payload] wraps [payload] in the envelope.
    @raise Invalid_argument if [id < 0]. *)
val with_id : id:int -> Bytes.t -> Bytes.t

type classified =
  | Plain of Bytes.t  (** not id-framed: the payload itself *)
  | Id of int * Bytes.t  (** id-framed: request id and inner payload *)

(** [classify payload] — {!Id} when the payload starts with {!id_magic}
    (and is long enough to carry the id), {!Plain} otherwise.
    @raise Failure on a payload that starts with the magic byte but is
    too short to carry an id — a truncated envelope, not a plain
    payload. *)
val classify : Bytes.t -> classified

(** {1 Trace-context envelope}

    One layer further in, and optional: a payload whose first byte is
    {!ctx_magic} carries a fixed {!ctx_len}-byte trace context
    ({!Ssg_obs.Context.to_wire}) before the inner payload; a request
    sent without a context starts with its own tag.  The id envelope is
    outermost ([with_id ~id (with_ctx ~ctx p)]) so reply correlation
    never depends on the context.  Replies never carry a context.  The
    blob is opaque to this module — [ssg_net] does not depend on the
    tracer. *)

(** First byte of a context-framed payload. *)
val ctx_magic : char

(** Byte length of the context blob (24). *)
val ctx_len : int

(** [with_ctx ~ctx payload] wraps [payload] in the context envelope.
    @raise Invalid_argument unless [String.length ctx = ctx_len]. *)
val with_ctx : ctx:string -> Bytes.t -> Bytes.t

(** [split_ctx payload] — [(Some ctx, inner)] when the payload starts
    with {!ctx_magic}, [(None, payload)] otherwise.
    @raise Failure on a payload that starts with the magic byte but is
    too short to carry the context. *)
val split_ctx : Bytes.t -> string option * Bytes.t

(** Descriptor framing, shared by every transport (Unix or TCP).
    Readers
    @raise End_of_file on a peer closed at a frame boundary,
    @raise Failure on oversized frames or a peer dying mid-frame,
    @raise Unix.Unix_error as the syscalls do (notably
    [EAGAIN]/[EWOULDBLOCK] when [SO_RCVTIMEO] fires). *)

val read_fd : Unix.file_descr -> Bytes.t

val write_fd : Unix.file_descr -> Bytes.t -> unit
