(** Pipelined connection multiplexing, client side, over opaque payloads.

    One {!t} owns one connection and lets {e many} requests be in flight
    at once: {!send} assigns a fresh request id, wraps the payload in the
    {!Frame} envelope and returns a ticket; a single background reader
    thread correlates every id-framed reply back to its ticket, so
    replies may arrive in {b any order} — a slow request does not
    head-of-line-block a fast one sent after it.

    Values of this type are thread-safe: any number of threads may
    {!send} and {!await} concurrently (the write path is serialized by a
    mutex, the correlation table by another).

    Failure semantics: when the connection dies — peer closed, frame
    error, or the descriptor's receive timeout ([SO_RCVTIMEO]) elapsing
    with no reply arriving at all — every outstanding and future ticket
    resolves to [Error reason] rather than blocking forever. *)

type t

type ticket

(** [create fd] takes ownership of [fd] and starts the reader.  A
    receive timeout armed on [fd] beforehand ([SO_RCVTIMEO], as the
    engine's client dialer does) bounds the silence on the
    {e connection} (no frame at all for that long fails everything
    outstanding), not each request individually. *)
val create : Unix.file_descr -> t

(** [send ?ctx t payload] — write one id-framed request.  [ctx], when
    given, is a {!Frame.ctx_len}-byte trace context carried in the
    context envelope inside the id envelope (replies never carry one).
    @raise Failure when the connection is already dead or closed. *)
val send : ?ctx:string -> t -> Bytes.t -> ticket

(** [await ticket] blocks until the reply correlates back (or the
    connection dies); repeated awaits return the same result. *)
val await : ticket -> (Bytes.t, string) result

(** [call ?ctx t payload] = [await (send ?ctx t payload)]. *)
val call : ?ctx:string -> t -> Bytes.t -> (Bytes.t, string) result

(** [inflight t] — requests sent and not yet answered. *)
val inflight : t -> int

(** [alive t] — false once the connection has failed or was closed. *)
val alive : t -> bool

(** [close t] shuts the socket down, fails whatever is still
    outstanding, joins the reader and closes the descriptor.
    Idempotent. *)
val close : t -> unit
