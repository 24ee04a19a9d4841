(** Pipelined connection multiplexing, client side, over opaque payloads.

    One {!t} owns one connection and lets {e many} requests be in flight
    at once: {!send} assigns a fresh request id, wraps the payload in the
    {!Frame} envelope and returns a ticket; a single background reader
    thread correlates every id-framed reply back to its request, so
    replies may arrive in {b any order} — a slow request does not
    head-of-line-block a fast one sent after it.  {!send_cb} is the
    callback form: instead of a ticket, the reader hands the reply to a
    function.

    Values of this type are thread-safe: any number of threads may
    send and {!await} concurrently (the write path is serialized by a
    mutex, the correlation table by another).

    {b Deadline.}  With [deadline_s], every request must be answered
    within that long of being sent.  The first request to outlive it
    fails the whole connection, busy or silent: a reply that never
    comes (a blackholed peer) must not hang its caller, and on a
    connection still answering other requests no receive timeout would
    ever fire.  A request is found overdue at most half a deadline late.

    Failure semantics: when the connection dies — peer closed, frame
    error, a request past its deadline, or {!close} — every outstanding
    request resolves to [Error reason] rather than blocking forever,
    and every later send raises. *)

type t

type ticket

(** [create ?deadline_s fd] takes ownership of [fd] and starts the
    reader.  [deadline_s] bounds each request (see above; default:
    none); it arms [fd]'s receive timeout as the reader's tick.
    @raise Invalid_argument if [deadline_s <= 0]. *)
val create : ?deadline_s:float -> Unix.file_descr -> t

(** [send ?ctx t payload] — write one id-framed request.  [ctx], when
    given, is a {!Frame.ctx_len}-byte trace context carried in the
    context envelope inside the id envelope (replies never carry one).
    @raise Failure when the connection is already dead or closed. *)
val send : ?ctx:string -> t -> Bytes.t -> ticket

(** [send_cb ?ctx t payload k] — {!send}, with [k] in place of the
    ticket: [k] is called exactly once, with the reply or with the
    connection's failure.  It runs on the reader's thread, or on the
    thread whose write or {!close} failed the connection, so it must
    not block for long: the reader correlates nothing else meanwhile.
    It may call {!close}, also on this connection.  An exception it
    raises is logged and dropped.
    @raise Failure when the connection is already dead or closed; [k]
    is then never called. *)
val send_cb :
  ?ctx:string -> t -> Bytes.t -> ((Bytes.t, string) result -> unit) -> unit

(** [await ticket] blocks until the reply correlates back (or the
    connection dies); repeated awaits return the same result. *)
val await : ticket -> (Bytes.t, string) result

(** [call ?ctx t payload] = [await (send ?ctx t payload)]. *)
val call : ?ctx:string -> t -> Bytes.t -> (Bytes.t, string) result

(** [inflight t] — requests sent and not yet answered. *)
val inflight : t -> int

(** [alive t] — false once the connection has failed or was closed. *)
val alive : t -> bool

(** [close t] fails whatever is still outstanding and shuts the socket
    down; the descriptor is closed once the reader has let go of it
    too.  Never waits for the reader, so it may be called from any
    thread, including a {!send_cb} callback.  Idempotent. *)
val close : t -> unit
