(** Pipelined connection multiplexing, client side, over opaque payloads.

    One {!t} owns one connection and lets {e many} requests be in flight
    at once: {!send_cb} assigns a fresh request id, wraps the payload in
    the {!Frame} envelope and registers a completion; a single
    background reader thread correlates every id-framed reply back to
    its request, so replies may arrive in {b any order} — a slow request
    does not head-of-line-block a fast one sent after it.  A blocking
    caller waits on a cell its completion fills.

    Values of this type are thread-safe: any number of threads may send
    concurrently (the write path is serialized by a mutex, the
    correlation table by another).

    {b Deadline.}  With [deadline_s], every request must be answered
    within that long of being sent.  A request past it resolves to
    [Error] on its own and its id is retired: a late reply to it is
    dropped, as a reply under any unknown id is.  The connection itself
    fails only when it has gone quiet — requests outstanding, and
    nothing sent or read for a whole deadline — so a mute peer never
    hangs a caller, while one request it swallows costs that request
    alone.  Before each wait the reader arms its receive timer to the
    sooner of half a deadline and the oldest outstanding request's
    deadline (at least 1 ms), so a request is found overdue about a
    millisecond late, whatever replies to other requests arrive
    meanwhile; a link whose requests are answered within half a
    deadline never re-arms it.

    Failure semantics: when the connection dies — peer closed, frame
    error, an id-less frame, silence past the deadline, or {!close} —
    every outstanding request resolves to [Error reason] rather than
    blocking forever, and every later send raises. *)

type t

(** [create ?deadline_s ~plain fd] takes ownership of [fd] and starts
    the reader.  [deadline_s] bounds each request (see above; default:
    none); it arms [fd]'s receive timeout as the reader's tick.
    [plain payload] is the failure reason for a reply that arrives
    outside the id envelope: it cannot be correlated, so it fails the
    connection.  It runs on the reader's thread and must not raise.
    @raise Invalid_argument if [deadline_s <= 0]. *)
val create :
  ?deadline_s:float -> plain:(Bytes.t -> string) -> Unix.file_descr -> t

(** [send_cb ?ctx t payload k] — write one id-framed request; [k] is
    called exactly once, with the reply or with the request's failure.
    [ctx], when given, is a {!Frame.ctx_len}-byte trace context carried
    in the context envelope inside the id envelope (replies never carry
    one).  [k] runs on the reader's thread, or on the thread whose write
    or {!close} failed the connection, so it must not block for long:
    the reader correlates nothing else meanwhile.  It may call {!close},
    also on this connection.  An exception it raises is logged and
    dropped.
    @raise Failure when the connection is already dead or closed; [k]
    is then never called. *)
val send_cb :
  ?ctx:string -> t -> Bytes.t -> ((Bytes.t, string) result -> unit) -> unit

(** [inflight t] — requests sent and not yet answered or expired. *)
val inflight : t -> int

(** [alive t] — false once the connection has failed or was closed. *)
val alive : t -> bool

(** [close t] fails whatever is still outstanding and shuts the socket
    down; the descriptor is closed once the reader has let go of it
    too.  Never waits for the reader, so it may be called from any
    thread, including a {!send_cb} callback.  Idempotent. *)
val close : t -> unit
