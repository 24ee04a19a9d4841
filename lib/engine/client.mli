(** Client side of the [ssgd] wire protocol: one pipelined connection.

    A [t] is one {!Ssg_net.Mux} connection.  Any number of threads may
    share it and have requests in flight on it at once: each request
    travels in the id envelope ({!Ssg_net.Frame.with_id}) and its reply
    correlates back by id, in whatever order the server finishes them,
    so a slow job does not delay a fast one sent after it.  The one
    exchange comes in three forms:
    - {b blocking}: {!submit}, {!stats} and the other named calls wait
      for their reply and raise [Failure] on anything else;
    - {b ticket}: {!submit_async} sends now and {!await} waits later,
      with failures as [Error reason] — a load generator counts them
      without exception plumbing;
    - {b callback}: {!request} hands the reply, or why the exchange
      failed, to a function on the connection's reader thread — how the
      cluster router completes a forwarded job with no thread waiting
      on it.

    {b Failures.}  [deadline_s] bounds each request: one left
    unanswered that long fails on its own, and the connection fails
    only once it has gone quiet for a whole deadline with requests
    outstanding ({!Ssg_net.Mux}).  A server that turns the connection
    away (at its connection limit) answers with an [Error] outside the
    id envelope, which has no request to answer: it fails the
    connection with reason [server error: <msg>].  A failed connection
    fails every request in flight on it and every later one. *)

type t

(** [connect ~socket ()] — [socket] is a {!Ssg_net.Transport} address
    string ([unix:PATH], [tcp:HOST:PORT], or a bare Unix-socket path) —
    with bounded exponential-backoff retry:
    [retries] (default 3) extra attempts, with {e full jitter} — each
    retry sleeps a uniform draw from (0, backoff] where backoff starts
    at [retry_backoff_s] (default 0.05 s) and doubles — retried only on
    transient errors ([ECONNREFUSED], [ENOENT], [EAGAIN], [EINTR]).
    The jitter de-correlates the reconnect times of clients that all
    lost the same server at once, so a restarted worker is not greeted
    by a thundering herd.

    [deadline_s] bounds each request (see above).  Default: no
    deadline.
    @raise Unix.Unix_error when nothing is listening on [socket] after
    all retries.
    @raise Invalid_argument if [socket] does not parse as an address,
    [retries < 0], or [deadline_s <= 0]. *)
val connect :
  ?retries:int ->
  ?retry_backoff_s:float ->
  ?deadline_s:float ->
  socket:string ->
  unit ->
  t

(** [connect_any ~sockets ()] — multi-address failover: one pass tries
    every address in order, and up to [retries] further passes follow,
    separated by the same jittered doubling backoff as {!connect}.  The
    first address that accepts wins, so listing a cluster's router
    first and its workers after it degrades gracefully when the router
    is down.
    @raise Unix.Unix_error (the last attempt's) when no address
    accepted, [Invalid_argument] on an empty list or bad parameters. *)
val connect_any :
  ?retries:int ->
  ?retry_backoff_s:float ->
  ?deadline_s:float ->
  sockets:string list ->
  unit ->
  t

(** [close c] fails whatever is still in flight and closes the
    connection.  Idempotent. *)
val close : t -> unit

(** [alive c] — false once the connection has failed or was closed. *)
val alive : t -> bool

(** [inflight c] — requests sent and not yet answered. *)
val inflight : t -> int

(** {1 Callback form} *)

(** [request ?ctx c req k] sends [req]; [k] is called exactly once,
    with [Ok reply] — a server's [Error] reply included — or with
    [Error reason] when the exchange failed: the connection was already
    dead or failed meanwhile, the request outlived its deadline, or the
    reply did not decode.  [k] runs on the connection's reader thread,
    or on this one when the request could not be sent, so it must not
    block for long.  [ctx], when given, travels in the context envelope
    ({!Ssg_net.Frame.with_ctx}) inside the id envelope, so the server's
    spans for this request adopt it as their remote parent. *)
val request :
  ?ctx:Ssg_obs.Context.t ->
  t ->
  Protocol.request ->
  ((Protocol.reply, string) result -> unit) ->
  unit

(** {1 Ticket form} *)

type ticket

(** [submit_async ?ctx c job] — send, do not wait. *)
val submit_async : ?ctx:Ssg_obs.Context.t -> t -> Job.t -> ticket

(** [await ticket] blocks until the reply correlates back: the job's
    completion, or [Error msg] — the server's [Error] message (a lint
    rejection, whose diagnostics ride in it) or why the exchange
    failed.  Repeated awaits return the same result. *)
val await : ticket -> (Job.completion, string) result

(** {1 Blocking form}

    Each call sends one request and waits for its reply.
    @raise Failure with [server error: <msg>] on the server's [Error]
    reply, and with the reason on a failed exchange (a dead connection,
    an exceeded deadline, a corrupt or truncated reply) or an
    unexpected reply kind. *)

(** [submit ?ctx c job] — the job's completion (cache-hit flag, latency,
    and the outcome or the execution error); [ctx] as for {!request}. *)
val submit : ?ctx:Ssg_obs.Context.t -> t -> Job.t -> Job.completion

val stats : t -> Telemetry.snapshot

(** [trace_pull c] — the trace pull: one {!Ssg_obs.Tracer.report} per
    process reached (a worker answers with its own; a router relays the
    pull to every backend and prepends itself).  Each report's events
    are empty unless that process runs with tracing enabled
    ([ssg serve --trace]). *)
val trace_pull : t -> Ssg_obs.Tracer.report list

(** [metrics_text c] — the server's stats as Prometheus text
    exposition, rendered server-side. *)
val metrics_text : t -> string

(** [shutdown c] asks the server to drain and exit; returns once the
    server acknowledged. *)
val shutdown : t -> unit

(** Elastic membership and warm handoff (router-facing unless noted). *)

(** [join c addr] announces [addr] as a new cluster member to the
    router behind [c]; returns once it is admitted (and any warm
    handoff toward it has run). *)
val join : t -> string -> unit

(** [leave c addr] retires member [addr]; the router pulls its hot
    keys first. *)
val leave : t -> string -> unit

(** [export c n] — up to [n] of the peer worker's hottest cache
    entries, most-recently-used first. *)
val export : t -> int -> (string * string) list

(** [compact c] rolls the peer's store generation (the live cache
    becomes the next journal's first records); a router fans it out and
    answers with the sum.  0 when no store is attached. *)
val compact : t -> int
