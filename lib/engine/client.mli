(** Client side of the [ssgd] wire protocol.

    One value per connection; each call is one request/reply exchange
    (the protocol is a strict pipeline per connection, so a [t] must not
    be shared between threads without external serialization — open one
    connection per thread instead, which is also what exercises the
    server's concurrency). *)

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

    [deadline_s] arms a per-reply deadline ([SO_RCVTIMEO]): an rpc whose
    reply does not arrive in time raises [Failure] instead of blocking
    forever on a wedged or malicious server.  Default: no deadline.
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

(** [dial ~who sockets] — the connect-with-backoff behind {!connect},
    {!connect_any} and {!Pclient.connect}: the same passes, jitter and
    transient-error set, returning the bare descriptor with
    [deadline_s] armed.  [who] prefixes the [Invalid_argument]
    messages. *)
val dial :
  who:string ->
  ?retries:int ->
  ?retry_backoff_s:float ->
  ?deadline_s:float ->
  string list ->
  Unix.file_descr

val close : t -> unit

(** [rpc ?ctx c request] — one raw request/reply exchange, no
    reply-shape checking: what the cluster router uses to forward a
    client's request verbatim and relay whatever the backend answered.
    [ctx], when given, travels in the additive context envelope
    ({!Ssg_net.Frame.with_ctx}) so the server's spans for this request
    adopt it as their remote parent; omit it and the wire bytes are
    exactly the pre-context protocol.
    @raise Failure on an exceeded deadline or an undecodable reply,
    [End_of_file] / [Unix.Unix_error] when the peer dies mid-exchange. *)
val rpc : ?ctx:Ssg_obs.Context.t -> t -> Protocol.request -> Protocol.reply

(** [submit ?ctx c job] — the job's completion (cache-hit flag, latency,
    and the outcome or the execution error).
    @raise Failure on a protocol-level [Error] reply, a corrupt or
    truncated reply frame, an exceeded deadline, or an unexpected reply
    kind. *)
val submit : ?ctx:Ssg_obs.Context.t -> t -> Job.t -> Job.completion

(** [submit_batch c jobs] — completions in submission order. *)
val submit_batch : t -> Job.t list -> Job.completion list

val stats : t -> Telemetry.snapshot

(** [trace c] — drain the server's trace buffers (empty unless the
    daemon runs with tracing enabled, e.g. [ssgd --trace]). *)
val trace : t -> Ssg_obs.Tracer.event list

(** [trace_pull c] — the fleet pull: one {!Ssg_obs.Tracer.report} per
    process reached (a worker answers with its own; a router relays the
    pull to every backend and prepends itself).  A pre-[Trace_pull]
    server answers with a protocol [Error], surfacing here as
    [Failure] — callers that want graceful degradation catch it and
    fall back to {!trace}. *)
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

(** [transfer c entries] seeds entries into the peer worker's cache;
    returns the count imported. *)
val transfer : t -> (string * string) list -> int

(** [compact c] rolls the peer's store generation (snapshot + journal
    truncate); a router fans it out and answers with the sum.  0 when
    no store is attached. *)
val compact : t -> int
