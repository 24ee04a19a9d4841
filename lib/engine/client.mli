(** Client side of the [ssgd] wire protocol, one exchange at a time.

    One value per connection; each call sends one request in the id
    envelope ({!Ssg_net.Frame.with_id}) and waits for the reply carrying
    its id.  A [t] must not be shared between threads without external
    serialization — open one connection per thread, or pipeline many
    requests on one connection with {!Pclient}. *)

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

(** [submit ?ctx c job] — the job's completion (cache-hit flag, latency,
    and the outcome or the execution error).  [ctx], when given,
    travels in the context envelope ({!Ssg_net.Frame.with_ctx}) inside
    the id envelope, so the server's spans for this request adopt it as
    their remote parent.
    @raise Failure on a protocol-level [Error] reply, a corrupt or
    truncated reply frame, an exceeded deadline, a reply under another
    request's id, or an unexpected reply kind; [End_of_file] /
    [Unix.Unix_error] when the peer dies mid-exchange. *)
val submit : ?ctx:Ssg_obs.Context.t -> t -> Job.t -> Job.completion

(** [submit_batch c jobs] — completions in submission order. *)
val submit_batch : t -> Job.t list -> Job.completion list

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

(** [compact c] rolls the peer's store generation (snapshot + journal
    truncate); a router fans it out and answers with the sum.  0 when
    no store is attached. *)
val compact : t -> int
