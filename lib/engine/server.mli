(** The [ssgd] daemon: {!Engine} served over a Unix-domain or TCP
    socket ({!Ssg_net.Transport} addresses — [unix:PATH], [tcp:HOST:PORT],
    or a bare path).

    The connection layer is shared with the cluster router:
    {!Ssg_net.Listener} accepts (one lightweight [Thread] per client
    connection — the handlers only do blocking I/O and waiting, the
    simulation work runs on the engine's worker {e domains}) and
    {!Conn} runs the framed-request loop on each connection: id-framed
    pipelining with up to [max_inflight] requests in flight per
    connection.  The connection's reader writes every answer that
    needs no waiting itself: cache hits ({!Engine.cached}), stats,
    metrics and trace pulls.  Replier threads exist only for misses
    (their normalization, lint gate, enqueue and wait) and for the
    control ops that wait or write: [Export], [Transfer] and
    [Compact].

    {b Jobs as sent.}  A job arrives as {!Job.as_sent} built it, its
    run text unparsed.  The reader looks its key up as sent, so a hit
    costs no parse; a miss goes to {!Engine.submit} as it came, on its
    replier thread, and the engine normalizes it once.  Every job the
    lint front door refuses — a run text that does not parse included,
    with its [SSG000] diagnostic — is answered with the [Error] that
    {!Engine.await} returns, starting [job rejected by lint:], to its
    submitter and to every twin that joined it; the connection keeps
    serving.
    The worker adds its own answers to each request, the fault plan on
    reply writes, the [server.reply_write] span, and the {!Telemetry}
    counters for rejected frames, reaped connections and refusals at
    the connection cap.

    {b Supervision.}  A malformed frame or job ([k < 1],
    [rounds < 0]), an oversized header, a
    peer dying mid-frame, a reply write failing with
    [EPIPE]/[ECONNRESET] because the client vanished between request
    and reply, or any exception escaping dispatch is answered with an
    [Error] reply where the wire still allows one, counted in
    {!Telemetry}, and the descriptor is {e always} closed — a hostile
    client can cost the server one thread for one exchange, never a
    leaked fd or a hung peer.  Half-open clients are reaped by a
    per-connection read timeout ([SO_RCVTIMEO]); connections beyond
    [max_connections] are refused with an explanatory [Error].

    Shutdown is cooperative: a [Shutdown] request answers
    [Shutting_down] and stops the accept loop; idle connections are
    closed at once, requests already read finish (bounded by
    [drain_timeout_s]), the engine's queue drains, and the socket file
    is removed.  A stale Unix socket file from a dead server is
    replaced on startup. *)

(** [serve ~socket ()] binds, prints nothing, logs on [ssg.server], and
    {b blocks} until a client sends [Shutdown].  Engine sizing options
    are {!Engine.create}'s.
    - [socket]: a {!Ssg_net.Transport} address string ([unix:PATH],
      [tcp:HOST:PORT], or a bare Unix-socket path).
    - [max_connections] (default 256): concurrent connections beyond
      this are answered [Error "server at connection limit"] and closed.
    - [max_inflight] (default 32): pipelined requests running
      concurrently per connection before the reader applies
      back-pressure.
    - [read_timeout_s] (default 30., [<= 0.] disables): a connection
      idle, stalled mid-frame, or not reading its replies for this
      long is reaped.
    - [drain_timeout_s] (default 5.): how long shutdown waits for
      requests already read to be answered before abandoning their
      connections; idle connections close at once.
    - [faults] (default {!Faults.off}): chaos mode — the plan is
      consulted before each job execution and each reply frame.
    - [trace] (default [false]): resets and enables the process-wide
      {!Ssg_obs.Tracer} before serving, so engine phases and reply
      writes are recorded; clients pull the buffers with the
      [Trace_pull] request ([ssg trace --fleet]).
    - [persist]: a directory for the durable result store
      ({!Ssg_store.Store}) — opened only once the socket is bound (a
      server that cannot bind never touches it), the cache is
      pre-warmed from it before the first connection is accepted (warm
      boot), and every fresh outcome is journaled; [persist_sync]
      (default group commit of 8) and [persist_compact_bytes] (default
      4 MiB) are the store's policy knobs.  Without [persist] the
      server is exactly as before: in-memory only.
    - [announce]: a router address ([ssg route]'s socket) to send a
      [Join] carrying this server's canonical bound address once it is
      listening (on a background thread, with connect backoff — the
      router may still be starting), and a best-effort [Leave] at
      shutdown.  This replaces pre-listing the worker in the router's
      [-b] flags; the router admits it, rebuilds the ring, and streams
      hot keys for the ranges it now owns (warm handoff).
    @raise Unix.Unix_error if the address is unusable (e.g. a live
    server already listening).
    @raise Invalid_argument if the address string does not parse, or
    [max_connections < 1], or [max_inflight < 1]. *)
val serve :
  ?workers:int ->
  ?queue_capacity:int ->
  ?cache_capacity:int ->
  ?max_connections:int ->
  ?max_inflight:int ->
  ?read_timeout_s:float ->
  ?drain_timeout_s:float ->
  ?faults:Faults.t ->
  ?trace:bool ->
  ?persist:string ->
  ?persist_sync:Ssg_store.Store.sync_policy ->
  ?persist_compact_bytes:int ->
  ?announce:string ->
  socket:string ->
  unit ->
  unit
