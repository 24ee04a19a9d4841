(** The HTTP/JSON front door: [ssg gateway].

    A thin HTTP/1.1 facade over the native wire protocol, for clients
    that speak curl rather than {!Ssg_engine.Protocol}.  All backend
    traffic is multiplexed over {e one} pipelined connection
    ({!Ssg_engine.Client}): N concurrent HTTP requests become N
    in-flight id-framed requests, so a slow submission does not
    head-of-line-block a stats scrape.  The backend connection is
    re-dialed lazily after it fails — a worker restart costs the
    requests in flight, not the gateway.

    Routes:
    - [POST /submit?k=K&algorithm=A&rounds=R&monitor=B] with the run
      description ([ssg-run v1] text) as the body.  Replies JSON:
      [200] with the completion (outcome, cached flag, latency),
      [400] on malformed parameters or run text, [422] when the job
      was rejected (lint) or failed executing, [502] when the backend
      could not be reached.  A [422]'s line numbers and excerpts refer
      to the canonical text the gateway forwards, not to the body as
      sent: that text adds a [# loaded] line after the header, drops
      comments and blank lines, and sorts edges.  So POSTing
      [ssg-run v1\nn 6\nstable: 0>1 1>2 2>0 3>4 4>5 5>3\n] with
      [k=1] answers [line 4: error SSG001], where [ssg lint -k 1] on
      the same file says line 3.
    - [GET /stats] — the backend's merged telemetry snapshot as JSON.
    - [GET /metrics] — Prometheus text: the gateway's own series
      ([ssg_gateway_*], including the [ssg_hop_gateway_router_ms]
      round-trip histogram) followed by the backend's exposition.
    - [GET /trace] — the stitched fleet trace: the gateway's own
      tracer report ahead of every report a [Trace_pull] through the
      backend returns (a router relays it to every worker), as one
      Chrome document ({!Ssg_obs.Stitch.chrome_of_reports}); [502]
      when the backend pull fails.
    - [GET /healthz] — liveness (does not touch the backend).
    - [POST /shutdown] — stops the {e gateway} (never the backend).

    {b Validation memo.}  Validating a request
    ({!Ssg_engine.Job.of_run_text}: parse the body, write the canonical
    job) is a pure function of the request, so the gateway does it once
    per distinct request.  A
    bounded {!Ssg_engine.Lru} maps each request's key as sent
    ({!Ssg_engine.Job.key} of {!Ssg_engine.Job.as_sent} of the body
    and the query parameters) to the canonical job its first
    validation built.  A repeated request is forwarded with that job
    and parses nothing; [ssg_gateway_validation_hits_total] counts
    these.  The key writes every parameter and then the body byte for
    byte, so equal keys are the same request, and the same text under
    another [k], [algorithm], [rounds] or [monitor] is another entry.
    Only a job that normalized is stored: a [400] is worked out again
    on every request, and a request whose [k] or [rounds]
    [Job.as_sent] refuses skips the memo, so a body that does not
    parse still answers its parse error.  The forwarded job, every
    status and every body are what they would be without the memo.
    The bounds are constants: 1,024 entries, and bodies of at most
    4 KiB (a longer body is normalized on every request and never
    stored).  An entry holds its key (the body and a few dozen bytes of
    parameters) and the canonical text (at most the body, the
    [# loaded] line and a byte per line), so the memo stays under
    9 MiB.

    {b Tracing.}  With [trace], every request but [GET /trace] runs
    under a [gateway.request] span (a trace pull's own span would be
    open in the report it serves).  An incoming [traceparent] header makes
    that span a child of the caller's; otherwise the gateway
    originates the trace.  The span's context is forwarded to the
    backend in the frame context envelope (so router and worker spans
    nest under it) and echoed back in a [traceparent] response
    header.

    Connections are accepted and supervised by the same
    {!Ssg_net.Listener} as {!Ssg_engine.Server}: SIGPIPE is ignored, a
    client vanishing between request and reply ([EPIPE]/[ECONNRESET])
    or sending garbage costs that connection only, stalled connections
    are reaped by [read_timeout_s], and on shutdown idle keep-alive
    connections close at once while requests already read finish,
    bounded by [drain_timeout_s]. *)

(** [serve ~listen ~backend ()] binds the HTTP socket at [listen] (a
    {!Ssg_net.Transport} address string) fronting the native-protocol
    service at [backend], and {b blocks} until [POST /shutdown].  A
    request its backend leaves unanswered for 30 s is a 502 on its
    own; a backend link quiet that long fails every request in flight
    on it with 502s.

    - [max_connections] (default 1024), [read_timeout_s] (default 30),
      [drain_timeout_s] (default 5): front-socket guards, as in
      {!Ssg_engine.Server.serve}.
    - [trace] (default [false]): resets and enables the process-wide
      tracer; requests get [gateway.request] spans with propagated
      context, and [GET /trace] answers the stitched trace of the
      gateway and every process behind it.
    @raise Invalid_argument on malformed addresses or non-positive
    limits, [Unix.Unix_error] when [listen] cannot be bound. *)
val serve :
  ?max_connections:int ->
  ?read_timeout_s:float ->
  ?drain_timeout_s:float ->
  ?trace:bool ->
  listen:string ->
  backend:string ->
  unit ->
  unit
