(** Synthetic load against a native-protocol endpoint: [ssg loadgen].

    Drives [connections] concurrent connections (10k+ works — each
    driver {e thread} owns a slice of the connections, so descriptor
    count, not thread count, is the scaling limit) against a worker or
    router address, measures per-request latency, and grades the run
    against SLO specs like [p99<250ms].

    Every connection is served on its own: it keeps its own table of
    pending requests, and no connection waits on another's reply.  Two
    arrival models, both per connection:
    - {e closed-loop} (default): each connection keeps [pipeline]
      requests in flight, sending the next as each reply arrives, and
      times each request from its send.  Throughput is whatever the
      service sustains.
    - {e open-loop} ([rate] > 0): the schedule interleaves the
      connections — connection [g] of [connections] sends first at
      [g / rate] and then every [connections / rate] seconds, whatever
      it still has pending, so the aggregate is [rate] requests a
      second however the connections are spread over threads.  Latency
      is measured from the {e scheduled} send time — queueing delay
      from a service that cannot keep up counts against it (no
      coordinated omission).  The schedule starts once a thread's
      connections are dialed; a dead connection re-dials at its next
      slot.

    Replies are timed as they arrive: a driver thread waits in
    [Unix.select] for the first reply, deadline or due send of any of
    its connections.  [Unix.select] cannot watch a descriptor past
    FD_SETSIZE (1024); a thread holding one reads its waiting
    connections in turn instead, so there a slow reply holds up the
    thread's other connections.

    Deadline: a connection with requests pending that has heard
    nothing for [deadline_s] — counted from its last reply or its
    oldest pending send — loses those requests as errors and is
    re-dialed (in the closed loop after a 0.1 s pause).  The run stops
    sending at [duration_s] and then waits for every pending reply,
    under the same deadline.

    Each connection gets one dial before the schedule starts; one that
    fails is re-dialed like a dead one, and one that never connects
    during the run counts one error.

    The job mix is [cached:uncached:lint-error] weights.  Cached jobs
    repeat one key (the server's LRU hit path), uncached jobs get a
    fresh key each (full simulation), lint-error jobs are {e expected}
    to be rejected by the server's lint front door — a rejection reply
    to one counts as [rejected], not as an error; {e any} other
    deviation (connect failure, deadline, unexpected reply, transport
    death) is a client-visible [error]. *)

type mix = { cached : int; uncached : int; lint_error : int }

(** One SLO gate: [quantile] in (0,1), [limit_ms] the bound. *)
type slo = { quantile : float; limit_ms : float; spec : string }

(** [slo_of_string "p99<250ms"] — also [p50], [p95], any [pNN] /
    [pNN.N]; the unit suffix [ms] is required. *)
val slo_of_string : string -> (slo, string) result

type report = {
  connections : int;
  sent : int;
  completed : int;  (** replies with the expected shape, lint included *)
  rejected : int;  (** expected lint rejections *)
  errors : int;  (** client-visible failures of any kind *)
  duration_s : float;
  throughput_rps : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  slo_violations : string list;  (** empty iff every SLO held *)
  slow_traces : (float * string) list;
      (** the [trace_top] slowest requests as [(latency_ms, trace id
          hex)], slowest first; empty unless trace sampling was on *)
}

(** [run ~connections ~duration_s ~target ()] — drive load, block until
    done, report.

    - [threads] (default [min connections 8]): driver threads; each
      owns [connections / threads] connections.
    - [pipeline] (default 1): in-flight requests per connection
      (closed-loop only).
    - [rate] (default 0. = closed-loop): open-loop aggregate
      requests/second across all connections.
    - [mix] (default [{cached = 8; uncached = 1; lint_error = 1}]).
    - [deadline_s] (default 30): how long a connection with requests
      pending may go without a reply; then they are errors and the
      connection is re-dialed.
    - [slos] (default none): gates evaluated into [slo_violations].
    - [trace_top] (default 0 = off): originate a root trace context on
      {e every} request (carried in the frame context envelope, so a
      tracing fleet records each request's spans under it) and report
      the trace ids of the [trace_top] slowest — the ids to grep for
      in a stitched fleet trace when chasing a latency tail.
    @raise Invalid_argument on nonsensical parameters. *)
val run :
  ?threads:int ->
  ?pipeline:int ->
  ?rate:float ->
  ?mix:mix ->
  ?deadline_s:float ->
  ?slos:slo list ->
  ?trace_top:int ->
  connections:int ->
  duration_s:float ->
  target:string ->
  unit ->
  report

(** [to_json r] — the report as a compact JSON object (what the bench
    baseline and CI artifacts store); a percentile with no samples
    behind it ([nan]) is [null]. *)
val to_json : report -> string

(** [pp] — a human-readable multi-line rendering. *)
val pp : Format.formatter -> report -> unit
