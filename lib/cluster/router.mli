(** The cluster front end: one socket speaking the unmodified
    {!Ssg_engine.Protocol}, fronting N independent [ssgd] workers.

    Placement: every [Submit] is routed to the {!Ring} owner of its
    job's cache key, so a given simulation always lands on the same
    worker and that worker's LRU cache and in-flight dedup keep their
    hit rates — the cluster behaves like one big cache sharded by key.
    The key is taken as sent and the job is forwarded unparsed: the
    owner normalizes it on a cache miss.  Every client in this
    repository sends canonical jobs; a client that sends a
    non-canonical spelling may reach another owner than the canonical
    job, which costs cache locality, never correctness.  N jobs are N
    [Submit]s, each routed on its own.

    Backend links: the router holds one pipelined {!Ssg_engine.Client}
    connection per backend, dialed on first use, and every exchange —
    jobs, health probes, fan-outs, handoff — goes over it.  A job is
    sent on the front connection's reader and completed from the
    backend link's reader callback ({!Ssg_engine.Client.request}), so a
    forwarded job costs no thread and no connection.  A link that fails
    is closed and redialed on its next use, never reused.  The
    {!Registry} prober's probe is a [Stats] on the link, healthy only
    if a snapshot comes back within 1 s.

    Failover: when the owner cannot serve — connect refused (a worker
    at its connection limit included), its link failed, the job
    outlived its deadline, undecodable reply — the job is retried on
    the next shard in ring order ({!Ring.successors}), the failure is
    reported to the {!Registry} (so [down_after] consecutive failures
    take the shard out of the ring until a probe or forward succeeds
    again), and the router's failover counter moves.  A job whose reply
    never comes fails over alone; when a link fails, every job in
    flight on it fails over.  A backend's {e protocol-level} [Error]
    reply (a lint
    rejection, say, including the one for a run text that does not
    parse) is relayed verbatim with no failover: it is the job's fault
    and would fail identically on every shard, and the link it came
    over keeps serving.

    Fan-out ops go to every backend at once, so a fan-out waits once
    for its slowest backend, not once per backend.  [Stats] queries
    every reachable backend and replies with the
    {!Ssg_engine.Telemetry.merge} of their snapshots;
    [Metrics] replies with the router's registry: routed / failed-over
    / markdown counters and per-shard series labeled by canonical
    backend address
    ([ssg_router_shard_routed_total{backend="unix:/tmp/w1.sock"}],
    [ssg_router_shard_up], [ssg_router_shard_reporting], the last two
    set from that scrape's [Stats] fan-out; current members only),
    followed by the merged snapshot of that fan-out as
    [ssg_cluster_<field>] gauges (none when no backend answered);
    [Trace_pull] answers with the router's own
    tracer report ([router.route] spans, [router.failover] instants)
    followed by every backend's;
    [Compact] is relayed to every up backend and answered with the sum
    of their snapshot sizes; [Shutdown] stops the router (never the
    workers).

    {b Elastic membership.}  Workers need not be pre-listed in
    [backends]: a worker started with [--announce ROUTER] sends [Join]
    with its canonical address; the router admits it into the
    {!Registry}, rebuilds the ring, and — before acknowledging — runs a
    {e warm handoff}: each existing member is asked to [Export] its
    hottest cache entries and those whose ring ranges moved to the
    joiner are streamed to it in bounded [Transfer] batches, so the
    newcomer starts serving hits, not misses.  [Leave] is the reverse:
    the leaver's hot entries are pulled while it is still reachable,
    it drops out of the ring {e and the probe rotation}, and the
    rescued entries are pushed to the ranges' new owners.  Handoff is
    best-effort by design — a failed transfer costs cache misses,
    never correctness.  Membership churn moves the
    [ssg_router_joins_total] / [ssg_router_leaves_total] /
    [ssg_router_handoff_keys_total] counters.

    Chaos contract (tested): with 3 workers and one being killed and
    healed mid-burst, a 200-job burst completes with zero
    client-visible errors and a positive failover count. *)

(** [serve ~backends ~socket ()] binds [socket], starts the
    {!Registry} prober over [backends], and blocks until a client
    sends [Shutdown].  The socket file is removed on exit.  An empty
    [backends] list starts a memberless router that waits for [Join]
    announcements.

    [socket] and every backend are {!Ssg_net.Transport} address strings
    ([unix:PATH], [tcp:HOST:PORT], or a bare path); the front socket
    runs the worker's connection layer ({!Ssg_net.Listener} and
    {!Ssg_engine.Conn}), so it speaks the same id-framed pipelining (up
    to [max_inflight] concurrent per connection) exactly like
    {!Ssg_engine.Server.serve}.

    - [vnodes], [down_after], [probe_interval_s] are handed to
      {!Registry.create};
    - [request_timeout_s] (default 30) bounds each forwarded request:
      a job left unanswered that long fails over on its own, and the
      jobs in flight beside it on the link stay there; the link itself
      fails only once it has gone quiet that long with requests
      outstanding ({!Ssg_net.Mux}).  So a mute (blackholed) backend
      turns into a failover, not a hang;
    - [max_connections], [max_inflight], [read_timeout_s],
      [drain_timeout_s] guard the front socket exactly like
      {!Ssg_engine.Server.serve};
    - [trace] enables the process tracer and resets it first.
    @raise Invalid_argument on a malformed address or non-positive
    limits, [Unix.Unix_error EADDRINUSE] when a live router already
    owns [socket]. *)
val serve :
  ?vnodes:int ->
  ?down_after:int ->
  ?probe_interval_s:float ->
  ?request_timeout_s:float ->
  ?max_connections:int ->
  ?max_inflight:int ->
  ?read_timeout_s:float ->
  ?drain_timeout_s:float ->
  ?trace:bool ->
  backends:string list ->
  socket:string ->
  unit ->
  unit
