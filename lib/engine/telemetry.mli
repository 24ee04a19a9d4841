(** Server metrics: counters, latency percentiles, throughput, fault
    accounting.

    One [t] per engine.  Workers and connection handlers record events
    concurrently; counters live on an {!Ssg_obs.Metrics} registry (one
    atomic each), the latency rings are internally synchronized, and
    [snapshot] freezes everything into the plain record the [stats] wire
    reply carries.

    An executed job's latency is kept as its two phases, in
    milliseconds: queue wait (submit until a worker picks the job up)
    and execution (worker pickup until the result is ready) — see
    [queue_wait_ms] and [exec_ms] below.  Each lives in a fixed-size
    ring of the most recent [window] samples; percentiles come from
    {!Ssg_util.Stats.summarize} over that window.  Completion {e times}
    are kept in one more ring of the same size, so throughput can be
    reported over a recent wall-clock window — a long-idle daemon
    reports the current burst's rate, not its lifetime average diluted
    by the idle time (the lifetime average is still carried
    separately).

    Each phase also feeds a bucketed registry histogram
    ([ssgd_job_queue_wait_ms], [ssgd_job_exec_ms]) for the Prometheus
    exposition, which wants cumulative buckets rather than
    percentiles. *)

type snapshot = {
  uptime_s : float;
  workers : int;
  queue_depth : int;
  queue_capacity : int;
  jobs_submitted : int;  (** requests accepted, including hits and joins *)
  jobs_completed : int;  (** jobs actually executed to a result *)
  jobs_failed : int;  (** executions that ended in an error reply *)
  jobs_rejected_lint : int;
      (** jobs refused at the engine front door because the lint pass
          found errors — never executed, never cached *)
  cache_hits : int;  (** served from the LRU result cache *)
  cache_misses : int;
  dedup_joins : int;
      (** submissions that joined an identical in-flight execution
          instead of hitting the cache or executing — counted apart from
          [cache_hits] so the LRU hit rate is honest *)
  cache_entries : int;
  throughput_jps : float;
      (** completions per second over the recent window (see
          [recent_window_s]); [0.] when the window saw none *)
  lifetime_jps : float;  (** completions per second since startup *)
  recent_window_s : float;  (** the window [throughput_jps] covers *)
  rejected_frames : int;
      (** wire frames refused: oversized, truncated, undecodable, or
          carrying a malformed job — each answered with an [Error] reply
          where the connection still allowed one *)
  timed_out_connections : int;
      (** connections reaped by the per-connection read timeout *)
  connections_rejected : int;
      (** connections turned away at the max-concurrent-connections
          limit *)
  faults_injected : int;
      (** faults the active {!Faults} plan injected (chaos mode) *)
  queue_wait_ms : Ssg_util.Stats.summary option;
      (** submit until a worker picked the job up; [None] until the
          first completion *)
  exec_ms : Ssg_util.Stats.summary option;
      (** worker pickup until the result was ready; [None] until the
          first completion *)
}

type t

(** [create ?window ?recent_window_s ()] — [window] (default 4096)
    bounds the latency and completion-time rings; [recent_window_s]
    (default 10.) is the wall-clock span of the recent throughput rate.
    @raise Invalid_argument if [window < 1] or [recent_window_s <= 0.]. *)
val create : ?window:int -> ?recent_window_s:float -> unit -> t

val record_submitted : t -> unit

(** [record_completed t ~queue_ms ~exec_ms] — a job executed to a
    result after waiting [queue_ms] in the queue and running for
    [exec_ms]. *)
val record_completed : t -> queue_ms:float -> exec_ms:float -> unit

val record_failed : t -> queue_ms:float -> exec_ms:float -> unit

(** [record_rejected_lint t] — a job was refused at the lint front
    door. *)
val record_rejected_lint : t -> unit

val record_hit : t -> unit
val record_miss : t -> unit

(** [record_dedup t] — a submission joined an in-flight twin. *)
val record_dedup : t -> unit

(** Fault-class counters (the supervision layer's side of the chaos
    tests). *)

val record_rejected_frame : t -> unit

val record_connection_timeout : t -> unit
val record_connection_rejected : t -> unit
val record_injected : t -> unit

(** [snapshot t ~workers ~queue_depth ~queue_capacity ~cache_entries] —
    the queue/cache gauges are sampled by the caller (the engine owns
    them). *)
val snapshot :
  t ->
  workers:int ->
  queue_depth:int ->
  queue_capacity:int ->
  cache_entries:int ->
  snapshot

(** [merge snapshots] — one cluster-wide snapshot from per-backend
    ones (what the router's [stats] fan-out replies with).  Counters,
    gauges and throughputs add; [uptime_s] and [recent_window_s] take
    the max.  The latency summaries merge exactly in count, mean,
    stddev (pooled via second moments), min and max; their percentiles
    are {e count-weighted averages} of the per-shard percentiles — an
    approximation, since true cluster percentiles are not recoverable
    from per-shard summaries.
    @raise Invalid_argument on the empty list. *)
val merge : snapshot list -> snapshot

(** A snapshot flattened to named fields — the one serializer both the
    JSON and the Prometheus renderings are derived from, so the two
    cannot drift apart (and tests can assert coverage field by
    field). *)
type field =
  | F_count of string * int  (** monotone counter *)
  | F_gauge_i of string * int
  | F_gauge_f of string * float
  | F_summary of string * Ssg_util.Stats.summary option

(** Every snapshot field, in declaration order. *)
val fields : snapshot -> field list

(** Compact JSON object over {!fields}; summaries become objects with
    [count]/[mean]/[stddev]/[min]/[max]/[p50]/[p95]/[p99], absent
    summaries become [null]. *)
val json_of_snapshot : snapshot -> string

(** [prometheus t s] — Prometheus text exposition: every {!fields} entry
    as an [ssgd_]-prefixed counter, gauge or summary (quantiles
    0.5/0.95/0.99), followed by the registry's bucketed phase
    histograms and {!prom_trace_dropped}.  The registry's counters are
    skipped — they are the same numbers the snapshot already
    carries. *)
val prometheus : t -> snapshot -> string

(** {1 Per-hop latency decomposition}

    The [ssg_hop_*] histogram family shares one namespace across the
    fleet, so a scrape of gateway + router + worker decomposes
    end-to-end latency hop by hop.  The worker registers
    [ssg_hop_queue_wait_ms] and [ssg_hop_exec_ms] itself (observed with
    every completion); the forwarding processes register their hops
    into their own registries with these helpers. *)

(** [hop_gateway_router registry] — register the
    [ssg_hop_gateway_router_ms] histogram (gateway-side backend wait).
    @raise Invalid_argument on a registry that already has it. *)
val hop_gateway_router : Ssg_obs.Metrics.t -> Ssg_obs.Metrics.histogram

(** [hop_router_worker registry] — register the
    [ssg_hop_router_worker_ms] histogram (router-side backend
    exchange). *)
val hop_router_worker : Ssg_obs.Metrics.t -> Ssg_obs.Metrics.histogram

(** [prom_trace_dropped buf] — append the tracer's ring drop counter as
    the [ssg_trace_dropped_total] counter (always rendered, including
    at zero). *)
val prom_trace_dropped : Buffer.t -> unit

(** [prometheus_of_snapshot ?prefix s] — the snapshot-only part of
    {!prometheus} (no registry histograms), with every metric name
    under [prefix] (default ["ssgd_"]).  The router renders its merged
    cluster snapshot with [~prefix:"ssg_cluster_"] so a cluster scrape
    and a per-worker scrape cannot collide. *)
val prometheus_of_snapshot : ?prefix:string -> snapshot -> string

(** Human-readable multi-line rendering (the [ssg stats] output). *)
val pp_snapshot : Format.formatter -> snapshot -> unit
