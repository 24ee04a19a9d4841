(** Server metrics: counters, latency histograms, throughput, fault
    accounting.

    One [t] per engine.  Workers and connection handlers record events
    concurrently; every count is a counter and every latency a histogram
    on the engine's {!Ssg_obs.Metrics} registry (atomics), the ring of
    completion times is internally synchronized, and [snapshot] freezes
    everything into the plain record the [stats] wire reply carries.

    An executed job's latency is kept as its two phases, in
    milliseconds: queue wait (submit until a worker picks the job up)
    and execution (worker pickup until the result is ready).  Each
    observation is recorded once, in the phase's histogram
    ([ssgd_job_queue_wait_ms], [ssgd_job_exec_ms]: the worker's hops in
    the fleet's per-hop latency decomposition), whose bounds are
    0.01 · 2^(i/2) ms for i = 0..46 (0.01 ms to about 84 s).  The
    snapshot carries both histograms ([queue_wait_ms], [exec_ms]), and
    every percentile the [stats] renderings print is read off them with
    {!Ssg_obs.Metrics.quantile}: an estimate over every execution since
    boot, inside the bucket that holds the true percentile.  Completion
    {e times} are kept in a ring of the most recent 4096, so throughput
    can be reported over the last 10 s of wall-clock time — a long-idle
    daemon reports the current burst's rate, not its lifetime average
    diluted by the idle time (the lifetime average is still carried
    separately).

    The {!registry} holds every scalar {!fields} entry as
    [ssgd_<field>] (a count as a counter, a gauge as {!set_gauges}
    last set it), the two phase histograms, and the tracer's
    [ssg_trace_dropped_total]. *)

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
  queue_wait_ms : Ssg_obs.Metrics.hist_snapshot;
      (** submit until a worker picked the job up, every executed job
          since boot; count 0 until the first completion *)
  exec_ms : Ssg_obs.Metrics.hist_snapshot;
      (** worker pickup until the result was ready, likewise *)
}

type t

val create : unit -> t

(** [registry t] — the registry the engine renders for the [Metrics]
    wire op. *)
val registry : t -> Ssg_obs.Metrics.t

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

(** [set_gauges t s] sets the registry's gauge fields ([ssgd_workers],
    [ssgd_uptime_s], …) to [s]'s values; the engine calls it with a
    fresh {!snapshot} right before it renders. *)
val set_gauges : t -> snapshot -> unit

(** [merge snapshots] — one cluster-wide snapshot from per-backend
    ones (what the router's [stats] fan-out replies with).  Counters,
    gauges and throughputs add; [uptime_s] and [recent_window_s] take
    the max.  The latency histograms add bucket by bucket, so the
    merged snapshot's percentiles are those of every backend's
    observations pooled, to within one bucket — not an average of the
    backends' percentiles.
    @raise Invalid_argument on the empty list, or when two snapshots'
    histogram bounds differ (every peer is built from this tree). *)
val merge : snapshot list -> snapshot

(** [cluster_registry snapshots] — a fresh registry holding a gauge
    [ssg_cluster_<field>] for every scalar {!fields} entry, set to the
    {!merge} of [snapshots]; empty when the list is, so a scrape no
    backend answered shows no cluster series at all.  Gauges, since a
    sum over a changing membership is not monotone. *)
val cluster_registry : snapshot list -> Ssg_obs.Metrics.t

(** A snapshot flattened to named fields.  The JSON rendering, the
    registry's [ssgd_<field>] series and the [ssg_cluster_<field>]
    gauges are all built from one table of the scalar fields (name,
    kind, help text), so they cannot drift apart (and tests can assert
    coverage field by field). *)
type field =
  | F_count of string * int  (** monotone counter *)
  | F_gauge_i of string * int
  | F_gauge_f of string * float
  | F_histogram of string * Ssg_obs.Metrics.hist_snapshot

(** Every snapshot field, in declaration order. *)
val fields : snapshot -> field list

(** Compact JSON object over {!fields}; a histogram becomes an object
    with [count]/[mean]/[p50]/[p95]/[p99] ({!Ssg_obs.Metrics.quantile}),
    or [null] while its count is 0. *)
val json_of_snapshot : snapshot -> string

(** Human-readable multi-line rendering (the [ssg stats] output). *)
val pp_snapshot : Format.formatter -> snapshot -> unit
