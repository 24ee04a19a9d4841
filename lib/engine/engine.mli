(** The simulation-service engine: bounded job queue, persistent domain
    worker pool, LRU result cache, in-flight dedup and metrics — the
    in-process core that both the [ssgd] socket server and the benchmark
    harness drive.

    Life of a submission:
    - cache hit → the stored outcome is returned immediately
      ([cached = true]);
    - an identical job already in flight → the submission shares that
      job's result cell instead of executing twice (telemetry counts it
      as a {e dedup join}, separate from cache hits);
    - otherwise → the job is enqueued ({b blocking} while the queue is
      full: backpressure reaches the submitter), executed on a worker
      domain, cached (successes only) and delivered.

    [submit] returns a {!ticket}; [await] blocks until the result is in.
    Submitting from several threads is safe — that is the server's normal
    mode. *)

type t

(** [create ()] — defaults: workers as {!Ssg_util.Pool.create}, queue
    capacity 64, cache capacity 1024 (0 disables caching {e and} dedup
    accounting still works for in-flight twins), fault plan {!Faults.off}.  A
    non-[off] [faults] plan is consulted before every job execution
    (chaos mode); injected crashes surface as [Error] completions and
    are counted in telemetry.

    [store], when given, makes the cache durable: the store's recovered
    records are replayed into the LRU here (warm boot — records that no
    longer decode are skipped with a warning), every freshly computed
    outcome is journaled after its cache insert, and the journal is
    compacted automatically once it outgrows the store's threshold.
    The engine owns the store from here on: {!shutdown} closes it. *)
val create :
  ?workers:int ->
  ?queue_capacity:int ->
  ?cache_capacity:int ->
  ?faults:Faults.t ->
  ?store:Ssg_store.Store.t ->
  unit ->
  t

(** The attached store, if any. *)
val store : t -> Ssg_store.Store.t option

(** The engine's metrics sink — shared with the server so connection
    supervision (rejected frames, reaped connections) lands in the same
    snapshot as job accounting. *)
val telemetry : t -> Telemetry.t

type ticket

(** [submit t job] — may block on a full queue.  Never raises on job
    errors; they surface as [Error] completions.  [job] must be
    canonical ({!Job.make}, {!Job.of_run_text} or {!Job.normalize}):
    its {!Job.key} is what the cache, the dedup table and the journal
    hold, and only canonical keys may enter them.  The same holds for
    {!submit_batch} and {!run_batch}.

    {b Lint front door.}  A fresh submission (no cache hit, no in-flight
    twin) is first checked by {!Ssg_lint.Lint.gate} against the job's own
    [k]: jobs whose run description cannot parse or can never satisfy
    [Psrcs(k)] are rejected without touching the worker pool.  The
    rejection surfaces as an [Error] completion from [await] (and via
    {!rejection} for callers that want to answer with a protocol-level
    error instead), is counted as [jobs_rejected_lint] in telemetry, and
    is never cached.

    [ctx], when given and tracing is enabled, makes the [engine.submit]
    span a child of the remote context (the router's or gateway's span
    that carried the job here) and [engine.execute] a grandchild — the
    worker end of cross-process trace propagation.  Without tracing the
    option costs one branch. *)
val submit : ?ctx:Ssg_obs.Context.t -> t -> Job.t -> ticket

(** [cached ?ctx t job] — [job]'s completion when its outcome is in the
    cache, counted and traced exactly like a cache hit through
    {!submit}; [None] otherwise, with nothing counted or traced (the
    caller follows up with {!submit}).  It never waits for the queue,
    the lint gate or a twin in flight, so a connection's reader can
    answer hits itself.

    It looks up [Job.key job] as given, so [job] may be a job
    {!Job.as_sent} that was never normalized: every cached key comes
    from a canonical job, and a key equal to one of them means equal
    fields ({!Job.key}), so a hit is that canonical job's outcome.  A
    non-canonical job simply misses. *)
val cached : ?ctx:Ssg_obs.Context.t -> t -> Job.t -> Job.completion option

(** [refuse ?ctx t job] — the ticket for a job whose run text does not
    parse, so that it has no canonical form (its {!Job.normalize}
    raised): the lint front door's rejection with the [SSG000]
    diagnostic, counted and traced like a rejection through {!submit}.
    The job never touches the cache or the dedup table.
    @raise Invalid_argument if the job passes the lint gate. *)
val refuse : ?ctx:Ssg_obs.Context.t -> t -> Job.t -> ticket

(** [rejection ticket] is [Some rendered_diagnostics] iff the submission
    was refused at the lint front door. *)
val rejection : ticket -> string option

(** [await t ticket] blocks until the job's completion is available. *)
val await : t -> ticket -> Job.completion

(** [run t job] is [await t (submit t job)]. *)
val run : t -> Job.t -> Job.completion

(** [submit_batch t jobs] is [List.map (submit t) jobs] with a parallel
    front door: every distinct key of the batch that is neither cached
    nor in flight is linted on the worker pool {e first} (the batch
    pre-gate), then the jobs are submitted in order consulting those
    precomputed verdicts.  Per-job semantics — rejection behavior,
    dedup, telemetry counts, ticket order — are identical to submitting
    serially; only the lint work is fanned out.  This is what makes
    lint-bound batches (a sweep grid, [ssg lint] over many files) scale
    with the pool. *)
val submit_batch : t -> Job.t list -> ticket list

(** [run_batch t jobs] is {!submit_batch} then [await] in order (so the
    pool pipelines the whole batch). *)
val run_batch : t -> Job.t list -> Job.completion list

val stats : t -> Telemetry.snapshot

(** [prometheus t] — the engine's registry ({!Telemetry.registry},
    its gauges set from a fresh {!stats}) as Prometheus text
    exposition, followed by the attached store's [ssg_store_*] registry
    when one is wired in; what the [Metrics] wire op serves. *)
val prometheus : t -> string

(** Warm handoff (what the [Export] / [Transfer] / [Compact] wire ops
    call into). *)

(** [export t n] — up to [n] of the hottest cache entries as
    [(key, encoded outcome)] pairs, most-recently-used first, bounded to
    ~4 MiB of payload so the result always frames. *)
val export : t -> int -> (string * string) list

(** [import t entries] seeds exported entries into the cache (and the
    journal, when a store is attached), hottest landing most-recent.
    Entries whose outcome no longer decodes are skipped with a warning;
    entries whose key is currently in flight are left to the running
    computation.  Returns the number imported. *)
val import : t -> (string * string) list -> int

(** [compact t] — snapshot the live cache into the store and truncate
    the journal (see {!Ssg_store.Store.compact}); [0] without a store or
    on a wedged one. *)
val compact : t -> int

(** Tracing: when {!Ssg_obs.Tracer} is enabled, the engine emits
    [engine.submit] / [engine.lint] / [engine.execute] spans and
    [engine.cache_hit] / [engine.dedup_join] / [engine.lint_reject]
    instants.  The [engine.execute] span begins and ends on the worker
    domain and carries the job's cross-domain queue wait as a [queue_ms]
    argument, so every domain's track stays B/E-balanced.  When tracing
    is disabled (the default) the instrumentation is a single atomic
    load per probe. *)

(** [shutdown t] — graceful: accepted jobs run to completion, workers
    join, the attached store (if any) is synced and closed.  Jobs
    submitted afterwards complete with an [Error].  Idempotent. *)
val shutdown : t -> unit
