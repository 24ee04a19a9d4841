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
    A batch is every job submitted, then each awaited in order, so the
    pool pipelines it.  Submitting from several threads is safe — that
    is the server's normal mode. *)

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

(** [submit t job] — the one way into the engine; may block on a full
    queue.  Never raises on job errors: they surface through {!await}.

    [job] is taken as it arrived, {!Job.as_sent} or canonical.  Its key
    as sent is probed in the cache first, exactly as {!cached} does, so
    a hit costs no parse.  On a miss the job is normalized
    ({!Job.normalize}) and everything after that is keyed by its
    canonical {!Job.key}: a hit under that key, a join of an identical
    job in flight (a {e dedup join}, counted apart from cache hits), or
    a fresh entry in the dedup table.  Only canonical keys enter the
    cache, the dedup table and the journal.

    {b Lint front door.}  A fresh submission is first checked by
    {!Ssg_lint.Lint.gate} against the job's own [k], on the submitting
    thread: a job whose run can never satisfy [Psrcs(k)] is refused
    without touching the worker pool.  A run text that does not parse
    has no canonical form; it is refused with the [SSG000] diagnostic
    and enters neither the cache nor the dedup table.  A refusal is
    counted as [jobs_rejected_lint] in telemetry and is never cached.

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

(** [await t ticket] blocks until the job is resolved — the one way out.
    [Error rendered] exactly when the lint gate refused the job: the
    rendered diagnostics, starting [job rejected by lint:], the same
    for the submitter and for every twin that joined it.  Otherwise
    [Ok completion]; its [result] is an [Error] only when the execution
    itself failed (an inconsistent job, an injected crash, a shut-down
    engine). *)
val await : t -> ticket -> (Job.completion, string) result

(** [run t job] is [await t (submit t job)]. *)
val run : t -> Job.t -> (Job.completion, string) result

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
    computation, which caches and journals it.  Returns the number
    imported, those left out not included. *)
val import : t -> (string * string) list -> int

(** [compact t] — write the live cache as the store's next generation
    (see {!Ssg_store.Store.compact}) and return its record count; [0]
    without a store or on a wedged one. *)
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
