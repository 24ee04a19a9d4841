(** Persistent domain worker pool.

    A fixed set of worker domains drain a {!Bqueue} of thunks for the
    lifetime of the pool, the bounded queue gives submission
    backpressure, and [shutdown] is graceful (already-accepted tasks run
    to completion before the workers exit).  The same pool serves the
    long-lived service ([submit]) and batch fan-out ([map], [run]).

    A task that raises does not kill its worker: the exception is caught
    and logged, and the worker moves on.  Tasks that must propagate
    failure do so through their own result channel (the engine wraps
    every job and delivers [Error] through an [Ivar]). *)

type t

(** [default_workers ()] — all cores but one, at least 1: the worker
    count [create] uses when [?workers] is omitted. *)
val default_workers : unit -> int

(** [create ?workers ?queue_capacity ()] spawns the worker domains.
    Defaults: [workers = default_workers ()], [queue_capacity = 64].
    @raise Invalid_argument if [workers < 1] or [queue_capacity < 1]. *)
val create : ?workers:int -> ?queue_capacity:int -> unit -> t

val workers : t -> int

(** [queue_depth pool] — tasks accepted but not yet started. *)
val queue_depth : t -> int

val queue_capacity : t -> int

(** [submit pool task] enqueues [task], blocking while the queue is full
    (backpressure).  Returns [false] iff the pool has been shut down, in
    which case the task was {e not} accepted. *)
val submit : t -> (unit -> unit) -> bool

(** [map pool f xs] applies [f] to every element of [xs] and returns the
    results in input order.  The caller claims items from one shared
    counter alongside at most [workers pool] helper tasks, and returns
    once every item is done, without waiting for a helper still queued
    behind other work.  On a shut-down pool the caller does all the
    work.  If some [f] raised, the first exception in input order is
    re-raised after every item ran.  Submitting the helpers blocks on a
    full queue, so a pool task calling [map] on its own pool can
    deadlock a saturated pool. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** [run ?jobs f xs] is [map] on a pool of [jobs - 1] workers (capped at
    one per item beyond the caller's) created for this call and shut
    down after it.  Default [jobs]: one per core
    ([Domain.recommended_domain_count ()]).  Runs inline, as [List.map],
    when [jobs <= 1] or [xs] has fewer than two elements. *)
val run : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [shutdown pool] closes the queue, waits for the workers to drain all
    accepted tasks, and joins them.  Idempotent; concurrent calls after
    the first return once the first completes. *)
val shutdown : t -> unit
