(** Bounded blocking FIFO queues with backpressure and close semantics.

    The {!Pool}'s task queue: producers ([Engine.submit], connection
    handlers) block in [push] while the queue is full — backpressure
    propagates all the way to the wire instead of letting an unbounded
    backlog accumulate — and consumers (pool workers) block in [pop]
    while it is empty.

    [close] starts a graceful drain: further pushes are refused, but
    already-queued items are still popped; once the queue is closed
    {e and} empty, [pop] returns [None] and workers can exit.  Safe
    across threads and domains. *)

type 'a t

(** [create ~capacity ()] — an empty open queue.
    @raise Invalid_argument if [capacity < 1]. *)
val create : capacity:int -> unit -> 'a t

(** [push q x] blocks while the queue is full.  Returns [true] when the
    item was enqueued and [false] when the queue is (or becomes) closed —
    a closed queue never accepts new items. *)
val push : 'a t -> 'a -> bool

(** [pop q] blocks while the queue is empty and open.  [None] means the
    queue is closed and fully drained. *)
val pop : 'a t -> 'a option

(** [close q] — refuse new pushes, wake all waiters.  Idempotent. *)
val close : 'a t -> unit

val is_closed : 'a t -> bool

(** [length q] — items currently queued (the instantaneous queue depth
    reported by server metrics). *)
val length : 'a t -> int

val capacity : 'a t -> int
