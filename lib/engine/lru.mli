(** LRU result cache.

    String-keyed (the engine keys on {!Job.key}'s canonical encoding) and
    capacity-bounded: inserting beyond capacity evicts the
    least-recently-used entry.  A hit in [find] bumps recency.  Hits and
    misses are counted by the engine's {!Telemetry}, not here.

    Not internally synchronized — each user serializes access under its
    own lock: the engine (cache lookup and pending-table dedup must be
    updated atomically together anyway) and the gateway's validation
    memo.  A [capacity] of [0] is a
    valid always-miss cache (caching disabled). *)

type 'a t

(** @raise Invalid_argument if [capacity < 0]. *)
val create : capacity:int -> 'a t

(** [find c key] — [Some v] (hit, recency bumped) or [None] (miss). *)
val find : 'a t -> string -> 'a option

(** [add c key v] inserts or overwrites, making [key] most recent and
    evicting the least-recently-used entry if over capacity.  A no-op at
    capacity 0. *)
val add : 'a t -> string -> 'a -> unit

(** [to_list c] — every live entry, most-recently-used first.  Does not
    touch recency. *)
val to_list : 'a t -> (string * 'a) list

val mem : 'a t -> string -> bool
val length : 'a t -> int
