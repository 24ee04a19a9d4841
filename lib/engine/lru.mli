(** LRU result cache with hit/miss accounting.

    String-keyed (the engine keys on {!Job.key}'s canonical encoding) and
    capacity-bounded: inserting beyond capacity evicts the
    least-recently-used entry.  [find] counts a hit or a miss and bumps
    recency.

    Not internally synchronized — the engine serializes all access under
    its own lock (cache lookup, pending-table dedup and the counters must
    be updated atomically together anyway).  A [capacity] of [0] is a
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
    touch recency or the counters. *)
val to_list : 'a t -> (string * 'a) list

val mem : 'a t -> string -> bool
val length : 'a t -> int

(** Counters since creation. *)

val hits : 'a t -> int

val misses : 'a t -> int
val evictions : 'a t -> int
