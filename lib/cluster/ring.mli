(** Consistent hash ring over job cache keys.

    The cluster's placement function: each backend address is hashed
    onto a 64-bit circle at [vnodes] points (virtual nodes, so the
    keyspace splits evenly even with a handful of backends), and a job
    key is owned by the first backend point at or clockwise after the
    key's own hash.  Placement therefore depends only on the member set
    and [vnodes] — two routers configured with the same backends agree
    on every key without talking to each other, and a rebuild after a
    membership change is deterministic.

    The monotonicity property the failover design leans on: a ring
    over one member fewer remaps {e only} the keys that member owned
    (they fall to their successors); every other key keeps its owner.
    Read the other way, adding a member only steals keys for the new
    member.  Property-tested.

    Values are immutable; a membership change builds a new ring with
    {!create}. *)

type t

(** [create ?vnodes members] — duplicates in [members] are collapsed;
    the empty list is a valid (empty) ring.
    @raise Invalid_argument if [vnodes < 1]. *)
val create : ?vnodes:int -> string list -> t

val default_vnodes : int

(** The distinct member set, sorted. *)
val members : t -> string list

val is_empty : t -> bool

(** [owner t key] — the member owning [key]; [None] on an empty ring. *)
val owner : t -> string -> string option

(** [successors t key] — every member, deduplicated, in ring order
    starting at [key]'s owner: the failover order for [key].  Its head
    is [owner t key]; its length is the member count. *)
val successors : t -> string -> string list

(** The ring's key hash (FNV-1a 64 with a splitmix64 finalizer),
    exposed so tests can check balance claims against the same
    function the ring uses. *)
val hash64 : string -> int64
