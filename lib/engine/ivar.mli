(** Write-once synchronization cells.

    The engine's unit of result delivery: a worker domain fills the cell
    exactly once, and any number of waiting threads or domains read it.
    Implemented with a mutex and a condition variable, so it is safe
    across both [Thread]s (connection handlers) and [Domain]s (pool
    workers). *)

type 'a t

val create : unit -> 'a t

(** [fill cell v] publishes [v] and wakes all readers.
    @raise Invalid_argument if the cell is already filled. *)
val fill : 'a t -> 'a -> unit

(** [read cell] blocks until the cell is filled, then returns the value.
    Subsequent reads return immediately. *)
val read : 'a t -> 'a

(** [peek cell] is the value if already filled, without blocking. *)
val peek : 'a t -> 'a option

(** [wait start] calls [start k] and blocks until [k] is first called,
    on any thread (also from within [start]); returns the value [k] was
    given.  Later calls of [k] are ignored.  It turns a callback-style
    operation into a blocking one. *)
val wait : (('a -> unit) -> unit) -> 'a
