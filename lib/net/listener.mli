(** The one accept loop behind every serving command ([ssg serve],
    [ssg route], [ssg gateway]).

    A listener owns the listening socket and the supervision of each
    accepted connection: the connection cap (with a refusal the caller
    writes), [TCP_NODELAY] and the [SO_RCVTIMEO] read timeout on every
    accepted descriptor, one thread per connection, the close of the
    descriptor once the handler returns, and a shutdown that stops
    accepting, unsticks idle readers, and drains live connections under
    a deadline.  What travels over a connection is the handler's
    business. *)

type t

(** [bind a] ignores [SIGPIPE] process-wide (a vanished peer surfaces as
    [EPIPE] on the write, never as a signal) and binds [a]
    ({!Transport.listen}).  Connections queue in the kernel backlog
    until {!run} starts accepting, so a caller can bind first and
    finish booting after.
    @raise Unix.Unix_error when the address cannot be bound
    ([EADDRINUSE] for a live server on the same Unix path). *)
val bind : Transport.addr -> t

(** The bound address: for [tcp:HOST:0], the kernel-chosen port. *)
val addr : t -> Transport.addr

(** [stop t] makes {!run} stop accepting and start draining; callable
    from any thread, including a connection handler.  Idempotent. *)
val stop : t -> unit

(** True once {!stop} was called. *)
val stopping : t -> bool

(** [run ~refuse t handle] accepts until {!stop}, calling [handle fd]
    on its own thread for each connection.  [handle] must not close
    [fd]: the listener closes it when [handle] returns (or raises —
    the exception is logged and swallowed).
    - [max_connections]: a connection accepted while this many are
      live is passed to [refuse] (exceptions ignored) and closed, never
      to [handle].
    - [read_timeout_s] ([<= 0.] disables): [SO_RCVTIMEO] on each
      accepted descriptor, so a stalled read raises
      [Unix_error (EAGAIN | EWOULDBLOCK)] in the handler.
    - [drain_timeout_s]: on stop, the listening socket is closed and
      the receive side of every live connection is shut — idle readers
      see EOF at once, replies to requests already read still go out —
      then [run] waits at most this long for handlers to return before
      abandoning the rest. *)
val run :
  max_connections:int ->
  read_timeout_s:float ->
  drain_timeout_s:float ->
  refuse:(Unix.file_descr -> unit) ->
  t ->
  (Unix.file_descr -> unit) ->
  unit

(** [close t] closes the listening socket if {!run} did not, and
    removes what binding left behind (the Unix socket file).  Call it
    last, also when booting failed after {!bind}.  Never raises. *)
val close : t -> unit
