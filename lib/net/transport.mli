(** Transport addresses: the one parser every surface shares.

    An address is either a Unix-domain socket path or a TCP host:port
    endpoint.  Every CLI flag that names a service ([serve --socket],
    [submit -s], [route -b], [gateway --listen], ...) and every
    library-level dialer goes through {!of_string}, so the two written
    forms — [unix:PATH] and [tcp:HOST:PORT] — mean the same thing
    everywhere, and a bare path keeps its historical meaning as a
    Unix-domain socket.

    {!to_string} round-trips: [of_string (to_string a) = Ok a] for every
    address value (property-tested). *)

type addr =
  | Unix_sock of string  (** [unix:PATH] — a Unix-domain socket path *)
  | Tcp of string * int  (** [tcp:HOST:PORT] — a TCP endpoint *)

(** [of_string s] parses [unix:PATH], [tcp:HOST:PORT], or a bare PATH
    (implicitly Unix-domain, for backward compatibility).  Errors are
    specific: they name the offending form and what was expected, e.g.
    ["tcp:localhost: missing port (expected tcp:HOST:PORT)"].  IPv6
    hosts may be written in brackets: [tcp:[::1]:8080]. *)
val of_string : string -> (addr, string) result

(** [of_string_exn s] — {!of_string} or
    @raise Invalid_argument with the same message. *)
val of_string_exn : string -> addr

(** [to_string a] — the canonical written form ([unix:PATH] or
    [tcp:HOST:PORT]); brackets are restored around IPv6 hosts. *)
val to_string : addr -> string

val equal : addr -> addr -> bool

(** [is_tcp a] — true for {!Tcp} addresses. *)
val is_tcp : addr -> bool

(** [prepare a] makes the address bindable: a stale Unix socket file left
    by a dead server is unlinked, a live one raises; TCP needs nothing
    (the listener sets [SO_REUSEADDR]).
    @raise Unix.Unix_error [EADDRINUSE] when a live server already
    answers on a Unix path. *)
val prepare : addr -> unit

(** [listen ?backlog a] — {!prepare}, bind, listen.  TCP listeners set
    [SO_REUSEADDR]; accepted TCP connections should set [TCP_NODELAY]
    themselves (the frame writer already batches a frame per write).
    [backlog] defaults to 512 (the kernel clamps to its own limit):
    thousands of load-generator connections dialing at once must queue
    in the kernel, not bounce off ECONNREFUSED.
    @raise Unix.Unix_error when the address cannot be bound. *)
val listen : ?backlog:int -> addr -> Unix.file_descr

(** [bound_addr fd a] — [a] with the actual bound endpoint filled in:
    for [tcp:HOST:0] the kernel-chosen port is read back with
    [getsockname].  Unix addresses are returned unchanged. *)
val bound_addr : Unix.file_descr -> addr -> addr

(** [connect a] — a fresh connected descriptor.  TCP connections set
    [TCP_NODELAY] (request/reply frames must not sit in Nagle buffers).
    @raise Unix.Unix_error on refusal / unreachability,
    @raise Failure when a TCP host does not resolve. *)
val connect : addr -> Unix.file_descr

(** [poke a] completes one throwaway connection — what wakes a blocked
    [accept] during shutdown.  Never raises. *)
val poke : addr -> unit

(** [cleanup a] removes what {!listen} left behind (the Unix socket
    file); nothing for TCP.  Never raises. *)
val cleanup : addr -> unit
