(** Minimal HTTP/1.1 server primitives for the gateway.

    Enough of RFC 9112 for a JSON front door: request-line + headers +
    [Content-Length] bodies, percent-decoded query strings, keep-alive,
    and response writing with exact [Content-Length] framing.  Not
    implemented (answered with an error, never mis-framed): chunked
    request bodies, upgrades, continuations. *)

type request = {
  meth : string;  (** uppercased: GET, POST, ... *)
  path : string;  (** percent-decoded path, query stripped *)
  query : (string * string) list;  (** decoded, in order of appearance *)
  headers : (string * string) list;  (** names lowercased, in order *)
  body : string;
}

(** Raised by {!read_request} on a syntactically broken or unsupported
    request; the argument is a human-readable reason to put in a 400. *)
exception Bad_request of string

(** A buffered connection (reads may pull ahead of the current
    request). *)
type conn

val conn_of_fd : Unix.file_descr -> conn

(** [read_request c] — the next request, or [None] when the peer closed
    cleanly between requests.
    @raise Bad_request on malformed/unsupported syntax, oversized
    header blocks (> 16 KiB) or bodies (> 16 MiB),
    @raise End_of_file when the peer dies mid-request,
    @raise Unix.Unix_error as the reads do (e.g. a read timeout). *)
val read_request : conn -> request option

(** [header req name] — case-insensitive lookup. *)
val header : request -> string -> string option

(** [query_param req name] — first binding of [name]. *)
val query_param : request -> string -> string option

(** [keep_alive req] — per HTTP/1.1 defaults ([Connection: close]
    opts out; HTTP/1.0 must opt in). *)
val keep_alive : request -> bool

(** [write_response fd ~status body] writes one complete response with
    [Content-Length].  [content_type] defaults to [application/json].
    [keep_alive] (default true) controls the [Connection] header. *)
val write_response :
  ?content_type:string ->
  ?extra_headers:(string * string) list ->
  ?keep_alive:bool ->
  status:int ->
  Unix.file_descr ->
  string ->
  unit

(** [json_escape s] — [s] with backslash, quote and control characters
    escaped for inclusion inside a JSON string literal (no quotes
    added). *)
val json_escape : string -> string
