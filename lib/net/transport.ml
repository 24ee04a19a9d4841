type addr = Unix_sock of string | Tcp of string * int

(* ---------------- parsing ---------------- *)

let strip_brackets host =
  let n = String.length host in
  if n >= 2 && host.[0] = '[' && host.[n - 1] = ']' then String.sub host 1 (n - 2)
  else host

let parse_tcp rest =
  (* The port is everything after the RIGHTMOST colon, so IPv6 hosts
     (with or without brackets) parse without escaping. *)
  match String.rindex_opt rest ':' with
  | None ->
      Error
        (Printf.sprintf "tcp:%s: missing port (expected tcp:HOST:PORT)" rest)
  | Some i -> (
      let host = String.sub rest 0 i in
      let port_s = String.sub rest (i + 1) (String.length rest - i - 1) in
      if host = "" then
        Error
          (Printf.sprintf "tcp:%s: missing host (expected tcp:HOST:PORT)" rest)
      else
        match int_of_string_opt port_s with
        | None ->
            Error
              (Printf.sprintf "tcp:%s: port %S is not a number" rest port_s)
        | Some p when p < 0 || p > 65535 ->
            Error
              (Printf.sprintf "tcp:%s: port %d out of range 0-65535" rest p)
        | Some p -> Ok (Tcp (strip_brackets host, p)))

let of_string s =
  let starts_with prefix =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix
  in
  let after prefix =
    String.sub s (String.length prefix) (String.length s - String.length prefix)
  in
  if s = "" then Error "empty address (expected unix:PATH or tcp:HOST:PORT)"
  else if starts_with "unix:" then
    let path = after "unix:" in
    if path = "" then Error "unix: missing socket path (expected unix:PATH)"
    else Ok (Unix_sock path)
  else if starts_with "tcp:" then parse_tcp (after "tcp:")
  else if String.contains s ':' && not (Filename.is_implicit s) then
    (* An absolute path containing ':' is still a path; anything else
       with a scheme-looking prefix is probably a typo worth naming. *)
    Ok (Unix_sock s)
  else if String.contains s ':' then
    Error
      (Printf.sprintf
         "%s: unknown address scheme %S (expected unix:PATH or tcp:HOST:PORT)"
         s
         (String.sub s 0 (String.index s ':')))
  else Ok (Unix_sock s)

let of_string_exn s =
  match of_string s with Ok a -> a | Error msg -> invalid_arg msg

let to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) ->
      if String.contains host ':' then Printf.sprintf "tcp:[%s]:%d" host port
      else Printf.sprintf "tcp:%s:%d" host port

let equal (a : addr) b = a = b
let is_tcp = function Tcp _ -> true | Unix_sock _ -> false

(* ---------------- resolution ---------------- *)

(* A Unix path verbatim, a TCP host through [getaddrinfo] (numeric
   forms short-circuit); [Failure] when a TCP host does not resolve. *)
let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> (
      match Unix.inet_addr_of_string host with
      | ip -> Unix.ADDR_INET (ip, port)
      | exception Failure _ -> (
          match
            Unix.getaddrinfo host (string_of_int port)
              [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
          with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ ->
              Unix.ADDR_INET (ip, port)
          | _ -> failwith (Printf.sprintf "Transport: cannot resolve %S" host)))

let domain_of = function
  | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
  | Unix.ADDR_INET (ip, _) ->
      if Unix.is_inet6_addr ip then Unix.PF_INET6 else Unix.PF_INET

let set_nodelay fd = function
  | Tcp _ -> (
      try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  | Unix_sock _ -> ()

(* ---------------- server side ---------------- *)

(* [Unix.connect] interrupted by a signal raises [EINTR] with the
   connection possibly still in progress; retrying on the same fd races
   EALREADY/EISCONN, so the portable recovery is to drop the
   half-connected socket and redo the whole attempt.  Signals are
   routine here (shutdown handlers, test harnesses firing mid-accept),
   so a transient EINTR must never be read as a verdict on the peer. *)
let rec connect_probe sa =
  let fd = Unix.socket (domain_of sa) Unix.SOCK_STREAM 0 in
  match Unix.connect fd sa with
  | () -> Ok fd
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      connect_probe sa
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error e

(* A dead server leaves its socket file behind; a live one answers
   [connect].  Replace the former, refuse to double-bind the latter.
   The probe must restart on EINTR: mistaking a signal for a dead
   server would unlink a {e live} socket out from under its owner. *)
let prepare = function
  | Tcp _ -> ()
  | Unix_sock path ->
      if Sys.file_exists path then begin
        let alive =
          match connect_probe (Unix.ADDR_UNIX path) with
          | Ok probe ->
              (try Unix.close probe with Unix.Unix_error _ -> ());
              true
          | Error _ -> false
        in
        if alive then raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
        else Unix.unlink path
      end

let listen ?(backlog = 512) a =
  prepare a;
  let sa = sockaddr a in
  let fd = Unix.socket (domain_of sa) Unix.SOCK_STREAM 0 in
  (match a with
  | Tcp _ -> ( try Unix.setsockopt fd Unix.SO_REUSEADDR true with _ -> ())
  | Unix_sock _ -> ());
  (try
     Unix.bind fd sa;
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let bound_addr fd = function
  | Unix_sock _ as a -> a
  | Tcp (host, _) as a -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> Tcp (host, port)
      | _ | (exception Unix.Unix_error _) -> a)

(* ---------------- client side ---------------- *)

let connect a =
  let sa = sockaddr a in
  match connect_probe sa with
  | Ok fd ->
      set_nodelay fd a;
      fd
  | Error e -> raise e

let poke a =
  match connect a with
  | fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | exception (Unix.Unix_error _ | Failure _) -> ()

let cleanup = function
  | Tcp _ -> ()
  | Unix_sock path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
