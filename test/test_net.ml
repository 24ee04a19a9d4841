(* Net suite: the transport address parser (units + the round-trip
   property the mli promises), the frame id envelope, the client-side
   mux against a scripted peer (including the shuffled-replies
   correlation property), the HTTP/1.1 parser, and the pipelined path
   end to end over real TCP: out-of-order completion without
   head-of-line blocking, back-pressure at the in-flight cap, and the
   supervised-close regression where a client vanishes between request
   and reply. *)

open Ssg_net
open Ssg_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---------------- harness ---------------- *)

(* A free TCP port: bind port 0, read the kernel's choice back, release
   it.  The tiny release-to-rebind window is acceptable in tests. *)
let fresh_tcp () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  Unix.close fd;
  Printf.sprintf "tcp:127.0.0.1:%d" port

let start_server ?(workers = 2) ?(queue_capacity = 64) ?max_inflight ?faults
    ?trace ?socket () =
  let socket = match socket with Some s -> s | None -> fresh_tcp () in
  let thread =
    Thread.create
      (fun () ->
        Server.serve ~workers ~queue_capacity ~cache_capacity:64
          ?max_inflight ?faults ?trace ~drain_timeout_s:5. ~socket ())
      ()
  in
  let c = Service.connect socket in
  Client.close c;
  (socket, thread)

let stop_server socket thread =
  let c = Service.connect socket in
  Client.shutdown c;
  Client.close c;
  Thread.join thread

let two_islands = "ssg-run v1\nn 6\nstable: 0>1 1>2 2>0 3>4 4>5 5>3\n"
let good_job ?inputs ?rounds () = Job.of_run_text ?inputs ?rounds ~k:2 two_islands
let bad_job () = Job.of_run_text ~k:1 two_islands

(* ---------------- transport: units ---------------- *)

let test_transport_parse () =
  let ok s a =
    match Transport.of_string s with
    | Ok got -> check ("parse " ^ s) true (Transport.equal got a)
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  let err s fragment =
    match Transport.of_string s with
    | Ok a -> Alcotest.fail (s ^ " must not parse: " ^ Transport.to_string a)
    | Error e -> check ("error names the problem: " ^ e) true (contains e fragment)
  in
  ok "unix:/tmp/ssgd.sock" (Transport.Unix_sock "/tmp/ssgd.sock");
  ok "/tmp/ssgd.sock" (Transport.Unix_sock "/tmp/ssgd.sock");
  ok "relative.sock" (Transport.Unix_sock "relative.sock");
  ok "tcp:127.0.0.1:7000" (Transport.Tcp ("127.0.0.1", 7000));
  ok "tcp:localhost:0" (Transport.Tcp ("localhost", 0));
  ok "tcp:[::1]:8080" (Transport.Tcp ("::1", 8080));
  (* An absolute path containing ':' is still a path. *)
  ok "/tmp/odd:name.sock" (Transport.Unix_sock "/tmp/odd:name.sock");
  err "" "empty address";
  err "unix:" "missing socket path";
  err "tcp:localhost" "missing port";
  err "tcp::9" "missing host";
  err "tcp:h:notaport" "not a number";
  err "tcp:h:70000" "out of range";
  err "tcp:h:-1" "out of range";
  err "udp:h:9" "unknown address scheme";
  check "is_tcp" true (Transport.is_tcp (Transport.Tcp ("h", 1)));
  check "is_tcp unix" false (Transport.is_tcp (Transport.Unix_sock "p"));
  match Transport.of_string_exn "tcp:x" with
  | _ -> Alcotest.fail "of_string_exn must raise"
  | exception Invalid_argument _ -> ()

let test_transport_to_string () =
  check_string "unix canonical" "unix:/a/b.sock"
    (Transport.to_string (Transport.Unix_sock "/a/b.sock"));
  check_string "tcp canonical" "tcp:10.0.0.1:80"
    (Transport.to_string (Transport.Tcp ("10.0.0.1", 80)));
  (* IPv6 hosts are re-bracketed so the result re-parses. *)
  check_string "ipv6 re-bracketed" "tcp:[::1]:8080"
    (Transport.to_string (Transport.Tcp ("::1", 8080)))

let test_transport_listen_connect () =
  (* tcp:HOST:0 binds an ephemeral port; bound_addr reads it back. *)
  let a = Transport.of_string_exn "tcp:127.0.0.1:0" in
  let lfd = Transport.listen a in
  let bound = Transport.bound_addr lfd a in
  (match bound with
  | Transport.Tcp ("127.0.0.1", p) -> check "real port" true (p > 0)
  | _ -> Alcotest.fail "expected a tcp address with the kernel's port");
  let cfd = Transport.connect bound in
  let sfd, _ = Unix.accept lfd in
  Unix.close sfd;
  Unix.close cfd;
  Unix.close lfd;
  Transport.cleanup bound

(* ---------------- transport: round-trip property ---------------- *)

let gen_addr =
  QCheck2.Gen.(
    let path_char =
      oneof [ char_range 'a' 'z'; char_range '0' '9'; return '/'; return '.' ]
    in
    let host_char =
      oneof [ char_range 'a' 'z'; char_range '0' '9'; return '.'; return '-' ]
    in
    let nonempty g = string_size ~gen:g (int_range 1 24) in
    oneof
      [
        (nonempty path_char >|= fun p -> Transport.Unix_sock p);
        ( pair (nonempty host_char) (int_bound 65535) >|= fun (h, p) ->
          Transport.Tcp (h, p) );
        (* IPv6-shaped hosts exercise the bracket round-trip. *)
        (int_bound 65535 >|= fun p -> Transport.Tcp ("::1", p));
        (int_bound 65535 >|= fun p -> Transport.Tcp ("fe80::2", p));
      ])

let prop_transport_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"transport: of_string (to_string a) = Ok a"
    gen_addr (fun a ->
      match Transport.of_string (Transport.to_string a) with
      | Ok b -> Transport.equal a b
      | Error _ -> false)

(* ---------------- frame: id envelope ---------------- *)

let test_frame_envelope () =
  let payload = Bytes.of_string "Shello" in
  (match Frame.classify (Frame.with_id ~id:42 payload) with
  | Frame.Id (42, inner) -> check "inner intact" true (Bytes.equal inner payload)
  | _ -> Alcotest.fail "wrapped frame must classify as Id");
  (* A plain protocol payload stays plain. *)
  (match Frame.classify payload with
  | Frame.Plain p -> check "plain intact" true (Bytes.equal p payload)
  | Frame.Id _ -> Alcotest.fail "unwrapped frame must stay Plain");
  (* Large ids survive the 8-byte field. *)
  let big = (1 lsl 53) + 7 in
  (match Frame.classify (Frame.with_id ~id:big payload) with
  | Frame.Id (got, _) -> check_int "big id" big got
  | _ -> Alcotest.fail "Id expected");
  (match Frame.with_id ~id:(-1) payload with
  | _ -> Alcotest.fail "negative id must be rejected"
  | exception Invalid_argument _ -> ());
  (* A payload that starts with the magic but cannot carry an id is a
     truncated envelope, not a plain payload. *)
  match Frame.classify (Bytes.of_string (String.make 1 Frame.id_magic ^ "abc")) with
  | _ -> Alcotest.fail "truncated envelope must be refused"
  | exception Failure msg -> check "names truncation" true (contains msg "truncated")

let test_frame_fd_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with _ -> ()) [ a; b ])
    (fun () ->
      let payload = Bytes.of_string (String.init 100_000 (fun i -> Char.chr (i land 0xff))) in
      let writer = Thread.create (fun () -> Frame.write_fd a payload) () in
      let got = Frame.read_fd b in
      Thread.join writer;
      check "100kB frame round-trips" true (Bytes.equal got payload);
      (* Oversized frames are refused on the write side... *)
      (match Frame.write_fd a (Bytes.create (Frame.max_frame_bytes + 1)) with
      | () -> Alcotest.fail "oversized write must be refused"
      | exception Failure msg -> check "refusal names size" true (contains msg "too large"));
      (* ...and on the read side, from the header alone. *)
      let hdr = Bytes.create 4 in
      Bytes.set_int32_be hdr 0 (Int32.of_int (Frame.max_frame_bytes + 1));
      ignore (Unix.write a hdr 0 4);
      (match Frame.read_fd b with
      | _ -> Alcotest.fail "oversized read must be refused"
      | exception Failure msg -> check "read refusal" true (contains msg "refused")))

let test_frame_eof_semantics () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Peer gone at a frame boundary: End_of_file. *)
  Unix.close a;
  (match Frame.read_fd b with
  | _ -> Alcotest.fail "closed peer must raise End_of_file"
  | exception End_of_file -> ());
  Unix.close b;
  (* Peer dying mid-frame is a distinct, named failure. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 100l;
  ignore (Unix.write a hdr 0 4);
  ignore (Unix.write a (Bytes.make 10 'x') 0 10);
  Unix.close a;
  (match Frame.read_fd b with
  | _ -> Alcotest.fail "mid-frame death must be a Failure"
  | exception Failure msg -> check "names mid-frame" true (contains msg "mid-frame"));
  Unix.close b

let test_frame_ctx_envelope () =
  let payload = Bytes.of_string "Shello" in
  let ctx = String.init Frame.ctx_len (fun i -> Char.chr (i + 1)) in
  (* Round-trip: the envelope is transparent to its payload. *)
  (match Frame.split_ctx (Frame.with_ctx ~ctx payload) with
  | Some got, inner ->
      check_string "ctx intact" ctx got;
      check "payload intact" true (Bytes.equal inner payload)
  | None, _ -> Alcotest.fail "wrapped payload must yield its context");
  (* A pre-context payload passes through untouched — this is the
     compatibility contract old clients rely on. *)
  (match Frame.split_ctx payload with
  | None, p -> check "plain passthrough" true (p == payload)
  | Some _, _ -> Alcotest.fail "unwrapped payload must carry no context");
  (match Frame.split_ctx Bytes.empty with
  | None, p -> check "empty passthrough" true (Bytes.length p = 0)
  | Some _, _ -> Alcotest.fail "empty payload must carry no context");
  (* Contexts are fixed-width; anything else is a caller bug. *)
  (match Frame.with_ctx ~ctx:"short" payload with
  | _ -> Alcotest.fail "short context must be rejected"
  | exception Invalid_argument _ -> ());
  (* The magic byte with too few bytes behind it is a truncated
     envelope, not a plain payload. *)
  (match Frame.split_ctx (Bytes.of_string (String.make 1 Frame.ctx_magic ^ "abc")) with
  | _ -> Alcotest.fail "truncated context envelope must be refused"
  | exception Failure msg -> check "names truncation" true (contains msg "truncated"));
  (* Nesting order: id outermost, context inside — the mux can
     correlate replies without knowing the context shape. *)
  match Frame.classify (Frame.with_id ~id:9 (Frame.with_ctx ~ctx payload)) with
  | Frame.Id (9, inner) -> (
      match Frame.split_ctx inner with
      | Some got, p ->
          check_string "nested ctx" ctx got;
          check "nested payload" true (Bytes.equal p payload)
      | None, _ -> Alcotest.fail "context lost inside the id envelope")
  | _ -> Alcotest.fail "Id expected"

(* ---------------- mux: scripted peer ---------------- *)

(* A peer that reads [n] id-framed requests, then (once [hold] is
   released, if given) answers them in the order [reply_order] (indices
   into arrival order), echoing each inner payload with an "ack:"
   prefix. *)
(* The scripted peers below answer inside the envelope; a reply outside
   it fails the link with this reason. *)
let mux ?deadline_s fd =
  Mux.create ?deadline_s
    ~plain:(fun _ -> "Mux: peer answered outside the id envelope")
    fd

(* A ticket: a cell the request's completion fills. *)
let send m payload =
  let cell = Ivar.create () in
  Mux.send_cb m payload (Ivar.fill cell);
  cell

let scripted_peer ?hold fd n reply_order =
  Thread.create
    (fun () ->
      let arrived = Array.make n (0, Bytes.empty) in
      for i = 0 to n - 1 do
        match Frame.classify (Frame.read_fd fd) with
        | Frame.Id (id, inner) -> arrived.(i) <- (id, inner)
        | Frame.Plain _ -> failwith "peer expected id-framed requests"
      done;
      Option.iter Semaphore.Binary.acquire hold;
      List.iter
        (fun i ->
          let id, inner = arrived.(i) in
          let echo = Bytes.cat (Bytes.of_string "ack:") inner in
          Frame.write_fd fd (Frame.with_id ~id echo))
        reply_order;
      Unix.close fd)
    ()

let test_mux_out_of_order () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let hold = Semaphore.Binary.make false in
  let peer = scripted_peer ~hold b 3 [ 2; 0; 1 ] in
  let m = mux a in
  let t1 = send m (Bytes.of_string "one") in
  let t2 = send m (Bytes.of_string "two") in
  let t3 = send m (Bytes.of_string "three") in
  check_int "three in flight" 3 (Mux.inflight m);
  Semaphore.Binary.release hold;
  (* Replies arrive 3,1,2 — each ticket still gets its own. *)
  check "t2 correlates" true (Ivar.read t2 = Ok (Bytes.of_string "ack:two"));
  check "t1 correlates" true (Ivar.read t1 = Ok (Bytes.of_string "ack:one"));
  check "t3 correlates" true (Ivar.read t3 = Ok (Bytes.of_string "ack:three"));
  check "await is idempotent" true (Ivar.read t2 = Ok (Bytes.of_string "ack:two"));
  check_int "drained" 0 (Mux.inflight m);
  Thread.join peer;
  Mux.close m

let test_mux_dead_connection_fails_all () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let m = mux a in
  let t = send m (Bytes.of_string "doomed") in
  Unix.close b;
  (match Ivar.read t with
  | Error msg ->
      (* Clean EOF or ECONNRESET (the peer closed with our request still
         unread) — both are a dead connection. *)
      check "failure names the close" true
        (contains msg "closed" || contains msg "reset")
  | Ok _ -> Alcotest.fail "a reply from a closed peer?");
  check "connection marked dead" false (Mux.alive m);
  (match send m (Bytes.of_string "after death") with
  | _ -> Alcotest.fail "send on a dead mux must raise"
  | exception Failure _ -> ());
  Mux.close m;
  Mux.close m (* idempotent *)

let test_mux_plain_reply_is_fatal () =
  (* A peer answering outside the envelope cannot be correlated; the
     connection must fail loudly rather than stall the ticket. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let m = mux a in
  let t = send m (Bytes.of_string "x") in
  Frame.write_fd b (Bytes.of_string "plain reply");
  (match Ivar.read t with
  | Error msg -> check "names the envelope" true (contains msg "envelope")
  | Ok _ -> Alcotest.fail "plain reply must not correlate");
  Mux.close m;
  Unix.close b

(* A peer that echoes every id-framed request except those whose
   payload is "mute", until the connection closes. *)
let echo_peer fd =
  Thread.create
    (fun () ->
      let rec loop () =
        match Frame.classify (Frame.read_fd fd) with
        | Frame.Id (_, inner) when Bytes.to_string inner = "mute" -> loop ()
        | Frame.Id (id, inner) ->
            Frame.write_fd fd
              (Frame.with_id ~id (Bytes.cat (Bytes.of_string "ack:") inner));
            loop ()
        | Frame.Plain _ -> ()
        | exception (End_of_file | Failure _ | Unix.Unix_error _) -> ()
      in
      loop ();
      Unix.close fd)
    ()

let test_mux_deadline_on_a_busy_link () =
  (* The deadline bounds each request: a request the peer never answers
     fails on its own while every other request keeps being answered,
     and the link, never silent, stays up. *)
  let deadline_s = 0.4 in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let peer = echo_peer b in
  let m = mux ~deadline_s a in
  let muted = Atomic.make None in
  let t0 = Unix.gettimeofday () in
  Mux.send_cb m (Bytes.of_string "mute") (fun outcome ->
      Atomic.set muted (Some (outcome, Unix.gettimeofday () -. t0)));
  let answered = ref 0 in
  while Atomic.get muted = None && Unix.gettimeofday () -. t0 < 5. do
    (match Ivar.read (send m (Bytes.of_string "ping")) with
    | Ok _ -> incr answered
    | Error _ -> ());
    Thread.delay 0.02  (* pacing: a ping every 20 ms until the deadline *)
  done;
  (match Atomic.get muted with
  | Some (Error msg, elapsed) ->
      check ("the failure names the deadline: " ^ msg) true
        (contains msg "deadline");
      check (Printf.sprintf "not before the deadline (%.3f s)" elapsed) true
        (elapsed >= deadline_s);
      check
        (Printf.sprintf "within about twice the deadline (%.3f s)" elapsed)
        true
        (elapsed < 2. *. deadline_s)
  | Some (Ok _, _) -> Alcotest.fail "a muted request was answered"
  | None -> Alcotest.fail "the muted request never failed");
  check "other requests were answered meanwhile" true (!answered >= 5);
  check "the link is alive" true (Mux.alive m);
  Mux.close m;
  Thread.join peer

let test_mux_reply_does_not_delay_a_swallowed_request () =
  (* A reply that reaches an otherwise idle link just before a swallowed
     request falls due must not push that request's failure back by up
     to half a deadline. *)
  let deadline_s = 1. in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let peer =
    Thread.create
      (fun () ->
        let read () = Frame.classify (Frame.read_fd b) in
        (match (read (), read ()) with
        | Frame.Id _, Frame.Id (id, inner) ->
            Thread.delay 0.45;
            Frame.write_fd b (Frame.with_id ~id inner)
        | _ -> ());
        (try ignore (Frame.read_fd b)
         with End_of_file | Failure _ | Unix.Unix_error _ -> ());
        Unix.close b)
      ()
  in
  let m = mux ~deadline_s a in
  let swallowed = Ivar.create () in
  let t0 = Unix.gettimeofday () in
  Mux.send_cb m (Bytes.of_string "mute") (fun outcome ->
      Ivar.fill swallowed (outcome, Unix.gettimeofday () -. t0));
  check "the neighbour is answered" true
    (Ivar.read (send m (Bytes.of_string "echo")) = Ok (Bytes.of_string "echo"));
  (match Ivar.read swallowed with
  | Error msg, elapsed ->
      check ("the failure names the deadline: " ^ msg) true
        (contains msg "deadline");
      check (Printf.sprintf "not before the deadline (%.3f s)" elapsed) true
        (elapsed >= deadline_s);
      check (Printf.sprintf "within 1.15 s (%.3f s)" elapsed) true
        (elapsed < 1.15)
  | Ok _, _ -> Alcotest.fail "a swallowed request was answered");
  Mux.close m;
  Thread.join peer

let test_mux_callback_form () =
  (* Each callback fires exactly once, with the reply or the link's
     failure; closing the link from a callback, on the reader's own
     thread, returns. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let peer = echo_peer b in
  let m = mux a in
  let lock = Mutex.create () and all_in = Condition.create () in
  let calls = Array.make 4 [] in
  let record i outcome =
    Mutex.protect lock (fun () ->
        calls.(i) <- outcome :: calls.(i);
        Condition.broadcast all_in)
  in
  let main = Thread.id (Thread.self ()) in
  let closer_thread = ref main in
  (* Three requests the peer never answers, then one it does: its
     callback closes the link, which fails the other three. *)
  for i = 0 to 2 do
    Mux.send_cb m (Bytes.of_string "mute") (record i)
  done;
  Mux.send_cb m (Bytes.of_string "last") (fun outcome ->
      closer_thread := Thread.id (Thread.self ());
      Mux.close m;
      record 3 outcome);
  Mutex.protect lock (fun () ->
      while not (Array.for_all (fun l -> l <> []) calls) do
        Condition.wait all_in lock
      done);
  check "the closing callback ran on the reader's thread" true
    (!closer_thread <> main);
  check "the answered request got its reply" true
    (calls.(3) = [ Ok (Bytes.of_string "ack:last") ]);
  for i = 0 to 2 do
    match calls.(i) with
    | [ Error msg ] ->
        check ("failure names the close: " ^ msg) true (contains msg "closed")
    | _ ->
        Alcotest.failf "request %d: exactly one failure expected" i
  done;
  (match Mux.send_cb m (Bytes.of_string "late") (record 0) with
  | () -> Alcotest.fail "send on a closed link must raise"
  | exception Failure _ -> ());
  Thread.delay 0.05;  (* time for a second callback to fire, were it to *)
  check "no callback fired twice" true
    (Array.for_all (fun l -> List.length l = 1) calls);
  Thread.join peer

let prop_mux_correlation =
  QCheck2.Test.make ~count:40
    ~name:"mux: N interleaved requests correlate under shuffled replies"
    QCheck2.Gen.(pair (int_range 1 12) (int_bound 1_000_000))
    (fun (n, salt) ->
      (* A deterministic shuffle of the reply order from [salt]. *)
      let order = Array.init n Fun.id in
      let state = ref (salt + 1) in
      let next bound =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        !state mod bound
      in
      for i = n - 1 downto 1 do
        let j = next (i + 1) in
        let tmp = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- tmp
      done;
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let peer = scripted_peer b n (Array.to_list order) in
      let m = mux a in
      let tickets =
        List.init n (fun i -> (i, send m (Bytes.of_string (Printf.sprintf "req-%d-%d" salt i))))
      in
      let ok =
        List.for_all
          (fun (i, t) ->
            Ivar.read t = Ok (Bytes.of_string (Printf.sprintf "ack:req-%d-%d" salt i)))
          tickets
      in
      Thread.join peer;
      Mux.close m;
      ok)

(* ---------------- http ---------------- *)

let http_exchange raw =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Thread.create
      (fun () ->
        let bytes = Bytes.of_string raw in
        ignore (Unix.write a bytes 0 (Bytes.length bytes));
        Unix.close a)
      ()
  in
  let conn = Http.conn_of_fd b in
  Fun.protect
    ~finally:(fun () ->
      Thread.join writer;
      Unix.close b)
    (fun () -> Http.read_request conn)

let test_http_request_parsing () =
  (match http_exchange "GET /submit?k=2&note=a%20b+c HTTP/1.1\r\nHost: x\r\nX-Thing: V\r\n\r\n" with
  | Some req ->
      check_string "method uppercased" "GET" req.Http.meth;
      check_string "path split from query" "/submit" req.Http.path;
      check "query decoded" true (Http.query_param req "k" = Some "2");
      check "percent and plus decode" true (Http.query_param req "note" = Some "a b c");
      check "header names lowercase" true (Http.header req "x-thing" = Some "V");
      check "header lookup is case-insensitive" true (Http.header req "X-THING" = Some "V");
      check_string "no body on GET" "" req.Http.body;
      check "1.1 defaults to keep-alive" true (Http.keep_alive req)
  | None -> Alcotest.fail "request expected");
  (match http_exchange "POST /submit HTTP/1.1\r\nContent-Length: 11\r\nConnection: close\r\n\r\nssg-run v1\n" with
  | Some req ->
      check_string "body by content-length" "ssg-run v1\n" req.Http.body;
      check "connection: close opts out" false (Http.keep_alive req)
  | None -> Alcotest.fail "request expected");
  (match http_exchange "GET / HTTP/1.0\r\n\r\n" with
  | Some req -> check "1.0 defaults to close" false (Http.keep_alive req)
  | None -> Alcotest.fail "request expected");
  (* Clean EOF between requests: None, not an error. *)
  check "clean EOF" true (http_exchange "" = None)

let test_http_request_rejection () =
  let bad raw fragment =
    match http_exchange raw with
    | Some _ | None -> Alcotest.fail ("must reject: " ^ String.escaped raw)
    | exception Http.Bad_request msg ->
        check ("reason mentions " ^ fragment) true (contains msg fragment)
  in
  bad "NONSENSE\r\n\r\n" "request line";
  bad "GET /\r\n\r\n" "request line";
  bad "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n" "chunked";
  bad "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n" "content-length";
  (* Header blocks have a budget; don't let a hostile peer feed forever. *)
  bad ("GET / HTTP/1.1\r\nX: " ^ String.make 20_000 'a' ^ "\r\n\r\n") "header"

let test_http_write_response () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Http.write_response ~status:404 ~keep_alive:false a "{\"error\":\"nope\"}";
  Unix.close a;
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec drain () =
    match Unix.read b chunk 0 1024 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  Unix.close b;
  let text = Buffer.contents buf in
  check "status line" true (contains text "HTTP/1.1 404 Not Found");
  check "content-length framing" true (contains text "content-length: 16");
  check "json by default" true (contains text "application/json");
  check "connection close honored" true (contains text "connection: close");
  check "body last" true (contains text "{\"error\":\"nope\"}")

let test_http_json_escape () =
  check_string "quotes and control chars" "a\\\"b\\\\c\\n\\u0001"
    (Http.json_escape "a\"b\\c\n\001")

(* ---------------- server over TCP, pipelined ---------------- *)

let test_tcp_server_end_to_end () =
  let socket, thread = start_server () in
  (* The blocking client works unchanged over TCP. *)
  let c = Client.connect ~socket ~deadline_s:10. () in
  let completion = Client.submit c (good_job ()) in
  check "job served over tcp" true (Result.is_ok completion.Job.result);
  (match Client.submit c (bad_job ()) with
  | _ -> Alcotest.fail "lint-rejected job must error"
  | exception Failure msg -> check "lint diagnostics relayed" true (contains msg "SSG"));
  let s = Client.stats c in
  check "stats over tcp" true (s.Telemetry.jobs_submitted >= 1);
  Client.close c;
  stop_server socket thread

let test_pclient_correlation_under_load () =
  let socket, thread = start_server () in
  let pc = Client.connect ~socket ~deadline_s:30. () in
  (* 24 distinct jobs in flight at once; each ticket must resolve to
     the completion of its own job — checked through the inputs array,
     which round-trips into the outcome's decision count. *)
  let tickets =
    List.init 24 (fun i ->
        let inputs = Array.init 6 (fun j -> (100 * i) + j) in
        (i, Client.submit_async pc (good_job ~inputs ())))
  in
  List.iter
    (fun (i, t) ->
      match Client.await t with
      | Ok completion -> (
          match completion.Job.result with
          | Ok outcome ->
              check_int (Printf.sprintf "job %d answered with its own outcome" i) 6
                outcome.Job.n;
              check
                (Printf.sprintf "job %d decisions drawn from its own inputs" i)
                true
                (Array.for_all
                   (function
                     | Some (_, v) -> v >= 100 * i && v < (100 * i) + 6
                     | None -> true)
                   outcome.Job.decisions)
          | Error e -> Alcotest.fail e)
      | Error e -> Alcotest.fail e)
    (List.rev tickets);
  Client.close pc;
  stop_server socket thread

let test_pclient_no_head_of_line_blocking () =
  (* One worker, several slow jobs ahead of one cache hit: on a strict
     in-order connection the hit would wait behind the queue; on the
     pipelined connection it overtakes.  The fault plan makes every
     execution sleep, so the worker holds no core while the hit is
     answered.  The pool queue holds two jobs, so most slow submissions
     block in the enqueue: the hit must not wait behind them either. *)
  let faults = Faults.create ~slow_every:1 ~slow_s:0.2 () in
  let socket, thread = start_server ~workers:1 ~queue_capacity:2 ~faults () in
  let pc = Client.connect ~socket ~deadline_s:60. () in
  let warm = good_job () in
  (match Client.await (Client.submit_async pc warm) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let slow =
    List.init 8 (fun i ->
        Client.submit_async pc
          (good_job ~inputs:(Array.init 6 (fun j -> (1000 * (i + 1)) + j)) ()))
  in
  let fast = Client.submit_async pc warm in
  (match Client.await fast with
  | Ok completion ->
      check "fast reply is the cache hit" true completion.Job.cached;
      check_int "every slow job still outstanding when the hit returns" 8
        (Client.inflight pc)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun t ->
      match Client.await t with
      | Ok completion -> check "slow job eventually ok" true (Result.is_ok completion.Job.result)
      | Error e -> Alcotest.fail e)
    slow;
  Client.close pc;
  stop_server socket thread

let test_pclient_lint_rejection_is_error_result () =
  let socket, thread = start_server () in
  let pc = Client.connect ~socket ~deadline_s:10. () in
  (match Client.await (Client.submit_async pc (bad_job ())) with
  | Error msg -> check "diagnostics in the message" true (contains msg "SSG")
  | Ok _ -> Alcotest.fail "a lint-rejected job must come back as an Error");
  (match Client.submit pc (good_job ()) with
  | completion -> check "sync submit ok" true (Result.is_ok completion.Job.result));
  Client.close pc;
  check "closed pclient is dead" false (Client.alive pc);
  stop_server socket thread

(* A twin of a rejected job gets its submitter's Error, byte for byte,
   never a completion.  The gate of an edgeless n = 1024 run at k = 1
   takes about half a second, so the twin, sent once the first job's
   [engine.lint] span has begun, joins it in flight.  (At n = 512 the
   gate's ~80 ms is shorter than the hand-offs of the runtime lock
   between the test's and the server's threads, and the twin often
   arrived after it.) *)
let test_rejected_twin_gets_the_same_error () =
  let socket, thread = start_server ~trace:true () in
  Fun.protect
    ~finally:(fun () -> Ssg_obs.Tracer.set_enabled false)
    (fun () ->
      let job = Job.of_run_text ~k:1 "ssg-run v1\nn 1024\nstable:\n" in
      let pc = Client.connect ~socket ~deadline_s:10. () in
      let first = Client.submit_async pc job in
      Service.eventually ~what:"the engine.lint span began" (fun () ->
          List.exists
            (fun (e : Ssg_obs.Tracer.event) ->
              e.kind = Ssg_obs.Tracer.Begin && e.name = "engine.lint")
            (Ssg_obs.Tracer.events ()));
      let twin = Client.submit_async pc job in
      let r1 = Client.await first and r2 = Client.await twin in
      let s = Client.stats pc in
      Client.close pc;
      stop_server socket thread;
      check_int "the twin joined the job in flight" 1 s.Telemetry.dedup_joins;
      check_int "one lint rejection" 1 s.Telemetry.jobs_rejected_lint;
      match (r1, r2) with
      | Error m1, Error m2 ->
          check "a lint rejection" true
            (String.starts_with ~prefix:"job rejected by lint:" m1);
          check_string "the twin's Error is the submitter's" m1 m2
      | _ -> Alcotest.fail "both submissions must come back as an Error")

let test_backpressure_at_inflight_cap () =
  (* cap = 2: flooding 16 requests still answers all of them — the
     reader serves inline past the cap instead of queueing unboundedly. *)
  let socket, thread = start_server ~workers:1 ~max_inflight:2 () in
  let pc = Client.connect ~socket ~deadline_s:30. () in
  let tickets =
    List.init 16 (fun i ->
        Client.submit_async pc (good_job ~inputs:(Array.init 6 (fun j -> (50 * i) + j)) ()))
  in
  List.iter
    (fun t ->
      match Client.await t with
      | Ok completion -> check "answered" true (Result.is_ok completion.Job.result)
      | Error e -> Alcotest.fail e)
    tickets;
  Client.close pc;
  stop_server socket thread

(* The supervised-close regression: a client that vanishes between
   request and reply costs the server nothing but that connection. *)
let test_client_vanishes_before_reply () =
  let socket, thread = start_server () in
  let addr = Transport.of_string_exn socket in
  (* Send a submit, close before the reply arrives. *)
  let fd = Transport.connect addr in
  let req =
    Protocol.request_to_bytes
      (Protocol.Submit (good_job ~inputs:(Array.init 6 (fun j -> 8000 + j)) ~rounds:4000 ()))
  in
  Frame.write_fd fd (Frame.with_id ~id:1 req);
  Unix.close fd;
  (* The server must shrug it off (EPIPE/ECONNRESET on the reply
     write) and keep serving everyone else: time for the write to fail,
     were it to take the server down. *)
  Thread.delay 0.2;
  let c = Client.connect ~socket ~deadline_s:20. () in
  let completion = Client.submit c (good_job ()) in
  check "server survived the vanishing client" true
    (Result.is_ok completion.Job.result);
  check "stats still served" true
    ((Client.stats c).Telemetry.jobs_submitted >= 1);
  Client.close c;
  stop_server socket thread

(* The context envelope is optional: requests with and without one,
   interleaved on one connection, are both served. *)
let test_ctx_optional () =
  let socket, thread = start_server () in
  let pc = Client.connect ~socket ~deadline_s:30. () in
  let bare =
    Client.submit_async pc (good_job ~inputs:(Array.init 6 (fun j -> 9200 + j)) ())
  in
  let framed =
    Client.submit_async
      ~ctx:(Ssg_obs.Context.root ())
      pc
      (good_job ~inputs:(Array.init 6 (fun j -> 9300 + j)) ())
  in
  List.iter
    (fun (label, t) ->
      match Client.await t with
      | Ok completion -> check label true (Result.is_ok completion.Job.result)
      | Error e -> Alcotest.fail (label ^ ": " ^ e))
    [
      ("request without a context served", bare);
      ("ctx-framed request served", framed);
    ];
  Client.close pc;
  (* And the blocking form's ctx path end to end. *)
  let c = Client.connect ~socket ~deadline_s:10. () in
  let completion = Client.submit ~ctx:(Ssg_obs.Context.root ()) c (good_job ()) in
  check "client ctx submit served" true (Result.is_ok completion.Job.result);
  Client.close c;
  stop_server socket thread

(* A request without the id envelope has no id to answer under: one
   uncorrelated Error, then the connection closes, and the request is
   never run — a Shutdown sent that way leaves the server up.  Other
   connections are served meanwhile. *)
let test_request_outside_id_envelope () =
  let socket, thread = start_server () in
  let c = Client.connect ~socket ~deadline_s:10. () in
  let before = (Client.stats c).Telemetry.rejected_frames in
  let fd = Transport.connect (Transport.of_string_exn socket) in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  Frame.write_fd fd (Protocol.request_to_bytes Protocol.Shutdown);
  (match Frame.classify (Frame.read_fd fd) with
  | Frame.Plain payload -> (
      match Protocol.reply_of_bytes payload with
      | Protocol.Error msg ->
          check "the Error names the envelope" true (contains msg "id envelope")
      | _ -> Alcotest.fail "an Error reply expected")
  | Frame.Id _ -> Alcotest.fail "the reply cannot repeat an id it never got");
  let completion = Client.submit c (good_job ()) in
  check "another connection served meanwhile" true
    (Result.is_ok completion.Job.result);
  check "then EOF" true
    (match Frame.read_fd fd with
    | _ -> false
    | exception End_of_file -> true);
  Unix.close fd;
  check_int "the frame counted as rejected" (before + 1)
    (Client.stats c).Telemetry.rejected_frames;
  Client.close c;
  stop_server socket thread

(* The client takes a reply only under its request's id.  An id-less
   [Error] — how a server refuses a connection at its limit — fails the
   connection with the server's reason; a reply under an id nobody
   waits for is dropped.  Scripted peer: read one request, write
   [reply id] where [id] is the request's, then close. *)
let test_client_reply_correlation () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ssg-net-client-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let addr = Transport.of_string_exn path in
  let listen_fd = Transport.listen addr in
  let stats_answered reply =
    let peer =
      Thread.create
        (fun () ->
          let fd, _ = Unix.accept listen_fd in
          (match Frame.classify (Frame.read_fd fd) with
          | Frame.Id (id, _) -> Frame.write_fd fd (reply id)
          | Frame.Plain _ -> ());
          Unix.close fd)
        ()
    in
    let c = Client.connect ~retries:0 ~deadline_s:5. ~socket:path () in
    let result =
      match Client.stats c with
      | _ -> Ok ()
      | exception Failure msg -> Error msg
    in
    Client.close c;
    Thread.join peer;
    result
  in
  let refused label needle = function
    | Error msg -> check label true (contains msg needle)
    | Ok () -> Alcotest.fail (label ^ ": the reply was accepted")
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close listen_fd;
      Transport.cleanup addr)
    (fun () ->
      refused "an id-less Error is the server's answer"
        "server error: server at connection limit"
        (stats_answered (fun _ ->
             Protocol.reply_to_bytes
               (Protocol.Error "server at connection limit")));
      refused "a reply under another id is dropped" "closed by peer"
        (stats_answered (fun id ->
             Frame.with_id ~id:(id + 1) (Protocol.reply_to_bytes Protocol.Ack)));
      refused "any other id-less reply is refused" "outside the id envelope"
        (stats_answered (fun _ -> Protocol.reply_to_bytes Protocol.Ack)))

(* ---------------- router over TCP ---------------- *)

let test_router_over_tcp () =
  let w1, wt1 = start_server () in
  let w2, wt2 = start_server () in
  let router = fresh_tcp () in
  let rt =
    Thread.create
      (fun () ->
        Ssg_cluster.Router.serve ~down_after:2 ~probe_interval_s:0.5
          ~request_timeout_s:10. ~drain_timeout_s:5. ~backends:[ w1; w2 ]
          ~socket:router ())
      ()
  in
  let c = Service.connect router in
  let completions =
    Service.submit_all c
      (List.init 8 (fun i -> good_job ~inputs:(Array.init 6 (fun j -> (300 * i) + j)) ()))
  in
  check_int "batch answered through the tcp router" 8 (List.length completions);
  List.iter
    (fun (completion : Job.completion) ->
      check "routed job ok" true (Result.is_ok completion.Job.result))
    completions;
  let s = Client.stats c in
  check_int "merged stats see both workers" 4 s.Telemetry.workers;
  Client.shutdown c;
  Client.close c;
  Thread.join rt;
  stop_server w1 wt1;
  stop_server w2 wt2

(* ---------------- signals: transient EINTR ---------------- *)

(* A signal mid-[connect]/[accept] surfaces as EINTR; the transport and
   server loops must restart the call instead of failing the exchange.
   Hammer the process with no-op SIGUSR1 from a side thread while fresh
   connections submit jobs — every request must still be answered. *)
let with_signal_fire f =
  let previous = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ())) in
  let stop = Atomic.make false in
  let pid = Unix.getpid () in
  let bomber =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Unix.kill pid Sys.sigusr1;
          Thread.delay 0.0005 (* pacing: a signal every 0.5 ms *)
        done)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join bomber;
      Sys.set_signal Sys.sigusr1 previous)
    f

let test_signals_during_submits () =
  let socket, thread = start_server () in
  with_signal_fire (fun () ->
      for i = 1 to 20 do
        (* A fresh connection per job: each one walks connect() (and the
           server's accept()) with signals in flight. *)
        let c = Service.connect socket in
        let completion =
          Client.submit c
            (good_job ~inputs:(Array.init 6 (fun j -> (100 * i) + j)) ())
        in
        check "answered under signal fire" true
          (Result.is_ok completion.Job.result);
        Client.close c
      done);
  stop_server socket thread

let test_prepare_keeps_live_socket_under_signals () =
  (* Regression: [Transport.prepare]'s liveness probe used to treat any
     [Unix_error] — EINTR included — as "dead server" and unlink the
     socket file out from under a live listener. *)
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ssg-net-eintr-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let addr = Transport.of_string_exn path in
  let listen_fd = Transport.listen addr in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Transport.cleanup addr)
    (fun () ->
      with_signal_fire (fun () ->
          for _ = 1 to 50 do
            (match Transport.listen addr with
            | fd ->
                (try Unix.close fd with Unix.Unix_error _ -> ());
                Alcotest.fail "double-bind of a live socket must be refused"
            | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
            check "socket file survives the probe" true (Sys.file_exists path)
          done))

(* ---------------- suite ---------------- *)

let tests =
  [
    Alcotest.test_case "transport: parse" `Quick test_transport_parse;
    Alcotest.test_case "transport: to_string" `Quick test_transport_to_string;
    Alcotest.test_case "transport: listen/connect tcp:0" `Quick
      test_transport_listen_connect;
    QCheck_alcotest.to_alcotest prop_transport_roundtrip;
    Alcotest.test_case "frame: id envelope" `Quick test_frame_envelope;
    Alcotest.test_case "frame: fd round-trip and size caps" `Quick
      test_frame_fd_roundtrip;
    Alcotest.test_case "frame: eof semantics" `Quick test_frame_eof_semantics;
    Alcotest.test_case "frame: context envelope" `Quick test_frame_ctx_envelope;
    Alcotest.test_case "mux: out-of-order replies" `Quick test_mux_out_of_order;
    Alcotest.test_case "mux: dead connection fails all" `Quick
      test_mux_dead_connection_fails_all;
    Alcotest.test_case "mux: plain reply is fatal" `Quick
      test_mux_plain_reply_is_fatal;
    Alcotest.test_case "mux: deadline on a busy link" `Quick
      test_mux_deadline_on_a_busy_link;
    Alcotest.test_case "mux: a reply delays no swallowed request" `Quick
      test_mux_reply_does_not_delay_a_swallowed_request;
    Alcotest.test_case "mux: callback form" `Quick test_mux_callback_form;
    QCheck_alcotest.to_alcotest prop_mux_correlation;
    Alcotest.test_case "http: request parsing" `Quick test_http_request_parsing;
    Alcotest.test_case "http: rejection" `Quick test_http_request_rejection;
    Alcotest.test_case "http: response writing" `Quick test_http_write_response;
    Alcotest.test_case "http: json escape" `Quick test_http_json_escape;
    Alcotest.test_case "server: tcp end to end" `Quick test_tcp_server_end_to_end;
    Alcotest.test_case "pclient: correlation under load" `Quick
      test_pclient_correlation_under_load;
    Alcotest.test_case "pclient: no head-of-line blocking" `Quick
      test_pclient_no_head_of_line_blocking;
    Alcotest.test_case "pclient: lint rejection" `Quick
      test_pclient_lint_rejection_is_error_result;
    Alcotest.test_case "client: a rejected job's twin, same Error" `Quick
      test_rejected_twin_gets_the_same_error;
    Alcotest.test_case "server: back-pressure at the in-flight cap" `Quick
      test_backpressure_at_inflight_cap;
    Alcotest.test_case "server: client vanishes before reply" `Quick
      test_client_vanishes_before_reply;
    Alcotest.test_case "server: with and without a context" `Quick
      test_ctx_optional;
    Alcotest.test_case "server: request outside the id envelope" `Quick
      test_request_outside_id_envelope;
    Alcotest.test_case "client: replies correlate by id" `Quick
      test_client_reply_correlation;
    Alcotest.test_case "router: over tcp" `Quick test_router_over_tcp;
    Alcotest.test_case "signals: submits survive EINTR fire" `Quick
      test_signals_during_submits;
    Alcotest.test_case "signals: prepare keeps live socket" `Quick
      test_prepare_keeps_live_socket_under_signals;
  ]
