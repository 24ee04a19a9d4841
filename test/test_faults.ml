(* Chaos suite for the ssgd service: a real server driven by
   adversarial clients (malformed jobs, garbage frames, mid-frame
   disconnects, half-open connections, saturation bursts) and by an
   injected fault plan (crashing / slow jobs, corrupted / truncated
   replies).  The assertions mirror the supervision contract: every
   well-formed request gets a reply, every hostile exchange ends with an
   [Error] and a closed connection, the telemetry counters record each
   fault class, and nothing hangs or leaks a descriptor. *)

open Ssg_adversary
open Ssg_util
open Ssg_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---------------- harness ---------------- *)

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ssgd-chaos-%d-%d.sock" (Unix.getpid ()) !socket_counter)

(* Start a server in a thread; return the socket, the thread, and a
   connected control client (which also proves the server is up). *)
let start_server ?(workers = 1) ?(queue_capacity = 16) ?max_connections
    ?read_timeout_s ?(drain_timeout_s = 5.) ?faults () =
  let socket = fresh_socket () in
  if Sys.file_exists socket then Sys.remove socket;
  let thread =
    Thread.create
      (fun () ->
        Server.serve ~workers ~queue_capacity ~cache_capacity:64
          ?max_connections ?read_timeout_s ~drain_timeout_s ?faults ~socket ())
      ()
  in
  let rec wait_up tries =
    if tries = 0 then Alcotest.fail "server did not come up";
    match Client.connect ~socket ~deadline_s:10. () with
    | c -> c
    | exception Unix.Unix_error _ ->
        Thread.delay 0.05;
        wait_up (tries - 1)
  in
  let control = wait_up 100 in
  (socket, thread, control)

let stop_server control thread =
  Client.shutdown control;
  Client.close control;
  Thread.join thread

(* A raw adversarial connection: no Client niceties, just a descriptor
   with a receive timeout so a buggy server cannot hang the suite. *)
let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5. with _ -> ());
  fd

let raw_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* [Ok reply], [Error `Eof] on a closed connection, [Error `Timeout] if
   nothing arrived before the receive timeout. *)
let try_read_reply fd =
  match Raw_wire.read_reply fd with
  | reply -> Ok reply
  | exception End_of_file -> Error `Eof
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Error `Timeout
  | exception Failure msg -> Error (`Garbled msg)

let sample_adv ?(seed = 11) ?(n = 6) () =
  Build.block_sources (Rng.of_int seed) ~n ~k:2 ~prefix_len:1 ()

let sample_job ?seed () = Job.make ~k:2 (sample_adv ?seed ())

let open_fds () =
  Array.length (Sys.readdir "/proc/self/fd")

(* ---------------- hand-rolled wire encoding ---------------- *)

(* The regression payloads must be built without [Job]'s constructors —
   those validate.  Minimal re-implementation of the writers. *)

let put_int buf x =
  let open Int64 in
  let v = of_int x in
  for shift = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (to_int (logand (shift_right_logical v (8 * shift)) 0xFFL)))
  done

let valid_run_text =
  "ssg-run v1\nn 3\nround 1: 1>0 0>2 1>2 2>1\nstable: 1>0 0>2 1>2\n"

(* A [Submit] payload that frames perfectly but carries k = 0 — the
   exact shape that used to escape the connection handler as
   [Invalid_argument], skip the [close], and leave the client blocked in
   read_reply forever. *)
let k0_submit_payload () =
  let buf = Buffer.create 128 in
  Buffer.add_char buf 'S';
  put_int buf (String.length valid_run_text);
  Buffer.add_string buf valid_run_text;
  Buffer.add_char buf '\000';  (* algorithm tag: Kset *)
  put_int buf 0;  (* k = 0: rejected by Job.build *)
  Buffer.add_char buf '\000';  (* inputs = None *)
  Buffer.add_char buf '\000';  (* rounds = None *)
  Buffer.add_char buf '\000';  (* monitor = false *)
  Buffer.to_bytes buf

(* ---------------- regression: malformed job over the wire ---------- *)

let test_k0_submit_gets_error_and_close () =
  let socket, thread, control = start_server () in
  let fd = raw_connect socket in
  Raw_wire.send_payload fd (k0_submit_payload ());
  (match try_read_reply fd with
  | Ok (Protocol.Error msg) ->
      check "error names the bad parameter" true
        (contains msg "k must be >= 1")
  | Ok _ -> Alcotest.fail "expected an Error reply to the k=0 job"
  | Error `Timeout ->
      Alcotest.fail "no reply to the k=0 job: client would hang forever"
  | Error `Eof -> Alcotest.fail "connection closed without a reply"
  | Error (`Garbled msg) -> Alcotest.fail ("garbled reply: " ^ msg));
  (* The hostile connection is then closed by the server... *)
  check "connection closed after the error" true
    (try_read_reply fd = Error `Eof);
  raw_close fd;
  (* ... and the server is still serving healthy clients. *)
  let ok = Client.submit control (sample_job ()) in
  check "server alive after malformed job" true (Result.is_ok ok.Job.result);
  let s = Client.stats control in
  check "rejected frame counted" true (s.Telemetry.rejected_frames >= 1);
  stop_server control thread

(* A run text that does not parse, sent as is (line 3 names node 9 of
   3), and the same text with its SSG000 muted by a directive: neither
   has a canonical form, so the worker refuses both at its lint front
   door. *)
let unparseable_job () =
  Job.as_sent ~algorithm:Job.Kset ~k:2 ~monitor:false
    "ssg-run v1\nn 3\nstable: 0>1 1>9\n"

let muted_unparseable_job () =
  Job.as_sent ~algorithm:Job.Kset ~k:2 ~monitor:false
    "ssg-run v1\nn 3\nstable: 0>1 1>9\n# ssg-lint: disable=SSG000\n"

let check_unparseable_refusal label msg =
  check (label ^ ": a lint rejection") true
    (String.starts_with ~prefix:"job rejected by lint:" msg);
  check (label ^ ": SSG000") true (contains msg "SSG000");
  check (label ^ ": names the failing line") true (contains msg "line 3");
  check (label ^ ": and its edge") true (contains msg "1>9")

let test_unparseable_run_keeps_connection () =
  (* One id-framed connection: the bad jobs are answered with the lint
     gate's SSG000 rejection, and the jobs around them, and after them,
     are served on the same connection. *)
  let socket, thread, control = start_server () in
  let before = Client.stats control in
  let pc = Pclient.connect ~socket ~deadline_s:10. () in
  let good1 = Pclient.submit pc (sample_job ~seed:41 ()) in
  let bad = Pclient.submit pc (unparseable_job ()) in
  let muted = Pclient.submit pc (muted_unparseable_job ()) in
  let good2 = Pclient.submit pc (sample_job ~seed:42 ()) in
  let served label ticket =
    match Pclient.await ticket with
    | Ok c -> check label true (Result.is_ok c.Job.result)
    | Error e -> Alcotest.fail (label ^ ": " ^ e)
  in
  let refused label ticket =
    match Pclient.await ticket with
    | Error msg -> check_unparseable_refusal label msg
    | Ok _ -> Alcotest.fail (label ^ ": expected an Error reply")
  in
  refused "bad job" bad;
  refused "muted bad job" muted;
  served "job before the bad ones" good1;
  served "job after the bad ones" good2;
  served "a later job on the same connection"
    (Pclient.submit pc (sample_job ~seed:43 ()));
  check "connection still alive" true (Pclient.alive pc);
  Pclient.close pc;
  let after = Client.stats control in
  check_int "no frame rejected" before.Telemetry.rejected_frames
    after.Telemetry.rejected_frames;
  check_int "both counted as lint rejections"
    (before.Telemetry.jobs_rejected_lint + 2)
    after.Telemetry.jobs_rejected_lint;
  stop_server control thread

let test_batch_with_unparseable_job () =
  (* A bad job in a batch costs only its own slot. *)
  let socket, thread, control = start_server () in
  let c = Client.connect ~socket ~deadline_s:10. () in
  (match
     Client.submit_batch c
       [ sample_job ~seed:51 (); unparseable_job (); sample_job ~seed:52 () ]
   with
  | [ first; bad; last ] ->
      check "first slot served" true (Result.is_ok first.Job.result);
      check "last slot served" true (Result.is_ok last.Job.result);
      (match bad.Job.result with
      | Error msg -> check_unparseable_refusal "bad slot" msg
      | Ok _ -> Alcotest.fail "the bad slot must carry an error")
  | cs -> Alcotest.failf "%d completions for a 3-job batch" (List.length cs));
  check "connection still serves" true
    (Result.is_ok (Client.submit c (sample_job ~seed:53 ())).Job.result);
  Client.close c;
  stop_server control thread

(* ---------------- adversarial framing ---------------- *)

let test_garbage_and_midframe_disconnects () =
  let socket, thread, control = start_server () in
  (* Garbage payload in a well-delimited frame: Error reply, then the
     connection is dropped. *)
  let fd = raw_connect socket in
  Raw_wire.send_payload fd (Bytes.of_string "ZZZZ-not-a-request");
  (match try_read_reply fd with
  | Ok (Protocol.Error _) -> ()
  | _ -> Alcotest.fail "garbage frame must be answered with Error");
  check "connection dropped after garbage" true
    (try_read_reply fd = Error `Eof);
  raw_close fd;
  (* Oversized frame header: refused outright. *)
  let fd = raw_connect socket in
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 (Int32.of_int (Protocol.max_frame_bytes + 1));
  ignore (Unix.write fd header 0 4);
  (match try_read_reply fd with
  | Ok (Protocol.Error _) -> ()
  | _ -> Alcotest.fail "oversized frame must be answered with Error");
  raw_close fd;
  (* Mid-frame disconnect: promise 100 bytes, deliver 10, vanish. *)
  let fd = raw_connect socket in
  Bytes.set_int32_be header 0 100l;
  ignore (Unix.write fd header 0 4);
  ignore (Unix.write fd (Bytes.make 10 'x') 0 10);
  raw_close fd;
  Thread.delay 0.05;
  (* The server shrugged all of it off. *)
  let ok = Client.submit control (sample_job ()) in
  check "server alive after framing attacks" true (Result.is_ok ok.Job.result);
  let s = Client.stats control in
  check "every attack counted as a rejected frame" true
    (s.Telemetry.rejected_frames >= 3);
  stop_server control thread

(* ---------------- half-open clients are reaped ---------------- *)

let test_read_timeout_reaps_stalled_connection () =
  let socket, thread, control = start_server ~read_timeout_s:0.2 () in
  (* The control connection is also subject to the timeout; it will be
     reaped while we idle below, so drop it and use fresh ones. *)
  Client.close control;
  let fd = raw_connect socket in
  (* Send nothing; the server must reap us, we must see the close. *)
  let reaped =
    match try_read_reply fd with Error `Eof -> true | _ -> false
  in
  check "server closed the half-open connection" true reaped;
  raw_close fd;
  let c = Client.connect ~socket ~deadline_s:10. () in
  let s = Client.stats c in
  check "reap counted" true (s.Telemetry.timed_out_connections >= 1);
  (* A fresh client that actually talks still gets served. *)
  let ok = Client.submit c (sample_job ()) in
  check "server alive after reaping" true (Result.is_ok ok.Job.result);
  stop_server c thread

(* ---------------- connection limit ---------------- *)

let test_connection_limit () =
  let socket, thread, control = start_server ~max_connections:2 () in
  (* [control] occupies one slot; a raw idle connection takes the other. *)
  let held = raw_connect socket in
  Thread.delay 0.05;
  let fd = raw_connect socket in
  (match try_read_reply fd with
  | Ok (Protocol.Error msg) ->
      check "rejection says why" true (contains msg "limit")
  | _ -> Alcotest.fail "over-limit connection must get an Error reply");
  check "then closed" true (try_read_reply fd = Error `Eof);
  raw_close fd;
  raw_close held;
  Thread.delay 0.05;
  let s = Client.stats control in
  check "rejection counted" true (s.Telemetry.connections_rejected >= 1);
  stop_server control thread

(* ---------------- injected faults: crash / slow jobs -------------- *)

let test_injected_crashes_still_reply () =
  let faults = Faults.create ~crash_every:2 () in
  let socket, thread, control = start_server ~workers:2 ~faults () in
  ignore socket;
  let jobs = List.init 6 (fun i -> sample_job ~seed:(2000 + i) ()) in
  let completions = List.map (Client.submit control) jobs in
  check_int "every submission got a reply" 6 (List.length completions);
  let failed =
    List.length
      (List.filter (fun c -> Result.is_error c.Job.result) completions)
  in
  check_int "every second execution crashed" 3 failed;
  let s = Client.stats control in
  check_int "injections counted" 3 s.Telemetry.faults_injected;
  check_int "crashes counted as failed jobs" 3 s.Telemetry.jobs_failed;
  check "failures are not cached" true (s.Telemetry.cache_entries <= 3);
  stop_server control thread

let test_slow_jobs_hit_client_deadline () =
  let faults = Faults.create ~slow_every:1 ~slow_s:0.5 () in
  let socket, thread, control = start_server ~faults () in
  let c = Client.connect ~socket ~deadline_s:0.1 () in
  let deadline_hit =
    match Client.submit c (sample_job ~seed:31 ()) with
    | _ -> false
    | exception Failure msg -> contains msg "deadline"
  in
  Client.close c;
  check "client gave up at its deadline instead of hanging" true deadline_hit;
  stop_server control thread

(* ---------------- injected faults: reply corruption --------------- *)

let test_corrupt_and_truncated_replies_fail_cleanly () =
  let faults = Faults.create ~corrupt_every:1 () in
  let socket, thread, control0 = start_server ~faults () in
  let c = Client.connect ~socket ~deadline_s:5. () in
  let corrupt_detected =
    match Client.submit c (sample_job ~seed:41 ()) with
    | _ -> false
    | exception Failure _ -> true
  in
  Client.close c;
  check "corrupted reply rejected by the client decoder" true corrupt_detected;
  (* control0 was connected before; its stats exchange will also be
     corrupted, so shut down over a raw socket instead. *)
  let fd = raw_connect socket in
  Raw_wire.send fd Protocol.Shutdown;
  ignore (try_read_reply fd);
  raw_close fd;
  Client.close control0;
  Thread.join thread;
  (* Truncated replies: the client must detect the mid-frame death. *)
  let faults = Faults.create ~truncate_every:1 () in
  let socket, thread, control0 = start_server ~faults () in
  let c = Client.connect ~socket ~deadline_s:5. () in
  let truncation_detected =
    match Client.submit c (sample_job ~seed:42 ()) with
    | _ -> false
    | exception Failure msg -> contains msg "mid-frame"
  in
  Client.close c;
  check "truncated reply detected as a mid-frame death" true
    truncation_detected;
  let fd = raw_connect socket in
  Raw_wire.send fd Protocol.Shutdown;
  ignore (try_read_reply fd);
  raw_close fd;
  Client.close control0;
  Thread.join thread

(* ---------------- queue saturation burst ---------------- *)

let test_saturation_burst_every_request_answered () =
  let faults = Faults.create ~slow_every:1 ~slow_s:0.02 () in
  (* 16 concurrent distinct jobs against a 1-worker, 2-slot queue: the
     burst must drain through backpressure, never drop a reply. *)
  let socket, thread, control =
    start_server ~workers:1 ~queue_capacity:2 ~faults ()
  in
  let answered = Atomic.make 0 and wrong = Atomic.make 0 in
  let clients =
    List.init 8 (fun t ->
        Thread.create
          (fun () ->
            try
              let c = Client.connect ~socket ~deadline_s:30. () in
              let mine =
                [ sample_job ~seed:(5000 + t) (); sample_job ~seed:(6000 + t) () ]
              in
              List.iter
                (fun job ->
                  match (Client.submit c job).Job.result with
                  | Ok _ -> Atomic.incr answered
                  | Error _ -> Atomic.incr wrong)
                mine;
              Client.close c
            with _ -> Atomic.incr wrong)
          ())
  in
  List.iter Thread.join clients;
  check_int "no reply lost or failed under saturation" 0 (Atomic.get wrong);
  check_int "all 16 burst submissions answered" 16 (Atomic.get answered);
  let s = Client.stats control in
  check_int "all 16 executed exactly once" 16 s.Telemetry.jobs_completed;
  stop_server control thread

(* ---------------- shutdown drains live connections ---------------- *)

let test_shutdown_drains_inflight_request () =
  let faults = Faults.create ~slow_every:1 ~slow_s:0.3 () in
  let socket, thread, control = start_server ~faults () in
  let inflight_result = ref None in
  let submitter =
    Thread.create
      (fun () ->
        let c = Client.connect ~socket ~deadline_s:10. () in
        (inflight_result :=
           match Client.submit c (sample_job ~seed:71 ()) with
           | completion -> Some (Result.is_ok completion.Job.result)
           | exception _ -> Some false);
        Client.close c)
      ()
  in
  Thread.delay 0.1;  (* the slow job is now in flight *)
  Client.shutdown control;
  Client.close control;
  Thread.join submitter;
  Thread.join thread;
  check "in-flight request was answered during shutdown drain" true
    (!inflight_result = Some true)

(* An idle peer must not hold shutdown for the whole drain budget: its
   reader is handed an EOF at once, and it sees the close. *)
let test_shutdown_closes_idle_connections () =
  let socket, thread, control = start_server ~drain_timeout_s:10. () in
  let idle = raw_connect socket in
  (* One exchange proves the connection was accepted; then it idles. *)
  Raw_wire.send idle Protocol.Stats;
  (match try_read_reply idle with
  | Ok (Protocol.Stats_snapshot _) -> ()
  | _ -> Alcotest.fail "idle peer's first exchange failed");
  let t0 = Unix.gettimeofday () in
  stop_server control thread;
  let elapsed = Unix.gettimeofday () -. t0 in
  check (Printf.sprintf "serve returned in %.2f s, under 2 s" elapsed) true
    (elapsed < 2.);
  check "idle peer reads EOF" true (try_read_reply idle = Error `Eof);
  raw_close idle

(* ---------------- no fd leak under a hostile barrage -------------- *)

let test_no_fd_leak_under_barrage () =
  Gc.full_major ();
  let before = open_fds () in
  let socket, thread, control = start_server () in
  (* Hostile traffic of every flavour. *)
  for i = 0 to 4 do
    let fd = raw_connect socket in
    Raw_wire.send_payload fd (Bytes.of_string "garbage!");
    ignore (try_read_reply fd);
    raw_close fd;
    ignore i
  done;
  for _ = 0 to 2 do
    let fd = raw_connect socket in
    let header = Bytes.create 4 in
    Bytes.set_int32_be header 0 64l;
    ignore (Unix.write fd header 0 4);
    raw_close fd  (* mid-frame disconnect *)
  done;
  for _ = 0 to 1 do
    let fd = raw_connect socket in
    Raw_wire.send_payload fd (k0_submit_payload ());
    ignore (try_read_reply fd);
    ignore (try_read_reply fd);
    raw_close fd
  done;
  (* Healthy traffic interleaved. *)
  List.iter
    (fun seed ->
      check "healthy job ok" true
        (Result.is_ok (Client.submit control (sample_job ~seed ())).Job.result))
    [ 9001; 9002; 9003 ];
  stop_server control thread;
  Gc.full_major ();
  Thread.delay 0.05;
  let after = open_fds () in
  check ("no leaked fds: " ^ string_of_int before ^ " before, "
        ^ string_of_int after ^ " after")
    true
    (after <= before)

let tests =
  [
    Alcotest.test_case "k=0 submit: Error reply + closed connection (regression)"
      `Quick test_k0_submit_gets_error_and_close;
    Alcotest.test_case "unparseable run text: lint Error, connection kept"
      `Quick test_unparseable_run_keeps_connection;
    Alcotest.test_case "batch: an unparseable job fails only its slot" `Quick
      test_batch_with_unparseable_job;
    Alcotest.test_case "garbage / oversized / mid-frame attacks" `Quick
      test_garbage_and_midframe_disconnects;
    Alcotest.test_case "read timeout reaps half-open clients" `Quick
      test_read_timeout_reaps_stalled_connection;
    Alcotest.test_case "connection limit refuses with an Error" `Quick
      test_connection_limit;
    Alcotest.test_case "injected crashing jobs still reply" `Quick
      test_injected_crashes_still_reply;
    Alcotest.test_case "injected slow jobs hit the client deadline" `Quick
      test_slow_jobs_hit_client_deadline;
    Alcotest.test_case "corrupt / truncated replies fail cleanly" `Quick
      test_corrupt_and_truncated_replies_fail_cleanly;
    Alcotest.test_case "saturation burst: every request answered" `Quick
      test_saturation_burst_every_request_answered;
    Alcotest.test_case "shutdown drains in-flight requests" `Quick
      test_shutdown_drains_inflight_request;
    Alcotest.test_case "shutdown closes idle connections at once" `Quick
      test_shutdown_closes_idle_connections;
    Alcotest.test_case "no fd leak under hostile barrage" `Quick
      test_no_fd_leak_under_barrage;
  ]
