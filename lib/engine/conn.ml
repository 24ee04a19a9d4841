let log_src = Logs.Src.create "ssg.conn" ~doc:"native-protocol connections"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Frame = Ssg_net.Frame

(* Split the optional context envelope off a request payload and decode
   what is left.  Pre-context clients never send the envelope and take
   the [None] path. *)
let decode payload =
  let ctx_wire, payload = Frame.split_ctx payload in
  ( Option.bind ctx_wire Ssg_obs.Context.of_wire,
    Protocol.request_of_bytes payload )

(* The request after whose reply the connection carries nothing more. *)
let final = function Protocol.Shutdown -> true | _ -> false

let serve ?telemetry ?(write = Frame.write_fd) ~max_inflight ~handle fd =
  let wlock = Mutex.create () in
  let inflight = Atomic.make 0 in
  (* Set by a pipelined replier that hit a connection-fatal condition
     (reply write failed or dropped): the reader must stop pipelining. *)
  let broken = Atomic.make false in
  let send ?id reply =
    let payload = Protocol.reply_to_bytes reply in
    let payload =
      match id with Some id -> Frame.with_id ~id payload | None -> payload
    in
    (* EPIPE / ECONNRESET: the peer vanished between request and reply;
       the connection closes without touching the daemon. *)
    match Mutex.protect wlock (fun () -> write fd payload) with
    | () -> true
    | exception _ -> false
  in
  let reject ?id msg =
    Option.iter Telemetry.record_rejected_frame telemetry;
    Log.warn (fun m -> m "dropping connection: %s" msg);
    ignore (send ?id (Protocol.Error msg))
  in
  (* Compute and send the reply to one request; false means the
     connection must carry no further requests. *)
  let serve_request ?ctx ?id request =
    match handle ?ctx request with
    | reply -> send ?id reply && not (final request)
    | exception e ->
        (* Catch-all supervision boundary: reply if possible, then
           close. *)
        let msg = Printexc.to_string e in
        Log.warn (fun m -> m "connection handler error: %s" msg);
        ignore (send ?id (Protocol.Error msg));
        false
  in
  let spawn ?ctx ~id request =
    Atomic.incr inflight;
    ignore
      (Thread.create
         (fun () ->
           Fun.protect
             ~finally:(fun () -> Atomic.decr inflight)
             (fun () ->
               if not (serve_request ?ctx ~id request) then begin
                 Atomic.set broken true;
                 (* Unstick the reader blocked in read. *)
                 try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
                 with Unix.Unix_error _ -> ()
               end))
         ())
  in
  let rec loop () =
    if not (Atomic.get broken) then
      match Frame.read_fd fd with
      | exception End_of_file -> () (* clean hangup between frames *)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (* SO_RCVTIMEO fired: a half-open or stalled client is reaped. *)
          Option.iter Telemetry.record_connection_timeout telemetry;
          Log.info (fun m -> m "reaping stalled connection")
      | exception Unix.Unix_error _ -> ()
      | exception Failure msg -> reject msg (* oversized / died mid-frame *)
      | frame -> (
          match Frame.classify frame with
          | exception Failure msg -> reject msg
          | Frame.Plain payload -> (
              match decode payload with
              | exception Failure msg ->
                  (* Well-delimited but garbage (unknown tag, truncated
                     fields, malformed job, k < 1 …): answer, then drop
                     the connection — a peer speaking a broken dialect
                     gets no further pipeline. *)
                  reject msg
              | ctx, request -> if serve_request ?ctx request then loop ())
          | Frame.Id (id, payload) -> (
              match decode payload with
              | exception Failure msg -> reject ~id msg
              | ctx, request
                when final request || Atomic.get inflight >= max_inflight ->
                  (* Shutdown is never pipelined past, and at the cap the
                     reader does the work itself: the socket is not read
                     again until this request completes, so a flooding
                     client is throttled by its own pipe. *)
                  if serve_request ?ctx ~id request then loop ()
              | ctx, request ->
                  spawn ?ctx ~id request;
                  loop ()))
  in
  (* In-flight repliers still hold the fd: closing it before they finish
     would race their writes onto a reused descriptor.  Wait them out —
     a dead peer fails their writes promptly. *)
  Fun.protect
    ~finally:(fun () ->
      while Atomic.get inflight > 0 do
        Thread.delay 0.002
      done)
    loop
