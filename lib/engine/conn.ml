let log_src = Logs.Src.create "ssg.conn" ~doc:"native-protocol connections"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Frame = Ssg_net.Frame

type answer =
  | Now of Protocol.reply
  | Later of (unit -> Protocol.reply)
  | Async of ((Protocol.reply -> unit) -> unit)

(* Split the optional context envelope off a request payload and decode
   what is left.  A request sent without a trace context takes the
   [None] path. *)
let decode payload =
  let ctx_wire, payload = Frame.split_ctx payload in
  ( Option.bind ctx_wire Ssg_obs.Context.of_wire,
    Protocol.request_of_bytes payload )

(* The request after whose reply the connection carries nothing more. *)
let final = function Protocol.Shutdown -> true | _ -> false

(* [f] with every call after the first ignored. *)
let once f =
  let fired = Atomic.make false in
  fun x -> if not (Atomic.exchange fired true) then f x

let serve ?telemetry ?(write = Frame.write_fd) ~max_inflight ~handle fd =
  let wlock = Mutex.create () in
  (* Pipelined requests not yet answered; [serve] returns only once
     this is back to zero, signalled on [idle]. *)
  let inflight = Atomic.make 0 in
  let idle_lock = Mutex.create () and idle = Condition.create () in
  (* Set once a reply could not be written: the connection carries
     nothing more, and later replies are not even tried — each try could
     block until the send timer fires. *)
  let broken = Atomic.make false in
  let send ?id reply =
    let payload = Protocol.reply_to_bytes reply in
    let payload =
      match id with Some id -> Frame.with_id ~id payload | None -> payload
    in
    (* EPIPE / ECONNRESET: the peer vanished between request and reply;
       the connection closes without touching the daemon. *)
    match
      Mutex.protect wlock (fun () ->
          if Atomic.get broken then failwith "connection broken";
          write fd payload)
    with
    | () -> true
    | exception _ ->
        Atomic.set broken true;
        false
  in
  let reject ?id msg =
    Option.iter Telemetry.record_rejected_frame telemetry;
    Log.warn (fun m -> m "dropping connection: %s" msg);
    ignore (send ?id (Protocol.Error msg))
  in
  (* Catch-all supervision boundary: reply if possible; the caller then
     ends the connection. *)
  let handler_error ~id e =
    let msg = Printexc.to_string e in
    Log.warn (fun m -> m "connection handler error: %s" msg);
    ignore (send ~id (Protocol.Error msg))
  in
  (* Answer one request on the reader itself; false means the
     connection must carry no further requests. *)
  let inline ~id request answer =
    match
      match answer with
      | Now reply -> reply
      | Later f -> f ()
      | Async start -> Ivar.wait start
    with
    | reply -> send ~id reply && not (final request)
    | exception e ->
        handler_error ~id e;
        false
  in
  (* Answer one request off the reader: a replier thread for [Later],
     the handler's own callback for [Async]. *)
  let pipelined ~id answer =
    Atomic.incr inflight;
    let finish =
      once (fun result ->
          let ok =
            match result with
            | Ok reply -> send ~id reply
            | Error e ->
                handler_error ~id e;
                false
          in
          if not ok then begin
            Atomic.set broken true;
            (* Unstick the reader blocked in read. *)
            try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ()
          end;
          if Atomic.fetch_and_add inflight (-1) = 1 then
            Mutex.protect idle_lock (fun () -> Condition.broadcast idle))
    in
    match answer with
    | Now reply -> finish (Ok reply)
    | Later f ->
        ignore
          (Thread.create
             (fun () -> finish (try Ok (f ()) with e -> Error e))
             ())
    | Async start -> (
        try start (fun reply -> finish (Ok reply)) with e -> finish (Error e))
  in
  let dispatch ?ctx ~id request =
    match handle ?ctx request with
    | exception e ->
        handler_error ~id e;
        false
    | (Later _ | Async _) as answer
      when (not (final request)) && Atomic.get inflight < max_inflight ->
        pipelined ~id answer;
        true
    | answer ->
        (* Answers that need no waiting, Shutdown (never pipelined
           past), and everything past the cap: the reader does the work
           itself, so the socket is not read again until this request
           completes and a flooding client is throttled by its own
           pipe. *)
        inline ~id request answer
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
          | Frame.Plain _ ->
              (* No id to answer under: one uncorrelated Error, then the
                 connection closes. *)
              reject "request outside the id envelope"
          | Frame.Id (id, payload) -> (
              match decode payload with
              | exception Failure msg ->
                  (* Well-delimited but garbage (unknown tag, truncated
                     fields, malformed job, k < 1 …): answer, then drop
                     the connection — a peer speaking a broken dialect
                     gets no further pipeline. *)
                  reject ~id msg
              | ctx, request -> if dispatch ?ctx ~id request then loop ()))
  in
  (* Pipelined answers still hold the fd: closing it before they are
     written would race their writes onto a reused descriptor.  Wait
     them out — a dead peer fails their writes promptly. *)
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect idle_lock (fun () ->
          while Atomic.get inflight > 0 do
            Condition.wait idle idle_lock
          done))
    loop
