let log_src = Logs.Src.create "ssg.server" ~doc:"ssgd socket server"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Transport = Ssg_net.Transport
module Frame = Ssg_net.Frame
module Listener = Ssg_net.Listener

(* Raised by the reply path when the fault plan truncated the frame:
   the connection is unusable and must be dropped. *)
exception Drop_connection

(* Write one reply frame, letting the fault plan mangle it first. *)
let faulty_write faults telemetry fd payload =
  match Faults.on_reply faults with
  | Faults.Deliver -> Frame.write_fd fd payload
  | Faults.Corrupt ->
      Telemetry.record_injected telemetry;
      let mangled = Bytes.copy payload in
      if Bytes.length mangled > 0 then
        Bytes.set mangled 0
          (Char.chr (Char.code (Bytes.get mangled 0) lxor 0xFF));
      Frame.write_fd fd mangled
  | Faults.Blackhole ->
      (* The partition plan: swallow the reply, keep the connection.
         The peer sees a live socket that never answers — exactly what
         a blackholed network path looks like — and must save itself
         with its reply deadline. *)
      Telemetry.record_injected telemetry
  | Faults.Truncate ->
      Telemetry.record_injected telemetry;
      (* Header promises the full frame; deliver only half of it. *)
      let header = Bytes.create 4 in
      Bytes.set_int32_be header 0 (Int32.of_int (Bytes.length payload));
      (try
         ignore (Unix.write fd header 0 4);
         ignore (Unix.write fd payload 0 (Bytes.length payload / 2))
       with Unix.Unix_error _ -> ());
      raise Drop_connection

let write_reply faults telemetry fd payload =
  (* [with_span] ends the span even when the fault plan raises
     [Drop_connection] mid-write, keeping the track B/E-balanced. *)
  if Ssg_obs.Tracer.enabled () then
    Ssg_obs.Tracer.with_span "server.reply_write" (fun () ->
        faulty_write faults telemetry fd payload)
  else faulty_write faults telemetry fd payload

(* The worker's answer to one request: [Now] when it needs no waiting,
   [Later] (a replier thread) for a miss and the ops that wait or
   write.  A job arrives as sent ({!Job.as_sent}); its key is probed in
   the cache as it is, and a miss goes to [Engine.submit] as it came.
   A lint rejection is the job's fault, not the connection's: it is
   answered with a protocol [Error] carrying the diagnostics, and the
   connection keeps serving. *)
let handle engine listener ?ctx request =
  let open Conn in
  match request with
  | Protocol.Submit job -> (
      match Engine.cached ?ctx engine job with
      | Some completion -> Now (Protocol.Completed completion)
      | None ->
          Later
            (fun () ->
              match Engine.await engine (Engine.submit ?ctx engine job) with
              | Ok completion -> Protocol.Completed completion
              | Error diags -> Protocol.Error diags))
  | Protocol.Stats -> Now (Protocol.Stats_snapshot (Engine.stats engine))
  | Protocol.Trace_pull ->
      Now
        (Protocol.Trace_reports
           [ Ssg_obs.Tracer.report_here ~role:"worker" () ])
  | Protocol.Metrics -> Now (Protocol.Metrics_text (Engine.prometheus engine))
  | Protocol.Join _ | Protocol.Leave _ ->
      (* Membership ops terminate at the router; a worker receiving one
         answers with an Error but keeps the connection — it is a
         misdirected request, not a hostile frame. *)
      Now (Protocol.Error "not a router: membership ops go to ssg route")
  | Protocol.Export n ->
      Later (fun () -> Protocol.Entries (Engine.export engine n))
  | Protocol.Transfer entries ->
      Later (fun () -> Protocol.Transferred (Engine.import engine entries))
  | Protocol.Compact ->
      Later (fun () -> Protocol.Compacted (Engine.compact engine))
  | Protocol.Shutdown ->
      Log.info (fun m -> m "shutdown requested");
      (* Stop before acknowledging: if the reply send fails (dead peer,
         injected fault) the shutdown must still happen. *)
      Listener.stop listener;
      Now Protocol.Shutting_down

let serve ?workers ?queue_capacity ?cache_capacity ?(max_connections = 256)
    ?(max_inflight = 32) ?(read_timeout_s = 30.) ?(drain_timeout_s = 5.)
    ?(faults = Faults.off) ?(trace = false) ?persist ?persist_sync
    ?persist_compact_bytes ?announce ~socket () =
  if max_connections < 1 then
    invalid_arg "Server.serve: max_connections must be >= 1";
  if max_inflight < 1 then
    invalid_arg "Server.serve: max_inflight must be >= 1";
  let addr = Transport.of_string_exn socket in
  if trace then begin
    Ssg_obs.Tracer.reset ();
    Ssg_obs.Tracer.set_enabled true
  end;
  (* Bind before the store opens: a second server on a live socket must
     fail here, before its recovery could truncate the journal the live
     one is appending to.  Accepting starts only after the replay, so
     no request meets a cold cache. *)
  let listener = Listener.bind addr in
  let addr = Listener.addr listener in
  let engine =
    try
      (* The store opens after the tracer is armed so the boot replay's
         [store.replay] span lands in the trace. *)
      let store =
        Option.map
          (fun dir ->
            Ssg_store.Store.open_ ?sync:persist_sync
              ?compact_bytes:persist_compact_bytes ~dir ())
          persist
      in
      Engine.create ?workers ?queue_capacity ?cache_capacity ~faults ?store ()
    with e ->
      Listener.close listener;
      raise e
  in
  let telemetry = Engine.telemetry engine in
  Log.app (fun m -> m "ssgd listening on %s" (Transport.to_string addr));
  (match Engine.store engine with
  | Some s ->
      Log.app (fun m ->
          m "persisting to %s (generation %d, %d record(s) replayed)"
            (Ssg_store.Store.dir s)
            (Ssg_store.Store.generation s)
            (Ssg_store.Store.replayed_records s))
  | None -> ());
  if not (Faults.is_off faults) then
    Log.app (fun m -> m "chaos mode: injecting %s" (Faults.spec faults));
  (* Elastic membership: announce the canonical bound address to the
     router on a background thread (the router may still be binding, so
     Client.connect's backoff does the waiting), and retire on the way
     out, best-effort — a dead router must never block either path. *)
  let self_addr = Transport.to_string addr in
  (match announce with
  | None -> ()
  | Some router ->
      ignore
        (Thread.create
           (fun () ->
             try
               let c =
                 Client.connect ~retries:6 ~deadline_s:30. ~socket:router ()
               in
               Fun.protect
                 ~finally:(fun () -> Client.close c)
                 (fun () -> Client.join c self_addr);
               Log.app (fun m -> m "joined cluster via %s" router)
             with e ->
               Log.warn (fun m ->
                   m "join announcement to %s failed: %s" router
                     (Printexc.to_string e)))
           ()));
  let retire () =
    match announce with
    | None -> ()
    | Some router -> (
        try
          let c = Client.connect ~retries:0 ~deadline_s:5. ~socket:router () in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () -> Client.leave c self_addr)
        with _ -> ())
  in
  Listener.run ~max_connections ~read_timeout_s ~drain_timeout_s listener
    ~refuse:(fun fd ->
      Telemetry.record_connection_rejected telemetry;
      Protocol.write_reply_fd fd (Protocol.Error "server at connection limit"))
    (Conn.serve ~telemetry ~write:(write_reply faults telemetry) ~max_inflight
       ~handle:(handle engine listener));
  retire ();
  Engine.shutdown engine;
  Listener.close listener;
  Log.app (fun m -> m "ssgd stopped")
