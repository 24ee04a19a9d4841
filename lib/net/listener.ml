let log_src = Logs.Src.create "ssg.net.listener" ~doc:"accept loop"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  fd : Unix.file_descr;
  addr : Transport.addr;
  stop : bool Atomic.t;
  closed : bool Atomic.t;
  lock : Mutex.t;  (* guards [live] and every close of a live descriptor *)
  live : (Unix.file_descr, unit) Hashtbl.t;
}

let bind addr =
  (* A peer closing mid-write must surface as EPIPE, not kill the
     process. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ | Sys_error _ -> ());
  let fd = Transport.listen addr in
  {
    fd;
    addr = Transport.bound_addr fd addr;
    stop = Atomic.make false;
    closed = Atomic.make false;
    lock = Mutex.create ();
    live = Hashtbl.create 64;
  }

let addr t = t.addr
let stopping t = Atomic.get t.stop

let stop t =
  Atomic.set t.stop true;
  Transport.poke t.addr

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_listening t =
  if not (Atomic.exchange t.closed true) then close_quietly t.fd

let close t =
  close_listening t;
  Transport.cleanup t.addr

let live_count t = Mutex.protect t.lock (fun () -> Hashtbl.length t.live)

(* The handler owns the connection until it returns; the close happens
   here, in the same critical section that drops the descriptor from
   [live], so the stop sweep can never shut down a descriptor number
   the kernel has already handed to a newer connection. *)
let supervise t handle fd =
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect t.lock (fun () ->
          Hashtbl.remove t.live fd;
          close_quietly fd))
    (fun () ->
      try handle fd
      with e ->
        Log.err (fun m ->
            m "connection thread escaped: %s" (Printexc.to_string e)))

let admit t ~read_timeout_s handle fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  (* The send timer bounds a reply write to a peer that stopped reading:
     replies may be written from a thread other peers wait on (the
     router's backend link reader), so such a write must fail, not
     block for good. *)
  (if read_timeout_s > 0. then
     try
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s;
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO read_timeout_s
     with Unix.Unix_error _ -> ());
  Mutex.protect t.lock (fun () -> Hashtbl.replace t.live fd ());
  ignore (Thread.create (supervise t handle) fd)

let run ~max_connections ~read_timeout_s ~drain_timeout_s ~refuse t handle =
  let rec accept_loop () =
    if not (Atomic.get t.stop) then begin
      (match Unix.accept t.fd with
      | fd, _ ->
          if Atomic.get t.stop then close_quietly fd
          else if live_count t >= max_connections then begin
            (* Over the limit: tell the client why instead of letting it
               queue behind a connection that will never be served. *)
            (try refuse fd with _ -> ());
            close_quietly fd
          end
          else admit t ~read_timeout_s handle fd
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          ());
      accept_loop ()
    end
  in
  accept_loop ();
  close_listening t;
  (* An idle connection would otherwise hold the drain for its whole
     budget: shutting the receive side hands every blocked reader an
     EOF now, while the send side stays open, so requests already read
     still get their replies. *)
  Mutex.protect t.lock (fun () ->
      Hashtbl.iter
        (fun fd () ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        t.live);
  let deadline = Unix.gettimeofday () +. drain_timeout_s in
  while live_count t > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let left = live_count t in
  if left > 0 then
    Log.warn (fun m -> m "drain timeout: abandoning %d connection(s)" left)
