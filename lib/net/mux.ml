let log_src = Logs.Src.create "ssg.mux" ~doc:"pipelined client connections"

module Log = (val Logs.src_log log_src : Logs.LOG)

type outcome = (Bytes.t, string) result

type ticket = {
  cmutex : Mutex.t;
  ccond : Condition.t;
  mutable state : outcome option;
}

type t = {
  fd : Unix.file_descr;
  deadline_s : float option;
  wlock : Mutex.t;  (* serializes frame writes; guards [fd_closed] *)
  lock : Mutex.t;
      (* guards [table], [sent], [next_id], [dead], [closed], [holders] *)
  table : (int, outcome -> unit) Hashtbl.t;  (* id -> completion *)
  sent : (int * float) Queue.t;
      (* (id, send time) in send order, for the deadline; entries whose
         id has left [table] are dropped lazily *)
  mutable next_id : int;
  mutable dead : string option;
  mutable closed : bool;
  mutable holders : int;  (* of the descriptor: the reader and the owner *)
  mutable fd_closed : bool;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* A completion never takes the reader down with it. *)
let complete k outcome =
  try k outcome
  with e ->
    Log.err (fun m -> m "reply callback raised: %s" (Printexc.to_string e))

(* Fail every outstanding request and refuse future sends. *)
let fail_all t reason =
  let orphans =
    locked t (fun () ->
        if t.dead = None then t.dead <- Some reason;
        let ks = Hashtbl.fold (fun _ k acc -> k :: acc) t.table [] in
        Hashtbl.reset t.table;
        Queue.clear t.sent;
        ks)
  in
  List.iter (fun k -> complete k (Error reason)) orphans

(* The reader and the owner's [close] both hold the descriptor; the
   last to let go closes it, under the write lock so that no send can
   write to a recycled descriptor. *)
let release t =
  if locked t (fun () ->
         t.holders <- t.holders - 1;
         t.holders = 0)
  then
    Mutex.protect t.wlock (fun () ->
        t.fd_closed <- true;
        try Unix.close t.fd with Unix.Unix_error _ -> ())

(* True when the oldest unanswered request has outlived the deadline.
   Ids are sent in order and share one deadline, so the oldest one
   still in [table] is the first to expire. *)
let overdue t =
  match t.deadline_s with
  | None -> false
  | Some d ->
      let now = Unix.gettimeofday () in
      locked t (fun () ->
          let rec oldest () =
            match Queue.peek_opt t.sent with
            | Some (id, _) when not (Hashtbl.mem t.table id) ->
                ignore (Queue.pop t.sent);
                oldest ()
            | Some (_, at) -> now -. at > d
            | None -> false
          in
          oldest ())

let deadline_exceeded t =
  Printf.sprintf "Mux: request deadline (%g s) exceeded"
    (Option.value t.deadline_s ~default:0.)

let reader_loop t =
  let peek = Bytes.create 1 in
  let rec loop () =
    (* Wait for the next frame without consuming it: the receive timer
       may fire here, and only here, without splitting a frame. *)
    match Unix.recv t.fd peek 0 1 [ Unix.MSG_PEEK ] with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if overdue t then fail_all t (deadline_exceeded t) else loop ()
    | exception Unix.Unix_error (e, _, _) ->
        fail_all t ("Mux: " ^ Unix.error_message e)
    | 0 -> fail_all t "Mux: connection closed by peer"
    | _ -> (
        match Frame.read_fd t.fd with
        | exception End_of_file -> fail_all t "Mux: connection closed by peer"
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            fail_all t "Mux: reply stalled mid-frame"
        | exception Unix.Unix_error (e, _, _) ->
            fail_all t ("Mux: " ^ Unix.error_message e)
        | exception Failure msg -> fail_all t msg
        | payload -> (
            match Frame.classify payload with
            | exception Failure msg -> fail_all t msg
            | Frame.Plain _ ->
                (* A peer that answers outside the envelope cannot be
                   correlated; the connection is unusable for
                   pipelining. *)
                fail_all t "Mux: peer answered outside the id envelope"
            | Frame.Id (id, inner) ->
                let k =
                  locked t (fun () ->
                      match Hashtbl.find_opt t.table id with
                      | Some k ->
                          Hashtbl.remove t.table id;
                          Some k
                      | None -> None)
                in
                (* An unknown id is tolerated: a request failed by a
                   closing link may still be answered. *)
                Option.iter (fun k -> complete k (Ok inner)) k;
                (* A busy link never goes silent, so the receive timer
                   alone would never see a request that is never
                   answered. *)
                if overdue t then fail_all t (deadline_exceeded t)
                else loop ()))
  in
  loop ();
  (* The link is dead: let the peer see it at once rather than write
     into a socket nobody reads. *)
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  release t

let create ?deadline_s fd =
  (match deadline_s with
  | Some d when d <= 0. -> invalid_arg "Mux.create: deadline_s must be > 0"
  | Some d -> (
      (* The receive timer is the reader's tick for checking the
         deadline on a silent link: a request is found overdue at most
         half a deadline late. *)
      try Unix.setsockopt_float fd Unix.SO_RCVTIMEO (d /. 2.)
      with Unix.Unix_error _ -> ())
  | None -> ());
  let t =
    {
      fd;
      deadline_s;
      wlock = Mutex.create ();
      lock = Mutex.create ();
      table = Hashtbl.create 32;
      sent = Queue.create ();
      next_id = 0;
      dead = None;
      closed = false;
      holders = 2;
      fd_closed = false;
    }
  in
  ignore (Thread.create reader_loop t);
  t

let send_cb ?ctx t payload k =
  let id =
    locked t (fun () ->
        (match t.dead with
        | Some reason -> failwith reason
        | None -> if t.closed then failwith "Mux: connection closed");
        let id = t.next_id in
        t.next_id <- id + 1;
        Hashtbl.add t.table id k;
        if t.deadline_s <> None then
          Queue.push (id, Unix.gettimeofday ()) t.sent;
        id)
  in
  (* Context envelope innermost, id envelope outermost: the server
     correlates first, then strips the context. *)
  let payload =
    match ctx with None -> payload | Some c -> Frame.with_ctx ~ctx:c payload
  in
  match
    Mutex.protect t.wlock (fun () ->
        if t.fd_closed then failwith "Mux: connection closed";
        Frame.write_fd t.fd (Frame.with_id ~id payload))
  with
  | () -> ()
  | exception e ->
      fail_all t
        (match e with
        | Unix.Unix_error (err, _, _) -> "Mux: " ^ Unix.error_message err
        | Failure msg -> msg
        | e -> "Mux: " ^ Printexc.to_string e)

let fill ticket outcome =
  Mutex.lock ticket.cmutex;
  if ticket.state = None then begin
    ticket.state <- Some outcome;
    Condition.broadcast ticket.ccond
  end;
  Mutex.unlock ticket.cmutex

let send ?ctx t payload =
  let ticket =
    { cmutex = Mutex.create (); ccond = Condition.create (); state = None }
  in
  send_cb ?ctx t payload (fill ticket);
  ticket

let await ticket =
  Mutex.lock ticket.cmutex;
  let rec wait () =
    match ticket.state with
    | Some outcome -> outcome
    | None ->
        Condition.wait ticket.ccond ticket.cmutex;
        wait ()
  in
  Fun.protect ~finally:(fun () -> Mutex.unlock ticket.cmutex) wait

let call ?ctx t payload = await (send ?ctx t payload)
let inflight t = locked t (fun () -> Hashtbl.length t.table)
let alive t = locked t (fun () -> t.dead = None && not t.closed)

let close t =
  let first =
    locked t (fun () ->
        let first = not t.closed in
        t.closed <- true;
        first)
  in
  if first then begin
    fail_all t "Mux: connection closed";
    (* Unstick the reader, which lets go of the descriptor on its way
       out.  No join: [close] may run on the reader's own thread, from
       a callback. *)
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    release t
  end
