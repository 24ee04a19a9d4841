let log_src = Logs.Src.create "ssg.mux" ~doc:"pipelined client connections"

module Log = (val Logs.src_log log_src : Logs.LOG)

type outcome = (Bytes.t, string) result

type t = {
  fd : Unix.file_descr;
  deadline_s : float option;
  plain : Bytes.t -> string;  (* the failure reason for an id-less reply *)
  wlock : Mutex.t;  (* serializes frame writes; guards [fd_closed] *)
  lock : Mutex.t;
      (* guards [table], [sent], [last_sent], [last_read], [next_id],
         [dead], [closed], [holders] *)
  table : (int, outcome -> unit) Hashtbl.t;  (* id -> completion *)
  sent : (int * float) Queue.t;
      (* (id, send time) in send order, for the deadline; entries whose
         id has left [table] are dropped lazily *)
  mutable last_sent : float;  (* when the newest request went out *)
  mutable last_read : float;  (* when the latest frame came in *)
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

(* Under [lock], at [now]: the completions of the requests past the
   deadline, oldest first, each retired from [table] — or [None] when
   the link has gone quiet (requests outstanding, nothing sent or read
   for a whole deadline) and must fail as a whole.  Ids are sent in
   order and share one deadline, so the overdue requests are the oldest
   ones still in [table]. *)
let overdue t now =
  match t.deadline_s with
  | None -> Some []
  | Some d
    when Hashtbl.length t.table > 0
         && now -. Float.max t.last_sent t.last_read > d ->
      None
  | Some d ->
      let rec expired acc =
        match Queue.peek_opt t.sent with
        | None -> acc
        | Some (id, at) -> (
            match Hashtbl.find_opt t.table id with
            | None ->
                ignore (Queue.pop t.sent);
                expired acc
            | Some k when now -. at > d ->
                ignore (Queue.pop t.sent);
                Hashtbl.remove t.table id;
                expired (k :: acc)
            | Some _ -> acc)
      in
      match expired [] with [] -> Some [] | ks -> Some (List.rev ks)

(* Under [lock], right after [overdue]: how long the reader may wait for
   the next frame.  Half a deadline, or less when the oldest outstanding
   request (the head of [sent] once [overdue] has run) falls due sooner,
   so that request is found overdue on time even when a reply to
   another one has just come in.  Never 0, which would disarm the
   timer. *)
let tick t now =
  match t.deadline_s with
  | None -> None
  | Some d ->
      let due =
        match Queue.peek_opt t.sent with
        | None -> infinity
        | Some (_, at) -> at +. d -. now
      in
      Some (Float.max 0.001 (Float.min (d /. 2.) due))

let deadline_exceeded t =
  Printf.sprintf "Mux: request deadline (%g s) exceeded"
    (Option.value t.deadline_s ~default:0.)

(* Fail what [overdue] found; false once the link is dead. *)
let settle t = function
  | None ->
      fail_all t (deadline_exceeded t);
      false
  | Some ks ->
      List.iter (fun k -> complete k (Error (deadline_exceeded t))) ks;
      true

let reader_loop t =
  let peek = Bytes.create 1 in
  (* The receive timer as last armed ([create] arms half a deadline);
     re-armed only when [tick] moves it. *)
  let armed = ref (Option.map (fun d -> d /. 2.) t.deadline_s) in
  let rec loop timer =
    (match timer with
    | Some s when timer <> !armed -> (
        armed := timer;
        try Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO s
        with Unix.Unix_error _ -> ())
    | _ -> ());
    (* Wait for the next frame without consuming it: the receive timer
       may fire here, and only here, without splitting a frame. *)
    match Unix.recv t.fd peek 0 1 [ Unix.MSG_PEEK ] with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop timer
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        let now = Unix.gettimeofday () in
        let late, timer = locked t (fun () -> (overdue t now, tick t now)) in
        if settle t late then loop timer
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
            | Frame.Plain payload ->
                (* A reply outside the envelope cannot be correlated;
                   the connection is unusable for pipelining. *)
                fail_all t (t.plain payload)
            | Frame.Id (id, inner) ->
                let now = Unix.gettimeofday () in
                let k, late, timer =
                  locked t (fun () ->
                      t.last_read <- now;
                      let k = Hashtbl.find_opt t.table id in
                      if k <> None then Hashtbl.remove t.table id;
                      (k, overdue t now, tick t now))
                in
                (* An unknown id is dropped: the request was failed by a
                   closing link or retired past its deadline. *)
                Option.iter (fun k -> complete k (Ok inner)) k;
                (* A busy link never goes silent, so the receive timer
                   alone would never see a request that is never
                   answered. *)
                if settle t late then loop timer))
  in
  loop !armed;
  (* The link is dead: let the peer see it at once rather than write
     into a socket nobody reads. *)
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  release t

let create ?deadline_s ~plain fd =
  (match deadline_s with
  | Some d when d <= 0. -> invalid_arg "Mux.create: deadline_s must be > 0"
  | Some d -> (
      (* The receive timer is the reader's tick for checking the
         deadline on a silent link ([tick] in [reader_loop]). *)
      try Unix.setsockopt_float fd Unix.SO_RCVTIMEO (d /. 2.)
      with Unix.Unix_error _ -> ())
  | None -> ());
  let now = Unix.gettimeofday () in
  let t =
    {
      fd;
      deadline_s;
      plain;
      wlock = Mutex.create ();
      lock = Mutex.create ();
      table = Hashtbl.create 32;
      sent = Queue.create ();
      last_sent = now;
      last_read = now;
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
        if t.deadline_s <> None then begin
          let now = Unix.gettimeofday () in
          t.last_sent <- now;
          Queue.push (id, now) t.sent
        end;
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
