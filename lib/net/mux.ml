type outcome = (Bytes.t, string) result

type ticket = {
  cmutex : Mutex.t;
  ccond : Condition.t;
  mutable state : outcome option;
}

type t = {
  fd : Unix.file_descr;
  wlock : Mutex.t;  (* serializes frame writes *)
  lock : Mutex.t;  (* guards [table], [next_id], [dead], [closed] *)
  table : (int, ticket) Hashtbl.t;
  mutable next_id : int;
  mutable dead : string option;
  mutable closed : bool;
  mutable reader : Thread.t option;
}

let fill ticket outcome =
  Mutex.lock ticket.cmutex;
  if ticket.state = None then begin
    ticket.state <- Some outcome;
    Condition.broadcast ticket.ccond
  end;
  Mutex.unlock ticket.cmutex

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Fail every outstanding ticket and refuse future sends. *)
let fail_all t reason =
  let orphans =
    locked t (fun () ->
        if t.dead = None then t.dead <- Some reason;
        let cells = Hashtbl.fold (fun _ c acc -> c :: acc) t.table [] in
        Hashtbl.reset t.table;
        cells)
  in
  List.iter (fun c -> fill c (Error reason)) orphans

let reader_loop t =
  let rec loop () =
    match Frame.read_fd t.fd with
    | exception End_of_file -> fail_all t "Mux: connection closed by peer"
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        fail_all t "Mux: reply deadline exceeded (connection silent)"
    | exception Unix.Unix_error (e, _, _) ->
        fail_all t ("Mux: " ^ Unix.error_message e)
    | exception Failure msg -> fail_all t msg
    | payload -> (
        match Frame.classify payload with
        | exception Failure msg -> fail_all t msg
        | Frame.Plain _ ->
            (* A peer that answers outside the envelope cannot be
               correlated; the connection is unusable for pipelining. *)
            fail_all t "Mux: peer answered outside the id envelope"
        | Frame.Id (id, inner) ->
            let cell =
              locked t (fun () ->
                  match Hashtbl.find_opt t.table id with
                  | Some c ->
                      Hashtbl.remove t.table id;
                      Some c
                  | None -> None)
            in
            (* An unknown id is tolerated: a deadline-abandoned request
               may still be answered late. *)
            (match cell with Some c -> fill c (Ok inner) | None -> ());
            loop ())
  in
  loop ()

let create fd =
  let t =
    {
      fd;
      wlock = Mutex.create ();
      lock = Mutex.create ();
      table = Hashtbl.create 32;
      next_id = 0;
      dead = None;
      closed = false;
      reader = None;
    }
  in
  t.reader <- Some (Thread.create reader_loop t);
  t

let send ?ctx t payload =
  let ticket =
    { cmutex = Mutex.create (); ccond = Condition.create (); state = None }
  in
  let id =
    locked t (fun () ->
        (match t.dead with
        | Some reason -> failwith reason
        | None -> if t.closed then failwith "Mux: connection closed");
        let id = t.next_id in
        t.next_id <- id + 1;
        Hashtbl.add t.table id ticket;
        id)
  in
  (* Context envelope innermost, id envelope outermost: the server
     correlates first, then strips the context. *)
  let payload =
    match ctx with None -> payload | Some c -> Frame.with_ctx ~ctx:c payload
  in
  (try
     Mutex.lock t.wlock;
     Fun.protect
       ~finally:(fun () -> Mutex.unlock t.wlock)
       (fun () -> Frame.write_fd t.fd (Frame.with_id ~id payload))
   with e ->
     let msg =
       match e with
       | Unix.Unix_error (err, _, _) -> "Mux: " ^ Unix.error_message err
       | Failure msg -> msg
       | e -> "Mux: " ^ Printexc.to_string e
     in
     fail_all t msg);
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
  let already = locked t (fun () ->
      let was = t.closed in
      t.closed <- true;
      was)
  in
  if not already then begin
    (* Unstick the reader, which then fails whatever is outstanding. *)
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (match t.reader with Some th -> Thread.join th | None -> ());
    fail_all t "Mux: connection closed";
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
