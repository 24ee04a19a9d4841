(* The load generator: one thread, at most two connections.

   Every reply is classified against what its request must get — an
   outcome, or a lint rejection — and each distinct served outcome is
   kept (in [Protocol.outcome_to_string] form) for the recomputation
   check after the window. *)

open Ssg_engine

type reply = Outcome of Job.outcome * bool (* cached *) | Rejected | Failed of string

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** replies of the wrong kind for their request *)
  mutable cached : int;
  mutable rejected : int;
  mutable latencies : (Workload.kind * float) list;
      (** ms; [infinity] for a failed request *)
  mutable lateness : float list;  (** open loop: ms the send ran behind schedule *)
  mutable first_send : float;
  mutable last_reply : float;
  mutable sent : int;  (** prefix of the request list that was sent *)
  served : (string, string) Hashtbl.t;  (** key → encoded outcome *)
  mutable conflicts : int;  (** one key served two different outcomes *)
  mutable failures : string list;  (** first few failure reasons *)
  classified : (string, reply) Hashtbl.t;
      (** 200 bodies already parsed: a cached run's body repeats byte for
          byte, so the generator parses it once *)
}

let create () =
  {
    attempted = 0; failed = 0; wrong = 0; cached = 0; rejected = 0;
    latencies = []; lateness = []; first_send = infinity; last_reply = 0.;
    sent = 0; served = Hashtbl.create 1024; conflicts = 0; failures = [];
    classified = Hashtbl.create 256;
  }

let lint_prefix = "job rejected by lint"

let note_failure t why =
  t.failed <- t.failed + 1;
  if List.length t.failures < 5 then t.failures <- why :: t.failures

let record t (r : Workload.request) ~latency_ms reply =
  t.attempted <- t.attempted + 1;
  t.last_reply <- Float.max t.last_reply (Unix.gettimeofday ());
  let ok =
    match (reply, r.kind) with
    | Outcome (o, cached), (Workload.Hit | Workload.Miss) ->
        if cached then t.cached <- t.cached + 1;
        let enc = Protocol.outcome_to_string o in
        (match Hashtbl.find_opt t.served r.key with
        | Some prev when prev <> enc -> t.conflicts <- t.conflicts + 1
        | Some _ -> ()
        | None -> Hashtbl.add t.served r.key enc);
        true
    | Rejected, Workload.Lint ->
        t.rejected <- t.rejected + 1;
        true
    | Outcome _, Workload.Lint ->
        t.wrong <- t.wrong + 1;
        note_failure t "lint job was not rejected";
        false
    | Rejected, _ ->
        t.wrong <- t.wrong + 1;
        note_failure t "job unexpectedly rejected by lint";
        false
    | Failed why, _ ->
        note_failure t why;
        false
  in
  t.latencies <- (r.kind, if ok then latency_ms else infinity) :: t.latencies

let classify_http (resp : Http_client.response) =
  match resp.status with
  | 200 -> (
      match Ssg_obs.Export.json_of_string resp.body with
      | Some j -> (
          try
            Outcome
              ( Json.outcome_of_json (Json.member "outcome" j),
                Json.member "cached" j = Ssg_obs.Export.Bool true )
          with Not_found -> Failed "200 reply without an outcome")
      | None -> Failed ("bad JSON: " ^ resp.body))
  | 422 ->
      if Http_client.find_sub resp.body lint_prefix <> None then Rejected
      else Failed ("422: " ^ resp.body)
  | s -> Failed (Printf.sprintf "HTTP %d: %s" s resp.body)

let classify_memo t (resp : Http_client.response) =
  if resp.status <> 200 then classify_http resp
  else
    match Hashtbl.find_opt t.classified resp.body with
    | Some reply -> reply
    | None ->
        let reply = classify_http resp in
        Hashtbl.replace t.classified resp.body reply;
        reply

let classify_native = function
  | Protocol.Completed { Job.result = Ok o; cached; _ } -> Outcome (o, cached)
  | Protocol.Completed { Job.result = Error msg; _ } -> Failed ("job failed: " ^ msg)
  | Protocol.Error msg when String.starts_with ~prefix:lint_prefix msg -> Rejected
  | Protocol.Error msg -> Failed ("error reply: " ^ msg)
  | _ -> Failed "unexpected reply kind"

let request_timeout_s = 30.

(* HTTP against the gateway: [conns] keep-alive connections, each with
   at most one request outstanding, driven from one thread.

   [due i] is request [i]'s scheduled send time: [None] for a closed
   loop (send as soon as a connection is free, latency from the actual
   send), [Some] for an open loop (latency from the scheduled time, so a
   stall is charged to every request it delays).  Sending stops at
   [stop_at] or at the end of [requests]. *)
let http t ~port ~conns ?due ~stop_at (requests : Workload.request array) =
  let cs = Array.init conns (fun _ -> Http_client.connect port) in
  let busy = Array.make conns None in
  let next = ref 0 in
  let n = Array.length requests in
  let send c =
    let i = !next in
    incr next;
    let raw = Http_client.submit_request requests.(i).job in
    let now = Unix.gettimeofday () in
    let start =
      match due with
      | None -> now
      | Some f ->
          let d = f i in
          t.lateness <- (1000. *. Float.max 0. (now -. d)) :: t.lateness;
          d
    in
    t.first_send <- Float.min t.first_send start;
    busy.(c) <- Some (i, start, now);
    try Http_client.send cs.(c) raw
    with Unix.Unix_error (e, _, _) ->
      busy.(c) <- None;
      record t requests.(i) ~latency_ms:0. (Failed (Unix.error_message e))
  in
  let can_send now =
    !next < n && now < stop_at
    && match due with None -> true | Some f -> f !next <= now
  in
  let free () =
    let r = ref None in
    Array.iteri (fun c b -> if b = None && !r = None then r := Some c) busy;
    !r
  in
  let finish c reply =
    match busy.(c) with
    | None -> ()
    | Some (i, start, _) ->
        busy.(c) <- None;
        let latency_ms = 1000. *. (Unix.gettimeofday () -. start) in
        record t requests.(i) ~latency_ms reply
  in
  let rec loop () =
    let now = Unix.gettimeofday () in
    let rec fill () =
      match free () with
      | Some c when can_send (Unix.gettimeofday ()) ->
          send c;
          fill ()
      | _ -> ()
    in
    fill ();
    let waiting = List.filter (fun c -> busy.(c) <> None) (List.init conns Fun.id) in
    let more = !next < n && now < stop_at in
    if waiting <> [] || more then begin
      let timeout =
        match (due, free ()) with
        | Some f, Some _ when more -> Float.max 0. (f !next -. now)
        | None, Some _ when more -> 0.
        | _ -> 0.05
      in
      let fds = List.map (fun c -> cs.(c).Http_client.fd) waiting in
      let ready =
        if fds = [] then (Unix.sleepf timeout; [])
        else
          let r, _, _ = Unix.select fds [] [] timeout in
          r
      in
      List.iter
        (fun c ->
          let conn = cs.(c) in
          if List.mem conn.Http_client.fd ready then begin
            match Http_client.feed conn with
            | () -> (
                match Http_client.next_response conn with
                | Some resp -> finish c (classify_memo t resp)
                | None -> ())
            | exception (End_of_file | Unix.Unix_error _) ->
                finish c (Failed "connection closed");
                Http_client.close conn;
                cs.(c) <- Http_client.connect port
          end
          else
            match busy.(c) with
            | Some (_, _, sent) when Unix.gettimeofday () -. sent > request_timeout_s ->
                finish c (Failed "request timed out");
                Http_client.close conn;
                cs.(c) <- Http_client.connect port
            | _ -> ())
        waiting;
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> Array.iter Http_client.close cs) loop;
  t.sent <- !next

(* Native frames straight to the worker: one connection, [inflight]
   id-framed requests outstanding, a closed loop. *)
let native t ~addr ~inflight ~stop_at (requests : Workload.request array) =
  let port = Scanf.sscanf addr "tcp:127.0.0.1:%d" Fun.id in
  let fd = Http_client.tcp_connect port in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO request_timeout_s;
  let started = Hashtbl.create 8 in
  let next = ref 0 in
  let n = Array.length requests in
  let send () =
    let i = !next in
    incr next;
    let payload =
      Ssg_net.Frame.with_id ~id:i (Protocol.request_to_bytes (Protocol.Submit requests.(i).job))
    in
    let now = Unix.gettimeofday () in
    t.first_send <- Float.min t.first_send now;
    Hashtbl.replace started i now;
    Ssg_net.Frame.write_fd fd payload
  in
  let rec loop () =
    while !next < n && Hashtbl.length started < inflight && Unix.gettimeofday () < stop_at do
      send ()
    done;
    if Hashtbl.length started > 0 then begin
      (match Ssg_net.Frame.classify (Ssg_net.Frame.read_fd fd) with
      | Ssg_net.Frame.Id (i, inner) ->
          let start = Hashtbl.find started i in
          Hashtbl.remove started i;
          let reply =
            try classify_native (Protocol.reply_of_bytes inner)
            with Failure msg -> Failed ("undecodable reply: " ^ msg)
          in
          record t requests.(i) ~latency_ms:(1000. *. (Unix.gettimeofday () -. start)) reply
      | Ssg_net.Frame.Plain _ -> failwith "worker answered without a request id");
      loop ()
    end
  in
  (try Fun.protect ~finally:(fun () -> Unix.close fd) loop
   with (End_of_file | Failure _ | Unix.Unix_error _) as e ->
     Hashtbl.iter
       (fun i _ -> record t requests.(i) ~latency_ms:0. (Failed (Printexc.to_string e)))
       started);
  t.sent <- !next
