module Transport = Ssg_net.Transport
module Mux = Ssg_net.Mux

type t = Mux.t

let retriable = function
  | Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN | Unix.EINTR -> true
  | _ -> false

(* Full jitter on the bounded exponential backoff: each retry sleeps a
   uniform draw from (0, backoff] rather than backoff itself.  With a
   deterministic schedule, every client that lost its server at the same
   instant retries at the same instants too, and a worker restart is
   greeted by a thundering herd of synchronized reconnects; the jitter
   de-correlates them.  The state is per call (created lazily, only if a
   retry actually happens), so concurrent connects never share it. *)
let jittered rng backoff =
  let rng =
    match !rng with
    | Some r -> r
    | None ->
        let r = Random.State.make_self_init () in
        rng := Some r;
        r
  in
  Float.max 1e-4 (Random.State.float rng backoff)

(* An id-less reply answers no request: a server turning the connection
   away says why in an [Error]; anything else is a peer this client
   cannot pipeline with.  Either fails the connection. *)
let plain payload =
  match Protocol.reply_of_bytes payload with
  | Protocol.Error msg -> "server error: " ^ msg
  | _ | (exception Failure _) -> "Client: reply outside the id envelope"

let dial ~who ?(retries = 3) ?(retry_backoff_s = 0.05) ?deadline_s sockets =
  if sockets = [] then invalid_arg (who ^ ": no sockets");
  if retries < 0 then invalid_arg (who ^ ": retries must be >= 0");
  (match deadline_s with
  | Some d when d <= 0. -> invalid_arg (who ^ ": deadline_s must be > 0")
  | _ -> ());
  let addrs = List.map Transport.of_string_exn sockets in
  let rng = ref None in
  (* Each pass tries every address once, in the order given; passes are
     separated by the jittered exponential backoff, so a daemon that is
     still binding (or briefly over its connection limit) costs a few
     retries, not a client-side crash.  [Transport.connect] closes its
     descriptor on failure; an unresolvable TCP host raises [Failure]
     and is not retriable. *)
  let rec pass left backoff =
    let rec try_addrs last = function
      | [] -> Error last
      | addr :: rest -> (
          match Transport.connect addr with
          | fd -> Ok fd
          | exception (Unix.Unix_error (err, _, _) as e) when retriable err ->
              try_addrs e rest)
    in
    match try_addrs Stdlib.Exit addrs with
    | Ok fd -> fd
    | Error last ->
        if left = 0 then raise last
        else begin
          Thread.delay (jittered rng backoff);
          pass (left - 1) (backoff *. 2.)
        end
  in
  Mux.create ?deadline_s ~plain (pass retries retry_backoff_s)

let connect ?retries ?retry_backoff_s ?deadline_s ~socket () =
  dial ~who:"Client.connect" ?retries ?retry_backoff_s ?deadline_s [ socket ]

let connect_any ?retries ?retry_backoff_s ?deadline_s ~sockets () =
  dial ~who:"Client.connect_any" ?retries ?retry_backoff_s ?deadline_s
    sockets

let close = Mux.close
let alive = Mux.alive
let inflight = Mux.inflight

let request ?ctx c req k =
  let decoded = function
    | Error _ as failed -> k failed
    | Ok payload -> (
        match Protocol.reply_of_bytes payload with
        | reply -> k (Ok reply)
        | exception Failure msg -> k (Error msg))
  in
  match
    Mux.send_cb
      ?ctx:(Option.map Ssg_obs.Context.to_wire ctx)
      c
      (Protocol.request_to_bytes req)
      decoded
  with
  | () -> ()
  | exception Failure reason -> k (Error reason)

type ticket = (Job.completion, string) result Ivar.t

let submit_async ?ctx c job =
  let cell = Ivar.create () in
  request ?ctx c (Protocol.Submit job) (fun outcome ->
      Ivar.fill cell
        (match outcome with
        | Ok (Protocol.Completed completion) -> Ok completion
        | Ok (Protocol.Error msg) -> Error msg
        | Ok _ -> Error "Client: unexpected reply to submit"
        | Error reason -> Error reason));
  cell

let await = Ivar.read

(* One blocking exchange; [value] picks the answer out of the reply
   [req] expects. *)
let call ?ctx c req what value =
  match Ivar.wait (request ?ctx c req) with
  | Error reason -> failwith reason
  | Ok (Protocol.Error msg) -> failwith ("server error: " ^ msg)
  | Ok reply -> (
      match value reply with
      | Some v -> v
      | None -> failwith ("Client: unexpected reply to " ^ what))

let submit ?ctx c job =
  call ?ctx c (Protocol.Submit job) "submit" (function
    | Protocol.Completed completion -> Some completion
    | _ -> None)

let stats c =
  call c Protocol.Stats "stats" (function
    | Protocol.Stats_snapshot snapshot -> Some snapshot
    | _ -> None)

let trace_pull c =
  call c Protocol.Trace_pull "trace_pull" (function
    | Protocol.Trace_reports reports -> Some reports
    | _ -> None)

let metrics_text c =
  call c Protocol.Metrics "metrics" (function
    | Protocol.Metrics_text text -> Some text
    | _ -> None)

let shutdown c =
  call c Protocol.Shutdown "shutdown" (function
    | Protocol.Shutting_down -> Some ()
    | _ -> None)

let ack = function Protocol.Ack -> Some () | _ -> None
let join c addr = call c (Protocol.Join addr) "join" ack
let leave c addr = call c (Protocol.Leave addr) "leave" ack

let export c n =
  call c (Protocol.Export n) "export" (function
    | Protocol.Entries entries -> Some entries
    | _ -> None)

let compact c =
  call c Protocol.Compact "compact" (function
    | Protocol.Compacted n -> Some n
    | _ -> None)
