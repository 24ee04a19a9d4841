module Transport = Ssg_net.Transport
module Frame = Ssg_net.Frame

type t = {
  fd : Unix.file_descr;
  deadline_s : float option;
  mutable next_id : int;  (* id of the next request *)
}

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
  let fd = pass retries retry_backoff_s in
  (match deadline_s with
  | Some d -> (
      try Unix.setsockopt_float fd Unix.SO_RCVTIMEO d
      with Unix.Unix_error _ -> ())
  | None -> ());
  fd

let connect ?retries ?retry_backoff_s ?deadline_s ~socket () =
  let fd =
    dial ~who:"Client.connect" ?retries ?retry_backoff_s ?deadline_s
      [ socket ]
  in
  { fd; deadline_s; next_id = 0 }

let connect_any ?retries ?retry_backoff_s ?deadline_s ~sockets () =
  let fd =
    dial ~who:"Client.connect_any" ?retries ?retry_backoff_s ?deadline_s
      sockets
  in
  { fd; deadline_s; next_id = 0 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One exchange: the request goes out in the id envelope (the context
   envelope, when given, inside it) and its reply must come back under
   the same id.  The one reply accepted outside the envelope is an
   [Error]: a server refusing the connection at its limit has no id to
   repeat. *)
let rpc ?ctx c request =
  let id = c.next_id in
  c.next_id <- id + 1;
  let payload = Protocol.request_to_bytes request in
  let payload =
    match ctx with
    | None -> payload
    | Some context ->
        Frame.with_ctx ~ctx:(Ssg_obs.Context.to_wire context) payload
  in
  Frame.write_fd c.fd (Frame.with_id ~id payload);
  match Frame.read_fd c.fd with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      failwith
        (Printf.sprintf "Client: rpc deadline (%.3f s) exceeded"
           (Option.value c.deadline_s ~default:0.))
  | frame -> (
      match Frame.classify frame with
      | Frame.Id (id', inner) when id' = id -> Protocol.reply_of_bytes inner
      | Frame.Id (id', _) ->
          failwith
            (Printf.sprintf "Client: reply to request %d, expected %d" id' id)
      | Frame.Plain payload -> (
          match Protocol.reply_of_bytes payload with
          | Protocol.Error _ as reply -> reply
          | _ -> failwith "Client: reply outside the id envelope"))

let unexpected what = failwith ("Client: unexpected reply to " ^ what)

let submit ?ctx c job =
  match rpc ?ctx c (Protocol.Submit job) with
  | Protocol.Completed completion -> completion
  | Protocol.Error msg -> failwith ("server error: " ^ msg)
  | _ -> unexpected "submit"

let submit_batch c jobs =
  match rpc c (Protocol.Batch jobs) with
  | Protocol.Batch_completed completions -> completions
  | Protocol.Error msg -> failwith ("server error: " ^ msg)
  | _ -> unexpected "batch"

let stats c =
  match rpc c Protocol.Stats with
  | Protocol.Stats_snapshot snapshot -> snapshot
  | Protocol.Error msg -> failwith ("server error: " ^ msg)
  | _ -> unexpected "stats"

let trace_pull c =
  match rpc c Protocol.Trace_pull with
  | Protocol.Trace_reports reports -> reports
  | Protocol.Error msg -> failwith ("server error: " ^ msg)
  | _ -> unexpected "trace_pull"

let metrics_text c =
  match rpc c Protocol.Metrics with
  | Protocol.Metrics_text text -> text
  | Protocol.Error msg -> failwith ("server error: " ^ msg)
  | _ -> unexpected "metrics"

let shutdown c =
  match rpc c Protocol.Shutdown with
  | Protocol.Shutting_down -> ()
  | Protocol.Error msg -> failwith ("server error: " ^ msg)
  | _ -> unexpected "shutdown"

let join c addr =
  match rpc c (Protocol.Join addr) with
  | Protocol.Ack -> ()
  | Protocol.Error msg -> failwith ("server error: " ^ msg)
  | _ -> unexpected "join"

let leave c addr =
  match rpc c (Protocol.Leave addr) with
  | Protocol.Ack -> ()
  | Protocol.Error msg -> failwith ("server error: " ^ msg)
  | _ -> unexpected "leave"

let export c n =
  match rpc c (Protocol.Export n) with
  | Protocol.Entries entries -> entries
  | Protocol.Error msg -> failwith ("server error: " ^ msg)
  | _ -> unexpected "export"

let compact c =
  match rpc c Protocol.Compact with
  | Protocol.Compacted n -> n
  | Protocol.Error msg -> failwith ("server error: " ^ msg)
  | _ -> unexpected "compact"
