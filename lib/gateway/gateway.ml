let log_src = Logs.Src.create "ssg.gateway" ~doc:"HTTP/JSON gateway"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Transport = Ssg_net.Transport
module Http = Ssg_net.Http
module Listener = Ssg_net.Listener
module Metrics = Ssg_obs.Metrics
module Tracer = Ssg_obs.Tracer
module Context = Ssg_obs.Context
module E = Ssg_obs.Export
open Ssg_engine

(* Reply deadline of each request on the pipelined backend link: one
   left unanswered this long is a 502 on its own, and a link quiet this
   long with requests outstanding fails all of them with 502s. *)
let backend_deadline_s = 30.

(* Bounds of the validation memo: at most this many entries, and a
   body longer than this is normalized on every request, never
   stored. *)
let memo_capacity = 1024
let memo_max_body = 4096

type t = {
  backend : string;
  block : Mutex.t;
  mutable client : Client.t option;
  memo : Job.t Lru.t;  (* key as sent -> canonical job, under [mlock] *)
  mlock : Mutex.t;
  metrics : Metrics.t;
  requests : Metrics.counter;
  submits : Metrics.counter;
  client_errors : Metrics.counter;  (* 4xx *)
  backend_errors : Metrics.counter;  (* 502 *)
  validation_hits : Metrics.counter;  (* submits served by the memo *)
  hop_router : Metrics.histogram;  (* gateway -> backend round trip *)
}

(* The shared pipelined backend connection, re-dialed lazily after a
   failure.  Holding [block] only around the look-or-dial keeps
   concurrent HTTP handlers from racing a reconnect; the returned
   client is itself thread-safe. *)
let backend_client t =
  Mutex.lock t.block;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.block)
    (fun () ->
      match t.client with
      | Some c when Client.alive c -> c
      | stale ->
          Option.iter Client.close stale;
          let c =
            Client.connect ~retries:1 ~deadline_s:backend_deadline_s
              ~socket:t.backend ()
          in
          t.client <- Some c;
          c)

(* ---------------- JSON bodies ---------------- *)

let json_of_outcome (o : Job.outcome) =
  let decision = function
    | None -> E.Null
    | Some (round, value) -> E.Arr [ E.Int round; E.Int value ]
  in
  E.Obj
    [
      ("algorithm", E.Str o.algorithm);
      ("n", E.Int o.n);
      ("min_k", E.Int o.min_k);
      ("rounds_run", E.Int o.rounds_run);
      ("decisions", E.Arr (Array.to_list (Array.map decision o.decisions)));
      ("distinct_decisions", E.Int o.distinct_decisions);
      ("messages_sent", E.Int o.messages_sent);
      ("messages_delivered", E.Int o.messages_delivered);
      ("bits_sent", E.Int o.bits_sent);
      ("violations", E.Arr (List.map (fun v -> E.Str v) o.violations));
    ]

let json_error msg = E.json_to_string (E.Obj [ ("error", E.Str msg) ])

(* ---------------- route handlers ---------------- *)

(* Each handler returns (status, content_type, body). *)

let parse_submit_params req =
  let bad what = Error (Printf.sprintf "bad %s parameter" what) in
  let int_param name default =
    match Http.query_param req name with
    | None -> Ok default
    | Some s -> (
        match int_of_string_opt s with Some v -> Ok (Some v) | None -> bad name)
  in
  let bool_param name =
    match Http.query_param req name with
    | None | Some "0" | Some "false" -> Ok false
    | Some "1" | Some "true" -> Ok true
    | Some _ -> bad name
  in
  let algorithm =
    match Http.query_param req "algorithm" with
    | None | Some "kset" -> Ok Job.Kset
    | Some "floodmin" -> Ok Job.Floodmin
    | Some "flood-consensus" -> Ok Job.Flood_consensus
    | Some "naive-min" -> Ok Job.Naive_min
    | Some other ->
        Error
          (Printf.sprintf
             "unknown algorithm %S (expected kset | floodmin | \
              flood-consensus | naive-min)"
             other)
  in
  match (int_param "k" None, int_param "rounds" None, bool_param "monitor",
         algorithm)
  with
  | Ok k, Ok rounds, Ok monitor, Ok algorithm ->
      Ok (Option.value k ~default:1, rounds, monitor, algorithm)
  | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e
    ->
      Error e

(* The canonical job for a request: the memo's when the same request
   was validated before, else [Job.of_run_text]'s, stored once it
   normalized.  The key as sent holds every parameter and the body byte
   for byte.  A [k] or [rounds] that [Job.as_sent] refuses skips the
   memo, so a body that does not parse still reports its parse error
   first. *)
let validate t ~algorithm ~k ?rounds ~monitor body =
  let normalize () = Job.of_run_text ~algorithm ~k ?rounds ~monitor body in
  match Job.as_sent ~algorithm ~k ?rounds ~monitor body with
  | exception Invalid_argument _ -> normalize ()
  | _ when String.length body > memo_max_body -> normalize ()
  | sent -> (
      let key = Job.key sent in
      match Mutex.protect t.mlock (fun () -> Lru.find t.memo key) with
      | Some job ->
          Metrics.incr t.validation_hits;
          job
      | None ->
          let job = normalize () in
          Mutex.protect t.mlock (fun () -> Lru.add t.memo key job);
          job)

(* Await the backend reply, recording the full gateway->router round
   trip (send to correlated reply) in the hop histogram.  The hop is
   observed on every outcome — a 502's latency is exactly the number a
   latency decomposition needs to see. *)
let awaited_hop t ticket =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      Metrics.observe t.hop_router (1000. *. (Unix.gettimeofday () -. t0)))
    (fun () -> Client.await ticket)

let handle_submit ?ctx t req =
  Metrics.incr t.submits;
  match parse_submit_params req with
  | Error msg -> (400, "application/json", json_error msg)
  | Ok (k, rounds, monitor, algorithm) -> (
      match validate t ~algorithm ~k ?rounds ~monitor req.Http.body with
      | exception (Failure msg | Invalid_argument msg) ->
          (400, "application/json", json_error msg)
      | job -> (
          match
            awaited_hop t (Client.submit_async ?ctx (backend_client t) job)
          with
          | exception Failure msg -> (502, "application/json", json_error msg)
          | exception Unix.Unix_error (e, _, _) ->
              (502, "application/json", json_error (Unix.error_message e))
          | Ok { Job.result; cached; latency_ms } ->
              let status, last =
                match result with
                | Ok outcome -> (200, ("outcome", json_of_outcome outcome))
                | Error msg -> (422, ("error", E.Str msg))
              in
              ( status,
                "application/json",
                E.json_to_string
                  (E.Obj
                     [
                       ("cached", E.Bool cached);
                       ("latency_ms", E.Float latency_ms);
                       last;
                     ]) )
          | Error msg ->
              (* A protocol-level Error reply: deterministic rejections
                 (the lint front door) are the request's fault; anything
                 else means the backend path failed. *)
              let status =
                if
                  String.length msg >= 16
                  && String.sub msg 0 16 = "job rejected by "
                then 422
                else 502
              in
              (status, "application/json", json_error msg)))

(* A JSON body built from backend exchanges; a failed exchange is a
   502. *)
let from_backend body =
  match body () with
  | json -> (200, "application/json", json)
  | exception (Failure msg | Invalid_argument msg) ->
      (502, "application/json", json_error msg)
  | exception Unix.Unix_error (e, _, _) ->
      (502, "application/json", json_error (Unix.error_message e))

let handle_stats t =
  from_backend (fun () ->
      Telemetry.json_of_snapshot (Client.stats (backend_client t)))

(* The gateway's registry, then its backend's exposition relayed as
   is; an unreachable backend degrades to a comment. *)
let handle_metrics t =
  let own = Metrics.to_prometheus t.metrics in
  let unreachable msg = "# backend unreachable: " ^ msg ^ "\n" in
  let backend =
    match Client.metrics_text (backend_client t) with
    | text -> text
    | exception (Failure msg | Invalid_argument msg) -> unreachable msg
    | exception Unix.Unix_error (e, _, _) -> unreachable (Unix.error_message e)
  in
  (200, "text/plain; version=0.0.4", own ^ backend)

(* The fleet trace, relayed the way the router relays it: the
   gateway's own report ahead of every report the backend pull
   returns, stitched into one Chrome document. *)
let handle_trace t =
  let here = Tracer.report_here ~role:"gateway" () in
  from_backend (fun () ->
      Ssg_obs.Stitch.chrome_of_reports
        (here :: Client.trace_pull (backend_client t)))

let dispatch ?ctx t listener req =
  match (req.Http.meth, req.Http.path) with
  | "POST", "/submit" -> handle_submit ?ctx t req
  | "GET", "/stats" -> handle_stats t
  | "GET", "/metrics" -> handle_metrics t
  | "GET", "/trace" -> handle_trace t
  | "GET", "/healthz" -> (200, "application/json", "{\"status\":\"ok\"}")
  | "POST", "/shutdown" ->
      Log.info (fun m -> m "gateway shutdown requested");
      Listener.stop listener;
      (200, "application/json", "{\"status\":\"shutting down\"}")
  | ( meth,
      (( "/submit" | "/stats" | "/metrics" | "/trace" | "/healthz"
       | "/shutdown" ) as path) ) ->
      ( 405,
        "application/json",
        json_error (Printf.sprintf "method %s not allowed for %s" meth path) )
  | ("GET" | "POST"), _ ->
      (404, "application/json", json_error ("no route for " ^ req.Http.path))
  | meth, _ ->
      (405, "application/json", json_error ("method not allowed: " ^ meth))

let handle_connection t listener fd =
  let conn = Http.conn_of_fd fd in
  let rec loop () =
    match Http.read_request conn with
    | None -> ()  (* clean close between requests *)
    | exception End_of_file -> ()  (* peer died mid-request *)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Log.info (fun m -> m "reaping stalled connection")
    | exception Unix.Unix_error _ -> ()
    | exception Http.Bad_request msg ->
        (* The request could not be framed, so neither can the rest of
           the stream: answer and drop the connection. *)
        (try
           Http.write_response ~status:400 ~keep_alive:false fd
             (json_error msg)
         with _ -> ())
    | Some req ->
        Metrics.incr t.requests;
        let span_ctx = ref None in
        let status, content_type, body =
          let run ctx () =
            try dispatch ?ctx t listener req
            with e ->
              (500, "application/json", json_error (Printexc.to_string e))
          in
          (* A trace pull gets no span: it would be open in the
             gateway's own report, which the pull takes. *)
          if Tracer.enabled () && req.Http.path <> "/trace" then begin
            (* The caller's [traceparent] header makes this request's
               span a child of the caller's; without one the gateway
               originates a fresh trace. *)
            let parent =
              match
                Option.bind (Http.header req "traceparent") Context.of_string
              with
              | Some remote -> remote
              | None -> Context.root ()
            in
            Tracer.with_span_ctx "gateway.request" ~ctx:parent
              ~args:
                [
                  ("method", Tracer.Str req.Http.meth);
                  ("path", Tracer.Str req.Http.path);
                ]
              (fun child ->
                span_ctx := Some child;
                run (Some child) ())
          end
          else run None ()
        in
        if status >= 400 && status < 500 then Metrics.incr t.client_errors;
        if status = 502 then Metrics.incr t.backend_errors;
        let keep = Http.keep_alive req && not (Listener.stopping listener) in
        let extra_headers =
          (* Echo the request span's context so HTTP callers can
             correlate their side with the fleet trace. *)
          match !span_ctx with
          | Some c -> [ ("traceparent", Context.to_string c) ]
          | None -> []
        in
        (match
           Http.write_response ~status ~content_type ~extra_headers
             ~keep_alive:keep fd body
         with
        | () -> if keep then loop ()
        | exception (Sys_error _ | Unix.Unix_error _) ->
            (* EPIPE / ECONNRESET: the client vanished between request
               and reply; reclaim the connection quietly. *)
            ())
  in
  loop ()

let serve ?(max_connections = 1024) ?(read_timeout_s = 30.)
    ?(drain_timeout_s = 5.) ?(trace = false) ~listen ~backend () =
  if max_connections < 1 then
    invalid_arg "Gateway.serve: max_connections must be >= 1";
  let addr = Transport.of_string_exn listen in
  ignore (Transport.of_string_exn backend);
  if trace then begin
    Tracer.reset ();
    Tracer.set_enabled true
  end;
  let metrics = Metrics.create () in
  let counter name help = Metrics.counter metrics ~help name in
  let t =
    {
      backend;
      block = Mutex.create ();
      client = None;
      memo = Lru.create ~capacity:memo_capacity;
      mlock = Mutex.create ();
      metrics;
      requests = counter "ssg_gateway_requests_total" "HTTP requests received";
      submits = counter "ssg_gateway_submits_total" "POST /submit requests";
      client_errors =
        counter "ssg_gateway_client_errors_total" "Responses with a 4xx status";
      backend_errors =
        counter "ssg_gateway_backend_errors_total"
          "Responses with a 502 status (backend unreachable or failed)";
      validation_hits =
        counter "ssg_gateway_validation_hits_total"
          "POST /submit requests validated from the memo, with no parse";
      hop_router =
        Metrics.histogram metrics
          ~help:
            "Milliseconds the gateway waited on its backend \
             (gateway\xe2\x86\x92router hop)"
          "ssg_hop_gateway_router_ms";
    }
  in
  let listener = Listener.bind addr in
  Log.app (fun m ->
      m "ssg gateway listening on %s, backend %s"
        (Transport.to_string (Listener.addr listener))
        backend);
  Listener.run ~max_connections ~read_timeout_s ~drain_timeout_s listener
    ~refuse:(fun fd ->
      Http.write_response ~status:503 ~keep_alive:false fd
        (json_error "gateway at connection limit"))
    (handle_connection t listener);
  Option.iter Client.close t.client;
  Listener.close listener;
  Log.app (fun m -> m "ssg gateway stopped")
