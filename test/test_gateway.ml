(* Gateway suite: the HTTP/JSON front door end to end against a real
   worker (submit / stats / metrics / error statuses / shutdown), and
   the load generator: its pure parts (SLO specs), short closed- and
   open-loop runs with SLO grading, and runs showing that no
   connection waits on another's reply. *)

open Ssg_net
open Ssg_engine
open Ssg_gateway

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---------------- harness ---------------- *)

let fresh_tcp () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  Unix.close fd;
  Printf.sprintf "tcp:127.0.0.1:%d" port

let start_worker () =
  let socket = fresh_tcp () in
  let thread =
    Thread.create
      (fun () ->
        Server.serve ~workers:2 ~queue_capacity:64 ~cache_capacity:64
          ~drain_timeout_s:5. ~socket ())
      ()
  in
  let c = Service.connect socket in
  Client.close c;
  (socket, thread)

let stop_worker socket thread =
  let c = Service.connect socket in
  Client.shutdown c;
  Client.close c;
  Thread.join thread

let two_islands = "ssg-run v1\nn 6\nstable: 0>1 1>2 2>0 3>4 4>5 5>3\n"

(* A one-shot HTTP exchange: connect, send [raw], read to EOF, split
   into (status, whole response text). *)
let http_request listen raw =
  let addr = Transport.of_string_exn listen in
  let fd = ref None in
  Service.eventually ~deadline_s:5. ~what:("dial " ^ listen) (fun () ->
      match Transport.connect addr with
      | c ->
          fd := Some c;
          true
      | exception Unix.Unix_error _ -> false);
  let fd = Option.get !fd in
  let bytes = Bytes.of_string raw in
  ignore (Unix.write fd bytes 0 (Bytes.length bytes));
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  drain ();
  Unix.close fd;
  let text = Buffer.contents buf in
  let status =
    match String.split_on_char ' ' text with
    | _ :: code :: _ -> int_of_string_opt code |> Option.value ~default:0
    | _ -> 0
  in
  (status, text)

let get listen path =
  http_request listen
    (Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n" path)

let post listen path body =
  http_request listen
    (Printf.sprintf
       "POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
       path (String.length body) body)

(* ---------------- loadgen: pure parts ---------------- *)

let test_slo_of_string () =
  (match Loadgen.slo_of_string "p99<250ms" with
  | Ok s ->
      check "quantile" true (Float.abs (s.Loadgen.quantile -. 0.99) < 1e-9);
      check "limit" true (s.Loadgen.limit_ms = 250.);
      check "spec preserved" true (s.Loadgen.spec = "p99<250ms")
  | Error e -> Alcotest.fail e);
  (match Loadgen.slo_of_string "p50<1.5ms" with
  | Ok s ->
      check "fractional quantile" true (Float.abs (s.Loadgen.quantile -. 0.5) < 1e-9);
      check "fractional limit" true (Float.abs (s.Loadgen.limit_ms -. 1.5) < 1e-9)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Loadgen.slo_of_string bad with
      | Ok _ -> Alcotest.fail ("must reject " ^ bad)
      | Error msg -> check ("rejection names the spec: " ^ bad) true (contains msg bad))
    [ "p99"; "99<250ms"; "p99<250"; "p0<1ms"; "p100<1ms"; "p99<-3ms"; "<5ms" ]

(* ---------------- gateway: end to end ---------------- *)

let test_gateway_end_to_end () =
  let backend, wt = start_worker () in
  let listen = fresh_tcp () in
  let gt =
    Thread.create
      (fun () -> Gateway.serve ~drain_timeout_s:2. ~listen ~backend ())
      ()
  in
  (* Liveness needs no backend round-trip. *)
  let status, _ = get listen "/healthz" in
  check_int "healthz" 200 status;
  (* A good submission: JSON completion with the outcome. *)
  let status, text = post listen "/submit?k=2" two_islands in
  check_int "submit ok" 200 status;
  check "outcome present" true (contains text "\"outcome\"");
  check "six processes" true (contains text "\"n\":6");
  check "cached flag present" true (contains text "\"cached\"");
  (* The same job again is a cache hit. *)
  let status, text = post listen "/submit?k=2" two_islands in
  check_int "cache hit ok" 200 status;
  check "served from cache" true (contains text "\"cached\":true");
  (* k=1 is lint-rejected: 422 with the diagnostics. *)
  let status, text = post listen "/submit?k=1" two_islands in
  check_int "lint rejection is 422" 422 status;
  check "diagnostics in the body" true (contains text "SSG");
  (* Malformed parameters and run text: 400. *)
  let status, _ = post listen "/submit?k=zero" two_islands in
  check_int "bad k" 400 status;
  let status, _ = post listen "/submit?algorithm=quantum" two_islands in
  check_int "bad algorithm" 400 status;
  let status, _ = post listen "/submit?k=2" "this is not a run" in
  check_int "bad run text" 400 status;
  let status, _ = post listen "/submit?k=2" "ssg-run v1\nn 200000\nstable:\n" in
  check_int "run text over the parser's budget" 400 status;
  (* Stats and metrics. *)
  let status, text = get listen "/stats" in
  check_int "stats" 200 status;
  check "telemetry json" true (contains text "jobs_submitted");
  let status, text = get listen "/metrics" in
  check_int "metrics" 200 status;
  check "gateway series" true (contains text "ssg_gateway_requests_total");
  check "backend exposition appended" true (contains text "ssgd_jobs_submitted");
  (* Three submissions reached the backend: ok, cache hit, lint 422. *)
  check "gateway hop histogram observed every forwarded submit" true
    (contains text "ssg_hop_gateway_router_ms_count 3");
  (* Unknown path / wrong method. *)
  let status, _ = get listen "/nope" in
  check_int "404" 404 status;
  let status, _ = get listen "/submit" in
  check_int "405 for GET /submit" 405 status;
  (* Broken HTTP costs that connection a 400, not the gateway. *)
  let status, _ = http_request listen "NONSENSE\r\n\r\n" in
  check_int "syntactic garbage is 400" 400 status;
  let status, _ = get listen "/healthz" in
  check_int "still alive after garbage" 200 status;
  (* Shutdown stops the gateway, never the backend. *)
  let status, _ = post listen "/shutdown" "" in
  check_int "shutdown acknowledged" 200 status;
  Thread.join gt;
  let c = Service.connect backend in
  check "backend survived the gateway shutdown" true
    ((Client.stats c).Telemetry.jobs_submitted >= 1);
  Client.close c;
  stop_worker backend wt

(* An idle keep-alive client must not hold the gateway's shutdown for
   the whole drain budget. *)
let test_gateway_shutdown_closes_idle_connections () =
  let listen = fresh_tcp () in
  let gt =
    Thread.create
      (fun () ->
        Gateway.serve ~drain_timeout_s:10. ~listen ~backend:(fresh_tcp ()) ())
      ()
  in
  let status, _ = get listen "/healthz" in
  check_int "gateway up" 200 status;
  let idle = Transport.connect (Transport.of_string_exn listen) in
  Unix.setsockopt_float idle Unix.SO_RCVTIMEO 5.;
  (* One keep-alive exchange proves the connection was accepted; then
     it idles. *)
  let req = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" in
  ignore (Unix.write_substring idle req 0 (String.length req));
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  while not (contains (Buffer.contents buf) "{\"status\":\"ok\"}") do
    match Unix.read idle chunk 0 256 with
    | 0 -> Alcotest.fail "idle peer's first exchange failed"
    | n -> Buffer.add_subbytes buf chunk 0 n
  done;
  let t0 = Unix.gettimeofday () in
  let status, _ = post listen "/shutdown" "" in
  check_int "shutdown acknowledged" 200 status;
  Thread.join gt;
  let elapsed = Unix.gettimeofday () -. t0 in
  check (Printf.sprintf "serve returned in %.2f s, under 2 s" elapsed) true
    (elapsed < 2.);
  check_int "idle peer reads EOF" 0 (Unix.read idle chunk 0 256);
  Unix.close idle

let test_gateway_backend_down_is_502 () =
  let dead = fresh_tcp () in
  let listen = fresh_tcp () in
  let gt =
    Thread.create
      (fun () -> Gateway.serve ~drain_timeout_s:1. ~listen ~backend:dead ())
      ()
  in
  let status, text = post listen "/submit?k=2" two_islands in
  check_int "unreachable backend is 502" 502 status;
  check "error body" true (contains text "\"error\"");
  (* Metrics still answer; the backend half degrades to a comment. *)
  let status, text = get listen "/metrics" in
  check_int "metrics degrade gracefully" 200 status;
  check "own series still exposed" true (contains text "ssg_gateway_requests_total");
  (* The trace is pulled through the backend, so it fails like /stats. *)
  let status, text = get listen "/trace" in
  check_int "unreachable backend trace is 502" 502 status;
  check "trace error body" true (contains text "\"error\"");
  let status, _ = post listen "/shutdown" "" in
  check_int "shutdown" 200 status;
  Thread.join gt

(* ---------------- tracing: end to end ---------------- *)

(* The full hop chain in one process: gateway → router → worker, all
   sharing the process-global tracer, so one [Tracer.events ()] pull
   sees every hop's spans.  A fixed traceparent goes in over HTTP; the
   identity args on each begin event must chain back to it. *)
let test_gateway_trace_propagation () =
  let module T = Ssg_obs.Tracer in
  let backend, wt = start_worker () in
  let router = fresh_tcp () in
  let rt =
    Thread.create
      (fun () ->
        Ssg_cluster.Router.serve ~down_after:2 ~probe_interval_s:0.5
          ~request_timeout_s:10. ~drain_timeout_s:5. ~backends:[ backend ]
          ~socket:router ())
      ()
  in
  (let c = Service.connect router in
   Client.close c);
  let listen = fresh_tcp () in
  let gt =
    Thread.create
      (fun () ->
        Gateway.serve ~trace:true ~drain_timeout_s:5. ~listen ~backend:router ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    (fun () ->
      let trace_id = "0123456789abcdef0123456789abcdef" in
      let caller_span = "00000000000000aa" in
      let status, text =
        http_request listen
          (Printf.sprintf
             "POST /submit?k=2 HTTP/1.1\r\n\
              Host: t\r\n\
              Content-Length: %d\r\n\
              traceparent: 00-%s-%s-01\r\n\
              Connection: close\r\n\
              \r\n\
              %s"
             (String.length two_islands) trace_id caller_span two_islands)
      in
      check_int "traced submit ok" 200 status;
      check "traceparent echoed with the caller's trace id" true
        (contains text ("traceparent: 00-" ^ trace_id));
      let arg (e : T.event) key =
        List.find_map
          (fun (k, v) ->
            if String.equal k key then
              match v with T.Str s -> Some s | _ -> None
            else None)
          e.T.args
      in
      let begins =
        List.filter
          (fun (e : T.event) ->
            e.T.kind = T.Begin && arg e "trace_id" = Some trace_id)
          (T.events ())
      in
      let find name =
        match
          List.find_opt (fun (e : T.event) -> String.equal e.T.name name) begins
        with
        | Some e -> e
        | None -> Alcotest.fail ("no span " ^ name ^ " on the caller's trace")
      in
      let gw = find "gateway.request" in
      let route = find "router.route" in
      let submit = find "engine.submit" in
      let exec = find "engine.execute" in
      check "gateway adopted the remote parent" true
        (arg gw "parent_span_id" = Some caller_span);
      check "router.route is a child of gateway.request" true
        (arg route "parent_span_id" = arg gw "span_id");
      check "engine.submit is a child of router.route" true
        (arg submit "parent_span_id" = arg route "span_id");
      check "engine.execute is a child of engine.submit" true
        (arg exec "parent_span_id" = arg submit "span_id");
      (* The fleet pull through the router: its own report plus the
         relayed worker report, roles labelled. *)
      let c = Service.connect router in
      let reports = Client.trace_pull c in
      Client.close c;
      check "fleet pull yields router and worker reports" true
        (List.length reports >= 2);
      check "router report present" true
        (List.exists (fun (r : T.report) -> String.equal r.T.role "router") reports);
      check "worker report present" true
        (List.exists (fun (r : T.report) -> String.equal r.T.role "worker") reports);
      List.iter
        (fun (r : T.report) ->
          check "pull reply carries a clock anchor" true (r.T.epoch_s > 0.))
        reports);
  let status, _ = post listen "/shutdown" "" in
  check_int "gateway shutdown" 200 status;
  Thread.join gt;
  let c = Service.connect router in
  Client.shutdown c;
  Client.close c;
  Thread.join rt;
  stop_worker backend wt

(* The body of a raw HTTP response. *)
let http_body text =
  let rec find i =
    if i + 4 > String.length text then Alcotest.fail "no HTTP body"
    else if String.sub text i 4 = "\r\n\r\n" then i + 4
    else find (i + 1)
  in
  let off = find 0 in
  String.sub text off (String.length text - off)

(* The submit bodies as values.  A 200 decodes to [Job.execute] of the
   canonical job, field by field, keys in order (perfbench's
   correctness check decodes it so); [cached] flips on a repeat; a
   lint rejection's [error] is the engine's message verbatim, newlines
   and all, and a 400's keeps the quotes around the token it names. *)
let test_gateway_bodies_decode () =
  let module E = Ssg_obs.Export in
  let backend, wt = start_worker () in
  let listen = fresh_tcp () in
  let gt =
    Thread.create
      (fun () -> Gateway.serve ~drain_timeout_s:2. ~listen ~backend ())
      ()
  in
  let submit path =
    let status, text = post listen path two_islands in
    match E.json_of_string (http_body text) with
    | Some (E.Obj fields) -> (status, fields)
    | _ -> Alcotest.failf "%s: the body is not a JSON object" path
  in
  let int = function E.Int i -> i | _ -> Alcotest.fail "expected an integer" in
  let str = function E.Str s -> s | _ -> Alcotest.fail "expected a string" in
  let list = function E.Arr l -> l | _ -> Alcotest.fail "expected an array" in
  let outcome fields : Job.outcome =
    match List.assoc_opt "outcome" fields with
    | Some
        (E.Obj
          [
            ("algorithm", algorithm);
            ("n", n);
            ("min_k", min_k);
            ("rounds_run", rounds_run);
            ("decisions", decisions);
            ("distinct_decisions", distinct_decisions);
            ("messages_sent", messages_sent);
            ("messages_delivered", messages_delivered);
            ("bits_sent", bits_sent);
            ("violations", violations);
          ]) ->
        let decision = function
          | E.Null -> None
          | E.Arr [ r; v ] -> Some (int r, int v)
          | _ -> Alcotest.fail "a decision is null or [round, value]"
        in
        {
          algorithm = str algorithm;
          n = int n;
          min_k = int min_k;
          rounds_run = int rounds_run;
          decisions = Array.of_list (List.map decision (list decisions));
          distinct_decisions = int distinct_decisions;
          messages_sent = int messages_sent;
          messages_delivered = int messages_delivered;
          bits_sent = int bits_sent;
          violations = List.map str (list violations);
        }
    | _ -> Alcotest.fail "outcome: wrong keys or key order"
  in
  let expected =
    Protocol.outcome_to_string (Job.execute (Job.of_run_text ~k:2 two_islands))
  in
  let status, first = submit "/submit?k=2" in
  check_int "computed 200" 200 status;
  check "keys in order" true
    (List.map fst first = [ "cached"; "latency_ms"; "outcome" ]);
  check "computed, not cached" true
    (List.assoc "cached" first = E.Bool false);
  Alcotest.(check string)
    "outcome decodes to Job.execute" expected
    (Protocol.outcome_to_string (outcome first));
  let status, again = submit "/submit?k=2" in
  check_int "repeat 200" 200 status;
  check "repeat served from cache" true
    (List.assoc "cached" again = E.Bool true);
  Alcotest.(check string)
    "cached outcome decodes to Job.execute" expected
    (Protocol.outcome_to_string (outcome again));
  let status, rejected = submit "/submit?k=1" in
  check_int "lint rejection 422" 422 status;
  let diags =
    let job = Job.of_run_text ~k:1 two_islands in
    match Ssg_lint.Lint.gate ~k:1 job.Job.run with
    | Some d -> d
    | None -> Alcotest.fail "the gate admits the k=1 run"
  in
  check "diagnostics span lines" true (String.contains diags '\n');
  let error fields = List.map (fun (k, v) -> (k, str v)) fields in
  Alcotest.(check (list (pair string string)))
    "error is the engine's lint message"
    [ ("error", "job rejected by lint:\n" ^ diags) ]
    (error rejected);
  let status, refused = submit "/submit?k=2&algorithm=quantum" in
  check_int "unknown algorithm 400" 400 status;
  Alcotest.(check (list (pair string string)))
    "error quotes the algorithm"
    [
      ( "error",
        "unknown algorithm \"quantum\" (expected kset | floodmin | \
         flood-consensus | naive-min)" );
    ]
    (error refused);
  let status, _ = post listen "/shutdown" "" in
  check_int "gateway shutdown" 200 status;
  Thread.join gt;
  stop_worker backend wt

(* The gateway validates each distinct request once.  A repeat is
   forwarded from the memo and counted; the parameters are part of the
   key; another spelling of a memoized run is validated afresh; and
   neither a 400 nor a body over the memo's limit is ever stored. *)
let test_gateway_validation_memo () =
  let module E = Ssg_obs.Export in
  let backend, wt = start_worker () in
  let listen = fresh_tcp () in
  let gt =
    Thread.create
      (fun () -> Gateway.serve ~drain_timeout_s:2. ~listen ~backend ())
      ()
  in
  let hits () =
    let status, text = get listen "/metrics" in
    check_int "metrics" 200 status;
    let name = "ssg_gateway_validation_hits_total " in
    let skip = String.length name in
    match
      List.find_opt
        (String.starts_with ~prefix:name)
        (String.split_on_char '\n' (http_body text))
    with
    | Some line ->
        int_of_string (String.sub line skip (String.length line - skip))
    | None -> Alcotest.fail "no ssg_gateway_validation_hits_total sample"
  in
  let submit path body =
    let status, text = post listen path body in
    (status, http_body text)
  in
  let s1, _ = submit "/submit?k=2" two_islands in
  let s2, b2 = submit "/submit?k=2" two_islands in
  let s3, b3 = submit "/submit?k=2" two_islands in
  List.iter (check_int "k=2 answers 200" 200) [ s1; s2; s3 ];
  check_int "two repeats, two memo hits" 2 (hits ());
  check "a repeat is the worker's cache hit" true
    (contains b2 "\"cached\":true");
  Alcotest.(check string) "both repeats answer the same bytes" b2 b3;
  let status, _ = submit "/submit?k=1" two_islands in
  check_int "the same text with k=1 is a lint rejection" 422 status;
  check_int "k=1 is another request" 2 (hits ());
  let status, body = submit "/submit?k=2" two_islands in
  check_int "k=2 answers 200 again" 200 status;
  Alcotest.(check string) "k=2 again, the same bytes" b2 body;
  check_int "k=2 again is a memo hit" 3 (hits ());
  let respelled =
    "ssg-run v1\n# the two islands\nn 6\n\nstable: 5>3 4>5 3>4 2>0 1>2 0>1\n"
  in
  let status, body = submit "/submit?k=2" respelled in
  check_int "a respelling answers 200" 200 status;
  check "a respelling is the worker's cache hit" true
    (contains body "\"cached\":true");
  check_int "a respelling is not a memo hit" 3 (hits ());
  let refused what path normalize body =
    let msg =
      match normalize body with
      | _ -> Alcotest.failf "%s: the request normalizes" what
      | exception (Failure msg | Invalid_argument msg) -> msg
    in
    let expected = E.json_to_string (E.Obj [ ("error", E.Str msg) ]) in
    for _ = 1 to 3 do
      let status, got = submit path body in
      check_int (what ^ ": 400") 400 status;
      Alcotest.(check string)
        (what ^ ": the normalizer's message")
        expected got
    done;
    check_int (what ^ ": never a memo hit") 3 (hits ());
    msg
  in
  ignore
    (refused "not a run" "/submit?k=2" (Job.of_run_text ~k:2)
       "this is not a run");
  let msg =
    refused "unparseable with k=0" "/submit?k=0" (Job.of_run_text ~k:0)
      "ssg-run v1\nn 3\nstable: 0>1 1>9\n"
  in
  check "the parse error comes before k's" true
    (String.starts_with ~prefix:"line 3" msg);
  ignore
    (refused "rounds=-1" "/submit?k=2&rounds=-1"
       (Job.of_run_text ~k:2 ~rounds:(-1))
       two_islands);
  ignore
    (refused "over the parser's budget" "/submit?k=2" (Job.of_run_text ~k:2)
       "ssg-run v1\nn 200000\nstable:\n");
  let padded = two_islands ^ "# " ^ String.make 4096 'x' ^ "\n" in
  for _ = 1 to 3 do
    let status, _ = submit "/submit?k=2" padded in
    check_int "a body over the memo's limit answers 200" 200 status
  done;
  check_int "a body over the memo's limit is never a memo hit" 3 (hits ());
  let status, _ = post listen "/shutdown" "" in
  check_int "gateway shutdown" 200 status;
  Thread.join gt;
  stop_worker backend wt

(* [GET /trace] relays the fleet pull through the gateway's backend:
   one stitched document, the gateway's own track ahead of every
   process behind it. *)
let test_gateway_trace_relays_fleet_pull () =
  let module T = Ssg_obs.Tracer in
  let backend, wt = start_worker () in
  let listen = fresh_tcp () in
  let gt =
    Thread.create
      (fun () ->
        Gateway.serve ~trace:true ~drain_timeout_s:5. ~listen ~backend ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    (fun () ->
      let status, _ = post listen "/submit?k=2" two_islands in
      check_int "traced submit ok" 200 status;
      let status, text = get listen "/trace" in
      check_int "trace ok" 200 status;
      let body = http_body text in
      (match Ssg_obs.Stitch.audit_string body with
      | Ok a ->
          check "stitched events" true (a.Ssg_obs.Stitch.events > 0);
          (* The pull is not itself traced, so a quiescent fleet has no
             span open: not even the gateway's for this request. *)
          check_int "no open span" 0 a.Ssg_obs.Stitch.open_spans
      | Error msg -> Alcotest.failf "audit rejected GET /trace: %s" msg);
      let process_names =
        let open Ssg_obs.Export in
        match json_of_string body with
        | Some (Arr items) ->
            List.filter_map
              (function
                | Obj kvs
                  when List.assoc_opt "name" kvs = Some (Str "process_name")
                  -> (
                    match List.assoc_opt "args" kvs with
                    | Some (Obj args) -> (
                        match List.assoc_opt "name" args with
                        | Some (Str n) -> Some n
                        | _ -> None)
                    | _ -> None)
                | _ -> None)
              items
        | _ -> Alcotest.fail "GET /trace is not a JSON array"
      in
      let has role =
        List.exists
          (String.starts_with ~prefix:(role ^ " (pid "))
          process_names
      in
      check "gateway track" true (has "gateway");
      check "worker track" true (has "worker"));
  let status, _ = post listen "/shutdown" "" in
  check_int "gateway shutdown" 200 status;
  Thread.join gt;
  stop_worker backend wt

(* A run with no latency samples: every latency field is NaN and
   renders as null, never as a number. *)
let test_loadgen_json_without_samples () =
  let module E = Ssg_obs.Export in
  let report =
    {
      Loadgen.connections = 2;
      sent = 3;
      completed = 0;
      rejected = 0;
      errors = 3;
      duration_s = 0.25;
      throughput_rps = 0.;
      mean_ms = Float.nan;
      p50_ms = Float.nan;
      p95_ms = Float.nan;
      p99_ms = Float.nan;
      max_ms = Float.nan;
      slo_violations =
        [
          "p99<5ms: no latency samples";
          "3 client-visible error(s) during the run";
        ];
      slow_traces = [];
    }
  in
  match E.json_of_string (Loadgen.to_json report) with
  | Some (E.Obj fields) ->
      check "keys in order" true
        (List.map fst fields
        = [
            "connections"; "sent"; "completed"; "rejected"; "errors";
            "duration_s"; "throughput_rps"; "mean_ms"; "p50_ms"; "p95_ms";
            "p99_ms"; "max_ms"; "slo_violations"; "slow_traces";
          ]);
      List.iter
        (fun k -> check (k ^ " is null") true (List.assoc k fields = E.Null))
        [ "mean_ms"; "p50_ms"; "p95_ms"; "p99_ms"; "max_ms" ];
      check "counts" true
        (List.map (fun k -> List.assoc k fields) [ "sent"; "errors" ]
        = [ E.Int 3; E.Int 3 ]);
      check "duration" true (List.assoc "duration_s" fields = E.Float 0.25);
      check "violations" true
        (List.assoc "slo_violations" fields
        = E.Arr (List.map (fun v -> E.Str v) report.Loadgen.slo_violations));
      check "no slow traces" true (List.assoc "slow_traces" fields = E.Arr [])
  | _ -> Alcotest.fail "the report is not a JSON object"

(* ---------------- loadgen: smoke ---------------- *)

let test_loadgen_closed_loop_smoke () =
  let socket, wt = start_worker () in
  let report =
    Loadgen.run ~threads:2 ~pipeline:4 ~connections:8 ~duration_s:0.5
      ~target:socket
      ~slos:
        [
          (match Loadgen.slo_of_string "p99<60000ms" with
          | Ok s -> s
          | Error e -> Alcotest.fail e);
        ]
      ()
  in
  check_int "connections as asked" 8 report.Loadgen.connections;
  check "traffic flowed" true (report.Loadgen.sent > 0);
  check_int "zero client-visible errors" 0 report.Loadgen.errors;
  check "every send accounted for" true
    (report.Loadgen.completed = report.Loadgen.sent);
  check "default mix produces lint rejections" true (report.Loadgen.rejected > 0);
  check "latencies measured" true (report.Loadgen.p99_ms > 0.);
  check "percentiles ordered" true
    (report.Loadgen.p50_ms <= report.Loadgen.p95_ms
    && report.Loadgen.p95_ms <= report.Loadgen.p99_ms
    && report.Loadgen.p99_ms <= report.Loadgen.max_ms);
  check "generous slo holds" true (report.Loadgen.slo_violations = []);
  check "json renders" true
    (contains (Loadgen.to_json report) "\"throughput_rps\"");
  (* An impossible SLO must be flagged. *)
  let report =
    Loadgen.run ~threads:1 ~connections:2 ~duration_s:0.2 ~target:socket
      ~slos:
        [
          (match Loadgen.slo_of_string "p50<0.000001ms" with
          | Ok s -> s
          | Error e -> Alcotest.fail e);
        ]
      ()
  in
  check "impossible slo violated" true (report.Loadgen.slo_violations <> []);
  stop_worker socket wt

let test_loadgen_open_loop_smoke () =
  let socket, wt = start_worker () in
  let report =
    Loadgen.run ~threads:2 ~rate:200. ~connections:4 ~duration_s:0.5
      ~target:socket ()
  in
  check "open loop flowed" true (report.Loadgen.sent > 0);
  check_int "open loop error-free" 0 report.Loadgen.errors;
  (* 200 req/s for 0.5 s: the schedule bounds the send count. *)
  check "rate respected" true (report.Loadgen.sent <= 140);
  stop_worker socket wt

let test_loadgen_trace_top () =
  let socket, wt = start_worker () in
  let report =
    Loadgen.run ~threads:1 ~pipeline:2 ~connections:2 ~duration_s:0.3
      ~target:socket ~trace_top:3 ()
  in
  check "traffic flowed" true (report.Loadgen.sent > 0);
  check "slowest requests sampled" true (report.Loadgen.slow_traces <> []);
  check "at most top-N sampled" true
    (List.length report.Loadgen.slow_traces <= 3);
  let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  List.iter
    (fun (ms, id) ->
      check "sampled latency positive" true (ms > 0.);
      check "sampled trace id is 32 hex chars" true
        (String.length id = 32 && String.for_all is_hex id))
    report.Loadgen.slow_traces;
  (* Slowest first. *)
  (match report.Loadgen.slow_traces with
  | (a, _) :: (b, _) :: _ -> check "sorted descending" true (a >= b)
  | _ -> ());
  check "json carries the samples" true
    (contains (Loadgen.to_json report) "\"slow_traces\"");
  stop_worker socket wt

(* ---------------- loadgen: per-connection service ---------------- *)

(* Every job takes 100 ms on a worker that runs two at once, 20 jobs a
   second.  Fifteen requests a second over ten connections is a
   schedule it keeps up with, so each request waits for its own job
   alone, whether one driver thread serves the ten connections or ten
   threads do. *)
let test_loadgen_open_loop_waits_on_no_reply () =
  let socket = fresh_tcp () in
  let wt =
    Thread.create
      (fun () ->
        Server.serve ~workers:2 ~queue_capacity:64 ~cache_capacity:0
          ~faults:(Faults.create ~slow_every:1 ~slow_s:0.1 ())
          ~drain_timeout_s:5. ~socket ())
      ()
  in
  Client.close (Service.connect socket);
  List.iter
    (fun threads ->
      let r =
        Loadgen.run ~threads ~rate:15. ~connections:10
          ~mix:{ Loadgen.cached = 0; uncached = 1; lint_error = 0 }
          ~duration_s:2. ~target:socket ()
      in
      let what = Printf.sprintf "%d thread(s)" threads in
      check_int (what ^ ": zero errors") 0 r.Loadgen.errors;
      check
        (Printf.sprintf "%s: %d of 30 scheduled sends" what r.Loadgen.sent)
        true (r.Loadgen.sent >= 28);
      check
        (Printf.sprintf "%s: p99 %.1f ms" what r.Loadgen.p99_ms)
        true (r.Loadgen.p99_ms < 200.))
    [ 1; 10 ];
  stop_worker socket wt

(* A native backend that answers every request with a completed job,
   holding each reply on the first connection it accepts for
   [delay_s]; it accepts [connections] connections and serves each
   until EOF.  The returned thread ends when they all have. *)
let fake_backend ~delay_s ~connections =
  let reply =
    let job = Job.of_run_text ~k:2 two_islands in
    Protocol.reply_to_bytes
      (Protocol.Completed
         { Job.result = Ok (Job.execute job); cached = true; latency_ms = 0. })
  in
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen lfd 8;
  let port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  let answer delay fd =
    let rec loop () =
      match Frame.classify (Frame.read_fd fd) with
      | Frame.Id (id, _) ->
          Thread.delay delay;
          Frame.write_fd fd (Frame.with_id ~id reply);
          loop ()
      | Frame.Plain _
      | (exception (End_of_file | Failure _ | Unix.Unix_error _)) ->
          ()
    in
    loop ();
    Unix.close fd
  in
  let rec accept_all i =
    if i = connections then []
    else
      let fd, _ = Unix.accept lfd in
      let t = Thread.create (answer (if i = 0 then delay_s else 0.)) fd in
      t :: accept_all (i + 1)
  in
  let server =
    Thread.create
      (fun () ->
        let answering = accept_all 0 in
        Unix.close lfd;
        List.iter Thread.join answering)
      ()
  in
  (Printf.sprintf "tcp:127.0.0.1:%d" port, server)

(* One connection's replies each take 300 ms; the other connection of
   the same driver thread keeps going meanwhile. *)
let test_loadgen_slow_connection_stalls_no_other () =
  let target, server = fake_backend ~delay_s:0.3 ~connections:2 in
  let r =
    Loadgen.run ~threads:1 ~connections:2
      ~mix:{ Loadgen.cached = 1; uncached = 0; lint_error = 0 }
      ~duration_s:1. ~target ()
  in
  Thread.join server;
  check_int "zero errors" 0 r.Loadgen.errors;
  check
    (Printf.sprintf "%d completed in 1 s" r.Loadgen.completed)
    true (r.Loadgen.completed > 50)

(* With 1,100 descriptors open first, every connection's descriptor is
   past FD_SETSIZE, where [Unix.select] refuses to watch it: both loops
   still answer every request they send. *)
let test_loadgen_past_fd_setsize () =
  let fillers =
    List.init 1100 (fun _ -> Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0)
  in
  Fun.protect
    ~finally:(fun () -> List.iter Unix.close fillers)
    (fun () ->
      let socket, wt = start_worker () in
      let closed =
        Loadgen.run ~threads:2 ~pipeline:2 ~connections:4 ~duration_s:0.5
          ~target:socket ()
      in
      let open_ =
        Loadgen.run ~threads:2 ~rate:100. ~connections:4 ~duration_s:0.5
          ~target:socket ()
      in
      stop_worker socket wt;
      List.iter
        (fun (what, r) ->
          check_int (what ^ ": zero errors") 0 r.Loadgen.errors;
          check (what ^ ": traffic flowed") true (r.Loadgen.sent > 0);
          check_int (what ^ ": every send answered") r.Loadgen.sent
            r.Loadgen.completed)
        [ ("closed loop", closed); ("open loop", open_) ])

let test_loadgen_rejects_nonsense () =
  (match Loadgen.run ~connections:0 ~duration_s:1. ~target:"unix:/none" () with
  | _ -> Alcotest.fail "connections=0 must be rejected"
  | exception Invalid_argument _ -> ());
  match Loadgen.run ~connections:1 ~duration_s:0. ~target:"unix:/none" () with
  | _ -> Alcotest.fail "duration=0 must be rejected"
  | exception Invalid_argument _ -> ()

(* A target nobody serves: each connection dials once before the run
   and then re-dials like a dead one, so the run ends on time and
   counts one error per connection that never connected. *)
let test_loadgen_dead_target () =
  let target =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ssg-gateway-%d-nobody.sock" (Unix.getpid ()))
  in
  if Sys.file_exists target then Sys.remove target;
  let t0 = Unix.gettimeofday () in
  let r = Loadgen.run ~connections:16 ~threads:2 ~duration_s:1. ~target () in
  let elapsed = Unix.gettimeofday () -. t0 in
  check (Printf.sprintf "returned in %.2f s, under 3 s" elapsed) true
    (elapsed < 3.);
  check_int "nothing sent" 0 r.Loadgen.sent;
  check_int "one error per connection" 16 r.Loadgen.errors

(* ---------------- suite ---------------- *)

(* ---------------- exposition lint ---------------- *)

(* The [(name, type)] pairs a scrape declares, after checking its
   shape: every sample sits under the [# TYPE] of its name (a
   histogram's [_bucket]/[_sum]/[_count] under the histogram's), no
   name is typed twice, every [# TYPE] follows its [# HELP], and every
   name matches [^ssgd?_[a-z0-9_]+$]. *)
let lint_exposition what text =
  let fail fmt = Printf.ksprintf (Alcotest.failf "%s: %s" what) fmt in
  let name_ok name =
    (String.starts_with ~prefix:"ssg_" name
    || String.starts_with ~prefix:"ssgd_" name)
    && String.for_all
         (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false)
         name
  in
  let typed = ref [] and current = ref None and help = ref None in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "" ] -> ()
      | "#" :: "HELP" :: name :: _ -> help := Some name
      | [ "#"; "TYPE"; name; kind ] ->
          if List.mem_assoc name !typed then fail "%s typed twice" name;
          if !help <> Some name then fail "# TYPE %s has no # HELP" name;
          if not (name_ok name) then fail "bad metric name %s" name;
          typed := (name, kind) :: !typed;
          current := Some (name, kind)
      | "#" :: _ -> ()
      | _ ->
          let series =
            match String.index_opt line '{' with
            | Some i -> String.sub line 0 i
            | None -> List.hd (String.split_on_char ' ' line)
          in
          let belongs =
            match !current with
            | Some (name, "histogram") ->
                List.mem series
                  [ name ^ "_bucket"; name ^ "_sum"; name ^ "_count" ]
            | Some (name, _) -> series = name
            | None -> false
          in
          if not belongs then fail "sample %S outside its # TYPE" line)
    (String.split_on_char '\n' text);
  List.rev !typed

(* README's metric tables: [(name, type)] of every row whose first
   cell is a backquoted [ssg] name. *)
let readme_metrics () =
  let path =
    if Sys.file_exists "../README.md" then "../README.md" else "README.md"
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char '|' line with
         | "" :: name :: kind :: _ -> (
             match String.split_on_char '`' name with
             | [ _; name; _ ] when String.starts_with ~prefix:"ssg" name ->
                 Some (name, String.trim kind)
             | _ -> None)
         | _ -> None)

(* Three live scrapes — a worker with a store, a router over two
   workers, a gateway in front of that router — each linted, checked
   for the names perfbench reads, and checked against README's
   tables; the worker's also for every scalar snapshot field. *)
let test_exposition_lint () =
  let store_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ssg-exposition-%d" (Unix.getpid ()))
  in
  let worker = fresh_tcp () in
  let wt =
    Thread.create
      (fun () ->
        Server.serve ~workers:1 ~queue_capacity:16 ~cache_capacity:64
          ~drain_timeout_s:5. ~persist:store_dir ~socket:worker ())
      ()
  in
  Client.close (Service.connect worker);
  let b1, t1 = start_worker () in
  let b2, t2 = start_worker () in
  let router = fresh_tcp () in
  let rt =
    Thread.create
      (fun () ->
        Ssg_cluster.Router.serve ~probe_interval_s:0.5 ~drain_timeout_s:5.
          ~backends:[ b1; b2 ] ~socket:router ())
      ()
  in
  Client.close (Service.connect router);
  let listen = fresh_tcp () in
  let gt =
    Thread.create
      (fun () -> Gateway.serve ~drain_timeout_s:5. ~listen ~backend:router ())
      ()
  in
  let job = Job.of_run_text ~k:2 two_islands in
  let scrape addr =
    let c = Service.connect addr in
    ignore (Client.submit c job);
    let text = Client.metrics_text c in
    Client.close c;
    text
  in
  let worker_text = scrape worker and router_text = scrape router in
  let status, _ = post listen "/submit?k=2" two_islands in
  check_int "gateway submit" 200 status;
  let status, gateway_text = get listen "/metrics" in
  check_int "gateway metrics" 200 status;
  let documented = readme_metrics () in
  let in_readme (name, kind) =
    let cluster = "ssg_cluster_" in
    let n = String.length cluster in
    List.mem (name, kind) documented
    || String.starts_with ~prefix:cluster name
       && kind = "gauge"
       && List.mem_assoc "ssg_cluster_<field>" documented
       && List.mem_assoc
            ("ssgd_" ^ String.sub name n (String.length name - n))
            documented
  in
  let check_scrape what text ~reads =
    let typed = lint_exposition what text in
    List.iter
      (fun m ->
        check
          (Printf.sprintf "%s: %s %s in README's tables" what (fst m) (snd m))
          true (in_readme m))
      typed;
    List.iter
      (fun name ->
        check
          (Printf.sprintf "%s: perfbench reads %s" what name)
          true (List.mem_assoc name typed))
      reads;
    typed
  in
  let typed =
    check_scrape "worker" worker_text
      ~reads:
        [
          "ssgd_jobs_submitted";
          "ssgd_jobs_rejected_lint";
          "ssgd_cache_hits";
          "ssgd_dedup_joins";
          "ssgd_job_queue_wait_ms";
          "ssgd_job_exec_ms";
          "ssg_store_fsyncs_total";
          "ssg_store_compactions_total";
          "ssg_store_journal_bytes";
        ]
  in
  let c = Service.connect worker in
  List.iter
    (fun f ->
      match f with
      | Telemetry.F_count (name, _)
      | Telemetry.F_gauge_i (name, _)
      | Telemetry.F_gauge_f (name, _) ->
          check ("--prom carries --json's " ^ name) true
            (List.mem_assoc ("ssgd_" ^ name) typed)
      | Telemetry.F_histogram _ -> ())
    (Telemetry.fields (Client.stats c));
  Client.close c;
  ignore
    (check_scrape "router" router_text ~reads:[ "ssg_hop_router_worker_ms" ]);
  ignore
    (check_scrape "gateway" (http_body gateway_text)
       ~reads:[ "ssg_hop_gateway_router_ms" ]);
  let status, _ = post listen "/shutdown" "" in
  check_int "gateway shutdown" 200 status;
  Thread.join gt;
  let c = Service.connect router in
  Client.shutdown c;
  Client.close c;
  Thread.join rt;
  stop_worker b1 t1;
  stop_worker b2 t2;
  stop_worker worker wt;
  Array.iter
    (fun f -> Sys.remove (Filename.concat store_dir f))
    (Sys.readdir store_dir);
  Sys.rmdir store_dir

let tests =
  [
    Alcotest.test_case "loadgen: slo specs" `Quick test_slo_of_string;
    Alcotest.test_case "gateway: end to end" `Quick test_gateway_end_to_end;
    Alcotest.test_case "gateway: shutdown closes idle connections at once"
      `Quick test_gateway_shutdown_closes_idle_connections;
    Alcotest.test_case "gateway: backend down" `Quick
      test_gateway_backend_down_is_502;
    Alcotest.test_case "gateway: trace propagation end to end" `Quick
      test_gateway_trace_propagation;
    Alcotest.test_case "gateway: bodies decode to the job's values" `Quick
      test_gateway_bodies_decode;
    Alcotest.test_case "gateway: a repeated request is validated once" `Quick
      test_gateway_validation_memo;
    Alcotest.test_case "gateway: trace relays the fleet pull" `Quick
      test_gateway_trace_relays_fleet_pull;
    Alcotest.test_case "exposition: lint, README tables" `Quick
      test_exposition_lint;
    Alcotest.test_case "loadgen: slow-request trace sampling" `Quick
      test_loadgen_trace_top;
    Alcotest.test_case "loadgen: json without latency samples" `Quick
      test_loadgen_json_without_samples;
    Alcotest.test_case "loadgen: closed-loop smoke" `Quick
      test_loadgen_closed_loop_smoke;
    Alcotest.test_case "loadgen: open-loop smoke" `Quick
      test_loadgen_open_loop_smoke;
    Alcotest.test_case "loadgen: parameter validation" `Quick
      test_loadgen_rejects_nonsense;
    Alcotest.test_case "loadgen: a dead target ends on time" `Quick
      test_loadgen_dead_target;
    Alcotest.test_case "loadgen: a slow reply holds back no other send" `Quick
      test_loadgen_open_loop_waits_on_no_reply;
    Alcotest.test_case "loadgen: a slow connection stalls no other" `Quick
      test_loadgen_slow_connection_stalls_no_other;
    Alcotest.test_case "loadgen: descriptors past FD_SETSIZE" `Quick
      test_loadgen_past_fd_setsize;
  ]
