(* The traced run: the request list replayed in-process through the same
   public functions the service's request path calls, one span per call.

   Per request, in path order (HTTP entry; the native entry starts at
   the worker's decode):
   1. [Http.read_request] over a socketpair          gateway.http_read
   2. [Job.of_run_text]                              gateway.normalize
   3. [Protocol.request_to_bytes]                    net.encode_request
   4. [Protocol.request_of_bytes] (re-normalizes)    router.decode
   5. [Job.key] and [Ring.successors]                router.ring
   6. [Client.connect] / [close] to a listener       router.connect
   7. [Protocol.request_to_bytes]                    net.encode_request
   8. [Protocol.request_of_bytes] (re-normalizes)    worker.decode
   9. [Job.key] and [Lru.find]                       engine.lru_find
  10. [Lint.gate]                  (misses, lint)    lint.gate
  11. [Job.execute]                (misses)          runner.execute
  12. [Lru.add]                    (misses)          engine.lru_add
  13. [Store.append] (+ [compact]) (misses)          store.append
  14. [Protocol.reply_to_bytes] / [reply_of_bytes]   net.encode_reply / net.decode_reply
      (worker → router → gateway: two of each)
  15. [Http.write_response]                          gateway.http_write

   Every span records its name, start, end, request id and parent (the
   request's root span) plus the call's [Gc.minor_words] delta; spans
   stay in memory until the run ends.  The walk copies the call path
   as it is at this commit — if that path is restructured, the per-row
   numbers need the walk updated; the /proc and counter metrics do not. *)

open Ssg_engine
module Http = Ssg_net.Http
module Lru = Ssg_engine.Lru
module Store = Ssg_store.Store

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;  (** the request's root span; -1 for a root *)
  start : float;
  stop : float;
  words : float;
}

type state = {
  mutable record : bool;
  mutable spans : span list;
  mutable next_id : int;
  mutable root : int;
  mutable req : int;
  mutable frame_bytes : int;
  mutable rounds : int;
  mutable bits : int;
  client : Unix.file_descr;  (* the HTTP client's end of the socketpair *)
  server : Unix.file_descr;  (* the gateway's end *)
  conn : Http.conn;
  listener : Unix.file_descr;
  listen_addr : string;
  ring : Ssg_cluster.Ring.t;
  lru : Job.outcome Lru.t;
  store : Store.t;
  executed : (string, Job.outcome) Hashtbl.t;
}

let call st name f =
  if not st.record then f ()
  else begin
    let id = st.next_id in
    st.next_id <- id + 1;
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let v = f () in
    let t1 = Unix.gettimeofday () in
    let w1 = Gc.minor_words () in
    st.spans <-
      { id; name; req = st.req; parent = st.root; start = t0; stop = t1; words = w1 -. w0 }
      :: st.spans;
    v
  end

let frame st b =
  st.frame_bytes <- st.frame_bytes + 4 + Bytes.length b;
  b

let create ~dir =
  let client, server = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock client;
  let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 64;
  let port =
    match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let listen_addr = Printf.sprintf "tcp:127.0.0.1:%d" port in
  Fleet.rm_rf dir;
  {
    record = false; spans = []; next_id = 0; root = -1; req = -1; frame_bytes = 0;
    rounds = 0; bits = 0; client; server; conn = Http.conn_of_fd server;
    listener; listen_addr; ring = Ssg_cluster.Ring.create [ listen_addr ];
    lru = Lru.create ~capacity:1024;
    store = Store.open_ ~sync:(Store.Group 8) ~dir ();
    executed = Hashtbl.create 1024;
  }

let close st =
  Store.close st.store;
  List.iter Unix.close [ st.client; st.server; st.listener ]

(* The engine's share of a request: cache, lint gate, execution,
   journal — what [Engine.submit] does for one fresh job. *)
let engine st job =
  let key, hit =
    call st "engine.lru_find" (fun () ->
        let key = Job.key job in
        (key, Lru.find st.lru key))
  in
  match hit with
  | Some o -> Protocol.Completed { Job.result = Ok o; cached = true; latency_ms = 0. }
  | None -> (
      match call st "lint.gate" (fun () -> Ssg_lint.Lint.gate ~k:job.Job.k job.Job.run) with
      | Some diags -> Protocol.Error ("job rejected by lint:\n" ^ diags)
      | None ->
          let t0 = Unix.gettimeofday () in
          let o = call st "runner.execute" (fun () -> Job.execute job) in
          let latency_ms = 1000. *. (Unix.gettimeofday () -. t0) in
          Hashtbl.replace st.executed key o;
          st.rounds <- st.rounds + o.rounds_run;
          st.bits <- st.bits + o.bits_sent;
          call st "engine.lru_add" (fun () -> Lru.add st.lru key o);
          call st "store.append" (fun () ->
              ignore (Store.append st.store ~key ~value:(Protocol.outcome_to_string o));
              if Store.should_compact st.store then
                ignore
                  (Store.compact st.store
                     ~entries:
                       (List.rev_map
                          (fun (k, o) -> (k, Protocol.outcome_to_string o))
                          (Lru.to_list st.lru))));
          Protocol.Completed { Job.result = Ok o; cached = false; latency_ms })

let submit_of = function
  | Protocol.Submit j -> j
  | _ -> failwith "walk: decoded request is not a Submit"

let reply_hops st reply ~hops =
  let rec go reply n =
    if n = 0 then reply
    else
      let b = frame st (call st "net.encode_reply" (fun () -> Protocol.reply_to_bytes reply)) in
      go (call st "net.decode_reply" (fun () -> Protocol.reply_of_bytes b)) (n - 1)
  in
  go reply hops

let http_response = function
  | Protocol.Completed { Job.result = Ok o; cached; latency_ms } ->
      (200, Json.render_completion ~cached ~latency_ms o)
  | Protocol.Error msg -> (422, Printf.sprintf "{\"error\":\"%s\"}" (Http.json_escape msg))
  | _ -> (502, "{\"error\":\"unexpected\"}")

let drain fd =
  let b = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd b 0 (Bytes.length b) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  in
  go ()

let http_request st (r : Workload.request) =
  let raw = Http_client.submit_request r.job in
  Http_client.write_all st.client raw 0 (String.length raw);
  let req =
    call st "gateway.http_read" (fun () ->
        match Http.read_request st.conn with
        | Some req -> req
        | None -> failwith "walk: request stream closed")
  in
  let k = int_of_string (Option.get (Http.query_param req "k")) in
  let job = call st "gateway.normalize" (fun () -> Job.of_run_text ~k req.Http.body) in
  let b1 = frame st (call st "net.encode_request" (fun () -> Protocol.request_to_bytes (Protocol.Submit job))) in
  let job = submit_of (call st "router.decode" (fun () -> Protocol.request_of_bytes b1)) in
  ignore
    (call st "router.ring" (fun () ->
         Ssg_cluster.Ring.successors st.ring (Job.key job)));
  call st "router.connect" (fun () ->
      Client.close (Client.connect ~retries:0 ~deadline_s:30. ~socket:st.listen_addr ()));
  Unix.close (fst (Unix.accept ~cloexec:true st.listener));
  let b2 = frame st (call st "net.encode_request" (fun () -> Protocol.request_to_bytes (Protocol.Submit job))) in
  let job = submit_of (call st "worker.decode" (fun () -> Protocol.request_of_bytes b2)) in
  let reply = reply_hops st (engine st job) ~hops:2 in
  let status, body = http_response reply in
  call st "gateway.http_write" (fun () -> Http.write_response ~status st.server body);
  drain st.client

let native_request st (r : Workload.request) =
  let b = frame st (call st "net.encode_request" (fun () -> Protocol.request_to_bytes (Protocol.Submit r.job))) in
  let job = submit_of (call st "worker.decode" (fun () -> Protocol.request_of_bytes b)) in
  ignore (reply_hops st (engine st job) ~hops:1)

let process st entry i r =
  st.req <- i;
  if st.record then begin
    st.root <- st.next_id;
    st.next_id <- st.next_id + 1
  end;
  let t0 = Unix.gettimeofday () in
  (match entry with
  | Workload.Http -> http_request st r
  | Workload.Native -> native_request st r);
  if st.record then
    st.spans <-
      { id = st.root; name = "request"; req = i; parent = -1; start = t0;
        stop = Unix.gettimeofday (); words = 0. }
      :: st.spans

(* One pass over a prefix of [requests], after replaying [warm]
   unrecorded (the set-up the fleet did).  The pass stops early once
   [budget_s] has elapsed.  Returns the state, the requests walked and
   the pass's wall time. *)
let pass ~record ~dir ?(budget_s = infinity) (w : Workload.t) requests =
  let st = create ~dir in
  Array.iteri (fun i r -> process st w.entry (-1 - i) r) w.warm;
  st.record <- record;
  st.frame_bytes <- 0;
  st.rounds <- 0;
  st.bits <- 0;
  let t0 = Unix.gettimeofday () in
  let n = ref 0 in
  while !n < Array.length requests && Unix.gettimeofday () -. t0 < budget_s do
    process st w.entry !n requests.(!n);
    incr n
  done;
  let wall = Unix.gettimeofday () -. t0 in
  close st;
  Fleet.rm_rf dir;
  (st, !n, wall)

(* Each span name's row in the per-layer table. *)
let row_of = function
  | "gateway.http_read" | "gateway.http_write" -> Some "gateway.http_parse_us"
  | "gateway.normalize" -> Some "gateway.normalize_us"
  | "router.decode" -> Some "router.decode_us"
  | "router.ring" -> Some "router.ring_us"
  | "router.connect" -> Some "router.connect_us"
  | "net.encode_request" | "net.encode_reply" | "net.decode_reply" -> Some "net.codec_us"
  | "worker.decode" -> Some "worker.decode_us"
  | "engine.lru_find" | "engine.lru_add" -> Some "engine.lru_us"
  | "lint.gate" -> Some "lint.gate_us"
  | "runner.execute" -> Some "runner.exec_us"
  | "store.append" -> Some "store.append_us"
  | _ -> None

let rows =
  [ "gateway.http_parse_us"; "gateway.normalize_us"; "router.decode_us";
    "router.ring_us"; "router.connect_us"; "net.codec_us"; "worker.decode_us";
    "engine.lru_us"; "lint.gate_us"; "runner.exec_us"; "store.append_us" ]

let normalizing = [ "gateway.normalize"; "router.decode"; "worker.decode" ]

type result = {
  jobs : int;
  row_us : (string * float) list;  (** per-job mean µs, in {!rows} order *)
  normalize_words : float;
  normalizations : float;
  lint_words : float;
  exec_words : float;
  rounds_per_job : float;
  bits_per_job : float;
  bytes_per_job : float;
  traced_s : float;
  plain_s : float;
  spans : span list;  (** oldest first *)
  executed : (string, Job.outcome) Hashtbl.t;
}

(* The traced pass (bounded by [budget_s]), then an untraced pass over
   the same requests for the tracing overhead. *)
let run ~dir ~budget_s (w : Workload.t) requests =
  let st, jobs, traced_s = pass ~record:true ~dir ~budget_s w requests in
  let _, _, plain_s = pass ~record:false ~dir w (Array.sub requests 0 jobs) in
  let spans = List.rev st.spans in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. spans in
  let per_job x = Summary.per_job x jobs in
  let sum_where names f = sum (fun s -> if List.mem s.name names then f s else 0.) in
  {
    jobs;
    row_us =
      List.map
        (fun row ->
          (row, per_job (sum (fun s ->
               if row_of s.name = Some row then 1e6 *. (s.stop -. s.start) else 0.))))
        rows;
    normalize_words = per_job (sum_where normalizing (fun s -> s.words));
    normalizations = per_job (sum_where normalizing (fun _ -> 1.));
    lint_words = per_job (sum_where [ "lint.gate" ] (fun s -> s.words));
    exec_words = per_job (sum_where [ "runner.execute" ] (fun s -> s.words));
    rounds_per_job = per_job (float_of_int st.rounds);
    bits_per_job = per_job (float_of_int st.bits);
    bytes_per_job = per_job (float_of_int st.frame_bytes);
    traced_s;
    plain_s;
    spans;
    executed = st.executed;
  }

let write_spans path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":\"%s\",\"req\":%d,\"parent\":%d,\"start_us\":%.1f,\"end_us\":%.1f,\"minor_words\":%.0f}\n"
            s.id s.name s.req s.parent (1e6 *. s.start) (1e6 *. s.stop) s.words)
        spans)
