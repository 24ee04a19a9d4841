type request =
  | Submit of Job.t
  | Stats
  | Trace_pull
  | Metrics
  | Shutdown
  | Join of string
  | Leave of string
  | Export of int
  | Transfer of (string * string) list
  | Compact

type reply =
  | Completed of Job.completion
  | Stats_snapshot of Telemetry.snapshot
  | Trace_reports of Ssg_obs.Tracer.report list
  | Metrics_text of string
  | Shutting_down
  | Ack
  | Entries of (string * string) list
  | Transferred of int
  | Compacted of int
  | Error of string

let max_frame_bytes = Ssg_net.Frame.max_frame_bytes

(* ---------------- primitive writers ---------------- *)

let put_int buf (x : int) = Buffer.add_int64_be buf (Int64.of_int x)
let put_float buf f = Buffer.add_int64_be buf (Int64.bits_of_float f)
let put_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_option buf put = function
  | None -> Buffer.add_char buf '\000'
  | Some v ->
      Buffer.add_char buf '\001';
      put buf v

let put_list buf put xs =
  put_int buf (List.length xs);
  List.iter (put buf) xs

let put_array buf put xs =
  put_int buf (Array.length xs);
  Array.iter (put buf) xs

(* ---------------- primitive readers ---------------- *)

type reader = { data : string; mutable pos : int }

let truncated () = failwith "Protocol: truncated frame"

let take r n =
  if n < 0 || r.pos + n > String.length r.data then truncated ();
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let get_byte r =
  if r.pos >= String.length r.data then truncated ();
  let c = r.data.[r.pos] in
  r.pos <- r.pos + 1;
  Char.code c

(* Bounds first: a short read raises [Failure] like every other
   truncation, never the stdlib's [Invalid_argument]. *)
let get_int64 r =
  if r.pos + 8 > String.length r.data then truncated ();
  let v = String.get_int64_be r.data r.pos in
  r.pos <- r.pos + 8;
  v

let get_int r = Int64.to_int (get_int64 r)
let get_float r = Int64.float_of_bits (get_int64 r)

let get_bool r =
  match get_byte r with
  | 0 -> false
  | 1 -> true
  | b -> failwith (Printf.sprintf "Protocol: bad boolean byte %d" b)

let get_string r =
  let n = get_int r in
  if n < 0 || n > max_frame_bytes then
    failwith "Protocol: string length out of range";
  take r n

let get_option r get =
  match get_byte r with
  | 0 -> None
  | 1 -> Some (get r)
  | b -> failwith (Printf.sprintf "Protocol: bad option byte %d" b)

let get_list r get =
  let n = get_int r in
  if n < 0 || n > max_frame_bytes then
    failwith "Protocol: list length out of range";
  List.init n (fun _ -> get r)

let get_array r get = Array.of_list (get_list r get)

(* ---------------- domain encodings ---------------- *)

let algorithm_tag = function
  | Job.Kset -> 0
  | Job.Floodmin -> 1
  | Job.Flood_consensus -> 2
  | Job.Naive_min -> 3

let algorithm_of_tag = function
  | 0 -> Job.Kset
  | 1 -> Job.Floodmin
  | 2 -> Job.Flood_consensus
  | 3 -> Job.Naive_min
  | t -> failwith (Printf.sprintf "Protocol: unknown algorithm tag %d" t)

let put_job buf (j : Job.t) =
  put_string buf j.Job.run;
  Buffer.add_char buf (Char.chr (algorithm_tag j.Job.algorithm));
  put_int buf j.Job.k;
  put_option buf (fun b xs -> put_array b put_int xs) j.Job.inputs;
  put_option buf put_int j.Job.rounds;
  put_bool buf j.Job.monitor

let get_job r =
  let run = get_string r in
  let algorithm = algorithm_of_tag (get_byte r) in
  let k = get_int r in
  let inputs = get_option r (fun r -> get_array r get_int) in
  let rounds = get_option r get_int in
  let monitor = get_bool r in
  (* The job as sent: the router only routes it and the worker first
     probes its cache with it, so the run text is parsed only by the
     worker, on a miss. *)
  Job.as_sent ~algorithm ~k ?inputs ?rounds ~monitor run

let put_outcome buf (o : Job.outcome) =
  put_string buf o.Job.algorithm;
  put_int buf o.Job.n;
  put_int buf o.Job.min_k;
  put_int buf o.Job.rounds_run;
  put_array buf
    (fun b d ->
      put_option b
        (fun b (round, value) ->
          put_int b round;
          put_int b value)
        d)
    o.Job.decisions;
  put_int buf o.Job.distinct_decisions;
  put_int buf o.Job.messages_sent;
  put_int buf o.Job.messages_delivered;
  put_int buf o.Job.bits_sent;
  put_list buf put_string o.Job.violations

let get_outcome r : Job.outcome =
  let algorithm = get_string r in
  let n = get_int r in
  let min_k = get_int r in
  let rounds_run = get_int r in
  let decisions =
    get_array r (fun r ->
        get_option r (fun r ->
            let round = get_int r in
            let value = get_int r in
            (round, value)))
  in
  let distinct_decisions = get_int r in
  let messages_sent = get_int r in
  let messages_delivered = get_int r in
  let bits_sent = get_int r in
  let violations = get_list r get_string in
  {
    Job.algorithm;
    n;
    min_k;
    rounds_run;
    decisions;
    distinct_decisions;
    messages_sent;
    messages_delivered;
    bits_sent;
    violations;
  }

let put_completion buf (c : Job.completion) =
  (match c.Job.result with
  | Ok o ->
      Buffer.add_char buf '\000';
      put_outcome buf o
  | Error msg ->
      Buffer.add_char buf '\001';
      put_string buf msg);
  put_bool buf c.Job.cached;
  put_float buf c.Job.latency_ms

let get_completion r : Job.completion =
  let result =
    match get_byte r with
    | 0 -> Ok (get_outcome r)
    | 1 -> Stdlib.Error (get_string r)
    | t -> failwith (Printf.sprintf "Protocol: bad result tag %d" t)
  in
  let cached = get_bool r in
  let latency_ms = get_float r in
  { Job.result; cached; latency_ms }

(* A histogram travels as its cumulative buckets, (bound, count) pairs
   ending at the +Inf bound, then its sum and count.  The decoder
   checks the shape [Ssg_obs.Metrics.quantile] and [Telemetry.merge]
   rely on. *)
let put_hist buf (h : Ssg_obs.Metrics.hist_snapshot) =
  put_array buf
    (fun b (bound, cumulative) ->
      put_float b bound;
      put_int b cumulative)
    h.buckets;
  put_float buf h.sum;
  put_int buf h.count

let get_hist r : Ssg_obs.Metrics.hist_snapshot =
  let buckets =
    get_array r (fun r ->
        let bound = get_float r in
        let cumulative = get_int r in
        (bound, cumulative))
  in
  let sum = get_float r in
  let count = get_int r in
  let n = Array.length buckets in
  if
    n < 2
    || snd buckets.(0) < 0
    || buckets.(n - 1) <> (infinity, count)
    || not
         (Array.for_all2
            (fun (b0, c0) (b1, c1) -> b0 < b1 && c0 <= c1)
            (Array.sub buckets 0 (n - 1))
            (Array.sub buckets 1 (n - 1)))
  then failwith "Protocol: malformed histogram";
  { buckets; sum; count }

let put_snapshot buf (s : Telemetry.snapshot) =
  put_float buf s.Telemetry.uptime_s;
  put_int buf s.Telemetry.workers;
  put_int buf s.Telemetry.queue_depth;
  put_int buf s.Telemetry.queue_capacity;
  put_int buf s.Telemetry.jobs_submitted;
  put_int buf s.Telemetry.jobs_completed;
  put_int buf s.Telemetry.jobs_failed;
  put_int buf s.Telemetry.jobs_rejected_lint;
  put_int buf s.Telemetry.cache_hits;
  put_int buf s.Telemetry.cache_misses;
  put_int buf s.Telemetry.dedup_joins;
  put_int buf s.Telemetry.cache_entries;
  put_float buf s.Telemetry.throughput_jps;
  put_float buf s.Telemetry.lifetime_jps;
  put_float buf s.Telemetry.recent_window_s;
  put_int buf s.Telemetry.rejected_frames;
  put_int buf s.Telemetry.timed_out_connections;
  put_int buf s.Telemetry.connections_rejected;
  put_int buf s.Telemetry.faults_injected;
  put_hist buf s.Telemetry.queue_wait_ms;
  put_hist buf s.Telemetry.exec_ms

let get_snapshot r : Telemetry.snapshot =
  let uptime_s = get_float r in
  let workers = get_int r in
  let queue_depth = get_int r in
  let queue_capacity = get_int r in
  let jobs_submitted = get_int r in
  let jobs_completed = get_int r in
  let jobs_failed = get_int r in
  let jobs_rejected_lint = get_int r in
  let cache_hits = get_int r in
  let cache_misses = get_int r in
  let dedup_joins = get_int r in
  let cache_entries = get_int r in
  let throughput_jps = get_float r in
  let lifetime_jps = get_float r in
  let recent_window_s = get_float r in
  let rejected_frames = get_int r in
  let timed_out_connections = get_int r in
  let connections_rejected = get_int r in
  let faults_injected = get_int r in
  let queue_wait_ms = get_hist r in
  let exec_ms = get_hist r in
  {
    Telemetry.uptime_s;
    workers;
    queue_depth;
    queue_capacity;
    jobs_submitted;
    jobs_completed;
    jobs_failed;
    jobs_rejected_lint;
    cache_hits;
    cache_misses;
    dedup_joins;
    cache_entries;
    throughput_jps;
    lifetime_jps;
    recent_window_s;
    rejected_frames;
    timed_out_connections;
    connections_rejected;
    faults_injected;
    queue_wait_ms;
    exec_ms;
  }

(* Trace events: kind byte, name, domain, timestamp, then the argument
   list with a tag byte per value. *)

let put_arg buf (k, v) =
  put_string buf k;
  match v with
  | Ssg_obs.Tracer.Int i ->
      Buffer.add_char buf '\000';
      put_int buf i
  | Ssg_obs.Tracer.Float f ->
      Buffer.add_char buf '\001';
      put_float buf f
  | Ssg_obs.Tracer.Str s ->
      Buffer.add_char buf '\002';
      put_string buf s

let get_arg r =
  let k = get_string r in
  let v =
    match get_byte r with
    | 0 -> Ssg_obs.Tracer.Int (get_int r)
    | 1 -> Ssg_obs.Tracer.Float (get_float r)
    | 2 -> Ssg_obs.Tracer.Str (get_string r)
    | t -> failwith (Printf.sprintf "Protocol: bad trace arg tag %d" t)
  in
  (k, v)

let kind_tag = function
  | Ssg_obs.Tracer.Begin -> 0
  | Ssg_obs.Tracer.End -> 1
  | Ssg_obs.Tracer.Instant -> 2

let kind_of_tag = function
  | 0 -> Ssg_obs.Tracer.Begin
  | 1 -> Ssg_obs.Tracer.End
  | 2 -> Ssg_obs.Tracer.Instant
  | t -> failwith (Printf.sprintf "Protocol: bad trace kind tag %d" t)

let put_event buf (e : Ssg_obs.Tracer.event) =
  Buffer.add_char buf (Char.chr (kind_tag e.Ssg_obs.Tracer.kind));
  put_string buf e.Ssg_obs.Tracer.name;
  put_int buf e.Ssg_obs.Tracer.domain;
  put_float buf e.Ssg_obs.Tracer.ts_us;
  put_list buf put_arg e.Ssg_obs.Tracer.args

let get_event r : Ssg_obs.Tracer.event =
  let kind = kind_of_tag (get_byte r) in
  let name = get_string r in
  let domain = get_int r in
  let ts_us = get_float r in
  let args = get_list r get_arg in
  { Ssg_obs.Tracer.kind; name; domain; ts_us; args }

(* One process's trace-pull report: role, pid, clock anchor, drop
   counter, then the events it retained. *)

let put_report buf (r : Ssg_obs.Tracer.report) =
  put_string buf r.Ssg_obs.Tracer.role;
  put_int buf r.Ssg_obs.Tracer.pid;
  put_float buf r.Ssg_obs.Tracer.epoch_s;
  put_int buf r.Ssg_obs.Tracer.dropped_events;
  put_list buf put_event r.Ssg_obs.Tracer.events

let get_report r : Ssg_obs.Tracer.report =
  let role = get_string r in
  let pid = get_int r in
  let epoch_s = get_float r in
  let dropped_events = get_int r in
  let events = get_list r get_event in
  { Ssg_obs.Tracer.role; pid; epoch_s; dropped_events; events }

(* Cache entries travel as (key, encoded outcome) pairs — the payload
   of warm-handoff [Export] / [Transfer] and of the store journal. *)

let put_entry buf (key, value) =
  put_string buf key;
  put_string buf value

let get_entry r =
  let key = get_string r in
  let value = get_string r in
  (key, value)

(* ---------------- top-level messages ---------------- *)

let request_to_bytes req =
  let buf = Buffer.create 256 in
  (match req with
  | Submit j ->
      Buffer.add_char buf 'S';
      put_job buf j
  | Stats -> Buffer.add_char buf 'T'
  | Trace_pull -> Buffer.add_char buf 'P'
  | Metrics -> Buffer.add_char buf 'M'
  | Shutdown -> Buffer.add_char buf 'Q'
  | Join addr ->
      Buffer.add_char buf 'J';
      put_string buf addr
  | Leave addr ->
      Buffer.add_char buf 'L';
      put_string buf addr
  | Export n ->
      Buffer.add_char buf 'H';
      put_int buf n
  (* Request tags must avoid the additive envelope magics on the
     server's classify path: 'I' (Frame.id_magic) and 'X'
     (Frame.ctx_magic) — a request payload starting with either would
     be eaten as an envelope, not dispatched. *)
  | Transfer entries ->
      Buffer.add_char buf 'F';
      put_list buf put_entry entries
  | Compact -> Buffer.add_char buf 'K');
  Buffer.to_bytes buf

(* Decoders promise exactly [Failure] on any malformed payload — the
   server's reply path and the fuzz property both rely on it.  Job
   construction validates parameters with [Invalid_argument]
   (e.g. [k < 1]), so that must be folded in here, not escape to the
   connection handler. *)
let decoding f =
  try f ()
  with Invalid_argument msg -> failwith ("Protocol: invalid payload: " ^ msg)

let request_of_bytes bytes =
  decoding @@ fun () ->
  let r = { data = Bytes.to_string bytes; pos = 0 } in
  match Char.chr (get_byte r) with
  | 'S' -> Submit (get_job r)
  | 'T' -> Stats
  | 'P' -> Trace_pull
  | 'M' -> Metrics
  | 'Q' -> Shutdown
  | 'J' -> Join (get_string r)
  | 'L' -> Leave (get_string r)
  | 'H' ->
      let n = get_int r in
      if n < 0 then failwith "Protocol: negative export limit";
      Export n
  | 'F' -> Transfer (get_list r get_entry)
  | 'K' -> Compact
  | c -> failwith (Printf.sprintf "Protocol: unknown request tag %C" c)

let reply_to_bytes reply =
  let buf = Buffer.create 256 in
  (match reply with
  | Completed c ->
      Buffer.add_char buf 'R';
      put_completion buf c
  | Stats_snapshot s ->
      Buffer.add_char buf 'T';
      put_snapshot buf s
  | Trace_reports rs ->
      Buffer.add_char buf 'W';
      put_list buf put_report rs
  | Metrics_text text ->
      Buffer.add_char buf 'M';
      put_string buf text
  | Shutting_down -> Buffer.add_char buf 'D'
  | Ack -> Buffer.add_char buf 'A'
  | Entries entries ->
      Buffer.add_char buf 'N';
      put_list buf put_entry entries
  | Transferred n ->
      Buffer.add_char buf 'X';
      put_int buf n
  | Compacted n ->
      Buffer.add_char buf 'K';
      put_int buf n
  | Error msg ->
      Buffer.add_char buf 'E';
      put_string buf msg);
  Buffer.to_bytes buf

let reply_of_bytes bytes =
  decoding @@ fun () ->
  let r = { data = Bytes.to_string bytes; pos = 0 } in
  match Char.chr (get_byte r) with
  | 'R' -> Completed (get_completion r)
  | 'T' -> Stats_snapshot (get_snapshot r)
  | 'W' -> Trace_reports (get_list r get_report)
  | 'M' -> Metrics_text (get_string r)
  | 'D' -> Shutting_down
  | 'A' -> Ack
  | 'N' -> Entries (get_list r get_entry)
  | 'X' ->
      let n = get_int r in
      if n < 0 then failwith "Protocol: negative transfer count";
      Transferred n
  | 'K' ->
      let n = get_int r in
      if n < 0 then failwith "Protocol: negative compaction count";
      Compacted n
  | 'E' -> Error (get_string r)
  | c -> failwith (Printf.sprintf "Protocol: unknown reply tag %C" c)

(* ---------------- standalone outcome codec ---------------- *)

(* The store journals outcomes as opaque strings; this is the same
   encoding the wire uses, reused so the on-disk and wire forms can
   never drift apart. *)

let outcome_to_string o =
  let buf = Buffer.create 256 in
  put_outcome buf o;
  Buffer.contents buf

let outcome_of_string s =
  decoding @@ fun () ->
  let r = { data = s; pos = 0 } in
  let o = get_outcome r in
  if r.pos <> String.length s then
    failwith "Protocol: trailing bytes after outcome";
  o

(* ---------------- descriptor framing ---------------- *)

let write_reply_fd fd reply = Ssg_net.Frame.write_fd fd (reply_to_bytes reply)
