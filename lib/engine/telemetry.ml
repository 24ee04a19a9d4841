module Metrics = Ssg_obs.Metrics

type snapshot = {
  uptime_s : float;
  workers : int;
  queue_depth : int;
  queue_capacity : int;
  jobs_submitted : int;
  jobs_completed : int;
  jobs_failed : int;
  jobs_rejected_lint : int;
  cache_hits : int;
  cache_misses : int;
  dedup_joins : int;
  cache_entries : int;
  throughput_jps : float;
  lifetime_jps : float;
  recent_window_s : float;
  rejected_frames : int;
  timed_out_connections : int;
  connections_rejected : int;
  faults_injected : int;
  queue_wait_ms : Metrics.hist_snapshot;
  exec_ms : Metrics.hist_snapshot;
}

(* ---------------- snapshot fields ---------------- *)

type field =
  | F_count of string * int
  | F_gauge_i of string * int
  | F_gauge_f of string * float
  | F_histogram of string * Metrics.hist_snapshot

type read =
  | Count of (snapshot -> int)
  | Gauge_i of (snapshot -> int)
  | Gauge_f of (snapshot -> float)

(* Every scalar field once, in declaration order: its name, its help
   text and how to read it off a snapshot.  [fields], the worker's
   registry and the cluster registry are all built from this table. *)
let scalars =
  [
    ( "uptime_s",
      "Seconds since the daemon started",
      Gauge_f (fun s -> s.uptime_s) );
    ("workers", "Worker domains executing jobs", Gauge_i (fun s -> s.workers));
    ( "queue_depth",
      "Jobs waiting in the queue for a worker",
      Gauge_i (fun s -> s.queue_depth) );
    ( "queue_capacity",
      "Bound on the job queue",
      Gauge_i (fun s -> s.queue_capacity) );
    ( "jobs_submitted",
      "Requests accepted, including cache hits and dedup joins",
      Count (fun s -> s.jobs_submitted) );
    ( "jobs_completed",
      "Jobs executed to a result",
      Count (fun s -> s.jobs_completed) );
    ( "jobs_failed",
      "Executions ending in an error reply",
      Count (fun s -> s.jobs_failed) );
    ( "jobs_rejected_lint",
      "Jobs refused at the lint front door",
      Count (fun s -> s.jobs_rejected_lint) );
    ( "cache_hits",
      "Served from the LRU result cache",
      Count (fun s -> s.cache_hits) );
    ( "cache_misses",
      "LRU result cache misses",
      Count (fun s -> s.cache_misses) );
    ( "dedup_joins",
      "Submissions joining an identical in-flight execution",
      Count (fun s -> s.dedup_joins) );
    ( "cache_entries",
      "Results held in the LRU result cache",
      Gauge_i (fun s -> s.cache_entries) );
    ( "throughput_jps",
      "Completions per second over the recent window",
      Gauge_f (fun s -> s.throughput_jps) );
    ( "lifetime_jps",
      "Completions per second since startup",
      Gauge_f (fun s -> s.lifetime_jps) );
    ( "recent_window_s",
      "Seconds the recent throughput window spans",
      Gauge_f (fun s -> s.recent_window_s) );
    ( "rejected_frames",
      "Wire frames refused: oversized, truncated or undecodable",
      Count (fun s -> s.rejected_frames) );
    ( "timed_out_connections",
      "Connections reaped by the read timeout",
      Count (fun s -> s.timed_out_connections) );
    ( "connections_rejected",
      "Connections turned away at the connection limit",
      Count (fun s -> s.connections_rejected) );
    ( "faults_injected",
      "Faults injected by the active chaos plan",
      Count (fun s -> s.faults_injected) );
  ]

let value s = function
  | Count read | Gauge_i read -> float_of_int (read s)
  | Gauge_f read -> read s

let fields s =
  List.map
    (fun (name, _, read) ->
      match read with
      | Count read -> F_count (name, read s)
      | Gauge_i read -> F_gauge_i (name, read s)
      | Gauge_f read -> F_gauge_f (name, read s))
    scalars
  @ [
      F_histogram ("queue_wait_ms", s.queue_wait_ms);
      F_histogram ("exec_ms", s.exec_ms);
    ]

(* ---------------- recording ---------------- *)

type t = {
  mutex : Mutex.t;
      (* guards the stamp ring; counters and histograms are registry
         atomics *)
  started : float;  (* Unix.gettimeofday at creation *)
  stamps : float array;  (* the most recent completion times *)
  mutable ring_len : int;
  mutable ring_pos : int;
  registry : Metrics.t;
  submitted : Metrics.counter;
  completed : Metrics.counter;
  failed : Metrics.counter;
  rejected_lint : Metrics.counter;
  hits : Metrics.counter;
  misses : Metrics.counter;
  dedups : Metrics.counter;
  rejected_frames : Metrics.counter;
  timed_out : Metrics.counter;
  conn_rejected : Metrics.counter;
  injected : Metrics.counter;
  gauges : (Metrics.gauge * read) list;  (* set by [set_gauges] *)
  queue_hist : Metrics.histogram;
  exec_hist : Metrics.histogram;
}

(* The stamp ring holds the most recent [ring_size] completion times;
   [throughput_jps] is the completion rate over the trailing
   [rate_window_s]. *)
let ring_size = 4096
let rate_window_s = 10.

(* The phase histograms' upper bounds, in milliseconds: 0.01 · 2^(i/2)
   for i = 0..46, i.e. 0.01 ms to about 84 s.  Two bounds per doubling
   keep each percentile read off them within a factor √2 of the sample
   it estimates. *)
let phase_buckets =
  Array.init 47 (fun i -> 0.01 *. (2. ** (float_of_int i /. 2.)))

let create () =
  let registry = Metrics.create () in
  (* Every scalar field as ssgd_<field>, in [scalars] order: a count is
     a counter the recorders below bump, a gauge is set by
     [set_gauges]. *)
  let counters = Hashtbl.create 16 and gauges = ref [] in
  List.iter
    (fun (name, help, read) ->
      let series = "ssgd_" ^ name in
      match read with
      | Count _ ->
          Hashtbl.add counters name (Metrics.counter registry ~help series)
      | Gauge_i _ | Gauge_f _ ->
          gauges := (Metrics.gauge registry ~help series, read) :: !gauges)
    scalars;
  let counter = Hashtbl.find counters in
  let histogram name help =
    Metrics.histogram registry ~help ~buckets:phase_buckets name
  in
  let queue_hist =
    histogram "ssgd_job_queue_wait_ms"
      "Milliseconds a job waited in the queue before a worker picked it up"
  in
  let exec_hist =
    histogram "ssgd_job_exec_ms" "Milliseconds a worker spent executing a job"
  in
  (* Exposed at zero too, so dashboards can alert on the first drop. *)
  Metrics.counter_fn registry
    ~help:"Trace events lost to ring wrap-around since the last reset"
    "ssg_trace_dropped_total" Ssg_obs.Tracer.dropped;
  {
    mutex = Mutex.create ();
    started = Unix.gettimeofday ();
    stamps = Array.make ring_size 0.;
    ring_len = 0;
    ring_pos = 0;
    registry;
    submitted = counter "jobs_submitted";
    completed = counter "jobs_completed";
    failed = counter "jobs_failed";
    rejected_lint = counter "jobs_rejected_lint";
    hits = counter "cache_hits";
    misses = counter "cache_misses";
    dedups = counter "dedup_joins";
    rejected_frames = counter "rejected_frames";
    timed_out = counter "timed_out_connections";
    conn_rejected = counter "connections_rejected";
    injected = counter "faults_injected";
    gauges = !gauges;
    queue_hist;
    exec_hist;
  }

let registry t = t.registry

let locked t f = Mutex.protect t.mutex f

let push_latency t ~queue_ms ~exec_ms =
  Metrics.observe t.queue_hist queue_ms;
  Metrics.observe t.exec_hist exec_ms;
  locked t (fun () ->
      t.stamps.(t.ring_pos) <- Unix.gettimeofday ();
      t.ring_pos <- (t.ring_pos + 1) mod Array.length t.stamps;
      t.ring_len <- min (t.ring_len + 1) (Array.length t.stamps))

let record_submitted t = Metrics.incr t.submitted

let record_completed t ~queue_ms ~exec_ms =
  Metrics.incr t.completed;
  push_latency t ~queue_ms ~exec_ms

let record_failed t ~queue_ms ~exec_ms =
  Metrics.incr t.failed;
  push_latency t ~queue_ms ~exec_ms

let record_rejected_lint t = Metrics.incr t.rejected_lint
let record_hit t = Metrics.incr t.hits
let record_miss t = Metrics.incr t.misses
let record_dedup t = Metrics.incr t.dedups
let record_rejected_frame t = Metrics.incr t.rejected_frames
let record_connection_timeout t = Metrics.incr t.timed_out
let record_connection_rejected t = Metrics.incr t.conn_rejected
let record_injected t = Metrics.incr t.injected

(* Completions per second over the trailing [rate_window_s].  The
   stamp ring only remembers the last [ring_size] completions, so when it
   has wrapped inside the window the rate is computed over the span the
   ring actually covers instead of silently undercounting. *)
let recent_rate t now =
  if t.ring_len = 0 then 0.
  else begin
    let span = Float.min rate_window_s (now -. t.started) in
    let span =
      if t.ring_len < Array.length t.stamps then span
      else
        let oldest = t.stamps.(t.ring_pos) in
        Float.min span (now -. oldest)
    in
    let span = Float.max span 1e-9 in
    let cutoff = now -. span in
    let in_window = ref 0 in
    for i = 0 to t.ring_len - 1 do
      if t.stamps.(i) >= cutoff then incr in_window
    done;
    float_of_int !in_window /. span
  end

let snapshot t ~workers ~queue_depth ~queue_capacity ~cache_entries =
  let now = Unix.gettimeofday () in
  let uptime_s = now -. t.started in
  let completed = Metrics.counter_value t.completed in
  let failed = Metrics.counter_value t.failed in
  let done_jobs = completed + failed in
  {
    uptime_s;
    workers;
    queue_depth;
    queue_capacity;
    jobs_submitted = Metrics.counter_value t.submitted;
    jobs_completed = completed;
    jobs_failed = failed;
    jobs_rejected_lint = Metrics.counter_value t.rejected_lint;
    cache_hits = Metrics.counter_value t.hits;
    cache_misses = Metrics.counter_value t.misses;
    dedup_joins = Metrics.counter_value t.dedups;
    cache_entries;
    throughput_jps = locked t (fun () -> recent_rate t now);
    lifetime_jps =
      (if uptime_s > 0. then float_of_int done_jobs /. uptime_s else 0.);
    recent_window_s = rate_window_s;
    rejected_frames = Metrics.counter_value t.rejected_frames;
    timed_out_connections = Metrics.counter_value t.timed_out;
    connections_rejected = Metrics.counter_value t.conn_rejected;
    faults_injected = Metrics.counter_value t.injected;
    queue_wait_ms = Metrics.hist_snapshot t.queue_hist;
    exec_ms = Metrics.hist_snapshot t.exec_hist;
  }

let set_gauges t s =
  List.iter (fun (g, read) -> Metrics.set_gauge g (value s read)) t.gauges

(* ---------------- cluster-wide merge ---------------- *)

(* Bucket by bucket: every peer is built from this tree, so the bounds
   agree, and the sum is the histogram one process holding every
   observation would have. *)
let merge_hist (a : Metrics.hist_snapshot) (b : Metrics.hist_snapshot) =
  if not (Array.for_all2 (fun (x, _) (y, _) -> x = y) a.buckets b.buckets)
  then invalid_arg "Telemetry.merge: histogram bounds differ";
  {
    Metrics.buckets =
      Array.map2 (fun (bound, x) (_, y) -> (bound, x + y)) a.buckets b.buckets;
    sum = a.sum +. b.sum;
    count = a.count + b.count;
  }

let merge = function
  | [] -> invalid_arg "Telemetry.merge: empty snapshot list"
  | first :: rest ->
      let merge2 a b =
        {
          uptime_s = Float.max a.uptime_s b.uptime_s;
          workers = a.workers + b.workers;
          queue_depth = a.queue_depth + b.queue_depth;
          queue_capacity = a.queue_capacity + b.queue_capacity;
          jobs_submitted = a.jobs_submitted + b.jobs_submitted;
          jobs_completed = a.jobs_completed + b.jobs_completed;
          jobs_failed = a.jobs_failed + b.jobs_failed;
          jobs_rejected_lint = a.jobs_rejected_lint + b.jobs_rejected_lint;
          cache_hits = a.cache_hits + b.cache_hits;
          cache_misses = a.cache_misses + b.cache_misses;
          dedup_joins = a.dedup_joins + b.dedup_joins;
          cache_entries = a.cache_entries + b.cache_entries;
          throughput_jps = a.throughput_jps +. b.throughput_jps;
          lifetime_jps = a.lifetime_jps +. b.lifetime_jps;
          recent_window_s = Float.max a.recent_window_s b.recent_window_s;
          rejected_frames = a.rejected_frames + b.rejected_frames;
          timed_out_connections =
            a.timed_out_connections + b.timed_out_connections;
          connections_rejected =
            a.connections_rejected + b.connections_rejected;
          faults_injected = a.faults_injected + b.faults_injected;
          queue_wait_ms = merge_hist a.queue_wait_ms b.queue_wait_ms;
          exec_ms = merge_hist a.exec_ms b.exec_ms;
        }
      in
      List.fold_left merge2 first rest

let cluster_registry snapshots =
  let registry = Metrics.create () in
  (match snapshots with
  | [] -> ()
  | l ->
      let merged = merge l in
      List.iter
        (fun (name, help, read) ->
          Metrics.set_gauge
            (Metrics.gauge registry
               ~help:
                 (Printf.sprintf
                    "%s (ssgd_%s merged over the reporting backends)" help
                    name)
               ("ssg_cluster_" ^ name))
            (value merged read))
        scalars);
  registry

(* ---------------- renderings ---------------- *)

let json_of_snapshot s =
  let open Ssg_obs.Export in
  let phase_json (h : Metrics.hist_snapshot) =
    if h.count = 0 then Null
    else
      let q p = Float (Metrics.quantile h p) in
      Obj
        [
          ("count", Int h.count);
          ("mean", Float (h.sum /. float_of_int h.count));
          ("p50", q 0.5);
          ("p95", q 0.95);
          ("p99", q 0.99);
        ]
  in
  json_to_string
    (Obj
       (List.map
          (function
            | F_count (name, v) | F_gauge_i (name, v) -> (name, Int v)
            | F_gauge_f (name, v) -> (name, Float v)
            | F_histogram (name, h) -> (name, phase_json h))
          (fields s)))

let pp_snapshot fmt s =
  let total = s.cache_hits + s.cache_misses in
  let rate =
    if total = 0 then 0. else float_of_int s.cache_hits /. float_of_int total
  in
  Format.fprintf fmt "uptime      : %.1f s@." s.uptime_s;
  Format.fprintf fmt "workers     : %d@." s.workers;
  Format.fprintf fmt "queue       : %d / %d@." s.queue_depth s.queue_capacity;
  Format.fprintf fmt "submitted   : %d@." s.jobs_submitted;
  Format.fprintf fmt "completed   : %d (%d failed)@." s.jobs_completed
    s.jobs_failed;
  Format.fprintf fmt "rejected    : %d jobs by lint@." s.jobs_rejected_lint;
  Format.fprintf fmt
    "cache       : %d hits, %d misses (%.0f%% hit rate), %d entries@."
    s.cache_hits s.cache_misses (100. *. rate) s.cache_entries;
  Format.fprintf fmt "dedup       : %d in-flight joins@." s.dedup_joins;
  Format.fprintf fmt
    "throughput  : %.1f jobs/s (last %.0f s), %.1f jobs/s lifetime@."
    s.throughput_jps s.recent_window_s s.lifetime_jps;
  Format.fprintf fmt
    "faults      : %d frames rejected, %d connections timed out, %d over \
     limit, %d injected@."
    s.rejected_frames s.timed_out_connections s.connections_rejected
    s.faults_injected;
  let phase label (h : Metrics.hist_snapshot) since =
    Format.fprintf fmt "%s: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms%s@." label
      (Metrics.quantile h 0.5) (Metrics.quantile h 0.95)
      (Metrics.quantile h 0.99) since
  in
  if s.exec_ms.count = 0 then
    Format.fprintf fmt "latency     : (no completed jobs yet)@."
  else begin
    phase "queue wait  " s.queue_wait_ms
      (Printf.sprintf " (%d since boot)" s.queue_wait_ms.count);
    phase "execution   " s.exec_ms ""
  end
