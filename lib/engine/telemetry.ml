open Ssg_util
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
  queue_wait_ms : Stats.summary option;
  exec_ms : Stats.summary option;
}

type t = {
  mutex : Mutex.t;  (* guards the rings; counters are registry atomics *)
  started : float;  (* Unix.gettimeofday at creation *)
  recent_window_s : float;
  queue_ring : float array;  (* most recent queue waits *)
  exec_ring : float array;  (* their executions, same ring geometry *)
  stamps : float array;  (* completion times, same ring geometry *)
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
  queue_hist : Metrics.histogram;
  exec_hist : Metrics.histogram;
}

(* The tracer's ring drop counter, rendered wherever a process exposes
   Prometheus text — zero (the healthy steady state) is still exposed
   so dashboards can alert on the first drop. *)
let prom_trace_dropped buf =
  Metrics.prom_scalar buf ~kind:`Counter
    ~help:"Trace events lost to ring wrap-around since the last reset"
    "ssg_trace_dropped_total"
    (float_of_int (Ssg_obs.Tracer.dropped ()))

let create ?(window = 4096) ?(recent_window_s = 10.) () =
  if window < 1 then invalid_arg "Telemetry.create: window must be >= 1";
  if recent_window_s <= 0. then
    invalid_arg "Telemetry.create: recent_window_s must be > 0";
  let registry = Metrics.create () in
  let counter name help = Metrics.counter registry ~help name in
  let histogram name help = Metrics.histogram registry ~help name in
  {
    mutex = Mutex.create ();
    started = Unix.gettimeofday ();
    recent_window_s;
    queue_ring = Array.make window 0.;
    exec_ring = Array.make window 0.;
    stamps = Array.make window 0.;
    ring_len = 0;
    ring_pos = 0;
    registry;
    submitted =
      counter "ssgd_jobs_submitted_total"
        "Requests accepted, including cache hits and dedup joins";
    completed =
      counter "ssgd_jobs_completed_total" "Jobs executed to a result";
    failed =
      counter "ssgd_jobs_failed_total" "Executions ending in an error reply";
    rejected_lint =
      counter "ssgd_jobs_rejected_lint_total"
        "Jobs refused at the lint front door";
    hits = counter "ssgd_cache_hits_total" "Served from the LRU result cache";
    misses = counter "ssgd_cache_misses_total" "LRU result cache misses";
    dedups =
      counter "ssgd_dedup_joins_total"
        "Submissions joining an identical in-flight execution";
    rejected_frames =
      counter "ssgd_frames_rejected_total"
        "Wire frames refused: oversized, truncated or undecodable";
    timed_out =
      counter "ssgd_connections_timed_out_total"
        "Connections reaped by the read timeout";
    conn_rejected =
      counter "ssgd_connections_rejected_total"
        "Connections turned away at the connection limit";
    injected =
      counter "ssgd_faults_injected_total"
        "Faults injected by the active chaos plan";
    queue_hist =
      histogram "ssgd_job_queue_wait_ms"
        "Milliseconds a job waited in the queue before a worker picked it up";
    exec_hist =
      histogram "ssgd_job_exec_ms"
        "Milliseconds a worker spent executing a job";
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let push_latency t ~queue_ms ~exec_ms =
  Metrics.observe t.queue_hist queue_ms;
  Metrics.observe t.exec_hist exec_ms;
  locked t (fun () ->
      t.queue_ring.(t.ring_pos) <- queue_ms;
      t.exec_ring.(t.ring_pos) <- exec_ms;
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

(* Completions per second over the trailing [recent_window_s].  The
   stamp ring only remembers the last [window] completions, so when it
   has wrapped inside the window the rate is computed over the span the
   ring actually covers instead of silently undercounting. *)
let recent_rate t now =
  if t.ring_len = 0 then 0.
  else begin
    let span = Float.min t.recent_window_s (now -. t.started) in
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
  locked t (fun () ->
      let now = Unix.gettimeofday () in
      let uptime_s = now -. t.started in
      let summarize_ring ring =
        if t.ring_len = 0 then None
        else Some (Stats.summarize (Array.sub ring 0 t.ring_len))
      in
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
        throughput_jps = recent_rate t now;
        lifetime_jps =
          (if uptime_s > 0. then float_of_int done_jobs /. uptime_s else 0.);
        recent_window_s = t.recent_window_s;
        rejected_frames = Metrics.counter_value t.rejected_frames;
        timed_out_connections = Metrics.counter_value t.timed_out;
        connections_rejected = Metrics.counter_value t.conn_rejected;
        faults_injected = Metrics.counter_value t.injected;
        queue_wait_ms = summarize_ring t.queue_ring;
        exec_ms = summarize_ring t.exec_ring;
      })

(* ---------------- cluster-wide merge ---------------- *)

(* Exact for everything additive; documented approximation for the
   latency summaries, whose percentiles cannot be recovered from
   per-shard percentiles: the merged summary pools mean and variance
   exactly (via E[x] and E[x^2]) and count-weights the percentiles,
   which is the standard scrape-side compromise. *)
let merge_summary (a : Stats.summary) (b : Stats.summary) : Stats.summary =
  let ca = float_of_int a.Stats.count and cb = float_of_int b.Stats.count in
  let w x y = ((ca *. x) +. (cb *. y)) /. (ca +. cb) in
  let mean = w a.Stats.mean b.Stats.mean in
  let second_moment (s : Stats.summary) =
    (s.Stats.stddev *. s.Stats.stddev) +. (s.Stats.mean *. s.Stats.mean)
  in
  {
    Stats.count = a.Stats.count + b.Stats.count;
    mean;
    stddev =
      sqrt
        (Float.max 0.
           (w (second_moment a) (second_moment b) -. (mean *. mean)));
    min = Float.min a.Stats.min b.Stats.min;
    max = Float.max a.Stats.max b.Stats.max;
    p50 = w a.Stats.p50 b.Stats.p50;
    p95 = w a.Stats.p95 b.Stats.p95;
    p99 = w a.Stats.p99 b.Stats.p99;
  }

let merge_summary_opt a b =
  match (a, b) with
  | None, s | s, None -> s
  | Some a, Some b ->
      if a.Stats.count = 0 then Some b
      else if b.Stats.count = 0 then Some a
      else Some (merge_summary a b)

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
          queue_wait_ms = merge_summary_opt a.queue_wait_ms b.queue_wait_ms;
          exec_ms = merge_summary_opt a.exec_ms b.exec_ms;
        }
      in
      List.fold_left merge2 first rest

(* ---------------- snapshot serialization ---------------- *)

type field =
  | F_count of string * int
  | F_gauge_i of string * int
  | F_gauge_f of string * float
  | F_summary of string * Stats.summary option

let fields s =
  [
    F_gauge_f ("uptime_s", s.uptime_s);
    F_gauge_i ("workers", s.workers);
    F_gauge_i ("queue_depth", s.queue_depth);
    F_gauge_i ("queue_capacity", s.queue_capacity);
    F_count ("jobs_submitted", s.jobs_submitted);
    F_count ("jobs_completed", s.jobs_completed);
    F_count ("jobs_failed", s.jobs_failed);
    F_count ("jobs_rejected_lint", s.jobs_rejected_lint);
    F_count ("cache_hits", s.cache_hits);
    F_count ("cache_misses", s.cache_misses);
    F_count ("dedup_joins", s.dedup_joins);
    F_gauge_i ("cache_entries", s.cache_entries);
    F_gauge_f ("throughput_jps", s.throughput_jps);
    F_gauge_f ("lifetime_jps", s.lifetime_jps);
    F_gauge_f ("recent_window_s", s.recent_window_s);
    F_count ("rejected_frames", s.rejected_frames);
    F_count ("timed_out_connections", s.timed_out_connections);
    F_count ("connections_rejected", s.connections_rejected);
    F_count ("faults_injected", s.faults_injected);
    F_summary ("queue_wait_ms", s.queue_wait_ms);
    F_summary ("exec_ms", s.exec_ms);
  ]

let json_of_snapshot s =
  let open Ssg_obs.Export in
  let summary_json = function
    | None -> Null
    | Some (l : Stats.summary) ->
        Obj
          [
            ("count", Int l.Stats.count);
            ("mean", Float l.Stats.mean);
            ("stddev", Float l.Stats.stddev);
            ("min", Float l.Stats.min);
            ("max", Float l.Stats.max);
            ("p50", Float l.Stats.p50);
            ("p95", Float l.Stats.p95);
            ("p99", Float l.Stats.p99);
          ]
  in
  json_to_string
    (Obj
       (List.map
          (function
            | F_count (name, v) | F_gauge_i (name, v) -> (name, Int v)
            | F_gauge_f (name, v) -> (name, Float v)
            | F_summary (name, v) -> (name, summary_json v))
          (fields s)))

let render_prometheus buf ~prefix s =
  List.iter
    (function
      | F_count (name, v) ->
          Metrics.prom_scalar buf ~kind:`Counter (prefix ^ name)
            (float_of_int v)
      | F_gauge_i (name, v) ->
          Metrics.prom_scalar buf ~kind:`Gauge (prefix ^ name)
            (float_of_int v)
      | F_gauge_f (name, v) ->
          Metrics.prom_scalar buf ~kind:`Gauge (prefix ^ name) v
      | F_summary (name, v) -> (
          match v with
          | None -> ()
          | Some (l : Stats.summary) ->
              Metrics.prom_summary buf (prefix ^ name) ~count:l.Stats.count
                ~sum:(l.Stats.mean *. float_of_int l.Stats.count)
                ~quantiles:
                  [
                    (0.5, l.Stats.p50); (0.95, l.Stats.p95); (0.99, l.Stats.p99);
                  ]))
    (fields s)

let prometheus_of_snapshot ?(prefix = "ssgd_") s =
  let buf = Buffer.create 2048 in
  render_prometheus buf ~prefix s;
  Buffer.contents buf

let prometheus t s =
  let buf = Buffer.create 2048 in
  render_prometheus buf ~prefix:"ssgd_" s;
  (* The registry counters duplicate the snapshot's count fields under
     their *_total names; only the bucketed phase histograms add
     information the snapshot summaries cannot carry. *)
  Buffer.add_string buf
    (Metrics.to_prometheus
       ~only:(fun name ->
         String.length name > 3 && String.sub name (String.length name - 3) 3 = "_ms")
       t.registry);
  prom_trace_dropped buf;
  Buffer.contents buf

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
  match (s.queue_wait_ms, s.exec_ms) with
  | Some q, Some e ->
      Format.fprintf fmt
        "queue wait  : p50 %.2f ms, p95 %.2f ms, p99 %.2f ms (over last %d)@."
        q.Stats.p50 q.Stats.p95 q.Stats.p99 q.Stats.count;
      Format.fprintf fmt "execution   : p50 %.2f ms, p95 %.2f ms, p99 %.2f ms@."
        e.Stats.p50 e.Stats.p95 e.Stats.p99
  | _ -> Format.fprintf fmt "latency     : (no completed jobs yet)@."
