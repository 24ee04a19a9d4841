let log_src = Logs.Src.create "ssg.engine" ~doc:"Simulation service engine"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Tracer = Ssg_obs.Tracer

(* What a result cell is filled with: [Ok result] once the job ran
   (its result may still be an execution error), [Error rendered] when
   the lint gate refused it. *)
type cell = ((Job.outcome, string) Stdlib.result, string) Stdlib.result Ivar.t

type t = {
  pool : Ssg_util.Pool.t;
  cache : Job.outcome Lru.t;
  pending : (string, cell) Hashtbl.t;
      (* key → in-flight result cell, for dedup of identical jobs *)
  lock : Mutex.t;  (* guards [cache] and [pending] together *)
  telemetry : Telemetry.t;
  faults : Faults.t;
  store : Ssg_store.Store.t option;
}

let create ?workers ?(queue_capacity = 64) ?(cache_capacity = 1024)
    ?(faults = Faults.off) ?store () =
  let t =
    {
      pool = Ssg_util.Pool.create ?workers ~queue_capacity ();
      cache = Lru.create ~capacity:cache_capacity;
      pending = Hashtbl.create 64;
      lock = Mutex.create ();
      telemetry = Telemetry.create ();
      faults;
      store;
    }
  in
  (* Warm boot: replay the store's recovered records into the LRU, in
     file order — a compaction image is written LRU-first, so the last
     replay lands most-recent and the cache's recency survives the
     restart.
     Records that no longer decode (a protocol bump) are skipped, not
     fatal: the journal is a cache, losing an entry costs a recompute. *)
  (match store with
  | None -> ()
  | Some s ->
      let skipped = ref 0 in
      let n =
        Ssg_store.Store.replay s (fun ~key ~value ->
            match Protocol.outcome_of_string value with
            | outcome -> Lru.add t.cache key outcome
            | exception Failure _ -> incr skipped)
      in
      if n > 0 || !skipped > 0 then
        Log.info (fun m ->
            m "warm boot: %d cache entr%s replayed%s" (n - !skipped)
              (if n - !skipped = 1 then "y" else "ies")
              (if !skipped > 0 then
                 Printf.sprintf " (%d undecodable record(s) skipped)" !skipped
               else "")));
  t

let telemetry t = t.telemetry
let store t = t.store

type ticket =
  | Ready of (Job.completion, string) Stdlib.result
  | Waiting of { cell : cell; submitted : float; shared : bool }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* All tracing below is guarded on [Tracer.enabled] at the call site so
   the disabled path pays one atomic load and allocates nothing. *)

let job_args (job : Job.t) =
  [
    ("algorithm", Tracer.Str (Job.algorithm_name job.Job.algorithm));
    ("k", Tracer.Int job.Job.k);
  ]

let trace_instant name job =
  if Tracer.enabled () then Tracer.instant ~args:(job_args job) name

let run_gate job =
  if Tracer.enabled () then
    Tracer.with_span ~args:(job_args job) "engine.lint" (fun () ->
        Ssg_lint.Lint.gate ~k:job.Job.k job.Job.run)
  else Ssg_lint.Lint.gate ~k:job.Job.k job.Job.run

(* ---------------- durability ---------------- *)

(* The live cache as journal entries, LRU-first so a replay that
   inserts in order reconstructs recency along with contents. *)
let snapshot_entries t =
  locked t (fun () -> List.rev (Lru.to_list t.cache))
  |> List.map (fun (key, outcome) -> (key, Protocol.outcome_to_string outcome))

let compact t =
  match t.store with
  | None -> 0
  | Some s -> Ssg_store.Store.compact s ~entries:(snapshot_entries t)

(* Tee a freshly computed outcome to the journal (runs on the worker
   domain, after the cache insert, outside the engine lock).  A torn
   write injected by the fault plan is counted like every other
   injected fault; it never fails the job — only durability is lost. *)
let persist_outcome t ~key outcome =
  match t.store with
  | None -> ()
  | Some s ->
      let torn =
        match Faults.on_append t.faults with
        | Faults.Write -> false
        | Faults.Torn ->
            Telemetry.record_injected t.telemetry;
            true
      in
      ignore
        (Ssg_store.Store.append ~torn s ~key
           ~value:(Protocol.outcome_to_string outcome));
      if Ssg_store.Store.should_compact s then ignore (compact t)

(* One submission, counted and wrapped in its [engine.submit] span.  A
   remote context makes the span a child of the sender's span and hands
   its own identity down to [engine.execute]; without one the spans are
   anonymous. *)
let submission ?ctx t job f =
  Telemetry.record_submitted t.telemetry;
  let span_ctx =
    match ctx with
    | Some c when Tracer.enabled () ->
        Some (Tracer.span_begin_ctx ~args:(job_args job) ~ctx:c "engine.submit")
    | Some _ -> None
    | None ->
        if Tracer.enabled () then
          Tracer.span_begin ~args:(job_args job) "engine.submit";
        None
  in
  Fun.protect
    ~finally:(fun () ->
      if Tracer.enabled () then Tracer.span_end "engine.submit")
    (fun () -> f span_ctx)

(* Count, trace and log a lint rejection; returns the reply message. *)
let rejection_message t job diags =
  Telemetry.record_rejected_lint t.telemetry;
  trace_instant "engine.lint_reject" job;
  let message = "job rejected by lint:\n" ^ diags in
  Log.info (fun m -> m "lint rejection: %s" message);
  message

let hit t job outcome =
  Telemetry.record_hit t.telemetry;
  trace_instant "engine.cache_hit" job;
  { Job.result = Ok outcome; cached = true; latency_ms = 0. }

let find t job = locked t (fun () -> Lru.find t.cache (Job.key job))

let cached ?ctx t job =
  match find t job with
  | None -> None
  | Some outcome -> Some (submission ?ctx t job (fun _ -> hit t job outcome))

(* Enqueue a job the gate admitted; its result fills [cell]. *)
let fresh_execute ?ctx t job ~key ~cell ~now =
  Telemetry.record_miss t.telemetry;
  let task () =
    (* Runs on a worker domain.  The span begins and ends here so
       every B/E pair shares one trace track; the cross-domain queue
       wait is carried as a span argument instead of a span of its
       own. *)
    let exec_start = Unix.gettimeofday () in
    let queue_ms = 1000. *. (exec_start -. now) in
    if Tracer.enabled () then begin
      let args = ("queue_ms", Tracer.Float queue_ms) :: job_args job in
      match ctx with
      | Some c -> ignore (Tracer.span_begin_ctx ~args ~ctx:c "engine.execute")
      | None -> Tracer.span_begin ~args "engine.execute"
    end;
    let result =
      try
        (match Faults.on_execute t.faults with
        | Faults.Run -> ()
        | Faults.Delay s ->
            Telemetry.record_injected t.telemetry;
            Unix.sleepf s
        | Faults.Crash ->
            Telemetry.record_injected t.telemetry;
            failwith "injected fault: job crashed");
        Ok (Job.execute job)
      with e -> Stdlib.Error (Printexc.to_string e)
    in
    let exec_ms = 1000. *. (Unix.gettimeofday () -. exec_start) in
    if Tracer.enabled () then
      Tracer.span_end
        ~args:
          [
            ( "ok",
              Tracer.Int (match result with Ok _ -> 1 | Error _ -> 0) );
          ]
        "engine.execute";
    locked t (fun () ->
        Hashtbl.remove t.pending key;
        match result with
        | Ok outcome -> Lru.add t.cache key outcome
        | Error _ -> ());
    (match result with
    | Ok outcome -> persist_outcome t ~key outcome
    | Error _ -> ());
    (match result with
    | Ok _ -> Telemetry.record_completed t.telemetry ~queue_ms ~exec_ms
    | Error msg ->
        Telemetry.record_failed t.telemetry ~queue_ms ~exec_ms;
        Log.warn (fun m -> m "job failed: %s" msg));
    Ivar.fill cell (Ok result)
  in
  (* Pool.submit blocks on a full queue — backpressure on purpose.
     The engine lock is NOT held here, so workers finishing jobs
     can still take it. *)
  if not (Ssg_util.Pool.submit t.pool task) then begin
    locked t (fun () -> Hashtbl.remove t.pending key);
    Ivar.fill cell (Ok (Stdlib.Error "engine is shut down"))
  end;
  Waiting { cell; submitted = now; shared = false }

(* A canonical job past the probe by its key as sent: a hit under the
   canonical key, a join of its in-flight twin, or a fresh entry in the
   dedup table that the lint gate then admits or refuses. *)
let admit ?ctx t job =
  let key = Job.key job in
  let now = Unix.gettimeofday () in
  let decision =
    locked t (fun () ->
        match Lru.find t.cache key with
        | Some outcome -> `Hit outcome
        | None -> (
            match Hashtbl.find_opt t.pending key with
            | Some cell -> `In_flight cell
            | None ->
                let cell = Ivar.create () in
                Hashtbl.add t.pending key cell;
                `Fresh cell))
  in
  match decision with
  | `Hit outcome -> Ready (Ok (hit t job outcome))
  | `In_flight cell ->
      (* Joining an in-flight twin is dedup, not an LRU hit — counting
         it as one inflates the reported cache hit rate. *)
      Telemetry.record_dedup t.telemetry;
      trace_instant "engine.dedup_join" job;
      Waiting { cell; submitted = now; shared = true }
  | `Fresh cell -> (
      (* Lint front door: a job whose run can never satisfy its own
         predicate is refused before it costs a worker slot.  Only
         fresh submissions are checked — a cache hit or an in-flight
         twin proves an identical job already passed.  A refusal fills
         the pending cell so twins that joined in the meantime get the
         same [Error], and is never cached: the diagnostics are cheap
         to recompute and the LRU stays reserved for real results. *)
      match run_gate job with
      | Some diags ->
          locked t (fun () -> Hashtbl.remove t.pending key);
          let message = rejection_message t job diags in
          Ivar.fill cell (Stdlib.Error message);
          Ready (Stdlib.Error message)
      | None -> fresh_execute ?ctx t job ~key ~cell ~now)

(* The one way in.  The job is probed by its key as sent, so a hit
   costs no parse; only a miss is normalized, and only its canonical
   key may enter the cache, the dedup table and the journal. *)
let submit ?ctx t job =
  submission ?ctx t job (fun span_ctx ->
      match find t job with
      | Some outcome -> Ready (Ok (hit t job outcome))
      | None -> (
          match Job.normalize job with
          | job -> admit ?ctx:span_ctx t job
          | exception Failure msg ->
              (* No canonical form: the gate words the SSG000 refusal. *)
              let diags = Option.value (run_gate job) ~default:msg in
              Ready (Stdlib.Error (rejection_message t job diags))))

let await _t = function
  | Ready r -> r
  | Waiting { cell; submitted; shared } ->
      Ivar.read cell
      |> Result.map (fun result ->
             {
               Job.result;
               cached = shared;
               latency_ms = 1000. *. (Unix.gettimeofday () -. submitted);
             })

let run t job = await t (submit t job)

let stats t =
  let cache_entries = locked t (fun () -> Lru.length t.cache) in
  Telemetry.snapshot t.telemetry ~workers:(Ssg_util.Pool.workers t.pool)
    ~queue_depth:(Ssg_util.Pool.queue_depth t.pool)
    ~queue_capacity:(Ssg_util.Pool.queue_capacity t.pool)
    ~cache_entries

(* ---------------- warm handoff ---------------- *)

(* Keep an export bounded in bytes as well as entries so a Transfer
   built from it always fits a wire frame with room to spare. *)
let export_byte_budget = 4 * 1024 * 1024

let export t n =
  let entries = locked t (fun () -> Lru.to_list t.cache) in
  let rec take budget k = function
    | [] -> []
    | _ when k <= 0 || budget <= 0 -> []
    | (key, outcome) :: rest ->
        let value = Protocol.outcome_to_string outcome in
        let cost = String.length key + String.length value in
        if cost > budget then take budget k rest
        else (key, value) :: take (budget - cost) (k - 1) rest
  in
  take export_byte_budget n entries

let import t entries =
  (* Reverse so the hottest entry (exported MRU-first) is inserted
     last and lands most-recent in the receiving cache.  Imports are
     seeds, not fresh results: they are persisted (a handed-off key
     must survive the joiner's next restart) but never counted as
     completions.  A key in flight is left to its running job, which
     caches and journals it itself. *)
  List.fold_left
    (fun n (key, value) ->
      match Protocol.outcome_of_string value with
      | outcome ->
          let in_flight =
            locked t (fun () ->
                Hashtbl.mem t.pending key
                || (Lru.add t.cache key outcome;
                    false))
          in
          if in_flight then n
          else begin
            persist_outcome t ~key outcome;
            n + 1
          end
      | exception Failure msg ->
          Log.warn (fun m -> m "import: skipping undecodable entry: %s" msg);
          n)
    0 (List.rev entries)

let prometheus t =
  Telemetry.set_gauges t.telemetry (stats t);
  let own = Ssg_obs.Metrics.to_prometheus (Telemetry.registry t.telemetry) in
  match t.store with
  | None -> own
  | Some s -> own ^ Ssg_obs.Metrics.to_prometheus (Ssg_store.Store.metrics s)

let shutdown t =
  Ssg_util.Pool.shutdown t.pool;
  match t.store with None -> () | Some s -> Ssg_store.Store.close s
