let log_src = Logs.Src.create "ssg.engine" ~doc:"Simulation service engine"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Tracer = Ssg_obs.Tracer

type done_r = (Job.outcome, string) Stdlib.result

type t = {
  pool : Ssg_util.Pool.t;
  cache : Job.outcome Lru.t;
  pending : (string, done_r Ivar.t) Hashtbl.t;
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
     file order — the snapshot is written LRU-first, so the last replay
     lands most-recent and the cache's recency survives the restart.
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
  | Immediate of Job.completion
  | Rejected of { message : string; submitted : float }
  | Waiting of { cell : done_r Ivar.t; submitted : float; shared : bool }

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

let cached ?ctx t job =
  match locked t (fun () -> Lru.find t.cache (Job.key job)) with
  | None -> None
  | Some outcome -> Some (submission ?ctx t job (fun _ -> hit t job outcome))

let rec submit_with ?lookup ?ctx t job =
  submission ?ctx t job (fun span_ctx ->
      submit_traced ?lookup ?ctx:span_ctx t job)

and submit_traced ?lookup ?ctx t job =
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
  | `Hit outcome -> Immediate (hit t job outcome)
  | `In_flight cell ->
      (* Joining an in-flight twin is dedup, not an LRU hit — counting
         it as one inflates the reported cache hit rate. *)
      Telemetry.record_dedup t.telemetry;
      trace_instant "engine.dedup_join" job;
      Waiting { cell; submitted = now; shared = true }
  | `Fresh cell -> (
      (* Lint front door: a job whose run can never satisfy its own
         predicate (or does not even parse) is refused before it costs a
         worker slot.  Only fresh submissions are checked — a cache hit
         or an in-flight twin proves an identical job already passed.
         Rejections fill the pending cell so twins that joined in the
         meantime observe the same Error, and are never cached: the
         diagnostics are cheap to recompute and the LRU stays reserved
         for real results. *)
      let gate =
        (* A batch pre-gate may have linted this key already (on the
           pool, in parallel); fall back to the inline gate when the
           lookup has nothing — the table is an optimization, never a
           correctness dependency. *)
        match Option.bind lookup (fun find -> find key) with
        | Some gate -> gate
        | None -> run_gate job
      in
      match gate with
      | Some diags ->
          locked t (fun () -> Hashtbl.remove t.pending key);
          let message = rejection_message t job diags in
          Ivar.fill cell (Stdlib.Error message);
          Rejected { message; submitted = now }
      | None -> fresh_execute ?ctx t job ~key ~cell ~now)

and fresh_execute ?ctx t job ~key ~cell ~now =
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
        Ivar.fill cell result
      in
      (* Pool.submit blocks on a full queue — backpressure on purpose.
         The engine lock is NOT held here, so workers finishing jobs
         can still take it. *)
      if not (Ssg_util.Pool.submit t.pool task) then begin
        locked t (fun () -> Hashtbl.remove t.pending key);
        Ivar.fill cell (Stdlib.Error "engine is shut down")
      end;
      Waiting { cell; submitted = now; shared = false }

let submit ?ctx t job = submit_with ?ctx t job

(* Gated outside the dedup table: a job with no canonical form has no
   key that may enter it. *)
let refuse ?ctx t job =
  submission ?ctx t job (fun _ ->
      let submitted = Unix.gettimeofday () in
      match run_gate job with
      | Some diags ->
          Rejected { message = rejection_message t job diags; submitted }
      | None -> invalid_arg "Engine.refuse: the job passes the lint gate")

let rejection = function
  | Rejected { message; _ } -> Some message
  | Immediate _ | Waiting _ -> None

let await _t ticket =
  match ticket with
  | Immediate completion -> completion
  | Rejected { message; submitted } ->
      {
        Job.result = Stdlib.Error message;
        cached = false;
        latency_ms = 1000. *. (Unix.gettimeofday () -. submitted);
      }
  | Waiting { cell; submitted; shared } ->
      let result = Ivar.read cell in
      {
        Job.result;
        cached = shared;
        latency_ms = 1000. *. (Unix.gettimeofday () -. submitted);
      }

let run t job = await t (submit t job)

(* Batch pre-gate: lint every distinct not-yet-resolved key of the batch
   on the worker pool before any submission.  The cache/pending peek is
   a racy optimization — a key that resolves concurrently is simply
   gated again inline by [submit_with]'s fallback. *)
let pregate t jobs =
  let seen = Hashtbl.create 32 in
  let fresh =
    List.filter_map
      (fun job ->
        let key = Job.key job in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          let resolved =
            locked t (fun () ->
                Lru.mem t.cache key || Hashtbl.mem t.pending key)
          in
          if resolved then None else Some (key, job)
        end)
      jobs
  in
  let gates = Hashtbl.create 32 in
  (match fresh with
  | [] | [ _ ] -> () (* nothing worth fanning out; inline gating wins *)
  | fresh ->
      Ssg_util.Pool.map t.pool (fun (key, job) -> (key, run_gate job)) fresh
      |> List.iter (fun (key, gate) -> Hashtbl.add gates key gate));
  gates

let submit_batch t jobs =
  let gates = pregate t jobs in
  let lookup key = Hashtbl.find_opt gates key in
  List.map (fun job -> submit_with ~lookup t job) jobs

let run_batch t jobs = List.map (await t) (submit_batch t jobs)

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
     completions. *)
  List.fold_left
    (fun n (key, value) ->
      match Protocol.outcome_of_string value with
      | outcome ->
          locked t (fun () ->
              if not (Hashtbl.mem t.pending key) then
                Lru.add t.cache key outcome);
          persist_outcome t ~key outcome;
          n + 1
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
