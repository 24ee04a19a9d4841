(* Benchmark harness.

   Two parts, both printed by `dune exec bench/main.exe`:

   1. Bechamel micro-benchmarks (B1..B8, B11) — one Test.make per core
      operation, timing the building blocks whose complexity the
      paper's Section V argument relies on (SCC, skeleton intersection,
      graph merging, a full Algorithm 1 round, the Psrcs decision
      procedure, a full run end to end, the wire codec, a timing-layer
      run, the lint analyzer).

   2. B9 — service-engine batch throughput: a >= 100-job batch pushed
      through the persistent ssgd engine (worker pool + dedup + LRU
      cache) against a naive sequential loop, wall-clock.

   3. B12 — tracing overhead: the B9 workload with the lib/obs tracer
      off / on / on + Chrome export, plus a disabled-probe microcost and
      an overhead bound gated <= 2% when SSG_OBS_GATE=1.

   4. B13 — cluster routing throughput: the same all-distinct cache-miss
      burst, every job in flight at once on one connection, pushed
      through one single-worker ssgd versus three of them behind the
      lib/cluster router, wall-clock (gated >= 2x when
      SSG_CLUSTER_GATE=1 — meaningful only on a multi-core host).

   5. B14 — front-door transport throughput: the same all-distinct
      cache-miss batch pushed through one ssgd over the Unix socket one
      job at a time (request, wait, reply, repeat) versus the same daemon
      over TCP with every request in flight at once on one connection
      (gated: pipelined TCP >= Unix one at a time when
      SSG_NET_GATE=1).  Prints a JSON summary line
      (what bench/baselines/BENCH_B14.json stores).

   6. B15 — incremental skeleton hot path + sweep fan-out: the per-round
      derivation pipeline (SCC analysis, PT rows, min_k) from scratch
      every round versus the revision-cached incremental layer with a
      warm-started MIS (gated >= 2x at n >= 64 when SSG_SWEEP_GATE=1),
      plus the `ssg sweep` grid as one pipelined batch on 1 worker vs
      the default pool (scaling leg of the gate arms on >= 4 cores).
      Prints a JSON summary line (what bench/baselines/BENCH_B15.json
      stores).

   7. B16 — fleet-scale lint: a generated run-description corpus linted
      file-by-file on one domain versus fanned out with Pool.run, as
      `ssg lint` does (gated >= 2x on >= 4 cores when SSG_LINT_GATE=1).
      Prints a JSON summary line (what bench/baselines/BENCH_B16.json
      stores).

   8. B17 — context-propagation overhead: B14's pipelined-TCP batch
      with and without a trace context on every request, tracing off,
      plus a per-request envelope microcost whose overhead bound is
      gated <= 2% when SSG_OBS_GATE=1.  Prints a JSON summary line
      (what bench/baselines/BENCH_B17.json stores).

   9. B18 — warm boot vs cold boot: a working set computed once into a
      lib/store journal, then the wall-clock from boot to serving 90%
      of that set measured for a cold engine (empty cache, recomputes)
      versus a warm one (Store.open_ + replay folded into the timed
      region, serves hits immediately); gated warm <= half of cold when
      SSG_STORE_GATE=1.  Prints a JSON summary line (what
      bench/baselines/BENCH_B18.json stores).

   10. The experiment tables F1, E1..E11, A1 — one per figure/claim of
      the paper (see DESIGN.md's index and EXPERIMENTS.md for
      discussion).

   Scale: set SSG_BENCH_SCALE=quick|standard|full (default standard).
   Set SSG_BENCH_ONLY=B9|B12|B13|B14|B15|B16|B17|B18 to run a single
   wall-clock section.
   Set SSG_BENCH_CSV_DIR=<dir> to additionally write each experiment's
   table as <dir>/<id>.csv for external plotting. *)

open Bechamel
open Toolkit
open Ssg_util
open Ssg_graph
open Ssg_rounds
open Ssg_adversary
open Ssg_core
open Ssg_sim

let scale () =
  match Sys.getenv_opt "SSG_BENCH_SCALE" with
  | Some "quick" -> `Quick
  | Some "full" -> `Full
  | _ -> `Standard

(* ---------------- micro-benchmark subjects ---------------- *)

(* B1: Tarjan SCC. *)
let bench_scc n =
  let g = Gen.gnp (Rng.of_int (100 + n)) n 0.1 in
  Test.make
    ~name:(Printf.sprintf "B1-scc/n=%d" n)
    (Staged.stage (fun () -> ignore (Scc.compute g)))

(* B2: one skeleton intersection step. *)
let bench_skeleton_step n =
  let g = Gen.gnp (Rng.of_int (200 + n)) n 0.3 in
  let acc = Digraph.complete ~self_loops:true n in
  Test.make
    ~name:(Printf.sprintf "B2-skel-step/n=%d" n)
    (Staged.stage (fun () -> Digraph.inter_into ~into:acc g))

(* B3: merging a received approximation graph (Lines 19-23). *)
let bench_merge n =
  let rng = Rng.of_int (300 + n) in
  let mk () =
    let g = Lgraph.create n ~self:0 in
    for _ = 1 to n * 2 do
      Lgraph.set_edge g (Rng.int rng n) (Rng.int rng n)
        ~label:(1 + Rng.int rng 9)
    done;
    g
  in
  let src = Lgraph.freeze (mk ()) and dst = mk () in
  Test.make
    ~name:(Printf.sprintf "B3-merge/n=%d" n)
    (Staged.stage (fun () -> Lgraph.merge_max_into ~into:dst src))

(* B4: one full Algorithm 1 round for the whole system. *)
let bench_round n =
  let adv =
    Build.block_sources (Rng.of_int (400 + n)) ~n ~k:(max 1 (n / 4)) ()
  in
  let graph = Adversary.graph adv 1 in
  Test.make
    ~name:(Printf.sprintf "B4-round/n=%d" n)
    (Staged.stage (fun () ->
         let states = Array.init n (fun self -> Approx.create ~n ~self ()) in
         let payloads = Array.map Approx.message states in
         Array.iteri
           (fun q s ->
             Approx.step s ~round:1 ~received:(fun p ->
                 if Digraph.mem_edge graph p q then Some payloads.(p)
                 else None))
           states))

(* B5: the Psrcs(k) decision procedure (MIS on the sharing graph). *)
let bench_psrcs n =
  let adv =
    Build.block_sources (Rng.of_int (500 + n)) ~n ~k:(max 1 (n / 4)) ()
  in
  let pts = Adversary.pts adv in
  Test.make
    ~name:(Printf.sprintf "B5-psrcs/n=%d" n)
    (Staged.stage (fun () ->
         ignore (Ssg_predicates.Predicate.psrcs pts ~k:(max 1 (n / 4)))))

(* B6: a full run end to end (build + execute to termination). *)
let bench_run n =
  Test.make
    ~name:(Printf.sprintf "B6-run/n=%d" n)
    (Staged.stage (fun () ->
         let rng = Rng.of_int (600 + n) in
         let adv = Build.block_sources rng ~n ~k:(max 1 (n / 4)) () in
         ignore (Runner.run_kset adv)))

(* B7: wire codec encode+decode roundtrip of a dense approximation graph. *)
let bench_codec n =
  let rng = Rng.of_int (700 + n) in
  let g = Lgraph.create n ~self:0 in
  for _ = 1 to n * n / 3 do
    Lgraph.set_edge g (Rng.int rng n) (Rng.int rng n) ~label:(1 + Rng.int rng 30)
  done;
  Test.make
    ~name:(Printf.sprintf "B7-codec/n=%d" n)
    (Staged.stage (fun () ->
         let bytes = Codec.encode g ~label_bits:6 in
         ignore (Codec.decode bytes ~n ~self:0 ~label_bits:6)))

(* B8: a full timing-layer run (event queue + latency model + Algorithm 1). *)
let bench_timing n =
  Test.make
    ~name:(Printf.sprintf "B8-timing-run/n=%d" n)
    (Staged.stage (fun () ->
         ignore
           (Ssg_timing.Round_sync.run_kset
              ~inputs:(Array.init n (fun i -> i))
              ~latency:(Ssg_timing.Latency.uniform ~seed:n ~lo:0.1 ~hi:1.5)
              ~max_rounds:(2 * n) ())))

(* B11: lint static-analysis throughput — what the ssgd front door and
   the CI `ssg lint examples/*.run` step pay per run description (span
   parse + skeleton + SCC + α(H) + all passes). *)
let bench_lint n =
  let adv =
    Build.block_sources
      (Rng.of_int (1100 + n))
      ~n ~k:(max 1 (n / 4)) ~prefix_len:3 ()
  in
  let text = Run_format.to_string adv in
  Test.make
    ~name:(Printf.sprintf "B11-lint/n=%d" n)
    (Staged.stage (fun () ->
         ignore (Ssg_lint.Lint.check_text ~k:(max 1 (n / 4)) text)))

let micro_tests scale =
  let sizes_small, sizes_mid =
    match scale with
    | `Quick -> ([ 16; 64 ], [ 8; 16 ])
    | `Standard -> ([ 16; 64; 256 ], [ 8; 16; 32 ])
    | `Full -> ([ 16; 64; 256; 1024 ], [ 8; 16; 32; 64 ])
  in
  List.concat
    [
      List.map bench_scc sizes_small;
      List.map bench_skeleton_step sizes_small;
      List.map bench_merge sizes_mid;
      List.map bench_round sizes_mid;
      List.map bench_psrcs sizes_small;
      List.map bench_run sizes_mid;
      List.map bench_codec sizes_mid;
      List.map bench_timing (List.filter (fun n -> n <= 16) sizes_mid);
      List.map bench_lint sizes_mid;
    ]

let human_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let run_micro scale =
  let tests = micro_tests scale in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (match scale with `Quick -> 0.1 | _ -> 0.5))
      ~kde:None ()
  in
  let instance = Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let table = Table.create [ "benchmark"; "time/run" ] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> x
            | _ -> nan
          in
          Table.add_row table [ name; human_ns ns ])
        results)
    tests;
  print_endline "== B1..B8, B11: micro-benchmarks (Bechamel, monotonic clock) ==";
  print_newline ();
  Table.print table;
  print_newline ()

(* Every bench job is lint-clean, so a refusal is a bug. *)
let await_ok engine ticket =
  match Ssg_engine.Engine.await engine ticket with
  | Ok completion -> completion
  | Error diags -> failwith diags

(* Submit every job, then await each in order, so the pool pipelines
   the batch — the [ssg sweep] fold. *)
let run_all engine jobs =
  List.map (Ssg_engine.Engine.submit engine) jobs
  |> List.map (await_ok engine)

(* ---------------- B9: service-engine batch throughput ---------------- *)

(* Wall-clock, not Bechamel: the subject is a persistent stateful engine
   (pool + dedup + cache), so repeated staged invocations would only
   measure the warm cache.  One batch of >= 100 jobs — realistic sweep
   traffic with 4x duplication, the dedup/cache workload the service
   exists for — is pushed through (a) a naive sequential loop that
   executes every submission, (b) a cold engine, (c) the same engine
   again fully warm. *)
let run_engine_bench scale =
  let n, total =
    match scale with
    | `Quick -> (16, 120)
    | `Standard -> (24, 200)
    | `Full -> (32, 400)
  in
  let distinct = total / 4 in
  let job i =
    Ssg_engine.Job.make
      ~k:(max 1 (n / 4))
      (Build.block_sources
         (Rng.of_int (9100 + i))
         ~n ~k:(max 1 (n / 4)) ~prefix_len:2 ())
  in
  let batch = List.init total (fun i -> job (i mod distinct)) in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let (), seq_s =
    time (fun () ->
        List.iter (fun j -> ignore (Ssg_engine.Job.execute j)) batch)
  in
  let workers = max 2 (Pool.default_workers ()) in
  let engine =
    Ssg_engine.Engine.create ~workers ~queue_capacity:32 ~cache_capacity:1024
      ()
  in
  let cold_completions, cold_s =
    time (fun () -> run_all engine batch)
  in
  let warm_completions, warm_s =
    time (fun () -> run_all engine batch)
  in
  let stats = Ssg_engine.Engine.stats engine in
  Ssg_engine.Engine.shutdown engine;
  let ok cs =
    List.for_all
      (fun c -> Result.is_ok c.Ssg_engine.Job.result)
      cs
  in
  assert (ok cold_completions && ok warm_completions);
  Printf.printf
    "== B9: engine batch throughput (%d jobs, %d distinct, n=%d, %d worker domain(s)) ==\n\n"
    total distinct n workers;
  let table = Table.create [ "pipeline"; "wall-clock"; "vs sequential" ] in
  let row label s =
    Table.add_row table
      [ label; Printf.sprintf "%.1f ms" (1000. *. s);
        Printf.sprintf "%.2fx" (seq_s /. Stdlib.max s 1e-9) ]
  in
  row "sequential loop (every job executed)" seq_s;
  row "engine, cold (pool + dedup + cache)" cold_s;
  row "engine, warm resubmission (all hits)" warm_s;
  Table.print table;
  let served_without_execution =
    stats.Ssg_engine.Telemetry.cache_hits
    + stats.Ssg_engine.Telemetry.dedup_joins
  in
  Printf.printf
    "\n\
    \  engine executed %d distinct jobs for %d submissions (%d cache \
     hits + %d dedup joins, %.0f%% served without execution)\n\n"
    stats.Ssg_engine.Telemetry.jobs_completed
    stats.Ssg_engine.Telemetry.jobs_submitted
    stats.Ssg_engine.Telemetry.cache_hits
    stats.Ssg_engine.Telemetry.dedup_joins
    (100.
    *. float_of_int served_without_execution
    /. float_of_int
         (Stdlib.max 1
            (served_without_execution
            + stats.Ssg_engine.Telemetry.cache_misses)))

(* ---------------- B12: tracing overhead ---------------- *)

(* The observability layer's contract is that leaving the
   instrumentation compiled into the hot paths is free while tracing is
   off.  B12 pushes the B9 engine workload (all-distinct jobs, so every
   submission really executes and crosses every instrumented phase)
   through three fresh engines: tracing off, on, and on with a Chrome
   export folded into the timed region.

   The ≤ 2% disabled-overhead gate (SSG_OBS_GATE=1) is asserted
   analytically — probe cost × probes per job against the measured
   per-job time — because at bench scale the wall-clock delta between
   the off/on runs is dominated by scheduler noise, not by the single
   atomic load a disabled probe costs. *)
let run_tracing_bench scale =
  let n, total =
    match scale with
    | `Quick -> (16, 60)
    | `Standard -> (24, 120)
    | `Full -> (32, 240)
  in
  let job i =
    Ssg_engine.Job.make
      ~k:(max 1 (n / 4))
      (Build.block_sources
         (Rng.of_int (12000 + i))
         ~n ~k:(max 1 (n / 4)) ~prefix_len:2 ())
  in
  let batch = List.init total job in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let workers = max 2 (Pool.default_workers ()) in
  let push () =
    (* cache off: every phase must execute all [total] jobs *)
    let engine =
      Ssg_engine.Engine.create ~workers ~queue_capacity:32 ~cache_capacity:0 ()
    in
    let completions = run_all engine batch in
    Ssg_engine.Engine.shutdown engine;
    assert (
      List.for_all (fun c -> Result.is_ok c.Ssg_engine.Job.result) completions)
  in
  Ssg_obs.Tracer.set_enabled false;
  Ssg_obs.Tracer.reset ();
  let (), off_s = time push in
  Ssg_obs.Tracer.reset ();
  Ssg_obs.Tracer.set_enabled true;
  let (), on_s = time push in
  let traced_events = List.length (Ssg_obs.Tracer.events ()) in
  let dropped = Ssg_obs.Tracer.dropped () in
  Ssg_obs.Tracer.reset ();
  let export_len = ref 0 in
  let (), export_s =
    time (fun () ->
        push ();
        export_len :=
          String.length
            (Ssg_obs.Stitch.chrome_of_reports
               [ Ssg_obs.Tracer.report_here ~role:"bench" () ]))
  in
  Ssg_obs.Tracer.set_enabled false;
  Ssg_obs.Tracer.reset ();
  (* Disabled-probe microcost: the loop is exactly the guarded call the
     hot paths make — one atomic load, no allocation. *)
  let probes = 10_000_000 in
  let (), probe_s =
    time (fun () ->
        for i = 1 to probes do
          if Ssg_obs.Tracer.enabled () then
            Ssg_obs.Tracer.instant ~args:[ ("i", Ssg_obs.Tracer.Int i) ] "p"
        done)
  in
  let probe_ns = 1e9 *. probe_s /. float_of_int probes in
  (* Probes per job ≈ events per job when tracing: every emitted event
     is one enabled-guard crossing (span args add a second guard at the
     same site — fold a 2x safety factor in). *)
  let events_per_job =
    float_of_int (traced_events + dropped) /. float_of_int total
  in
  let per_job_s = off_s /. float_of_int total in
  let overhead_frac = 2. *. events_per_job *. (probe_ns *. 1e-9) /. per_job_s in
  Printf.printf
    "== B12: tracing overhead (B9 workload, %d all-distinct jobs, n=%d, %d \
     worker domain(s)) ==\n\n"
    total n workers;
  let table = Table.create [ "tracing"; "wall-clock"; "vs off" ] in
  let row label s =
    Table.add_row table
      [ label; Printf.sprintf "%.1f ms" (1000. *. s);
        Printf.sprintf "%.2fx" (s /. Stdlib.max off_s 1e-9) ]
  in
  row "off (statically disabled probes)" off_s;
  row
    (Printf.sprintf "on (%d events, %d dropped)" traced_events dropped)
    on_s;
  row
    (Printf.sprintf "on + Chrome export (%d KiB JSON)" (!export_len / 1024))
    export_s;
  Table.print table;
  Printf.printf
    "\n\
    \  disabled probe: %.2f ns/op; %.0f events/job -> disabled-tracing \
     overhead bound %.4f%% of job time\n"
    probe_ns events_per_job (100. *. overhead_frac);
  if Sys.getenv_opt "SSG_OBS_GATE" = Some "1" then
    if overhead_frac > 0.02 then begin
      Printf.printf
        "  GATE FAILED: disabled-tracing overhead bound %.4f%% > 2%%\n"
        (100. *. overhead_frac);
      exit 1
    end
    else
      Printf.printf "  gate: disabled-tracing overhead bound <= 2%% (OK)\n";
  print_newline ()

(* ---------------- B13: cluster routing throughput ---------------- *)

(* The cluster's throughput claim: one burst of all-distinct jobs (pure
   cache misses — placement cannot help, only parallelism can), every
   job in flight at once on one connection, through a single 1-worker
   ssgd versus three of them behind the lib/cluster router.  The router
   forwards each job to its ring owner as it arrives, so with real cores
   behind the workers the fleet approaches 3x; on a 1-core host the
   three daemons time-slice one core and the row honestly reports the
   multiplexing overhead instead.  The >= 2x acceptance gate therefore only arms under
   SSG_CLUSTER_GATE=1 (CI sets it on multi-core runners). *)
let run_cluster_bench scale =
  let n, total =
    match scale with
    | `Quick -> (16, 60)
    | `Standard -> (20, 120)
    | `Full -> (24, 240)
  in
  let job i =
    Ssg_engine.Job.make
      ~k:(max 1 (n / 4))
      (Build.block_sources
         (Rng.of_int (13000 + i))
         ~n ~k:(max 1 (n / 4)) ~prefix_len:2 ())
  in
  let batch = List.init total job in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let sock name =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ssg-bench-%s-%d.sock" name (Unix.getpid ()))
  in
  let start_worker socket =
    if Sys.file_exists socket then Sys.remove socket;
    Thread.create
      (fun () ->
        Ssg_engine.Server.serve ~workers:1 ~queue_capacity:64
          ~cache_capacity:0 ~socket ())
      ()
  in
  let wait_up socket =
    let rec go tries =
      if tries = 0 then failwith "bench service did not come up";
      match Ssg_engine.Client.connect ~retries:0 ~socket ~deadline_s:30. () with
      | c -> c
      | exception Unix.Unix_error _ ->
          Thread.delay 0.05;
          go (tries - 1)
    in
    go 200
  in
  let shutdown socket thread =
    let c = wait_up socket in
    Ssg_engine.Client.shutdown c;
    Ssg_engine.Client.close c;
    Thread.join thread
  in
  let push socket =
    let c = wait_up socket in
    Fun.protect
      ~finally:(fun () -> Ssg_engine.Client.close c)
      (fun () ->
        List.map (Ssg_engine.Client.submit_async c) batch
        |> List.iter (fun ticket ->
               match Ssg_engine.Client.await ticket with
               | Ok completion ->
                   assert (Result.is_ok completion.Ssg_engine.Job.result)
               | Error msg -> failwith msg))
  in
  (* Single 1-worker daemon. *)
  let single = sock "single" in
  let single_thread = start_worker single in
  let (), single_s = time (fun () -> push single) in
  shutdown single single_thread;
  (* Three 1-worker daemons behind the router. *)
  let backends = List.map sock [ "w1"; "w2"; "w3" ] in
  let worker_threads = List.map start_worker backends in
  let router = sock "router" in
  if Sys.file_exists router then Sys.remove router;
  let router_thread =
    Thread.create
      (fun () ->
        Ssg_cluster.Router.serve ~probe_interval_s:0.5 ~request_timeout_s:60.
          ~backends ~socket:router ())
      ()
  in
  let (), cluster_s = time (fun () -> push router) in
  shutdown router router_thread;
  List.iter2 shutdown backends worker_threads;
  let cores = Domain.recommended_domain_count () in
  let ratio = single_s /. Stdlib.max cluster_s 1e-9 in
  Printf.printf
    "== B13: cluster routing throughput (%d all-distinct jobs, n=%d, 1 ssgd \
     vs router + 3, %d core(s)) ==\n\n"
    total n cores;
  let table = Table.create [ "pipeline"; "wall-clock"; "jobs/s"; "vs single" ] in
  let row label s =
    Table.add_row table
      [ label; Printf.sprintf "%.1f ms" (1000. *. s);
        Printf.sprintf "%.0f" (float_of_int total /. Stdlib.max s 1e-9);
        Printf.sprintf "%.2fx" (single_s /. Stdlib.max s 1e-9) ]
  in
  row "single ssgd (1 worker domain)" single_s;
  row "router + 3 ssgd (1 worker domain each)" cluster_s;
  Table.print table;
  Printf.printf
    "\n\
    \  cache-miss workload: placement cannot help, the speedup is pure \
     cross-daemon parallelism (needs >= 3 idle cores to show)\n";
  if Sys.getenv_opt "SSG_CLUSTER_GATE" = Some "1" then
    if ratio < 2. then begin
      Printf.printf "  GATE FAILED: router + 3 workers %.2fx < 2x single\n"
        ratio;
      exit 1
    end
    else Printf.printf "  gate: router + 3 workers >= 2x single (OK)\n";
  print_newline ()

(* ---------------- B14: front-door transport throughput ---------------- *)

(* The lib/net claim: multiplexing many in-flight requests onto one
   connection recovers the round-trip latency that sending one job at a
   time pays per job.  Same daemon, same all-distinct cache-miss
   batch, two front doors:

   - Unix socket, one job at a time: {!Ssg_engine.Client.submit} in
     sequence — submit, wait for the reply, submit the next — so every
     job pays a full round trip with the worker pool idle during the
     client-side turnaround;
   - TCP, pipelined: every job sent with
     {!Ssg_engine.Client.submit_async} before any reply is awaited, so
     the pool always has work and replies stream back in completion
     order.

   The pipelined side also carries TCP's framing overhead, so the >= 1x
   gate (SSG_NET_GATE=1) is a real claim: id-framed pipelining over the
   heavier transport must still beat one job at a time over the lighter
   one at equal worker count.  Arm the gate at standard scale or above:
   quick-scale jobs (n=16) finish in ~3 ms, which is inside the noise of
   the mux reader thread and per-connection handler threads contending
   for the core, so the quick ratio swings either side of 1x run to
   run.  At n=20 the simulation dominates and the ratio is stable. *)
let run_net_bench scale =
  let n, total =
    match scale with
    | `Quick -> (16, 60)
    | `Standard -> (20, 160)
    | `Full -> (24, 320)
  in
  let job i =
    Ssg_engine.Job.make
      ~k:(max 1 (n / 4))
      (Build.block_sources
         (Rng.of_int (14000 + i))
         ~n ~k:(max 1 (n / 4)) ~prefix_len:2 ())
  in
  let batch = List.init total job in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let workers = max 2 (Pool.default_workers ()) in
  let unix_sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ssg-bench-net-%d.sock" (Unix.getpid ()))
  in
  let tcp_addr =
    (* An ephemeral port read back from the kernel, released just before
       the server binds it. *)
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> failwith "no port"
    in
    Unix.close fd;
    Printf.sprintf "tcp:127.0.0.1:%d" port
  in
  let start_server socket =
    if Sys.file_exists socket then Sys.remove socket;
    Thread.create
      (fun () ->
        Ssg_engine.Server.serve ~workers ~queue_capacity:64 ~cache_capacity:0
          ~socket ())
      ()
  in
  let wait_up socket =
    let rec go tries =
      if tries = 0 then failwith "bench service did not come up";
      match Ssg_engine.Client.connect ~retries:0 ~socket ~deadline_s:60. () with
      | c -> c
      | exception Unix.Unix_error _ ->
          Thread.delay 0.05;
          go (tries - 1)
    in
    go 200
  in
  let shutdown socket thread =
    let c = wait_up socket in
    Ssg_engine.Client.shutdown c;
    Ssg_engine.Client.close c;
    Thread.join thread
  in
  (* Unix socket, one job at a time: a full round trip per job. *)
  let ut = start_server unix_sock in
  let oneshot_s =
    let c = wait_up unix_sock in
    Fun.protect
      ~finally:(fun () -> Ssg_engine.Client.close c)
      (fun () ->
        let (), s =
          time (fun () ->
              List.iter
                (fun j ->
                  let completion = Ssg_engine.Client.submit c j in
                  assert (Result.is_ok completion.Ssg_engine.Job.result))
                batch)
        in
        s)
  in
  shutdown unix_sock ut;
  (* TCP, pipelined: every job in flight before any reply is read. *)
  let tt = start_server tcp_addr in
  let pipelined_s =
    let c = wait_up tcp_addr in
    Fun.protect
      ~finally:(fun () -> Ssg_engine.Client.close c)
      (fun () ->
        let (), s =
          time (fun () ->
              let tickets = List.map (Ssg_engine.Client.submit_async c) batch in
              List.iter
                (fun t ->
                  match Ssg_engine.Client.await t with
                  | Ok completion ->
                      assert (Result.is_ok completion.Ssg_engine.Job.result)
                  | Error msg -> failwith msg)
                tickets)
        in
        s)
  in
  shutdown tcp_addr tt;
  let jps s = float_of_int total /. Stdlib.max s 1e-9 in
  let ratio = oneshot_s /. Stdlib.max pipelined_s 1e-9 in
  Printf.printf
    "== B14: front-door transport throughput (%d all-distinct jobs, n=%d, %d \
     worker domain(s)) ==\n\n"
    total n workers;
  let table =
    Table.create [ "front door"; "wall-clock"; "jobs/s"; "vs one at a time" ]
  in
  let row label s =
    Table.add_row table
      [ label; Printf.sprintf "%.1f ms" (1000. *. s);
        Printf.sprintf "%.0f" (jps s);
        Printf.sprintf "%.2fx" (oneshot_s /. Stdlib.max s 1e-9) ]
  in
  row "unix socket, one job at a time" oneshot_s;
  row "tcp, pipelined client (all in flight)" pipelined_s;
  Table.print table;
  Printf.printf
    "\n\
    \  {\"bench\":\"B14\",\"jobs\":%d,\"n\":%d,\"workers\":%d,\"unix_oneshot_s\":%.4f,\"tcp_pipelined_s\":%.4f,\"unix_oneshot_jps\":%.0f,\"tcp_pipelined_jps\":%.0f,\"speedup\":%.3f}\n"
    total n workers oneshot_s pipelined_s (jps oneshot_s) (jps pipelined_s)
    ratio;
  if Sys.getenv_opt "SSG_NET_GATE" = Some "1" then
    if ratio < 1. then begin
      Printf.printf
        "  GATE FAILED: pipelined TCP %.2fx < 1x unix one at a time\n" ratio;
      exit 1
    end
    else
      Printf.printf "  gate: pipelined TCP >= unix one at a time (OK, %.2fx)\n"
        ratio;
  print_newline ()

(* ---------------- B15: incremental skeleton hot path + sweep ---------------- *)

(* The lib/skeleton claim: along the ⊇-chain (eq. 1) a round that removes
   no skeleton edge changes {e nothing} downstream, so the per-round
   derivations — SCC analysis, the PT rows, and min_k (a branch-and-bound
   MIS) — can be served from revision-stamped caches, with the MIS search
   warm-started from the previous round's witness when the skeleton does
   shrink.  Both sides of the comparison consume the same trace and
   produce the same per-round answers; only the recomputation discipline
   differs:

   - from scratch: Analysis.analyze + Timely.sources_of + Predicate.min_k
     rebuilt from the current skeleton every round (what the monitors and
     [ssg series] did before the incremental layer);
   - incremental: Skeleton.Incremental absorbs each round graph, bumping a
     revision only when edges were removed; analysis/PT/min_k are cached
     per revision, so the long stable suffix costs one O(n²/w)
     intersection per round and nothing else.

   Gate (SSG_SWEEP_GATE=1): incremental >= 2x from-scratch at n >= 64.

   The second half times [ssg sweep]'s fan-out: the same (n, k, family)
   grid as one pipelined batch on a single-worker pool versus the
   default pool, reporting jobs/s, the scaling ratio and how many pool
   domains actually executed cells (Sweep.domains_used over the drained
   tracer).  Near-linear scaling is only observable with idle cores, so
   the >= 1.5x scaling leg of the gate arms itself only when the host
   has >= 4 domains; the single-run speedup leg is host-independent. *)
let run_sweep_bench scale =
  let open Ssg_skeleton in
  let n, rounds =
    match scale with
    | `Quick -> (64, 96)
    | `Standard -> (64, 192)
    | `Full -> (96, 288)
  in
  let k = max 1 (n / 8) in
  let adv =
    Build.block_sources (Rng.of_int 15000) ~n ~k ~prefix_len:6 ~noise:0.3 ()
  in
  let tr = Adversary.trace adv ~rounds in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let scratch_min_k, scratch_s =
    time (fun () ->
        let acc = Skeleton.start ~n in
        let last = ref 0 in
        for r = 1 to rounds do
          ignore (Skeleton.absorb acc (Trace.graph tr r));
          let skel = Skeleton.view acc in
          let analysis = Analysis.analyze skel in
          ignore (Analysis.root_count analysis);
          last := Ssg_predicates.Predicate.min_k (Timely.sources_of skel)
        done;
        !last)
  in
  let inc_min_k, inc_s =
    time (fun () ->
        let inc = Incremental.start ~n in
        let tracker = Ssg_predicates.Min_k_tracker.create () in
        let last = ref 0 in
        for r = 1 to rounds do
          ignore (Incremental.absorb inc (Trace.graph tr r));
          ignore (Analysis.root_count (Incremental.analysis inc));
          last :=
            Ssg_predicates.Min_k_tracker.min_k
              ~revision:(Incremental.revision inc)
              tracker (Incremental.pts inc)
        done;
        !last)
  in
  (* Same trace, same answers — the cache is an optimization, not an
     approximation. *)
  assert (scratch_min_k = inc_min_k);
  let single_speedup = scratch_s /. Stdlib.max inc_s 1e-9 in
  (* Sweep fan-out: a 4 (n, k) x 3 family grid, submit-all-then-await,
     exactly the [ssg sweep] fold. *)
  let grid =
    Sweep.create ~ns:[ 10; 12 ] ~ks:[ 1; 2 ]
      ~families:[ Sweep.Block_sources; Sweep.Partitioned; Sweep.Single_root ]
      ~seed:15001
  in
  let cells = Sweep.cells grid in
  let jobs =
    List.map
      (fun (cell : Sweep.cell) ->
        let adv = Sweep.adversary cell in
        Ssg_engine.Job.make ~k:(Sweep.effective_k cell adv) adv)
      cells
  in
  let run_sweep workers =
    let engine = Ssg_engine.Engine.create ~workers ~cache_capacity:0 () in
    let (), s =
      time (fun () ->
          List.iter
            (fun completion ->
              assert (Result.is_ok completion.Ssg_engine.Job.result))
            (run_all engine jobs))
    in
    Ssg_engine.Engine.shutdown engine;
    s
  in
  let sweep_single_s = run_sweep 1 in
  let sweep_workers = Pool.default_workers () in
  Ssg_obs.Tracer.reset ();
  Ssg_obs.Tracer.set_enabled true;
  let sweep_multi_s = run_sweep sweep_workers in
  Ssg_obs.Tracer.set_enabled false;
  let domains_used = Sweep.domains_used (Ssg_obs.Tracer.events ()) in
  let sweep_speedup = sweep_single_s /. Stdlib.max sweep_multi_s 1e-9 in
  let ncells = List.length cells in
  Printf.printf
    "== B15: incremental skeleton hot path (n=%d, %d rounds) + sweep \
     fan-out (%d cells) ==\n\n"
    n rounds ncells;
  let table = Table.create [ "derivation path"; "wall-clock"; "vs scratch" ] in
  Table.add_row table
    [
      "from scratch every round (analysis+PT+min_k)";
      Printf.sprintf "%.1f ms" (1000. *. scratch_s);
      "1.00x";
    ];
  Table.add_row table
    [
      "incremental (revision-cached, warm MIS)";
      Printf.sprintf "%.1f ms" (1000. *. inc_s);
      Printf.sprintf "%.2fx" single_speedup;
    ];
  Table.print table;
  let jps s = float_of_int ncells /. Stdlib.max s 1e-9 in
  Printf.printf "\n";
  let table = Table.create [ "sweep pool"; "wall-clock"; "cells/s"; "scaling" ] in
  Table.add_row table
    [
      "1 worker";
      Printf.sprintf "%.1f ms" (1000. *. sweep_single_s);
      Printf.sprintf "%.0f" (jps sweep_single_s);
      "1.00x";
    ];
  Table.add_row table
    [
      Printf.sprintf "%d workers (%d domains used)" sweep_workers domains_used;
      Printf.sprintf "%.1f ms" (1000. *. sweep_multi_s);
      Printf.sprintf "%.0f" (jps sweep_multi_s);
      Printf.sprintf "%.2fx" sweep_speedup;
    ];
  Table.print table;
  Printf.printf
    "\n\
    \  {\"bench\":\"B15\",\"n\":%d,\"rounds\":%d,\"scratch_s\":%.4f,\"incremental_s\":%.4f,\"speedup\":%.3f,\"sweep_cells\":%d,\"sweep_single_s\":%.4f,\"sweep_multi_s\":%.4f,\"sweep_workers\":%d,\"sweep_domains_used\":%d,\"sweep_speedup\":%.3f}\n"
    n rounds scratch_s inc_s single_speedup ncells sweep_single_s sweep_multi_s
    sweep_workers domains_used sweep_speedup;
  if Sys.getenv_opt "SSG_SWEEP_GATE" = Some "1" then begin
    if single_speedup < 2. then begin
      Printf.printf
        "  GATE FAILED: incremental path %.2fx < 2x from-scratch at n=%d\n"
        single_speedup n;
      exit 1
    end
    else
      Printf.printf "  gate: incremental >= 2x from-scratch (OK, %.2fx)\n"
        single_speedup;
    if sweep_workers >= 4 then
      if sweep_speedup < 1.5 then begin
        Printf.printf
          "  GATE FAILED: sweep scaling %.2fx < 1.5x with %d workers\n"
          sweep_speedup sweep_workers;
        exit 1
      end
      else
        Printf.printf "  gate: sweep scaling >= 1.5x (OK, %.2fx)\n"
          sweep_speedup
    else
      Printf.printf
        "  gate: sweep-scaling leg skipped (%d worker domain(s); needs >= 4 \
         idle cores to be a claim)\n"
        sweep_workers
  end;
  print_newline ()

(* ---------------- B17: context-propagation overhead ---------------- *)

(* PR 9's distributed-tracing claim: carrying a trace context on every
   request is free while tracing is off.  Same daemon and all-distinct
   cache-miss batch as B14's pipelined-TCP side, two timed passes on
   fresh daemons: one plain, one attaching a root context to every
   submit ([Client.submit_async ~ctx] — the loadgen's trace-sampling
   path),
   tracing disabled on both ends throughout.

   The wall-clock ratio is reported (min of [reps] repetitions per side
   to shed scheduler noise), but the <= 2% gate (SSG_OBS_GATE=1) is
   asserted analytically, as in B12: the measured per-request envelope
   microcost (mint + encode on the client, strip + decode on the
   server) against the measured per-job service time.  At bench scale a
   2% wall-clock delta is inside run-to-run noise; the microcost is
   not. *)
let run_ctx_bench scale =
  let n, total, reps =
    match scale with
    | `Quick -> (16, 60, 2)
    | `Standard -> (20, 160, 3)
    | `Full -> (24, 320, 3)
  in
  let job i =
    Ssg_engine.Job.make
      ~k:(max 1 (n / 4))
      (Build.block_sources
         (Rng.of_int (17000 + i))
         ~n ~k:(max 1 (n / 4)) ~prefix_len:2 ())
  in
  let batch = List.init total job in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let workers = max 2 (Pool.default_workers ()) in
  Ssg_obs.Tracer.set_enabled false;
  Ssg_obs.Tracer.reset ();
  let fresh_tcp () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    let port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> failwith "no port"
    in
    Unix.close fd;
    Printf.sprintf "tcp:127.0.0.1:%d" port
  in
  let wait_up socket =
    let rec go tries =
      if tries = 0 then failwith "bench service did not come up";
      match Ssg_engine.Client.connect ~retries:0 ~socket ~deadline_s:60. () with
      | c -> c
      | exception Unix.Unix_error _ ->
          Thread.delay 0.05;
          go (tries - 1)
    in
    go 200
  in
  (* One timed pass: fresh daemon (cache off, so every rep re-executes
     the whole batch), pipelined client, optional per-submit context. *)
  let pass ~ctx () =
    let socket = fresh_tcp () in
    let thread =
      Thread.create
        (fun () ->
          Ssg_engine.Server.serve ~workers ~queue_capacity:64 ~cache_capacity:0
            ~socket ())
        ()
    in
    let pc = wait_up socket in
    let (), s =
      Fun.protect
        ~finally:(fun () -> Ssg_engine.Client.close pc)
        (fun () ->
          time (fun () ->
              let tickets =
                List.map
                  (fun j ->
                    if ctx then
                      Ssg_engine.Client.submit_async
                        ~ctx:(Ssg_obs.Context.root ()) pc j
                    else Ssg_engine.Client.submit_async pc j)
                  batch
              in
              List.iter
                (fun t ->
                  match Ssg_engine.Client.await t with
                  | Ok completion ->
                      assert (Result.is_ok completion.Ssg_engine.Job.result)
                  | Error msg -> failwith msg)
                tickets))
    in
    let c = wait_up socket in
    Ssg_engine.Client.shutdown c;
    Ssg_engine.Client.close c;
    Thread.join thread;
    s
  in
  let best f =
    let rec go best left =
      if left = 0 then best else go (Float.min best (f ())) (left - 1)
    in
    go (f ()) (reps - 1)
  in
  let plain_s = best (pass ~ctx:false) in
  let ctx_s = best (pass ~ctx:true) in
  (* Envelope microcost: everything the context path adds per request
     when tracing is off — mint a root, encode it, wrap the payload,
     strip the envelope, decode the wire form. *)
  let payload =
    Ssg_engine.Protocol.request_to_bytes (Ssg_engine.Protocol.Submit (job 0))
  in
  let micro_reqs = 200_000 in
  let (), micro_s =
    time (fun () ->
        for _ = 1 to micro_reqs do
          let ctx = Ssg_obs.Context.root () in
          let framed =
            Ssg_net.Frame.with_ctx ~ctx:(Ssg_obs.Context.to_wire ctx) payload
          in
          match Ssg_net.Frame.split_ctx framed with
          | Some wire, _ -> ignore (Ssg_obs.Context.of_wire wire)
          | None, _ -> assert false
        done)
  in
  let envelope_ns = 1e9 *. micro_s /. float_of_int micro_reqs in
  let per_job_s = plain_s /. float_of_int total in
  let overhead_frac = envelope_ns *. 1e-9 /. Stdlib.max per_job_s 1e-9 in
  let ratio = ctx_s /. Stdlib.max plain_s 1e-9 in
  Printf.printf
    "== B17: context-propagation overhead (tracing off, %d all-distinct jobs, \
     n=%d, %d worker domain(s), best of %d) ==\n\n"
    total n workers reps;
  let table = Table.create [ "pipelined TCP submits"; "wall-clock"; "vs plain" ] in
  let row label s =
    Table.add_row table
      [ label; Printf.sprintf "%.1f ms" (1000. *. s);
        Printf.sprintf "%.2fx" (s /. Stdlib.max plain_s 1e-9) ]
  in
  row "plain (no context envelope)" plain_s;
  row "context envelope on every request" ctx_s;
  Table.print table;
  Printf.printf
    "\n\
    \  envelope microcost: %.0f ns/request -> disabled-tracing propagation \
     overhead bound %.4f%% of job time\n"
    envelope_ns (100. *. overhead_frac);
  Printf.printf
    "  {\"bench\":\"B17\",\"jobs\":%d,\"n\":%d,\"workers\":%d,\"plain_s\":%.4f,\"ctx_s\":%.4f,\"ratio\":%.3f,\"envelope_ns\":%.0f,\"overhead_bound_frac\":%.6f}\n"
    total n workers plain_s ctx_s ratio envelope_ns overhead_frac;
  if Sys.getenv_opt "SSG_OBS_GATE" = Some "1" then
    if overhead_frac > 0.02 then begin
      Printf.printf
        "  GATE FAILED: context-propagation overhead bound %.4f%% > 2%%\n"
        (100. *. overhead_frac);
      exit 1
    end
    else
      Printf.printf
        "  gate: disabled-tracing propagation overhead bound <= 2%% (OK)\n";
  print_newline ()

(* ---------------- B16: fleet-scale lint ---------------- *)

(* Lint v2's per-file work is real analysis — a fixpoint traversal of the
   skeleton chain with a per-revision min_k (branch-and-bound MIS), the
   Psrcs machinery, the text-level passes — and a lint fleet (`ssg lint
   FILE...`) is embarrassingly parallel across files.  B16 measures
   exactly the CLI's fan-out: the same generated corpus linted by a
   single-domain List.map versus Pool.run (the caller plus all cores
   but one), asserting identical summaries.

   Gate (SSG_LINT_GATE=1): pool lint >= 2x single-domain — armed only on
   >= 4 worker domains (with fewer cores there is no 2x to claim). *)
let run_lint_bench scale =
  let nfiles, n =
    match scale with
    | `Quick -> (64, 16)
    | `Standard -> (128, 24)
    | `Full -> (256, 32)
  in
  let texts =
    List.init nfiles (fun i ->
        let rng = Rng.of_int (16000 + i) in
        let adv =
          match i mod 4 with
          | 0 ->
              Build.block_sources rng ~n ~k:(1 + (i mod 3)) ~prefix_len:4
                ~noise:0.3 ()
          | 1 -> Build.partitioned rng ~n ~blocks:(2 + (i mod 3)) ~prefix_len:4 ()
          | 2 -> Build.single_root rng ~n ~prefix_len:4 ()
          | _ -> Build.arbitrary rng ~n ~density:0.4 ~prefix_len:4 ()
        in
        Run_format.to_string adv)
  in
  let lint text =
    Ssg_lint.Lint.summarize (Ssg_lint.Lint.check_text ~k:2 text)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let single, single_s = time (fun () -> List.map lint texts) in
  let workers = Pool.default_workers () in
  let fleet, fleet_s = time (fun () -> Pool.run lint texts) in
  (* Same corpus, same diagnostics — the fleet is a scheduler, not an
     approximation. *)
  assert (single = fleet);
  let speedup = single_s /. Stdlib.max fleet_s 1e-9 in
  let fps s = float_of_int nfiles /. Stdlib.max s 1e-9 in
  Printf.printf "== B16: fleet-scale lint (%d files, n=%d) ==\n\n" nfiles n;
  let table = Table.create [ "lint path"; "wall-clock"; "files/s"; "scaling" ] in
  Table.add_row table
    [
      "single domain (List.map)";
      Printf.sprintf "%.1f ms" (1000. *. single_s);
      Printf.sprintf "%.0f" (fps single_s);
      "1.00x";
    ];
  Table.add_row table
    [
      Printf.sprintf "pool fan-out (%d workers)" workers;
      Printf.sprintf "%.1f ms" (1000. *. fleet_s);
      Printf.sprintf "%.0f" (fps fleet_s);
      Printf.sprintf "%.2fx" speedup;
    ];
  Table.print table;
  Printf.printf
    "\n\
    \  {\"bench\":\"B16\",\"files\":%d,\"n\":%d,\"single_s\":%.4f,\"fleet_s\":%.4f,\"workers\":%d,\"speedup\":%.3f}\n"
    nfiles n single_s fleet_s workers speedup;
  if Sys.getenv_opt "SSG_LINT_GATE" = Some "1" then
    if workers >= 4 then
      if speedup < 2. then begin
        Printf.printf
          "  GATE FAILED: pool lint %.2fx < 2x single-domain with %d workers\n"
          speedup workers;
        exit 1
      end
      else
        Printf.printf "  gate: pool lint >= 2x single-domain (OK, %.2fx)\n"
          speedup
    else
      Printf.printf
        "  gate: skipped (%d worker domain(s); needs >= 4 cores to be a \
         claim)\n"
        workers;
  print_newline ()

(* ---------------- B18: warm boot vs cold boot ---------------- *)

(* The store's claim: restarting over a persisted journal returns a
   worker to its cache hit rate in the time it takes to re-read the
   journal, not to re-run the simulations.  A seeding life computes a
   working set of all-distinct jobs with a store attached; the timed
   legs then measure the wall-clock from boot to the moment 90% of the
   working set has been served — the cold engine (empty cache, no
   store) recomputes its way there, the warm one (Store.open_ + LRU
   replay folded into the timed region) serves hits from the first
   request.

   Gate (SSG_STORE_GATE=1): warm time-to-90% <= half the cold one.
   Cold work is simulation on worker domains and warm work is a journal
   read plus cache lookups, so the gate holds on any host. *)
let run_store_bench scale =
  let total, n =
    match scale with
    | `Quick -> (48, 10)
    | `Standard -> (96, 12)
    | `Full -> (192, 14)
  in
  let job i =
    Ssg_engine.Job.make ~k:2
      (Build.block_sources (Rng.of_int (18000 + i)) ~n ~k:2 ~prefix_len:2 ())
  in
  let batch = List.init total job in
  let workers = max 2 (Pool.default_workers ()) in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ssg-bench-b18-%d" (Unix.getpid ()))
  in
  let clean () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  clean ();
  (* Seeding life: compute the working set once, journaled. *)
  let store = Ssg_store.Store.open_ ~dir () in
  let engine = Ssg_engine.Engine.create ~workers ~store () in
  let seeded = run_all engine batch in
  assert (
    List.for_all (fun c -> Result.is_ok c.Ssg_engine.Job.result) seeded);
  Ssg_engine.Engine.shutdown engine;
  let target = (total * 9 + 9) / 10 in
  (* Boot under the clock, stream the working set, stop the clock when
     [target] jobs have been answered. *)
  let time_to_target boot =
    let t0 = Unix.gettimeofday () in
    let engine = boot () in
    let tickets = List.map (Ssg_engine.Engine.submit engine) batch in
    let served = ref 0 and t_target = ref Float.nan and hits = ref 0 in
    List.iter
      (fun ticket ->
        let c = await_ok engine ticket in
        assert (Result.is_ok c.Ssg_engine.Job.result);
        if c.Ssg_engine.Job.cached then incr hits;
        incr served;
        if !served = target then t_target := Unix.gettimeofday () -. t0)
      tickets;
    Ssg_engine.Engine.shutdown engine;
    (!t_target, float_of_int !hits /. float_of_int total)
  in
  let cold_s, cold_hit_rate =
    time_to_target (fun () -> Ssg_engine.Engine.create ~workers ())
  in
  let replayed = ref 0 in
  let warm_s, warm_hit_rate =
    time_to_target (fun () ->
        let store = Ssg_store.Store.open_ ~dir () in
        replayed := Ssg_store.Store.replayed_records store;
        Ssg_engine.Engine.create ~workers ~store ())
  in
  (* The warm boot must actually have been warm, or the comparison is
     meaningless. *)
  assert (!replayed >= total);
  assert (warm_hit_rate >= 0.9);
  let speedup = cold_s /. Stdlib.max warm_s 1e-9 in
  Printf.printf
    "== B18: warm boot vs cold boot (%d-job working set, n=%d, %d worker \
     domain(s), %d journaled record(s)) ==\n\n"
    total n workers !replayed;
  let table =
    Table.create [ "boot"; "time to 90% served"; "hit rate"; "scaling" ]
  in
  Table.add_row table
    [
      "cold (empty cache, recompute)";
      Printf.sprintf "%.1f ms" (1000. *. cold_s);
      Printf.sprintf "%.0f%%" (100. *. cold_hit_rate);
      "1.00x";
    ];
  Table.add_row table
    [
      "warm (journal replay)";
      Printf.sprintf "%.1f ms" (1000. *. warm_s);
      Printf.sprintf "%.0f%%" (100. *. warm_hit_rate);
      Printf.sprintf "%.2fx" speedup;
    ];
  Table.print table;
  Printf.printf
    "\n\
    \  {\"bench\":\"B18\",\"jobs\":%d,\"n\":%d,\"workers\":%d,\"replayed\":%d,\"cold_s\":%.4f,\"warm_s\":%.4f,\"cold_hit_rate\":%.3f,\"warm_hit_rate\":%.3f,\"speedup\":%.3f}\n"
    total n workers !replayed cold_s warm_s cold_hit_rate warm_hit_rate
    speedup;
  if Sys.getenv_opt "SSG_STORE_GATE" = Some "1" then
    if speedup < 2. then begin
      Printf.printf
        "  GATE FAILED: warm boot %.2fx < 2x faster than cold to 90%% served\n"
        speedup;
      exit 1
    end
    else
      Printf.printf "  gate: warm boot >= 2x faster to 90%% served (OK, %.2fx)\n"
        speedup;
  clean ();
  print_newline ()

(* ---------------- main ---------------- *)

let () =
  let scale = scale () in
  let scale_name =
    match scale with
    | `Quick -> "quick"
    | `Standard -> "standard"
    | `Full -> "full"
  in
  (* SSG_BENCH_ONLY=B9|B12 runs a single wall-clock section — what CI's
     bench-smoke step uses to assert the B12 overhead gate without
     paying for the full harness. *)
  (match Sys.getenv_opt "SSG_BENCH_ONLY" with
  | Some "B9" ->
      run_engine_bench scale;
      exit 0
  | Some "B12" ->
      run_tracing_bench scale;
      exit 0
  | Some "B13" ->
      run_cluster_bench scale;
      exit 0
  | Some "B14" ->
      run_net_bench scale;
      exit 0
  | Some "B15" ->
      run_sweep_bench scale;
      exit 0
  | Some "B16" ->
      run_lint_bench scale;
      exit 0
  | Some "B17" ->
      run_ctx_bench scale;
      exit 0
  | Some "B18" ->
      run_store_bench scale;
      exit 0
  | Some other ->
      Printf.eprintf
        "SSG_BENCH_ONLY=%s not recognized (B9 | B12 | B13 | B14 | B15 | B16 | \
         B17 | B18)\n"
        other;
      exit 2
  | None -> ());
  Printf.printf
    "Stable Skeleton Graphs — benchmark & reproduction harness (scale: %s)\n\n"
    scale_name;
  run_micro scale;
  run_engine_bench scale;
  run_tracing_bench scale;
  run_cluster_bench scale;
  run_net_bench scale;
  run_ctx_bench scale;
  run_sweep_bench scale;
  run_lint_bench scale;
  run_store_bench scale;
  let csv_dir = Sys.getenv_opt "SSG_BENCH_CSV_DIR" in
  (match csv_dir with
  | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
  | _ -> ());
  List.iter
    (fun e ->
      let result = e.Experiment.run scale in
      print_string (Experiment.render e result);
      (match csv_dir with
      | Some dir ->
          let path = Filename.concat dir (e.Experiment.id ^ ".csv") in
          let oc = open_out path in
          output_string oc (Experiment.csv result);
          close_out oc;
          Printf.printf "  [csv written to %s]\n" path
      | None -> ());
      print_newline ())
    Experiment.all
