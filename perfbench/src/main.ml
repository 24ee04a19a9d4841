(* perfbench: one run of one workload against a freshly launched fleet.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --ssg PATH --work DIR

   Prints a human-readable report, then as its last line one JSON
   object {correct, attempted, failed, metrics}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Exits 1 on a
   set-up failure without printing a result. *)

open Perfbench
open Ssg_engine

let setups_per_run = 5
let compact_bytes = 4 * 1024 * 1024

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  ssg : string;
  work : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let ssg = ref "" and work = ref ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N request-list seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--ssg", Arg.Set_string ssg, "PATH the built ssg binary");
      ("--work", Arg.Set_string work, "DIR scratch directory for stores and spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --ssg PATH";
  if !ssg = "" then failwith "--ssg is required";
  if !seconds < 1 then failwith "--seconds must be at least 1";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    ssg = !ssg; work = !work }

let now = Unix.gettimeofday

(* ---------------- set-up ---------------- *)

let rec poll ~deadline what f =
  match f () with
  | Some v -> v
  | None ->
      if now () > deadline then failwith (what ^ ": no answer within 30 s");
      Unix.sleepf 0.0005;
      poll ~deadline what f

(* First answer through the workload's entry point (polled), then the
   rest of the warm set, so the LRU holds every hot run. *)
let warm (fleet : Fleet.t) (w : Workload.t) =
  let deadline = now () +. 30. in
  match w.entry with
  | Workload.Native ->
      poll ~deadline "worker" (fun () ->
          match Client.connect ~retries:0 ~deadline_s:5. ~socket:fleet.worker_addr () with
          | c ->
              Fun.protect ~finally:(fun () -> Client.close c)
                (fun () -> Some (Client.stats c))
          | exception Unix.Unix_error _ -> None)
      |> ignore
  | Workload.Http ->
      let first = w.warm.(0) in
      poll ~deadline "gateway" (fun () ->
          match
            Http_client.exchange fleet.gateway_port (Http_client.submit_request first.job)
          with
          | { Http_client.status = 200; _ } -> Some ()
          | _ -> None
          | exception (Unix.Unix_error _ | End_of_file) -> None);
      let t = Load.create () in
      Load.http t ~port:fleet.gateway_port ~conns:2 ~stop_at:infinity
        (Array.sub w.warm 1 (Array.length w.warm - 1));
      if t.failed > 0 then
        failwith ("warm-up failed: " ^ String.concat "; " t.failures)

(* ---------------- outcome check ---------------- *)

(* Recompute every distinct served outcome with [Job.execute] (the
   fleet is down by now) and compare encodings byte for byte.  [known]
   holds outcomes the traced walk already computed. *)
let mismatches (w : Workload.t) (load : Load.t) ~known =
  let jobs = Hashtbl.create 4096 in
  Array.iter (fun (r : Workload.request) -> Hashtbl.replace jobs r.key r.job) w.warm;
  Array.iter (fun (r : Workload.request) -> Hashtbl.replace jobs r.key r.job) w.requests;
  let bad = ref load.conflicts in
  Hashtbl.iter
    (fun k served ->
      let expected =
        match Hashtbl.find_opt known k with
        | Some o -> o
        | None -> Job.execute (Hashtbl.find jobs k)
      in
      if Protocol.outcome_to_string expected <> served then incr bad)
    load.served;
  (!bad, Hashtbl.length load.served)

(* ---------------- output ---------------- *)

let metric_line buf (name, unit, value) =
  if Buffer.length buf > 0 then Buffer.add_char buf ',';
  Buffer.add_string buf
    (Printf.sprintf "\"%s\":{\"value\":%s,\"unit\":\"%s\"}" name (Json.number value) unit)

let result_line ~correct ~attempted ~failed metrics =
  let buf = Buffer.create 1024 in
  List.iter (metric_line buf) metrics;
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    correct attempted failed (Buffer.contents buf)

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, unit, value) -> Printf.printf "  %-30s %14.4f %s\n" name value unit)
    rows

(* ---------------- one run ---------------- *)

let run a =
  let t_gen = now () in
  let w = Workload.make ~name:a.workload ~seed:a.seed ~seconds:a.seconds in
  let gen_s = now () -. t_gen in
  let fleet_dir = Filename.concat a.work (Printf.sprintf "fleet-%d" (Unix.getpid ())) in
  (* Set up [setups_per_run] times (once when tracing); the last fleet
     serves the timed window. *)
  let setups = if a.trace then 1 else setups_per_run in
  let rec set_up i acc =
    let fleet = Fleet.launch ~ssg:a.ssg ~dir:fleet_dir in
    (try warm fleet w with e -> Fleet.stop fleet; raise e);
    let s = now () -. fleet.launched in
    if i >= setups then (fleet, List.rev (s :: acc))
    else (Fleet.stop fleet; set_up (i + 1) (s :: acc))
  in
  let fleet, setup_times = set_up 1 [] in
  (* A value per fleet process, keyed by role. *)
  let by_role f = List.map (fun (p : Fleet.proc) -> (p.role, f p.pid)) fleet.procs in
  let load = Load.create () in
  let window () =
    let before = Fleet.scrape fleet in
    let cpu0 = by_role Procfs.cpu_s in
    let host0 = Procfs.host () in
    let t0 = now () in
    (match (w.entry, w.shape) with
    | Workload.Http, Workload.Closed _ ->
        Load.http load ~port:fleet.gateway_port ~conns:w.connections
          ~stop_at:(t0 +. float_of_int a.seconds) w.requests
    | Workload.Http, Workload.Open rate ->
        let start = t0 +. 0.005 in
        Load.http load ~port:fleet.gateway_port ~conns:w.connections
          ~due:(fun i -> start +. (float_of_int i /. rate))
          ~stop_at:(t0 +. (2. *. float_of_int a.seconds) +. 5.) w.requests
    | Workload.Native, Workload.Closed inflight ->
        Load.native load ~addr:fleet.worker_addr ~inflight
          ~stop_at:(t0 +. float_of_int a.seconds) w.requests
    | Workload.Native, Workload.Open _ -> assert false);
    let cpu1 = by_role Procfs.cpu_s in
    let host1 = Procfs.host () in
    let rss = by_role Procfs.peak_rss_mb in
    let after = Fleet.scrape fleet in
    let cpu = List.map2 (fun (role, a) (_, b) -> (role, b -. a)) cpu0 cpu1 in
    (before, after, cpu, rss, Procfs.steal_share host0 host1)
  in
  let before, after, cpu, rss, steal =
    Fun.protect ~finally:(fun () -> Fleet.stop fleet) window
  in
  if load.attempted = 0 then failwith "no request was answered in the window";
  let completed = load.attempted - load.failed in
  let wall = load.last_reply -. load.first_send in
  let lat = Summary.sorted (Array.of_list (List.map snd load.latencies)) in
  let n_lat = Array.length lat in
  let p50 = Summary.percentile_sorted lat 0.5 and p90 = Summary.percentile_sorted lat 0.9 in
  let mean_ms = Summary.mean lat in
  let throughput = float_of_int completed /. wall in
  let sum = List.fold_left (fun acc (_, v) -> acc +. v) 0. in
  let cpu_per_job role = 1000. *. Summary.per_job (List.assoc role cpu) completed in
  let rss_of role = List.assoc role rss in
  let setup_s = Summary.median (Array.of_list setup_times) in
  Printf.printf "perfbench %s seed=%d seconds=%d trace=%d\n" w.name a.seed a.seconds
    (if a.trace then 1 else 0);
  Printf.printf "host: nproc=%d, run pinned to CPU %s, steal=%.1f%% over the timed window\n"
    (Procfs.online_cpus ()) (Procfs.allowed_cpus ()) (100. *. steal);
  Printf.printf "request list: %d timed, %d warm-up, generated in %.3f s\n"
    (Array.length w.requests) (Array.length w.warm) gen_s;
  Printf.printf
    "requests: attempted=%d failed=%d (wrong-kind=%d) served-from-cache=%d lint-rejected=%d sent=%d/%d\n"
    load.attempted load.failed load.wrong load.cached load.rejected load.sent
    (Array.length w.requests);
  List.iter (fun f -> Printf.printf "  failure: %s\n" f) load.failures;
  if load.lateness <> [] then begin
    let late = Array.of_list load.lateness in
    Printf.printf "generator lateness: p50=%.3f ms p90=%.3f ms max=%.3f ms (n=%d)\n"
      (Summary.percentile late 0.5) (Summary.percentile late 0.9)
      (Array.fold_left Float.max 0. late) (Array.length late)
  end;
  List.iter
    (fun (kind, label) ->
      let xs =
        Array.of_list (List.filter_map (fun (k, l) -> if k = kind then Some l else None) load.latencies)
      in
      if xs <> [||] then
        Printf.printf "latency of %s: p50=%.4f ms p90=%.4f ms (n=%d)\n" label
          (Summary.percentile xs 0.5) (Summary.percentile xs 0.9) (Array.length xs))
    [ (Workload.Hit, "hits"); (Workload.Miss, "misses"); (Workload.Lint, "lint rejections") ];
  Printf.printf "set-up: %s s (median of %d)\n"
    (String.concat ", " (List.map (Printf.sprintf "%.4f") setup_times))
    (List.length setup_times);
  let e2e =
    [
      ("throughput_jps", "jobs/s", throughput);
      ("latency_p50_ms", "ms", p50);
      ("latency_p90_ms", "ms", p90);
      ("cpu_ms_per_job", "ms/job", 1000. *. Summary.per_job (sum cpu) completed);
      ("rss_mb", "MB", sum rss);
      ("setup_s", "s", setup_s);
    ]
  in
  print_table
    (Printf.sprintf "end-to-end (%d completed in %.3f s; latency samples n=%d, mean %.4f ms)"
       completed wall n_lat mean_ms)
    e2e;
  (* Per-layer: counters, /proc, then the traced walk. *)
  let metrics, known =
    if not a.trace then (e2e, Hashtbl.create 1)
    else begin
      let wk = Prom.delta before.worker after.worker in
      let submitted = wk "ssgd_jobs_submitted" in
      let share series = if submitted <= 0. then 0. else wk series /. submitted in
      let compactions = wk "ssg_store_compactions_total" in
      let journal_bytes =
        wk "ssg_store_journal_bytes" +. (compactions *. float_of_int compact_bytes)
      in
      let q name = Summary.hist_quantile (Prom.hist_delta before.worker after.worker name) 0.5 in
      let walked =
        Walk.run ~dir:(Filename.concat a.work "walk-store")
          ~budget_s:(float_of_int a.seconds /. 2.)
          w (Array.sub w.requests 0 load.sent)
      in
      let row r = List.assoc r walked.row_us in
      let rows_total = List.map snd walked.row_us in
      Printf.printf
        "traced walk: %d requests, traced %.3f s, untraced %.3f s, tracing overhead %.1f%%\n"
        walked.jobs walked.traced_s walked.plain_s
        (100. *. ((walked.traced_s /. walked.plain_s) -. 1.));
      let spans_path =
        Filename.concat a.work (Printf.sprintf "spans-%s-seed%d.jsonl" w.name a.seed)
      in
      Walk.write_spans spans_path walked.spans;
      Printf.printf "spans: %d written to %s\n" (List.length walked.spans) spans_path;
      let per_layer =
        [
          ("gateway.cpu_ms_per_job", "ms/job", cpu_per_job "gateway");
          ("gateway.rss_mb", "MB", rss_of "gateway");
          ("hop.gateway_router_ms_mean", "ms",
           Prom.hist_mean before.gateway after.gateway "ssg_hop_gateway_router_ms");
          ("gateway.http_parse_us", "us", row "gateway.http_parse_us");
          ("gateway.normalize_us", "us", row "gateway.normalize_us");
          ("router.cpu_ms_per_job", "ms/job", cpu_per_job "router");
          ("router.rss_mb", "MB", rss_of "router");
          ("hop.router_worker_ms_mean", "ms",
           Prom.hist_mean before.router after.router "ssg_hop_router_worker_ms");
          ("router.decode_us", "us", row "router.decode_us");
          ("router.ring_us", "us", row "router.ring_us");
          ("router.connect_us", "us", row "router.connect_us");
          ("net.codec_us", "us", row "net.codec_us");
          ("net.bytes_per_job", "B/job", walked.bytes_per_job);
          ("worker.decode_us", "us", row "worker.decode_us");
          ("job.normalize_words", "words/job", walked.normalize_words);
          ("job.normalizations_per_job", "1/job", walked.normalizations);
          ("lint.gate_us", "us", row "lint.gate_us");
          ("lint.gate_words", "words/job", walked.lint_words);
          ("lint.reject_share", "ratio", share "ssgd_jobs_rejected_lint");
          ("engine.hit_share", "ratio", share "ssgd_cache_hits");
          ("engine.dedup_share", "ratio", share "ssgd_dedup_joins");
          ("engine.queue_wait_ms_p50", "ms", q "ssgd_job_queue_wait_ms");
          ("engine.lru_us", "us", row "engine.lru_us");
          ("engine.exec_ms_p50", "ms", q "ssgd_job_exec_ms");
          ("runner.exec_us", "us", row "runner.exec_us");
          ("runner.exec_words", "words/job", walked.exec_words);
          ("runner.rounds_per_job", "1/job", walked.rounds_per_job);
          ("runner.bits_per_job", "bits/job", walked.bits_per_job);
          ("store.fsyncs_per_job", "1/job",
           Summary.per_job (wk "ssg_store_fsyncs_total") completed);
          ("store.journal_bytes_per_job", "B/job", Summary.per_job journal_bytes completed);
          ("store.compactions", "count", compactions);
          ("store.append_us", "us", row "store.append_us");
          ("worker.cpu_ms_per_job", "ms/job", cpu_per_job "worker");
          ("worker.rss_mb", "MB", rss_of "worker");
          ("unattributed_ms", "ms", Summary.unattributed_ms ~mean_ms rows_total);
        ]
      in
      print_table
        (Printf.sprintf
           "per-layer (walked rows are per-job means over %d requests; they plus \
            unattributed_ms sum to the %.4f ms mean latency)"
           walked.jobs mean_ms)
        per_layer;
      (per_layer, walked.executed)
    end
  in
  let bad, distinct = mismatches w load ~known in
  Printf.printf "outcome check: %d distinct served outcomes recomputed, %d mismatched\n"
    distinct bad;
  let correct = bad = 0 && load.wrong = 0 && load.attempted > 0 in
  print_endline (result_line ~correct ~attempted:load.attempted ~failed:load.failed metrics)

let () =
  (* A peer closing mid-write must surface as EPIPE, not kill the run. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a =
    try parse_args ()
    with Failure msg | Arg.Bad msg ->
      prerr_endline msg;
      exit 2
  in
  match run a with
  | () -> ()
  | exception e ->
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 1
