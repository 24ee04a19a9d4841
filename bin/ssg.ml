(* ssg — command-line front end.

   Subcommands:
     run         simulate Algorithm 1 (or a baseline) on a generated run
     figure1     reproduce the paper's Figure 1
     experiment  run one experiment (F1, E1..E8, A1) or all of them
     check       build a run description and report its predicate profile
     dot         export a run's stable skeleton as Graphviz
     serve       run the ssgd simulation service on a Unix-domain socket
     route       front N ssgd workers with a consistent-hash router
     submit      send one job, a --repeat batch, or FILE... to a service
     stats       query a running ssgd's metrics (text, --json or --prom)
     trace       record a Chrome trace of a run (or pull one from ssgd)
     shutdown    gracefully stop a running ssgd (or router)
     sweep       fan an (n, k, family) grid across the engine pool *)

open Cmdliner
open Ssg_util
open Ssg_graph
open Ssg_rounds
open Ssg_skeleton
open Ssg_adversary
open Ssg_sim

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let verbose_arg =
  let doc = "Log per-round execution details to stderr." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let seed_arg =
  let doc = "Random seed (experiments are deterministic per seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let n_arg =
  let doc = "Number of processes." in
  Arg.(value & opt int 8 & info [ "n"; "processes" ] ~docv:"N" ~doc)

let k_arg =
  let doc = "Agreement parameter k." in
  Arg.(value & opt int 2 & info [ "k"; "agreement" ] ~docv:"K" ~doc)

let family_arg =
  let doc =
    "Adversary family: block-sources | partitioned | single-root | \
     lower-bound | synchronous | arbitrary | figure1."
  in
  Arg.(
    value
    & opt
        (enum
           [
             ("block-sources", `Block);
             ("partitioned", `Partitioned);
             ("single-root", `Single);
             ("lower-bound", `Lower);
             ("synchronous", `Sync);
             ("arbitrary", `Arbitrary);
             ("figure1", `Figure1);
           ])
        `Block
    & info [ "family"; "f" ] ~docv:"FAMILY" ~doc)

let prefix_arg =
  let doc = "Length of the noisy pre-stabilization prefix." in
  Arg.(value & opt int 0 & info [ "prefix" ] ~docv:"ROUNDS" ~doc)

let load_arg =
  let doc = "Load the run description from FILE instead of generating one." in
  Arg.(value & opt (some file) None & info [ "load" ] ~docv:"FILE" ~doc)

let build_adversary ?load family ~n ~k ~prefix ~seed =
  match load with
  | Some path ->
      (* Advisory lint on loaded runs: surface problems (an unsatisfiable
         Psrcs(k), near-miss edges, ...) on stderr but still run the
         scenario — watching a doomed run fail is a legitimate use. *)
      let text = In_channel.with_open_bin path In_channel.input_all in
      let advisory =
        Ssg_lint.Lint.check_text ~k text
        |> List.filter (fun d ->
               d.Ssg_lint.Diagnostic.severity <> Ssg_lint.Diagnostic.Info)
      in
      if advisory <> [] then
        prerr_string (Ssg_lint.Report.human ~file:path ~src:text advisory);
      Run_format.of_string text
  | None ->
  let rng = Rng.of_int seed in
  match family with
  | `Block -> Build.block_sources rng ~n ~k ~prefix_len:prefix ()
  | `Partitioned -> Build.partitioned rng ~n ~blocks:k ~prefix_len:prefix ()
  | `Single -> Build.single_root rng ~n ~prefix_len:prefix ()
  | `Lower -> Build.lower_bound ~n ~k
  | `Sync -> Build.synchronous ~n
  | `Arbitrary -> Build.arbitrary rng ~n ~density:0.25 ~prefix_len:prefix ()
  | `Figure1 -> Build.figure1 ()

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let print_report (r : Runner.report) =
  Printf.printf "adversary   : %s\n" r.Runner.adversary;
  Printf.printf "algorithm   : %s\n" r.Runner.algorithm;
  Printf.printf "n           : %d\n" r.Runner.n;
  Printf.printf "min_k       : %d   (least k with Psrcs(k))\n" r.Runner.min_k;
  Printf.printf "roots       : %d\n" (Analysis.root_count r.Runner.analysis);
  List.iteri
    (fun i root ->
      Printf.printf "  root %d    : %s\n" (i + 1) (Bitset.to_string root))
    (Analysis.roots r.Runner.analysis);
  let o = r.Runner.outcome in
  Printf.printf "rounds run  : %d\n" o.Executor.rounds_run;
  Printf.printf "decisions   : %s (%d distinct)\n"
    (String.concat ", " (List.map string_of_int (Executor.decision_values o)))
    (Metrics.distinct_decisions o);
  Array.iteri
    (fun p d ->
      match d with
      | Some { Executor.round; value } ->
          Printf.printf "  p%-3d      : decides %d at round %d\n" (p + 1) value round
      | None -> Printf.printf "  p%-3d      : UNDECIDED\n" (p + 1))
    o.Executor.decisions;
  Printf.printf "messages    : %d sent, %d delivered\n" o.Executor.messages_sent
    o.Executor.messages_delivered;
  Printf.printf "bits        : %d total, largest message %d bits\n"
    o.Executor.bits_sent o.Executor.max_message_bits;
  let v = Metrics.verdict ~k:r.Runner.min_k r in
  Printf.printf "verdict     : agreement=%b validity=%b termination=%b\n"
    v.Metrics.agreement v.Metrics.validity v.Metrics.termination;
  if r.Runner.violations <> [] then begin
    Printf.printf "MONITOR VIOLATIONS (%d):\n" (List.length r.Runner.violations);
    List.iter (fun s -> Printf.printf "  %s\n" s) r.Runner.violations
  end
  else Printf.printf "monitors    : clean\n"

let run_cmd =
  let monitor_arg =
    let doc = "Shadow the run with the lemma monitors (Lemmas 3-7, Thm 8)." in
    Arg.(value & flag & info [ "monitor"; "m" ] ~doc)
  in
  let baseline_arg =
    let doc = "Run a baseline instead: floodmin | flood-consensus | naive." in
    Arg.(
      value
      & opt
          (some (enum [ ("floodmin", `Floodmin); ("flood-consensus", `Cons); ("naive", `Naive) ]))
          None
      & info [ "baseline" ] ~docv:"ALG" ~doc)
  in
  let timeline_arg =
    let doc = "Render a per-round timeline of the run instead of details." in
    Arg.(value & flag & info [ "timeline"; "t" ] ~doc)
  in
  let series_arg =
    let doc = "Print per-round series sparklines (add --csv for raw data)." in
    Arg.(value & flag & info [ "series" ] ~doc)
  in
  let series_csv_arg =
    let doc = "With --series: emit CSV instead of sparklines." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let action verbose family n k prefix seed load monitor baseline timeline
      series series_csv =
    setup_logs verbose;
    let adv = build_adversary ?load family ~n ~k ~prefix ~seed in
    if series then begin
      let samples = Series.collect adv in
      if series_csv then print_string (Series.to_csv samples)
      else begin
        print_endline (Series.summary samples);
        Printf.printf "(%d rounds; --csv for raw data)\n" (List.length samples)
      end
    end
    else if timeline then begin
      print_string
        (Render.timeline adv ~rounds:(Adversary.decision_horizon adv));
      print_newline ();
      print_endline "stable skeleton:";
      print_string (Render.matrix (Adversary.stable_skeleton adv))
    end
    else
    let report =
      match baseline with
      | None -> Runner.run_kset ~monitor adv
      | Some `Floodmin ->
          let rounds = Ssg_baselines.Floodmin.rounds_for ~f:(n / 2) ~k in
          Runner.run_packed (Ssg_baselines.Floodmin.make ~rounds) adv
      | Some `Cons ->
          Runner.run_packed (Ssg_baselines.Flood_consensus.make ~f:(n / 2)) adv
      | Some `Naive ->
          Runner.run_packed (Ssg_baselines.Naive_min.make ~horizon:n) adv
    in
    print_report report
  in
  let doc = "Simulate one run and print decisions, metrics and verdicts." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const action $ verbose_arg $ family_arg $ n_arg $ k_arg $ prefix_arg
      $ seed_arg $ load_arg $ monitor_arg $ baseline_arg $ timeline_arg
      $ series_arg $ series_csv_arg)

(* ------------------------------------------------------------------ *)
(* figure1                                                             *)
(* ------------------------------------------------------------------ *)

let figure1_cmd =
  let action () =
    match Experiment.find "F1" with
    | Some e -> print_string (Experiment.run_and_render e `Standard)
    | None -> prerr_endline "internal error: F1 not registered"
  in
  let doc = "Reproduce Figure 1 (the 6-process worked example)." in
  Cmd.v (Cmd.info "figure1" ~doc) Term.(const action $ const ())

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)
(* ------------------------------------------------------------------ *)

let experiment_cmd =
  let id_arg =
    let doc = "Experiment id (F1, E1..E8, A1) or 'all'." in
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc)
  in
  let scale_arg =
    let doc = "Scale: quick | standard | full." in
    Arg.(
      value
      & opt (enum [ ("quick", `Quick); ("standard", `Standard); ("full", `Full) ]) `Standard
      & info [ "scale" ] ~docv:"SCALE" ~doc)
  in
  let csv_arg =
    let doc = "Emit the table as CSV (notes omitted)." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let action id scale csv =
    let render e =
      if csv then Experiment.run_to_csv e scale
      else Experiment.run_and_render e scale
    in
    if String.lowercase_ascii id = "all" then begin
      List.iter
        (fun e ->
          print_string (render e);
          print_newline ())
        Experiment.all;
      `Ok ()
    end
    else
      match Experiment.find id with
      | Some e ->
          print_string (render e);
          `Ok ()
      | None ->
          `Error
            ( false,
              Printf.sprintf "unknown experiment %S; known: %s, all" id
                (String.concat ", " (List.map (fun e -> e.Experiment.id) Experiment.all)) )
  in
  let doc = "Regenerate an experiment table (or all of them)." in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(ret (const action $ id_arg $ scale_arg $ csv_arg))

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let save_arg =
    let doc = "Also save the run description to FILE (ssg-run v1 format)." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let action family n k prefix seed load save =
    let adv = build_adversary ?load family ~n ~k ~prefix ~seed in
    (match save with
    | Some path ->
        Run_format.save adv path;
        Printf.printf "saved run description to %s\n" path
    | None -> ());
    let skel = Adversary.stable_skeleton adv in
    let a = Analysis.analyze skel in
    Printf.printf "adversary      : %s\n" (Adversary.name adv);
    Printf.printf "n              : %d\n" (Adversary.n adv);
    Printf.printf "prefix length  : %d\n" (Adversary.prefix_length adv);
    Printf.printf "skeleton edges : %d (self-loops included)\n"
      (Digraph.edge_count skel);
    Printf.printf "components     : %d\n" (Analysis.partition a).Scc.count;
    Printf.printf "root components: %d\n" (Analysis.root_count a);
    List.iteri
      (fun i root ->
        Printf.printf "  root %d       : %s\n" (i + 1) (Bitset.to_string root))
      (Analysis.roots a);
    let mk = Adversary.min_k adv in
    Printf.printf "min_k          : %d (Psrcs(k) holds iff k >= %d)\n" mk mk;
    let pts = Adversary.pts adv in
    (match Ssg_predicates.Predicate.psrcs_violation pts ~k:(max 1 (mk - 1)) with
    | Some s when mk > 1 ->
        Printf.printf "witness        : %s is pairwise source-disjoint (defeats k=%d)\n"
          (Bitset.to_string s) (mk - 1)
    | _ -> ());
    Printf.printf "decision bound : all processes decide by round %d (Lemma 11)\n"
      (Adversary.decision_horizon adv)
  in
  let doc = "Analyze a run description: skeleton, roots, predicate profile." in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const action $ family_arg $ n_arg $ k_arg $ prefix_arg $ seed_arg
      $ load_arg $ save_arg)

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)
(* ------------------------------------------------------------------ *)

let dot_cmd =
  let what_arg =
    let doc = "What to export: skeleton | round1 | roots." in
    Arg.(
      value
      & opt (enum [ ("skeleton", `Skeleton); ("round1", `Round1); ("roots", `Roots) ]) `Skeleton
      & info [ "what" ] ~docv:"WHAT" ~doc)
  in
  let action family n k prefix seed load what =
    let adv = build_adversary ?load family ~n ~k ~prefix ~seed in
    let out =
      match what with
      | `Skeleton ->
          Dot.of_digraph ~name:"stable_skeleton" (Adversary.stable_skeleton adv)
      | `Round1 -> Dot.of_digraph ~name:"round1" (Adversary.graph adv 1)
      | `Roots ->
          let skel = Adversary.stable_skeleton adv in
          Dot.of_digraph_with_components ~name:"roots" skel
            (Analysis.roots (Analysis.analyze skel))
    in
    print_string out
  in
  let doc = "Export a run's graphs as Graphviz DOT on stdout." in
  Cmd.v
    (Cmd.info "dot" ~doc)
    Term.(
      const action $ family_arg $ n_arg $ k_arg $ prefix_arg $ seed_arg
      $ load_arg $ what_arg)

(* ------------------------------------------------------------------ *)
(* shrink                                                              *)
(* ------------------------------------------------------------------ *)

let shrink_cmd =
  let out_arg =
    let doc = "Write the shrunk run description to FILE." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let hunt_arg =
    let doc =
      "Instead of loading a run, hunt for a Theorem 16 violation (paper        decision rule deciding more than min_k values) and shrink it."
    in
    Arg.(value & flag & info [ "hunt" ] ~doc)
  in
  let violates adv =
    let r = Runner.run_kset adv in
    Metrics.distinct_decisions r.Runner.outcome > r.Runner.min_k
  in
  let action load hunt out =
    let candidate =
      if hunt then begin
        let found = ref None in
        let i = ref 0 in
        while !found = None && !i < 5000 do
          let rng = Rng.of_int (424242 + !i) in
          let n = 6 + Rng.int rng 4 in
          let adv =
            Build.block_sources rng ~n ~k:(1 + Rng.int rng 2)
              ~prefix_len:(2 + Rng.int rng 3) ~noise:0.5 ()
          in
          if violates adv then found := Some adv;
          incr i
        done;
        !found
      end
      else
        Option.map
          (fun path ->
            let adv = Run_format.load path in
            let advisory =
              Ssg_lint.Lint.check adv
              |> List.filter (fun d ->
                     d.Ssg_lint.Diagnostic.severity
                     = Ssg_lint.Diagnostic.Warning)
            in
            if advisory <> [] then
              prerr_string (Ssg_lint.Report.human ~file:path advisory);
            adv)
          load
    in
    match candidate with
    | None ->
        `Error
          (false, "nothing to shrink: pass --load FILE or --hunt")
    | Some adv ->
        if not (violates adv) then
          `Error (false, "the loaded run does not violate Theorem 16 at min_k")
        else begin
          Printf.printf "input : n=%d prefix=%d (size %d)\n" (Adversary.n adv)
            (Adversary.prefix_length adv) (Shrink.size adv);
          let shrunk, checks = Shrink.minimize violates adv in
          Printf.printf "shrunk: n=%d prefix=%d (size %d) after %d checks\n\n"
            (Adversary.n shrunk)
            (Adversary.prefix_length shrunk)
            (Shrink.size shrunk) checks;
          print_string (Run_format.to_string shrunk);
          (match out with
          | Some path ->
              Run_format.save shrunk path;
              Printf.printf "\nwritten to %s\n" path
          | None -> ());
          `Ok ()
        end
  in
  let doc =
    "Minimize a Theorem 16 counterexample (QuickCheck-style shrinking over      run descriptions)."
  in
  Cmd.v
    (Cmd.info "shrink" ~doc)
    Term.(ret (const action $ load_arg $ hunt_arg $ out_arg))

(* ------------------------------------------------------------------ *)
(* timing                                                              *)
(* ------------------------------------------------------------------ *)

let timing_cmd =
  let clusters_arg =
    let doc = "Number of latency clusters (fast links inside, slow across)." in
    Arg.(value & opt int 3 & info [ "clusters" ] ~docv:"C" ~doc)
  in
  let tau_arg =
    let doc = "Round timeout (same for every process)." in
    Arg.(value & opt float 1.0 & info [ "tau" ] ~docv:"T" ~doc)
  in
  let action n clusters tau seed =
    let assign = Array.init n (fun p -> p mod clusters) in
    let latency =
      Ssg_timing.Latency.clustered ~assign
        ~intra:(Ssg_timing.Latency.uniform ~seed ~lo:0.1 ~hi:0.5)
        ~inter:(Ssg_timing.Latency.uniform ~seed:(seed + 1) ~lo:0.5 ~hi:3.0)
    in
    let r =
      Ssg_timing.Round_sync.run_kset
        ~timeouts:(Array.make n tau)
        ~inputs:(Array.init n (fun p -> p))
        ~latency ~max_rounds:(3 * n) ()
    in
    let skel = Skeleton.final r.Ssg_timing.Round_sync.trace in
    let a = Analysis.analyze skel in
    Printf.printf
      "n=%d clusters=%d tau=%.2f: %d rounds simulated, final time %.2f
" n
      clusters tau r.Ssg_timing.Round_sync.rounds
      r.Ssg_timing.Round_sync.final_time;
    Printf.printf "induced skeleton: %d edges, %d root component(s), min_k=%d
"
      (Digraph.edge_count skel) (Analysis.root_count a)
      (Ssg_predicates.Predicate.min_k (Ssg_predicates.Predicate.of_skeleton skel));
    Printf.printf "messages: %d sent, %d consumed, %d late-dropped
"
      r.Ssg_timing.Round_sync.messages_sent
      r.Ssg_timing.Round_sync.messages_delivered
      r.Ssg_timing.Round_sync.messages_late;
    Array.iteri
      (fun p d ->
        match d with
        | Some { Ssg_timing.Round_sync.round; value } ->
            Printf.printf "  p%-3d decides %d at local round %d
" (p + 1)
              value round
        | None -> Printf.printf "  p%-3d undecided
" (p + 1))
      r.Ssg_timing.Round_sync.decisions;
    print_newline ();
    print_endline "induced stable skeleton:";
    print_string (Render.matrix skel)
  in
  let doc =
    "Run Algorithm 1 on the discrete-event timing substrate (latency      clusters; predicates are emergent)."
  in
  Cmd.v
    (Cmd.info "timing" ~doc)
    Term.(const action $ n_arg $ clusters_arg $ tau_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* service mode: serve / submit / stats / shutdown                     *)
(* ------------------------------------------------------------------ *)

(* Every flag that names a service endpoint goes through the one shared
   parser, so unix:PATH, tcp:HOST:PORT and bare paths mean the same
   thing on every surface and a typo is caught at the command line, not
   as a confusing connect error. *)
let addr_conv =
  let parse s =
    match Ssg_net.Transport.of_string s with
    | Ok _ -> Ok s
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Format.pp_print_string)

(* Run a serving command until it shuts down.  A startup failure ends
   it with one line and a non-zero exit: a bind failure names the
   address ("ssg: unix:/tmp/ssgd.sock: Address already in use"), a bad
   parameter says which, instead of an uncaught-exception dump. *)
let serving addr serve =
  match serve () with
  | () -> `Ok ()
  | exception Unix.Unix_error (e, ("bind" | "listen" | "socket"), _) ->
      `Error (false, Printf.sprintf "%s: %s" addr (Unix.error_message e))
  | exception Invalid_argument msg -> `Error (false, msg)

(* Run a client command's exchange with the service at [sockets].  An
   address nothing listens on, a connection dropped mid-exchange, an
   exceeded deadline or an [Error] reply ends the command the way
   [serving] does: one line naming the address
   ("ssg: /tmp/ssgd.sock: No such file or directory"), non-zero exit. *)
let with_client ?deadline_s sockets f =
  let addr = String.concat ", " sockets in
  match Ssg_engine.Client.connect_any ?deadline_s ~sockets () with
  | exception Unix.Unix_error (e, _, _) ->
      `Error (false, Printf.sprintf "%s: %s" addr (Unix.error_message e))
  | c -> (
      match
        Fun.protect ~finally:(fun () -> Ssg_engine.Client.close c) (fun () ->
            f c)
      with
      | ret -> ret
      | exception Unix.Unix_error (e, _, _) ->
          `Error (false, Printf.sprintf "%s: %s" addr (Unix.error_message e))
      | exception Failure msg ->
          `Error (false, Printf.sprintf "%s: %s" addr msg))

let socket_arg =
  let doc =
    "Address of the ssgd service: $(b,unix:PATH), $(b,tcp:HOST:PORT), or a      bare Unix-socket path."
  in
  Arg.(
    value
    & opt addr_conv
        (Filename.concat (Filename.get_temp_dir_name ()) "ssgd.sock")
    & info [ "socket"; "s" ] ~docv:"ADDR" ~doc)

let serve_cmd =
  let workers_arg =
    let doc = "Worker domains (default: all cores but one, at least 1)." in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"W" ~doc)
  in
  let queue_arg =
    let doc = "Job queue capacity (submissions block when full)." in
    Arg.(value & opt int 64 & info [ "queue-cap" ] ~docv:"JOBS" ~doc)
  in
  let cache_arg =
    let doc = "LRU result-cache capacity in entries (0 disables)." in
    Arg.(value & opt int 1024 & info [ "cache-cap" ] ~docv:"ENTRIES" ~doc)
  in
  let max_conn_arg =
    let doc =
      "Maximum concurrent client connections; extra connections are        refused with an error reply."
    in
    Arg.(value & opt int 256 & info [ "max-connections" ] ~docv:"N" ~doc)
  in
  let max_inflight_arg =
    let doc =
      "Pipelined (id-framed) requests running concurrently per        connection; past the cap the connection's reader serves requests        inline, back-pressuring the client."
    in
    Arg.(value & opt int 32 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let read_timeout_arg =
    let doc =
      "Per-connection read timeout in seconds — half-open or stalled        clients are reaped after this long (0 disables)."
    in
    Arg.(value & opt float 30. & info [ "read-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let drain_timeout_arg =
    let doc =
      "On shutdown, idle connections close at once; wait at most this        long for requests already read to be answered before abandoning        their connections."
    in
    Arg.(value & opt float 5. & info [ "drain-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let chaos_arg =
    let doc =
      "Fault-injection plan (chaos mode): comma-separated        crash:N | slow:N | slow:N@MS | corrupt:N | truncate:N |        blackhole:N | torn-write:N — every N-th job execution crashes /        sleeps MS milliseconds, every N-th reply frame is corrupted /        truncated / silently swallowed (a simulated partition), every        N-th journal append is torn mid-record.  'off' disables."
    in
    Arg.(value & opt string "off" & info [ "chaos" ] ~docv:"PLAN" ~doc)
  in
  let trace_arg =
    let doc =
      "Enable in-process tracing: engine phases and reply writes are        recorded into ring buffers a client can pull with $(b,ssg trace        --fleet)."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let persist_arg =
    let doc =
      "Directory of the durable result store.  The cache is pre-warmed        from it at boot (warm boot) and every fresh outcome is journaled;        a torn tail from a crashed writer is recovered to the longest        valid prefix and truncated."
    in
    Arg.(value & opt (some string) None & info [ "persist" ] ~docv:"DIR" ~doc)
  in
  let fsync_arg =
    let doc =
      "Journal fsync policy: $(b,always), $(b,never), or $(b,group:N)        (group commit — one fsync per N records)."
    in
    Arg.(value & opt string "group:8" & info [ "fsync" ] ~docv:"POLICY" ~doc)
  in
  let compact_bytes_arg =
    let doc =
      "Bytes appended to the journal beyond which the store compacts: the        live cache becomes the first records of the next generation's        journal.  After a restart the whole journal counts."
    in
    Arg.(
      value
      & opt int (4 * 1024 * 1024)
      & info [ "compact-bytes" ] ~docv:"BYTES" ~doc)
  in
  let announce_arg =
    let doc =
      "Router address ($(b,ssg route)'s socket) to announce this worker        to once it is listening: the router admits it into the hash ring        and streams it the hot keys it now owns (warm handoff).  A        best-effort Leave is sent at shutdown."
    in
    Arg.(
      value & opt (some addr_conv) None & info [ "announce" ] ~docv:"ADDR" ~doc)
  in
  let action verbose socket workers queue_cap cache_cap max_connections
      max_inflight read_timeout drain_timeout chaos trace persist fsync
      compact_bytes announce =
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.App));
    match Ssg_engine.Faults.of_spec chaos with
    | Error msg -> `Error (false, "--chaos: " ^ msg)
    | Ok faults -> (
        match Ssg_store.Store.sync_of_string fsync with
        | Error msg -> `Error (false, "--fsync: " ^ msg)
        | Ok persist_sync ->
            serving socket (fun () ->
                Ssg_engine.Server.serve ?workers ~queue_capacity:queue_cap
                  ~cache_capacity:cache_cap ~max_connections ~max_inflight
                  ~read_timeout_s:read_timeout ~drain_timeout_s:drain_timeout
                  ~faults ~trace ?persist ~persist_sync
                  ~persist_compact_bytes:compact_bytes ?announce ~socket ()))
  in
  let doc =
    "Run the ssgd simulation service: a persistent engine with a domain      worker pool, job dedup and an LRU result cache, served over a      Unix-domain or TCP socket.  Blocks until a client sends shutdown.      With $(b,--persist) the cache survives restarts (one journal      file per generation, crash-safe); with $(b,--announce) the worker joins a      router's hash ring at boot instead of being pre-listed."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const action $ verbose_arg $ socket_arg $ workers_arg $ queue_arg
        $ cache_arg $ max_conn_arg $ max_inflight_arg $ read_timeout_arg
        $ drain_timeout_arg $ chaos_arg $ trace_arg $ persist_arg $ fsync_arg
        $ compact_bytes_arg $ announce_arg))

let route_cmd =
  let backend_arg =
    let doc =
      "Address of one backend ssgd worker — $(b,unix:PATH),        $(b,tcp:HOST:PORT), or a bare path (repeatable).  Jobs are        placed on backends by consistent hashing of their cache key, so        each worker keeps its cache hit rate.  May be omitted entirely:        workers started with $(b,--announce) join the ring at runtime."
    in
    Arg.(value & opt_all addr_conv [] & info [ "backend"; "b" ] ~docv:"ADDR" ~doc)
  in
  let vnodes_arg =
    let doc = "Virtual nodes per backend on the hash ring." in
    Arg.(
      value
      & opt int Ssg_cluster.Ring.default_vnodes
      & info [ "vnodes" ] ~docv:"N" ~doc)
  in
  let down_after_arg =
    let doc =
      "Consecutive probe/forward failures before a backend leaves the        ring (one healthy exchange re-admits it)."
    in
    Arg.(value & opt int 3 & info [ "down-after" ] ~docv:"N" ~doc)
  in
  let probe_interval_arg =
    let doc =
      "Seconds between health probes: a stats request on each backend's        link, failed if unanswered after 1 s."
    in
    Arg.(value & opt float 1. & info [ "probe-interval" ] ~docv:"SECONDS" ~doc)
  in
  let request_timeout_arg =
    let doc =
      "Reply deadline of each forwarded request: one left unanswered this        long fails over on its own, and a backend link quiet this long        with requests outstanding fails with every job in flight on it —        a mute backend becomes a failover, not a hang."
    in
    Arg.(value & opt float 30. & info [ "request-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let max_conn_arg =
    let doc = "Maximum concurrent client connections on the front socket." in
    Arg.(value & opt int 256 & info [ "max-connections" ] ~docv:"N" ~doc)
  in
  let max_inflight_arg =
    let doc =
      "Pipelined (id-framed) requests running concurrently per front        connection."
    in
    Arg.(value & opt int 32 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let read_timeout_arg =
    let doc = "Per-connection read timeout on the front socket (0 disables)." in
    Arg.(value & opt float 30. & info [ "read-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let drain_timeout_arg =
    let doc =
      "On shutdown, idle connections close at once; wait at most this        long for requests already read to be answered before abandoning        their connections."
    in
    Arg.(value & opt float 5. & info [ "drain-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let trace_arg =
    let doc =
      "Enable in-process tracing: routing spans and failover instants,        pullable with $(b,ssg trace --fleet)."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let action verbose socket backends vnodes down_after probe_interval
      request_timeout max_connections max_inflight read_timeout drain_timeout
      trace =
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.App));
    serving socket (fun () ->
        Ssg_cluster.Router.serve ~vnodes ~down_after
          ~probe_interval_s:probe_interval ~request_timeout_s:request_timeout
          ~max_connections ~max_inflight ~read_timeout_s:read_timeout
          ~drain_timeout_s:drain_timeout ~trace ~backends ~socket ())
  in
  let doc =
    "Front N independent ssgd workers with one routing socket: clients      speak the ordinary ssgd protocol to it, jobs are sharded over the      workers by consistent hashing of their cache keys, a health-probed      registry takes dead workers out of the ring, and failed forwards      retry on the successor shard.  Stats and metrics are merged across      the fleet."
  in
  Cmd.v
    (Cmd.info "route" ~doc)
    Term.(
      ret
        (const action $ verbose_arg $ socket_arg $ backend_arg $ vnodes_arg
        $ down_after_arg $ probe_interval_arg $ request_timeout_arg
        $ max_conn_arg $ max_inflight_arg $ read_timeout_arg $ drain_timeout_arg
        $ trace_arg))

let submit_cmd =
  let monitor_arg =
    let doc = "Shadow the run with the lemma monitors (Algorithm 1 only)." in
    Arg.(value & flag & info [ "monitor"; "m" ] ~doc)
  in
  let algorithm_arg =
    let doc =
      "Algorithm: kset | floodmin | flood-consensus | naive-min."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("kset", Ssg_engine.Job.Kset);
               ("floodmin", Ssg_engine.Job.Floodmin);
               ("flood-consensus", Ssg_engine.Job.Flood_consensus);
               ("naive-min", Ssg_engine.Job.Naive_min);
             ])
          Ssg_engine.Job.Kset
      & info [ "algorithm"; "a" ] ~docv:"ALG" ~doc)
  in
  let rounds_arg =
    let doc = "Round budget (default: the run's decision horizon)." in
    Arg.(value & opt (some int) None & info [ "rounds" ] ~docv:"R" ~doc)
  in
  let repeat_arg =
    let doc =
      "Submit the job description COUNT times, varying the seed, as COUNT        jobs in flight at once on one connection — a quick way to exercise        the worker pool and the cache from the command line."
    in
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"COUNT" ~doc)
  in
  let quiet_arg =
    let doc = "Print only the one-line per-job summary." in
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-request deadline in seconds: fail instead of waiting forever on        an unresponsive server."
    in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let sockets_arg =
    let doc =
      "Address of the ssgd service or router — $(b,unix:PATH),        $(b,tcp:HOST:PORT), or a bare path (repeatable: with several, each        connection attempt walks the list in order and fails over to the        next address)."
    in
    Arg.(value & opt_all addr_conv [] & info [ "socket"; "s" ] ~docv:"ADDR" ~doc)
  in
  let files_arg =
    let doc =
      "Run description files to submit, all in flight at once on one        connection (per-file result lines; exit 1 if any file fails to        parse or errors server-side).  Without files, a run is generated        from the $(b,run)-style options instead."
    in
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let default_socket =
    Filename.concat (Filename.get_temp_dir_name ()) "ssgd.sock"
  in
  let summarize_completion label completion =
    let open Ssg_engine.Job in
    match completion.result with
    | Ok o ->
        Printf.printf
          "%s: %d distinct decision(s), min_k=%d, %d rounds  [%s, %.2f ms]\n"
          label o.distinct_decisions o.min_k o.rounds_run
          (if completion.cached then "cache" else "computed")
          completion.latency_ms;
        true
    | Error msg ->
        Printf.printf "%s: ERROR %s\n" label msg;
        false
  in
  (* Every job in flight at once on the one connection, completions in
     job order.  A server's [Error] (a lint rejection) fails only its own
     job, as an error completion; a connection that failed ends the
     command. *)
  let submit_all c jobs =
    List.map (Ssg_engine.Client.submit_async c) jobs
    |> List.map (fun ticket ->
           match Ssg_engine.Client.await ticket with
           | Ok completion -> completion
           | Error msg when Ssg_engine.Client.alive c ->
               {
                 Ssg_engine.Job.result = Error msg;
                 cached = false;
                 latency_ms = 0.;
               }
           | Error msg -> failwith msg)
  in
  let action sockets family n k prefix seed load algorithm rounds monitor
      repeat quiet deadline_s files =
    let sockets = if sockets = [] then [ default_socket ] else sockets in
    let with_client f = with_client ?deadline_s sockets f in
    if files <> [] then begin
      if repeat > 1 then
        `Error (false, "--repeat cannot be combined with FILE arguments")
      else begin
        (* Parse every file first: a malformed description costs only its
           own result line, never the batch. *)
        let parsed =
          List.map
            (fun file ->
              let text = In_channel.with_open_bin file In_channel.input_all in
              match Run_format.of_string text with
              | adv ->
                  (file, Ok (Ssg_engine.Job.make ~algorithm ~k ?rounds ~monitor adv))
              | exception Failure msg -> (file, Error msg)
              | exception Invalid_argument msg -> (file, Error msg))
            files
        in
        let jobs = List.filter_map (fun (_, r) -> Result.to_option r) parsed in
        (* Reassemble in file order: parse failures kept their slot. *)
        let report completions =
          let ok = ref true in
          let remaining = ref completions in
          List.iter
            (fun (file, r) ->
              match r with
              | Error msg ->
                  Printf.printf "%s: PARSE ERROR %s\n" file msg;
                  ok := false
              | Ok _ -> (
                  match !remaining with
                  | completion :: rest ->
                      remaining := rest;
                      if not (summarize_completion file completion) then ok := false
                  | [] ->
                      Printf.printf "%s: ERROR no reply\n" file;
                      ok := false))
            parsed;
          if not !ok then Stdlib.exit 1;
          `Ok ()
        in
        match jobs with
        | [] -> report []
        | jobs ->
            with_client (fun c -> report (submit_all c jobs))
      end
    end
    else if repeat < 1 then `Error (false, "--repeat must be >= 1")
    else begin
      let job_of_seed seed =
        let adv = build_adversary ?load family ~n ~k ~prefix ~seed in
        Ssg_engine.Job.make ~algorithm ~k ?rounds ~monitor adv
      in
      let jobs = List.init repeat (fun i -> job_of_seed (seed + i)) in
      with_client (fun c ->
          let completions =
            match jobs with
            | [ job ] -> [ Ssg_engine.Client.submit c job ]
            | jobs -> submit_all c jobs
          in
          List.iteri
            (fun i completion ->
              if quiet || repeat > 1 then
                ignore
                  (summarize_completion (Printf.sprintf "job %-3d" (i + 1))
                     completion)
              else Format.printf "%a" Ssg_engine.Job.pp_completion completion)
            completions;
          `Ok ())
    end
  in
  let doc =
    "Submit work to a running ssgd service (or cluster router): either one      generated run (same options as $(b,run), $(b,--repeat) for many), or      run description FILEs, all in flight at once on one connection."
  in
  Cmd.v
    (Cmd.info "submit" ~doc)
    Term.(
      ret
        (const action $ sockets_arg $ family_arg $ n_arg $ k_arg $ prefix_arg
        $ seed_arg $ load_arg $ algorithm_arg $ rounds_arg $ monitor_arg
        $ repeat_arg $ quiet_arg $ deadline_arg $ files_arg))

let stats_cmd =
  let json_arg =
    let doc = "Emit the snapshot as a JSON object." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let prom_arg =
    let doc =
      "Emit Prometheus text exposition (rendered server-side, including        the per-phase latency histograms)."
    in
    Arg.(value & flag & info [ "prom" ] ~doc)
  in
  let action socket json prom =
    if json && prom then `Error (false, "--json and --prom are exclusive")
    else
      with_client [ socket ] (fun c ->
          if prom then print_string (Ssg_engine.Client.metrics_text c)
          else begin
            let snapshot = Ssg_engine.Client.stats c in
            if json then
              print_endline (Ssg_engine.Telemetry.json_of_snapshot snapshot)
            else Format.printf "%a" Ssg_engine.Telemetry.pp_snapshot snapshot
          end;
          `Ok ())
  in
  let doc =
    "Print a running ssgd service's metrics snapshot (human-readable,      $(b,--json), or Prometheus $(b,--prom))."
  in
  Cmd.v
    (Cmd.info "stats" ~doc)
    Term.(ret (const action $ socket_arg $ json_arg $ prom_arg))

let trace_cmd =
  let file_arg =
    let doc =
      "Run description to trace locally (omit when pulling with        $(b,--fleet))."
    in
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Write the Chrome trace JSON to $(docv) (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let k_opt_arg =
    let doc =
      "Agreement parameter for the traced job (default: the run's min_k,        which always passes the engine's lint front door)."
    in
    Arg.(value & opt (some int) None & info [ "k" ] ~docv:"K" ~doc)
  in
  let rounds_arg =
    let doc = "Round budget (default: the run's decision horizon)." in
    Arg.(value & opt (some int) None & info [ "rounds" ] ~docv:"R" ~doc)
  in
  let fleet_arg =
    let doc =
      "Pull a stitched fleet trace: ask the service at $(b,--socket) (or        the gateway at $(b,--gateway)) for per-process tracer reports (a        router relays the pull to every backend) and emit one Chrome trace        with per-process tracks, clock-aligned timestamps and        cross-process flow arrows."
    in
    Arg.(value & flag & info [ "fleet" ] ~doc)
  in
  let gateway_arg =
    let doc =
      "With $(b,--fleet): fetch $(docv)/trace instead of pulling over        $(b,--socket) — the HTTP gateway answers the stitched document of        itself and every process behind it, pulled through its own        backend."
    in
    Arg.(value & opt (some string) None & info [ "gateway" ] ~docv:"URL" ~doc)
  in
  let check_arg =
    let doc =
      "Print the audit of the emitted document before writing it: its        event, process and cross-process link counts, and any ends the        ring buffer truncated, spans still in flight or events the        processes' rings dropped.  Every document        is audited (well-formed JSON, known phases, begin/end counted per        track); one the audit rejects is an error, not a trace file."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  (* Minimal HTTP GET of the gateway's /trace endpoint — the stitched
     document of the gateway and every process behind it; raises
     Failure with a printable reason. *)
  let fetch_gateway_trace url =
    let rest =
      let p = "http://" in
      if
        String.length url >= String.length p
        && String.lowercase_ascii (String.sub url 0 (String.length p)) = p
      then String.sub url (String.length p) (String.length url - String.length p)
      else url
    in
    let hostport =
      match String.index_opt rest '/' with
      | Some i -> String.sub rest 0 i
      | None -> rest
    in
    let fd =
      Ssg_net.Transport.connect
        (Ssg_net.Transport.of_string_exn ("tcp:" ^ hostport))
    in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let req =
          Printf.sprintf
            "GET /trace HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n"
            hostport
        in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let buf = Buffer.create 8192 in
        let chunk = Bytes.create 8192 in
        let rec drain () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
        in
        drain ();
        let s = Buffer.contents buf in
        let limit = String.length s - 3 in
        let rec find i =
          if i >= limit then None
          else if String.sub s i 4 = "\r\n\r\n" then Some (i + 4)
          else find (i + 1)
        in
        match find 0 with
        | None -> failwith ("no HTTP reply from gateway " ^ url)
        | Some off -> (
            let body = String.sub s off (String.length s - off) in
            (* "HTTP/1.1 200 ..." *)
            if String.length s > 12 && String.sub s 9 3 = "200" then body
            else failwith (Printf.sprintf "gateway %s: %s" url body)))
  in
  let action verbose socket file out fleet gateway check k rounds =
    setup_logs verbose;
    (* Every document is audited before it is written: the audit counts
       its events, and a document it rejects (say, a gateway's error
       body) is an error, not a trace file.  --check prints the audit. *)
    let finish json =
      match Ssg_obs.Stitch.audit_string json with
      | Error msg -> `Error (false, "trace check failed: " ^ msg)
      | Ok (a : Ssg_obs.Stitch.audit) ->
          if check then begin
            Printf.printf
              "trace ok: %d event(s), %d process(es), %d cross-process \
               link(s)\n"
              a.events a.processes (List.length a.links);
            if a.truncated_ends > 0 || a.open_spans > 0 then
              Printf.printf
                "  (%d end(s) truncated by the ring buffer, %d span(s) still \
                 in flight)\n"
                a.truncated_ends a.open_spans;
            if a.dropped_events > 0 then
              Printf.printf
                "  (%d event(s) dropped by ring wrap-around before the pull)\n"
                a.dropped_events
          end;
          (match out with
          | None -> print_endline json
          | Some path ->
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_string oc json);
              Printf.printf "wrote %d trace events to %s\n" a.events path);
          `Ok ()
    in
    if fleet then
      match gateway with
      | Some url -> (
          match fetch_gateway_trace url with
          | json -> finish json
          | exception Failure msg -> `Error (false, msg)
          | exception Unix.Unix_error (e, _, _) ->
              `Error (false, Printf.sprintf "%s: %s" url (Unix.error_message e)))
      | None ->
          with_client [ socket ] (fun c ->
              finish
                (Ssg_obs.Stitch.chrome_of_reports
                   (Ssg_engine.Client.trace_pull c)))
    else
      match file with
      | None ->
          `Error
            (false, "pass a run description FILE, or --fleet to pull a live trace")
      | Some path ->
          let adv = Run_format.load path in
          let k = match k with Some k -> k | None -> Adversary.min_k adv in
          (* Trace an in-process engine end to end: cache off so the job
             really executes, one worker so the execution track is one
             clean lane next to the submit track. *)
          Ssg_obs.Tracer.reset ();
          Ssg_obs.Tracer.set_enabled true;
          let engine =
            Ssg_engine.Engine.create ~workers:1 ~queue_capacity:4
              ~cache_capacity:0 ()
          in
          let job =
            Ssg_engine.Job.make ~algorithm:Ssg_engine.Job.Kset ~k ?rounds
              ~monitor:false adv
          in
          let result = Ssg_engine.Engine.run engine job in
          Ssg_engine.Engine.shutdown engine;
          Ssg_obs.Tracer.set_enabled false;
          (match result with
          | Error msg | Ok { Ssg_engine.Job.result = Error msg; _ } ->
              `Error (false, msg)
          | Ok _ ->
              finish
                (Ssg_obs.Stitch.chrome_of_reports
                   [ Ssg_obs.Tracer.report_here ~role:"ssg" () ]))
  in
  let doc =
    "Record a Chrome trace-event JSON file (chrome://tracing,      ui.perfetto.dev) of one run executed through the engine — engine      phase spans plus per-round simulation events — pull the trace      buffers of a live ssgd, or of a router or gateway and its whole fleet,      into one stitched document with $(b,--fleet)."
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      ret
        (const action $ verbose_arg $ socket_arg $ file_arg $ out_arg
        $ fleet_arg $ gateway_arg $ check_arg $ k_opt_arg
        $ rounds_arg))

let shutdown_cmd =
  let action socket =
    with_client [ socket ] (fun c ->
        Ssg_engine.Client.shutdown c;
        print_endline "ssgd acknowledged shutdown";
        `Ok ())
  in
  let doc = "Gracefully stop a running ssgd service." in
  Cmd.v (Cmd.info "shutdown" ~doc) Term.(ret (const action $ socket_arg))

let compact_cmd =
  let action socket =
    with_client [ socket ] (fun c ->
        let n = Ssg_engine.Client.compact c in
        Printf.printf "compacted: %d record(s) in the new snapshot\n" n;
        `Ok ())
  in
  let doc =
    "Roll the durable store's generation: the live cache becomes the      first records of the next generation's journal, and the old      journal is deleted.  Against a router, fans out to every up worker      and prints the summed record count; against a worker without      $(b,--persist), prints 0."
  in
  Cmd.v (Cmd.info "compact" ~doc) Term.(ret (const action $ socket_arg))

(* ------------------------------------------------------------------ *)
(* gateway / loadgen                                                   *)
(* ------------------------------------------------------------------ *)

let gateway_cmd =
  let listen_arg =
    let doc =
      "Address the HTTP gateway listens on: $(b,tcp:HOST:PORT) or        $(b,unix:PATH)."
    in
    Arg.(
      value
      & opt addr_conv "tcp:127.0.0.1:8080"
      & info [ "listen"; "l" ] ~docv:"ADDR" ~doc)
  in
  let backend_arg =
    let doc =
      "Native-protocol backend the gateway fronts (an ssgd worker or a        router)."
    in
    Arg.(
      value
      & opt addr_conv
          (Filename.concat (Filename.get_temp_dir_name ()) "ssgd.sock")
      & info [ "backend"; "b" ] ~docv:"ADDR" ~doc)
  in
  let max_conn_arg =
    let doc = "Maximum concurrent HTTP connections." in
    Arg.(value & opt int 1024 & info [ "max-connections" ] ~docv:"N" ~doc)
  in
  let read_timeout_arg =
    let doc = "Per-connection HTTP read timeout in seconds (0 disables)." in
    Arg.(value & opt float 30. & info [ "read-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let drain_timeout_arg =
    let doc =
      "On shutdown, idle connections close at once; wait at most this        long for requests already read to be answered before abandoning        their connections."
    in
    Arg.(value & opt float 5. & info [ "drain-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let trace_arg =
    let doc =
      "Enable in-process tracing: every request gets a        $(b,gateway.request) span whose context propagates to the backend        (traceparent in, traceparent out).  $(b,GET /trace) answers the        stitched trace of the gateway and every process behind it, the        document $(b,ssg trace --fleet --gateway) fetches."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let action verbose listen backend max_connections read_timeout
      drain_timeout trace =
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.App));
    serving listen (fun () ->
        Ssg_gateway.Gateway.serve ~max_connections
          ~read_timeout_s:read_timeout ~drain_timeout_s:drain_timeout ~trace
          ~listen ~backend ())
  in
  let doc =
    "Serve an HTTP/JSON front door over a native ssgd or router backend:      POST /submit (run text body, k/algorithm/rounds/monitor query      parameters), GET /stats, GET /metrics (Prometheus), GET /trace      (the stitched fleet trace), GET /healthz, POST /shutdown.  All backend traffic shares one      pipelined connection, on which a request left unanswered for 30 s      is a 502."
  in
  Cmd.v
    (Cmd.info "gateway" ~doc)
    Term.(
      ret
        (const action $ verbose_arg $ listen_arg $ backend_arg
        $ max_conn_arg $ read_timeout_arg $ drain_timeout_arg $ trace_arg))

let loadgen_cmd =
  let target_arg =
    let doc = "Native-protocol endpoint to drive (worker or router)." in
    Arg.(
      value
      & opt addr_conv
          (Filename.concat (Filename.get_temp_dir_name ()) "ssgd.sock")
      & info [ "target"; "t" ] ~docv:"ADDR" ~doc)
  in
  let connections_arg =
    let doc = "Concurrent connections to hold open." in
    Arg.(value & opt int 100 & info [ "connections"; "c" ] ~docv:"N" ~doc)
  in
  let duration_arg =
    let doc = "How long to drive load, in seconds." in
    Arg.(value & opt float 10. & info [ "duration"; "d" ] ~docv:"SECONDS" ~doc)
  in
  let threads_arg =
    let doc =
      "Driver threads; each owns an equal slice of the connections        (default: min(connections, 8))."
    in
    Arg.(value & opt (some int) None & info [ "threads" ] ~docv:"T" ~doc)
  in
  let pipeline_arg =
    let doc = "In-flight pipelined requests per connection (closed-loop)." in
    Arg.(value & opt int 1 & info [ "pipeline"; "p" ] ~docv:"M" ~doc)
  in
  let rate_arg =
    let doc =
      "Open-loop mode: schedule this many requests/second in aggregate        and measure latency from the scheduled send time (0 = closed-loop)."
    in
    Arg.(value & opt float 0. & info [ "rate" ] ~docv:"RPS" ~doc)
  in
  let mix_arg =
    let doc =
      "Job mix as cached:uncached:lint-error integer weights.  Lint-error        jobs are expected to be rejected; a rejection is not an error."
    in
    Arg.(value & opt string "8:1:1" & info [ "mix" ] ~docv:"C:U:L" ~doc)
  in
  let deadline_arg =
    let doc = "Per-connection reply deadline; a miss counts as an error." in
    Arg.(value & opt float 30. & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let slo_arg =
    let doc =
      "SLO gate like $(b,p99<250ms) (repeatable).  Any violation — or any        client-visible error — makes the command exit non-zero."
    in
    Arg.(value & opt_all string [] & info [ "slo" ] ~docv:"SPEC" ~doc)
  in
  let json_arg =
    let doc = "Emit the report as a JSON object instead of the table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let trace_top_arg =
    let doc =
      "Originate a trace context on every request and report the trace        ids of the $(docv) slowest — grep for them in a stitched fleet        trace ($(b,ssg trace --fleet)) to see where a tail request spent        its time.  0 disables sampling."
    in
    Arg.(value & opt int 0 & info [ "trace-top" ] ~docv:"N" ~doc)
  in
  let parse_mix s =
    match String.split_on_char ':' s with
    | [ c; u; l ] -> (
        match
          (int_of_string_opt c, int_of_string_opt u, int_of_string_opt l)
        with
        | Some cached, Some uncached, Some lint_error
          when cached >= 0 && uncached >= 0 && lint_error >= 0
               && cached + uncached + lint_error > 0 ->
            Ok { Ssg_gateway.Loadgen.cached; uncached; lint_error }
        | _ -> Error (Printf.sprintf "bad --mix %S" s))
    | _ -> Error (Printf.sprintf "bad --mix %S (expected C:U:L)" s)
  in
  let parse_slos specs =
    List.fold_left
      (fun acc spec ->
        match (acc, Ssg_gateway.Loadgen.slo_of_string spec) with
        | Error e, _ -> Error e
        | Ok slos, Ok slo -> Ok (slo :: slos)
        | Ok _, Error e -> Error e)
      (Ok []) specs
  in
  let action verbose target connections duration threads pipeline rate mix
      deadline slos json trace_top =
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.App));
    match (parse_mix mix, parse_slos slos) with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok mix, Ok slos -> (
        match
          Ssg_gateway.Loadgen.run ?threads ~pipeline ~rate ~mix
            ~deadline_s:deadline ~slos ~trace_top ~connections
            ~duration_s:duration ~target ()
        with
        | exception Invalid_argument msg -> `Error (false, msg)
        | report ->
            if json then
              print_endline (Ssg_gateway.Loadgen.to_json report)
            else Format.printf "%a" Ssg_gateway.Loadgen.pp report;
            if report.Ssg_gateway.Loadgen.slo_violations <> [] then
              Stdlib.exit 1
            else `Ok ())
  in
  let doc =
    "Drive synthetic load — thousands of concurrent pipelined connections      with a configurable cached/uncached/lint-error job mix — against a      worker or router, report latency percentiles and error counts, and      exit non-zero when an $(b,--slo) gate is violated or any      client-visible error occurred."
  in
  Cmd.v
    (Cmd.info "loadgen" ~doc)
    Term.(
      ret
        (const action $ verbose_arg $ target_arg $ connections_arg
        $ duration_arg $ threads_arg $ pipeline_arg $ rate_arg $ mix_arg
        $ deadline_arg $ slo_arg $ json_arg $ trace_top_arg))

(* ------------------------------------------------------------------ *)
(* lint                                                                *)
(* ------------------------------------------------------------------ *)

let lint_cmd =
  let files_arg =
    let doc = "Run description files to lint." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let k_opt_arg =
    let doc =
      "Agreement parameter to check Psrcs($(docv)) satisfiability against \
       (unsatisfiable = error SSG001).  Without it, satisfiability is \
       reported as info only."
    in
    Arg.(value & opt (some int) None & info [ "k" ] ~docv:"K" ~doc)
  in
  let json_arg =
    let doc = "Emit diagnostics as a JSON array (one object per file)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let strict_arg =
    let doc = "Exit non-zero on warnings too, not only errors." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let fix_arg =
    let doc =
      "Apply machine fixes in place (codes SSG101/103/105/203): delete dead \
       and subsumed rounds, provably-safe empty rounds and redundant edge \
       tokens, renumber the survivors, then lint the fixed text.  The fix \
       preserves the stable skeleton and min_k."
    in
    Arg.(value & flag & info [ "fix" ] ~doc)
  in
  let sarif_arg =
    let doc =
      "Write a SARIF 2.1.0 report to $(docv) (suppressed diagnostics and \
       autofix plans included)."
    in
    Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE" ~doc)
  in
  let jobs_arg =
    let doc =
      "Lint files on $(docv) worker domains (default: one per core, capped \
       at the file count; 1 = serial)."
    in
    Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"J" ~doc)
  in
  let action k json strict fix sarif jobs files =
    let lint_file file =
      let text = In_channel.with_open_bin file In_channel.input_all in
      let text, plan =
        if not fix then (text, None)
        else
          match Ssg_lint.Fix.fix text with
          | None -> (text, None) (* SSG000: nothing mechanical to do *)
          | Some (_, plan) when Ssg_lint.Fix.is_empty plan -> (text, Some plan)
          | Some (fixed, plan) ->
              Out_channel.with_open_bin file (fun oc ->
                  Out_channel.output_string oc fixed);
              (fixed, Some plan)
      in
      (file, text, Ssg_lint.Lint.lint_text ?k text, plan)
    in
    let results = Pool.run ?jobs lint_file files in
    (* Notices go to stderr so --json / piped stdout stays machine-clean. *)
    if fix then
      List.iter
        (fun (file, _, _, plan) ->
          match plan with
          | Some (p : Ssg_lint.Fix.plan) when not (Ssg_lint.Fix.is_empty p) ->
              Printf.eprintf "%s: fixed — %d round(s) dropped, %d line(s) \
                              cleaned\n"
                file
                (List.length p.dropped_rounds)
                (List.length p.cleaned_lines)
          | _ -> ())
        results;
    let triples =
      List.map
        (fun (f, _, (o : Ssg_lint.Lint.outcome), _) ->
          (f, o.active, o.suppressed))
        results
    in
    (match sarif with
    | None -> ()
    | Some path ->
        let fixes =
          List.filter_map
            (fun (f, _, _, plan) -> Option.map (fun p -> (f, p)) plan)
            results
        in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (Ssg_lint.Sarif.export ~fixes triples);
            Out_channel.output_char oc '\n');
        Printf.eprintf "wrote SARIF report to %s\n" path);
    if json then print_endline (Ssg_lint.Report.json triples)
    else begin
      List.iter
        (fun (file, text, (o : Ssg_lint.Lint.outcome), _) ->
          print_string (Ssg_lint.Report.human ~file ~src:text o.active))
        results;
      let suppressed =
        List.fold_left (fun acc (_, _, s) -> acc + List.length s) 0 triples
      in
      let totals =
        Ssg_lint.Lint.summarize ~suppressed
          (List.concat_map (fun (_, a, _) -> a) triples)
      in
      Printf.printf
        "checked %d file(s): %d error(s), %d warning(s), %d info(s), %d \
         suppressed\n"
        (List.length results) totals.Ssg_lint.Lint.errors
        totals.Ssg_lint.Lint.warnings totals.Ssg_lint.Lint.infos
        totals.Ssg_lint.Lint.suppressed
    end;
    if
      List.exists
        (fun (_, active, _) -> not (Ssg_lint.Lint.ok ~strict active))
        triples
    then Stdlib.exit 1
  in
  let doc =
    "Statically analyze run descriptions: Psrcs(k) satisfiability, skeleton \
     structure, achievable-k certificates and stabilization windows \
     (diagnostic codes SSG000-SSG203), with machine fixes ($(b,--fix)), \
     inline suppressions, SARIF output and multi-core file fan-out."
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      const action $ k_opt_arg $ json_arg $ strict_arg $ fix_arg $ sarif_arg
      $ jobs_arg $ files_arg)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let ns_arg =
    let doc = "Comma-separated system sizes to sweep." in
    Arg.(value & opt (list int) [ 8; 16 ] & info [ "ns" ] ~docv:"N,..." ~doc)
  in
  let ks_arg =
    let doc = "Comma-separated agreement parameters to sweep." in
    Arg.(value & opt (list int) [ 1; 2 ] & info [ "ks" ] ~docv:"K,..." ~doc)
  in
  let families_list_arg =
    let doc =
      "Comma-separated adversary families: block-sources | partitioned |        single-root | arbitrary."
    in
    Arg.(
      value
      & opt (list string) [ "block-sources"; "partitioned"; "single-root" ]
      & info [ "families" ] ~docv:"FAM,..." ~doc)
  in
  let workers_arg =
    let doc =
      "Worker domains in the engine pool (default: all cores but one, at \
       least 1)."
    in
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"W" ~doc)
  in
  let rounds_arg =
    let doc =
      "Round budget per cell (default: each run's decision horizon)."
    in
    Arg.(value & opt (some int) None & info [ "rounds" ] ~docv:"R" ~doc)
  in
  let out_arg =
    let doc = "Write the JSON report to $(docv) (default: stdout)." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let parse_families names =
    List.fold_left
      (fun acc name ->
        match (acc, Sweep.family_of_string name) with
        | Error e, _ -> Error e
        | Ok fs, Ok f -> Ok (f :: fs)
        | Ok _, Error e -> Error e)
      (Ok []) names
    |> Result.map List.rev
  in
  let outcome_of_completion (completion : Ssg_engine.Job.completion) =
    match completion.result with
    | Ok (o : Ssg_engine.Job.outcome) ->
        Ok
          {
            Sweep.min_k = o.min_k;
            rounds_run = o.rounds_run;
            decided =
              Array.fold_left
                (fun acc d -> if d <> None then acc + 1 else acc)
                0 o.decisions;
            distinct_decisions = o.distinct_decisions;
            messages_sent = o.messages_sent;
            bits_sent = o.bits_sent;
            violations = List.length o.violations;
          }
    | Error msg -> Error msg
  in
  let action verbose ns ks families seed workers rounds out =
    setup_logs verbose;
    match parse_families families with
    | Error msg -> `Error (false, msg)
    | Ok families -> (
        match Sweep.create ~ns ~ks ~families ~seed with
        | exception Invalid_argument msg -> `Error (false, msg)
        | grid -> (
            match Sweep.cells grid with
            | [] ->
                `Error
                  (false, "sweep grid is empty: every grid point has k >= n")
            | cells ->
                (* Trace the whole sweep so the report can prove how many
                   pool domains actually executed cells. *)
                Ssg_obs.Tracer.reset ();
                Ssg_obs.Tracer.set_enabled true;
                let engine = Ssg_engine.Engine.create ?workers () in
                let t0 = Unix.gettimeofday () in
                (* Submit every cell, so the pool pipelines the grid;
                   await in cell order under per-cell spans. *)
                let tickets =
                  List.map
                    (fun cell ->
                      let adv = Sweep.adversary cell in
                      let k = Sweep.effective_k cell adv in
                      ( cell,
                        k,
                        Ssg_engine.Engine.submit engine
                          (Ssg_engine.Job.make ~k ?rounds adv) ))
                    cells
                in
                let results =
                  List.map
                    (fun ((cell : Sweep.cell), k_submitted, ticket) ->
                      Ssg_obs.Tracer.with_span
                        ~args:
                          [
                            ("n", Ssg_obs.Tracer.Int cell.n);
                            ("k", Ssg_obs.Tracer.Int cell.k);
                            ( "family",
                              Ssg_obs.Tracer.Str
                                (Sweep.family_name cell.family) );
                          ]
                        "sweep.cell"
                        (fun () ->
                          let completion =
                            match Ssg_engine.Engine.await engine ticket with
                            | Ok completion -> completion
                            | Error diags ->
                                (* Never taken: [effective_k] is at least
                                   the cell's [min_k], so the gate admits
                                   every cell. *)
                                {
                                  Ssg_engine.Job.result = Error diags;
                                  cached = false;
                                  latency_ms = 0.;
                                }
                          in
                          {
                            Sweep.cell;
                            k_submitted;
                            outcome = outcome_of_completion completion;
                            cached = completion.cached;
                            latency_ms = completion.latency_ms;
                          }))
                    tickets
                in
                let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
                Ssg_engine.Engine.shutdown engine;
                Ssg_obs.Tracer.set_enabled false;
                let domains_used =
                  Sweep.domains_used (Ssg_obs.Tracer.events ())
                in
                let workers =
                  Option.value workers ~default:(Pool.default_workers ())
                in
                let json =
                  Sweep.to_json ~elapsed_ms ~workers ~domains_used grid results
                in
                (match out with
                | None -> print_endline json
                | Some path ->
                    Out_channel.with_open_bin path (fun oc ->
                        Out_channel.output_string oc json;
                        Out_channel.output_char oc '\n');
                    Printf.printf "wrote %d cell result(s) to %s\n"
                      (List.length results) path);
                `Ok ()))
  in
  let doc =
    "Fan an (n, k, adversary-family) grid across the engine's worker pool      as one pipelined batch and report per-cell JSON results (decisions,      min_k, message complexity, cache/latency), plus how many pool      domains the sweep actually used."
  in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      ret
        (const action $ verbose_arg $ ns_arg $ ks_arg $ families_list_arg
        $ seed_arg $ workers_arg $ rounds_arg $ out_arg))

(* ------------------------------------------------------------------ *)

let () =
  let doc =
    "Stable skeleton graphs and k-set agreement (Biely, Robinson, Schmid 2011)"
  in
  let info = Cmd.info "ssg" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; figure1_cmd; experiment_cmd; check_cmd; dot_cmd;
            timing_cmd; shrink_cmd; lint_cmd; serve_cmd; route_cmd;
            submit_cmd; stats_cmd; trace_cmd; shutdown_cmd; compact_cmd;
            gateway_cmd; loadgen_cmd; sweep_cmd;
          ]))
