(* Tests for the ssgd service engine: bounded queue, worker pool, LRU
   cache, job canonicalization, the framed wire protocol (qcheck
   round-trips), the engine's dedup/caching, and an end-to-end socket
   smoke test with concurrent clients. *)

open Ssg_util
open Ssg_adversary
open Ssg_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* --- Bqueue --- *)

let test_bqueue_fifo () =
  let q = Bqueue.create ~capacity:8 () in
  List.iter (fun i -> assert (Bqueue.push q i)) [ 1; 2; 3 ];
  check_int "depth" 3 (Bqueue.length q);
  check_int "fifo 1" 1 (Option.get (Bqueue.pop q));
  check_int "fifo 2" 2 (Option.get (Bqueue.pop q));
  check_int "fifo 3" 3 (Option.get (Bqueue.pop q));
  check_int "drained" 0 (Bqueue.length q)

let test_bqueue_close () =
  let q = Bqueue.create ~capacity:4 () in
  assert (Bqueue.push q 7);
  Bqueue.close q;
  check "push refused after close" false (Bqueue.push q 8);
  check "drain survives close" true (Bqueue.pop q = Some 7);
  check "then None" true (Bqueue.pop q = None);
  check "closed" true (Bqueue.is_closed q)

let test_bqueue_backpressure () =
  let q = Bqueue.create ~capacity:1 () in
  assert (Bqueue.push q 1);
  let second_in = Atomic.make false in
  let t =
    Thread.create
      (fun () ->
        ignore (Bqueue.push q 2);
        Atomic.set second_in true)
      ()
  in
  Thread.delay 0.05;
  check "second push blocked on full queue" false (Atomic.get second_in);
  check_int "first out" 1 (Option.get (Bqueue.pop q));
  Thread.join t;
  check "second push completed after pop" true (Atomic.get second_in);
  check_int "second out" 2 (Option.get (Bqueue.pop q))

(* --- Ivar --- *)

let test_ivar () =
  let cell = Ivar.create () in
  check "empty peek" true (Ivar.peek cell = None);
  let got = Atomic.make 0 in
  let t = Thread.create (fun () -> Atomic.set got (Ivar.read cell)) () in
  Thread.delay 0.02;
  Ivar.fill cell 42;
  Thread.join t;
  check_int "reader woke with value" 42 (Atomic.get got);
  check_int "re-read immediate" 42 (Ivar.read cell);
  check "double fill rejected" true
    (try Ivar.fill cell 43; false with Invalid_argument _ -> true)

(* --- Lru --- *)

let test_lru_eviction () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check "hit a" true (Lru.find c "a" = Some 1);
  (* recency is now a > b, so adding c evicts b *)
  Lru.add c "c" 3;
  check "b evicted" true (Lru.find c "b" = None);
  check "a kept" true (Lru.find c "a" = Some 1);
  check "c kept" true (Lru.find c "c" = Some 3);
  check_int "evictions" 1 (Lru.evictions c);
  check_int "hits" 3 (Lru.hits c);
  check_int "misses" 1 (Lru.misses c);
  check_int "entries" 2 (Lru.length c)

let test_lru_overwrite_and_zero_capacity () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "k" 1;
  Lru.add c "k" 2;
  check "overwrite" true (Lru.find c "k" = Some 2);
  check_int "no duplicate entry" 1 (Lru.length c);
  let z = Lru.create ~capacity:0 in
  Lru.add z "k" 1;
  check "capacity 0 never stores" true (Lru.find z "k" = None);
  check_int "capacity 0 counts misses" 1 (Lru.misses z)

(* --- Pool --- *)

let test_pool_drains_all_on_shutdown () =
  let pool = Pool.create ~workers:2 ~queue_capacity:4 () in
  let done_count = Atomic.make 0 in
  for _ = 1 to 50 do
    assert (Pool.submit pool (fun () -> Atomic.incr done_count))
  done;
  Pool.shutdown pool;
  check_int "every accepted task ran before shutdown returned" 50
    (Atomic.get done_count);
  check "submit refused after shutdown" false (Pool.submit pool (fun () -> ()))

let test_pool_survives_raising_tasks () =
  let pool = Pool.create ~workers:1 ~queue_capacity:4 () in
  let done_count = Atomic.make 0 in
  assert (Pool.submit pool (fun () -> failwith "boom"));
  for _ = 1 to 5 do
    assert (Pool.submit pool (fun () -> Atomic.incr done_count))
  done;
  Pool.shutdown pool;
  check_int "worker survived the raising task" 5 (Atomic.get done_count)

(* --- Job --- *)

let sample_adv ?(seed = 11) ?(n = 6) () =
  Build.block_sources (Rng.of_int seed) ~n ~k:2 ~prefix_len:1 ()

let test_job_canonical_permuted_text () =
  (* The same run hand-written with edges (and rounds' edge lists) in a
     different order, plus comments: must canonicalize to the same key. *)
  let a =
    Job.of_run_text "ssg-run v1\nn 3\nround 1: 1>0 0>2 1>2 2>1\nstable: 1>0 0>2 1>2\n"
  in
  let b =
    Job.of_run_text
      "ssg-run v1\n# permuted but equal\nn 3\nround 1: 2>1 1>2 0>2 1>0\nstable: 0>2 1>2 1>0\n"
  in
  check "permuted descriptions share a key" true (Job.key a = Job.key b);
  check "Job.equal agrees" true (Job.equal a b)

let test_job_normalizes_default_inputs () =
  let adv = sample_adv () in
  let explicit = Job.make ~inputs:(Array.init 6 Fun.id) adv in
  let default = Job.make adv in
  check "explicit 0..n-1 collapses to default" true
    (Job.key explicit = Job.key default);
  let shuffled = Job.make ~inputs:[| 1; 0; 2; 3; 4; 5 |] adv in
  check "real input assignment keys differently" false
    (Job.key shuffled = Job.key default)

let test_job_execute_matches_runner () =
  let adv = sample_adv () in
  let outcome = Job.execute (Job.make ~monitor:true adv) in
  let report = Ssg_sim.Runner.run_kset ~monitor:true adv in
  check_int "min_k" report.Ssg_sim.Runner.min_k outcome.Job.min_k;
  check_int "distinct"
    (Ssg_sim.Metrics.distinct_decisions report.Ssg_sim.Runner.outcome)
    outcome.Job.distinct_decisions;
  check "violations" true (outcome.Job.violations = report.Ssg_sim.Runner.violations);
  check "decisions agree" true
    (outcome.Job.decisions
    = Array.map
        (Option.map (fun d ->
             (d.Ssg_rounds.Executor.round, d.Ssg_rounds.Executor.value)))
        report.Ssg_sim.Runner.outcome.Ssg_rounds.Executor.decisions)

(* [dune runtest] runs in _build/default/test, [dune exec] at the root. *)
let examples_dir =
  if Sys.file_exists "../examples/figure1.run" then "../examples"
  else "examples"

(* The store journals outcomes under [Job.key] and warm boot replays
   them into the LRU, so a canonical text that moved by one byte would
   silently turn every journaled entry into a miss.  The digest covers
   every examples/*.run (through [of_run_text]) and every cell of one
   seeded sweep grid (through [make]); it was computed before the
   one-pass parser and the Printf-free writer replaced the old ones. *)
let test_job_keys_pinned () =
  let files =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".run")
    |> List.sort compare
  in
  let example_keys =
    List.map
      (fun f ->
        Job.key
          (Job.of_run_text
             (In_channel.with_open_bin (Filename.concat examples_dir f)
                In_channel.input_all)))
      files
  in
  let grid =
    Ssg_sim.Sweep.create ~ns:[ 8; 12; 16; 20 ] ~ks:[ 1; 2; 3; 4 ]
      ~families:Ssg_sim.Sweep.all_families ~seed:1
  in
  let sweep_keys =
    List.map
      (fun cell ->
        let adv = Ssg_sim.Sweep.adversary cell in
        Job.key (Job.make ~k:(Ssg_sim.Sweep.effective_k cell adv) adv))
      (Ssg_sim.Sweep.cells grid)
  in
  check_int "example files" 4 (List.length files);
  check_int "grid cells" 64 (List.length sweep_keys);
  Alcotest.(check string)
    "Job.key digest" "79b21957510994604bb8dfe19e0f6126"
    (Digest.to_hex
       (Digest.string (String.concat "\n" (files @ example_keys @ sweep_keys))))

(* --- Protocol: generators + qcheck round-trips --- *)

let gen_job rng =
  let n = 2 + Rng.int rng 6 in
  let adv =
    Build.arbitrary (Rng.copy rng) ~n ~density:0.4
      ~prefix_len:(Rng.int rng 3) ()
  in
  let algorithm =
    match Rng.int rng 4 with
    | 0 -> Job.Kset
    | 1 -> Job.Floodmin
    | 2 -> Job.Flood_consensus
    | _ -> Job.Naive_min
  in
  let inputs =
    if Rng.int rng 2 = 0 then None
    else Some (Array.init n (fun _ -> Rng.int rng 10))
  in
  let rounds = if Rng.int rng 2 = 0 then None else Some (Rng.int rng 40) in
  Job.make ~algorithm ~k:(1 + Rng.int rng 3) ?inputs ?rounds
    ~monitor:(Rng.int rng 2 = 0) adv

(* The same run as a hand-written client might send it: every edge
   list reversed, each line with a trailing comment and the name line
   renamed — the text parses to the same run but is not canonical. *)
let scramble text =
  let line l =
    match String.index_opt l ':' with
    | Some i ->
        let edges =
          String.sub l (i + 1) (String.length l - i - 1)
          |> String.split_on_char ' '
          |> List.filter (( <> ) "")
        in
        Printf.sprintf "%s %s  # reversed" (String.sub l 0 (i + 1))
          (String.concat " " (List.rev edges))
    | None when String.starts_with ~prefix:"# " l -> "# by hand"
    | None -> l
  in
  String.concat "\n" (List.map line (String.split_on_char '\n' text))

(* What a worker's cache hit by the key as sent rests on: [normalize]
   is the identity on canonical jobs, and a job sent with the same
   parameters in any spelling — scrambled text, explicit default
   inputs, a monitor flag the algorithm ignores — normalizes to the
   canonical job's key. *)
let prop_job_normalize =
  QCheck2.Test.make ~count:150
    ~name:"job: normalize fixes canonical jobs and canonicalizes jobs as sent"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let n = 2 + Rng.int rng 6 in
      let adv =
        Build.arbitrary (Rng.copy rng) ~n ~density:0.4
          ~prefix_len:(Rng.int rng 3) ()
      in
      let algorithm =
        Rng.pick rng
          [| Job.Kset; Job.Floodmin; Job.Flood_consensus; Job.Naive_min |]
      in
      let k = 1 + Rng.int rng n in
      let inputs =
        match Rng.int rng 3 with
        | 0 -> None
        | 1 -> Some (Array.init n Fun.id)
        | _ -> Some (Array.init n (fun _ -> Rng.int rng 10))
      in
      let rounds = if Rng.bool rng then None else Some (Rng.int rng 40) in
      let monitor = Rng.bool rng in
      let text = Run_format.to_string adv in
      let made = Job.make ~algorithm ~k ?inputs ?rounds ~monitor adv in
      let parsed =
        Job.of_run_text ~algorithm ~k ?inputs ?rounds ~monitor text
      in
      let sent =
        Job.as_sent ~algorithm ~k ?inputs ?rounds ~monitor (scramble text)
      in
      Job.normalize made = made
      && Job.normalize parsed = parsed
      && Job.key (Job.normalize sent) = Job.key made)

let gen_outcome rng : Job.outcome =
  let n = 1 + Rng.int rng 8 in
  {
    Job.algorithm = "alg-" ^ string_of_int (Rng.int rng 5);
    n;
    min_k = 1 + Rng.int rng n;
    rounds_run = Rng.int rng 50;
    decisions =
      Array.init n (fun _ ->
          if Rng.int rng 3 = 0 then None
          else Some (Rng.int rng 50, Rng.int rng 100));
    distinct_decisions = Rng.int rng n;
    messages_sent = Rng.int rng 100000;
    messages_delivered = Rng.int rng 100000;
    bits_sent = Rng.int rng 10000000;
    violations =
      List.init (Rng.int rng 3) (fun i -> "violation " ^ string_of_int i);
  }

let gen_completion rng : Job.completion =
  {
    Job.result =
      (if Rng.int rng 4 = 0 then Error "it broke" else Ok (gen_outcome rng));
    cached = Rng.int rng 2 = 0;
    latency_ms = Rng.float rng *. 1000.;
  }

let gen_snapshot rng : Telemetry.snapshot =
  let gen_summary () =
    if Rng.int rng 3 = 0 then None
    else
      Some
        {
          Stats.count = 1 + Rng.int rng 1000;
          mean = Rng.float rng *. 10.;
          stddev = Rng.float rng;
          min = Rng.float rng;
          max = 10. +. Rng.float rng;
          p50 = Rng.float rng *. 5.;
          p95 = Rng.float rng *. 9.;
          p99 = Rng.float rng *. 10.;
        }
  in
  {
    Telemetry.uptime_s = Rng.float rng *. 3600.;
    workers = 1 + Rng.int rng 16;
    queue_depth = Rng.int rng 64;
    queue_capacity = 64;
    jobs_submitted = Rng.int rng 100000;
    jobs_completed = Rng.int rng 100000;
    jobs_failed = Rng.int rng 100;
    jobs_rejected_lint = Rng.int rng 100;
    cache_hits = Rng.int rng 100000;
    cache_misses = Rng.int rng 100000;
    dedup_joins = Rng.int rng 1000;
    cache_entries = Rng.int rng 1024;
    throughput_jps = Rng.float rng *. 1000.;
    lifetime_jps = Rng.float rng *. 1000.;
    recent_window_s = 1. +. (Rng.float rng *. 60.);
    rejected_frames = Rng.int rng 100;
    timed_out_connections = Rng.int rng 100;
    connections_rejected = Rng.int rng 100;
    faults_injected = Rng.int rng 100;
    queue_wait_ms = gen_summary ();
    exec_ms = gen_summary ();
  }

let gen_trace_event rng : Ssg_obs.Tracer.event =
  let open Ssg_obs.Tracer in
  {
    kind =
      (match Rng.int rng 3 with 0 -> Begin | 1 -> End | _ -> Instant);
    name = Printf.sprintf "span-%d" (Rng.int rng 100);
    domain = Rng.int rng 8;
    ts_us = Rng.float rng *. 1e6;
    args =
      List.init (Rng.int rng 3) (fun i ->
          ( Printf.sprintf "arg%d" i,
            match Rng.int rng 3 with
            | 0 -> Int (Rng.int rng 1000)
            | 1 -> Float (Rng.float rng)
            | _ -> Str "value" ));
  }

let gen_entries rng =
  List.init (Rng.int rng 4) (fun i ->
      ( Printf.sprintf "key-%d" i,
        Protocol.outcome_to_string (gen_outcome rng) ))

let gen_request rng =
  match Rng.int rng 11 with
  | 0 -> Protocol.Submit (gen_job rng)
  | 1 -> Protocol.Batch (List.init (Rng.int rng 4) (fun _ -> gen_job rng))
  | 2 -> Protocol.Stats
  | 3 -> Protocol.Trace_pull
  | 4 -> Protocol.Metrics
  | 5 -> Protocol.Join "unix:/tmp/w1.sock"
  | 6 -> Protocol.Leave "tcp:127.0.0.1:7001"
  | 7 -> Protocol.Export (Rng.int rng 2048)
  | 8 -> Protocol.Transfer (gen_entries rng)
  | 9 -> Protocol.Compact
  | _ -> Protocol.Shutdown

let gen_reply rng =
  match Rng.int rng 11 with
  | 0 -> Protocol.Completed (gen_completion rng)
  | 1 ->
      Protocol.Batch_completed
        (List.init (Rng.int rng 4) (fun _ -> gen_completion rng))
  | 2 -> Protocol.Stats_snapshot (gen_snapshot rng)
  | 3 ->
      Protocol.Trace_reports
        (List.init (Rng.int rng 3) (fun i ->
             {
               Ssg_obs.Tracer.role = (if i = 0 then "router" else "worker");
               pid = Rng.int rng 100000;
               epoch_s = Rng.float rng *. 1e9;
               dropped_events = Rng.int rng 10;
               events =
                 List.init (Rng.int rng 5) (fun _ -> gen_trace_event rng);
             }))
  | 4 -> Protocol.Metrics_text "# TYPE ssgd_jobs_submitted counter\nssgd_jobs_submitted 3\n"
  | 5 -> Protocol.Shutting_down
  | 6 -> Protocol.Ack
  | 7 -> Protocol.Entries (gen_entries rng)
  | 8 -> Protocol.Transferred (Rng.int rng 2048)
  | 9 -> Protocol.Compacted (Rng.int rng 2048)
  | _ -> Protocol.Error "nope"

let prop_request_roundtrip =
  QCheck2.Test.make ~count:150 ~name:"protocol round-trips random requests"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let req = gen_request (Rng.of_int seed) in
      Protocol.request_of_bytes (Protocol.request_to_bytes req) = req)

let prop_reply_roundtrip =
  QCheck2.Test.make ~count:150 ~name:"protocol round-trips random replies"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let reply = gen_reply (Rng.of_int seed) in
      Protocol.reply_of_bytes (Protocol.reply_to_bytes reply) = reply)

(* Decode fuzz: arbitrary byte garbage either parses or raises [Failure]
   — never [Invalid_argument] (the Job constructors' vocabulary), never
   anything else, never a hang.  Pure random bytes mostly die at the tag
   byte, so also fuzz by mutating bytes of a {e valid} encoding, which
   reaches the deep field decoders (and, for [Submit], job
   validation). *)

let decodes_or_fails_cleanly decode bytes =
  match decode bytes with
  | (_ : 'a) -> true
  | exception Failure _ -> true
  | exception _ -> false

let prop_request_decode_fuzz =
  QCheck2.Test.make ~count:300
    ~name:"request decoder: garbage parses or raises Failure only"
    QCheck2.Gen.(pair (int_bound 1000000) (string_size (int_bound 64)))
    (fun (seed, garbage) ->
      let rng = Rng.of_int seed in
      let valid = Protocol.request_to_bytes (gen_request rng) in
      let mutated = Bytes.copy valid in
      if Bytes.length mutated > 0 then begin
        let i = Rng.int rng (Bytes.length mutated) in
        Bytes.set mutated i (Char.chr (Rng.int rng 256))
      end;
      decodes_or_fails_cleanly Protocol.request_of_bytes
        (Bytes.of_string garbage)
      && decodes_or_fails_cleanly Protocol.request_of_bytes mutated)

let prop_reply_decode_fuzz =
  QCheck2.Test.make ~count:300
    ~name:"reply decoder: garbage parses or raises Failure only"
    QCheck2.Gen.(pair (int_bound 1000000) (string_size (int_bound 64)))
    (fun (seed, garbage) ->
      let rng = Rng.of_int seed in
      let valid = Protocol.reply_to_bytes (gen_reply rng) in
      let mutated = Bytes.copy valid in
      if Bytes.length mutated > 0 then begin
        let i = Rng.int rng (Bytes.length mutated) in
        Bytes.set mutated i (Char.chr (Rng.int rng 256))
      end;
      decodes_or_fails_cleanly Protocol.reply_of_bytes
        (Bytes.of_string garbage)
      && decodes_or_fails_cleanly Protocol.reply_of_bytes mutated)

let prop_read_frame_fuzz =
  QCheck2.Test.make ~count:100
    ~name:"read_frame: byte garbage yields a frame, Failure or End_of_file"
    QCheck2.Gen.(string_size (int_bound 32))
    (fun garbage ->
      let read_fd, write_fd = Unix.pipe () in
      ignore (Unix.write_substring write_fd garbage 0 (String.length garbage));
      Unix.close write_fd;
      let ok =
        match Ssg_net.Frame.read_fd read_fd with
        | (_ : Bytes.t) -> true
        | exception Failure _ -> true
        | exception End_of_file -> true
        | exception _ -> false
      in
      Unix.close read_fd;
      ok)

(* Lru against a naive most-recent-first association-list model: random
   add/find sequences must preserve [length <= capacity], agree on every
   lookup, and evict in exactly recency order. *)
let prop_lru_model =
  let capacity = 3 in
  let keys = [| "a"; "b"; "c"; "d"; "e"; "f" |] in
  QCheck2.Test.make ~count:300 ~name:"lru agrees with naive recency model"
    QCheck2.Gen.(list_size (int_bound 60) (pair (int_bound 5) (int_bound 1)))
    (fun ops ->
      let c = Lru.create ~capacity in
      let model = ref [] in  (* (key, value), most recent first *)
      let model_add k v =
        let kept = List.remove_assoc k !model in
        let kept =
          if List.mem_assoc k !model || List.length kept < capacity then kept
          else List.filteri (fun i _ -> i < capacity - 1) kept
        in
        model := (k, v) :: kept
      in
      let model_find k =
        match List.assoc_opt k !model with
        | None -> None
        | Some v ->
            model := (k, v) :: List.remove_assoc k !model;
            Some v
      in
      List.for_all
        (fun (ki, op) ->
          let key = keys.(ki) in
          let agree =
            if op = 0 then begin
              let v = ki * 10 in
              Lru.add c key v;
              model_add key v;
              true
            end
            else Lru.find c key = model_find key
          in
          agree
          && Lru.length c = List.length !model
          && Lru.length c <= capacity)
        ops)

let test_protocol_framing_over_pipe () =
  let read_fd, write_fd = Unix.pipe () in
  let rng = Rng.of_int 77 in
  let reqs = List.init 5 (fun _ -> gen_request rng) in
  List.iteri (fun id req -> Raw_wire.send ~id write_fd req) reqs;
  List.iteri
    (fun id req ->
      match Ssg_net.Frame.classify (Ssg_net.Frame.read_fd read_fd) with
      | Ssg_net.Frame.Id (id', inner) ->
          check_int "request id" id id';
          check "framed request" true (Protocol.request_of_bytes inner = req)
      | Ssg_net.Frame.Plain _ ->
          Alcotest.fail "request outside the id envelope")
    reqs;
  Unix.close write_fd;
  check "clean EOF at frame boundary" true
    (try ignore (Ssg_net.Frame.read_fd read_fd); false
     with End_of_file -> true);
  Unix.close read_fd

(* The integer and float codecs, pinned byte for byte: the durable
   store journals outcomes in this encoding, so any other bytes would
   orphan every journal already written. *)
let pinned_outcome : Job.outcome =
  {
    Job.algorithm = "skeleton-kset";
    n = 4;
    min_k = 2;
    rounds_run = 7;
    decisions = [| Some (3, 0); None; Some (5, -2); Some (7, 1 lsl 40) |];
    distinct_decisions = 3;
    messages_sent = 48;
    messages_delivered = 41;
    bits_sent = 1234567;
    violations = [ "k-agreement"; "" ];
  }

let pinned_outcome_hex =
  "000000000000000d736b656c65746f6e2d6b7365740000000000000004000000000000\
   000200000000000000070000000000000004010000000000000003000000000000000000\
   010000000000000005fffffffffffffffe01000000000000000700000100000000000000\
   00000000000300000000000000300000000000000029000000000012d687000000000000\
   0002000000000000000b6b2d61677265656d656e740000000000000000"

let hex s =
  String.concat ""
    (List.map
       (fun c -> Printf.sprintf "%02x" (Char.code c))
       (List.of_seq (String.to_seq s)))

let test_protocol_bytes_pinned () =
  check_string "outcome bytes" pinned_outcome_hex
    (hex (Protocol.outcome_to_string pinned_outcome));
  check "outcome decodes back" true
    (Protocol.outcome_of_string (Protocol.outcome_to_string pinned_outcome)
    = pinned_outcome);
  (* A completion adds a float: the latency's IEEE-754 bits. *)
  let completion =
    Protocol.Completed
      { Job.result = Ok pinned_outcome; cached = true; latency_ms = -2.75 }
  in
  check_string "completion bytes"
    ("5200" ^ pinned_outcome_hex ^ "01c006000000000000")
    (hex (Bytes.to_string (Protocol.reply_to_bytes completion)));
  (* A short read is a truncation: Failure, never Invalid_argument. *)
  let encoded = Protocol.outcome_to_string pinned_outcome in
  for cut = 0 to String.length encoded - 1 do
    match Protocol.outcome_of_string (String.sub encoded 0 cut) with
    | _ -> Alcotest.failf "a %d-byte prefix decoded" cut
    | exception Failure _ -> ()
  done

let test_protocol_rejects_garbage () =
  check "unknown tag" true
    (try ignore (Protocol.request_of_bytes (Bytes.of_string "Z")); false
     with Failure _ -> true);
  check "truncated" true
    (try ignore (Protocol.reply_of_bytes (Bytes.of_string "R\001")); false
     with Failure _ -> true)

(* --- Engine --- *)

let test_engine_cache_and_dedup () =
  let engine = Engine.create ~workers:2 ~queue_capacity:8 () in
  let job = Job.make ~k:2 (sample_adv ()) in
  let first = Engine.run engine job in
  check "first computed" false first.Job.cached;
  let again = Engine.run engine job in
  check "resubmission served from cache" true again.Job.cached;
  check "same outcome" true (first.Job.result = again.Job.result);
  (* In-flight dedup: submit the same fresh job twice before awaiting. *)
  let fresh = Job.make ~k:2 (sample_adv ~seed:99 ()) in
  let t1 = Engine.submit engine fresh in
  let t2 = Engine.submit engine fresh in
  let c1 = Engine.await engine t1 and c2 = Engine.await engine t2 in
  check "dedup twin shares the result" true (c1.Job.result = c2.Job.result);
  let s = Engine.stats engine in
  (* The resubmission is an LRU hit; the twin is either a dedup join (if
     it arrived while the first was in flight) or a hit (if the first
     had already finished) — but never both kinds at once. *)
  check_int "one hit or join per duplicate submission" 2
    (s.Telemetry.cache_hits + s.Telemetry.dedup_joins);
  check "lru hits not inflated by dedup" true (s.Telemetry.cache_hits >= 1);
  check_int "the deduped pair executed once" 2 s.Telemetry.jobs_completed;
  Engine.shutdown engine

let test_engine_failure_propagation () =
  let engine = Engine.create ~workers:1 ~queue_capacity:4 () in
  (* 3 inputs for a 6-process run: Job.execute raises, the engine must
     turn that into an Error completion and keep serving. *)
  let bad = Job.make ~k:2 ~inputs:[| 1; 2; 3 |] (sample_adv ()) in
  (match (Engine.run engine bad).Job.result with
  | Error msg -> check "error mentions the cause" true (msg <> "")
  | Ok _ -> Alcotest.fail "inconsistent job must fail");
  let good = Engine.run engine (Job.make ~k:2 (sample_adv ())) in
  check "engine alive after failure" true (Result.is_ok good.Job.result);
  let s = Engine.stats engine in
  check_int "failure counted" 1 s.Telemetry.jobs_failed;
  check "failures are not cached" false
    ((Engine.run engine bad).Job.cached);
  Engine.shutdown engine;
  (* A cached job would still be served after shutdown; a fresh one must
     error because the pool no longer accepts work. *)
  (match (Engine.run engine (Job.make ~k:2 (sample_adv ~seed:4242 ()))).Job.result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fresh submission after shutdown must error")

let test_engine_batch () =
  let engine = Engine.create ~workers:2 ~queue_capacity:4 () in
  let jobs =
    List.init 20 (fun i -> Job.make ~k:2 (sample_adv ~seed:(i mod 5) ()))
  in
  let completions = Engine.run_batch engine jobs in
  check_int "every job answered" 20 (List.length completions);
  check "all ok" true
    (List.for_all (fun c -> Result.is_ok c.Job.result) completions);
  let s = Engine.stats engine in
  check_int "only distinct jobs executed" 5 s.Telemetry.jobs_completed;
  check_int "the rest were hits or in-flight joins" 15
    (s.Telemetry.cache_hits + s.Telemetry.dedup_joins);
  Engine.shutdown engine

(* --- End-to-end socket smoke test with concurrent clients --- *)

let test_server_end_to_end () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ssgd-test-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists socket then Sys.remove socket;
  let server =
    Thread.create
      (fun () ->
        Server.serve ~workers:2 ~queue_capacity:16 ~cache_capacity:64 ~socket
          ())
      ()
  in
  let rec wait_up tries =
    if tries = 0 then Alcotest.fail "server did not come up";
    match Client.connect ~socket () with
    | c -> c
    | exception Unix.Unix_error _ ->
        Thread.delay 0.05;
        wait_up (tries - 1)
  in
  let c0 = wait_up 100 in
  (* Concurrent clients: every thread submits the same 3 jobs (plus one
     per-thread unique job) on its own connection and checks the replies
     against in-process execution. *)
  let shared = List.init 3 (fun i -> Job.make ~k:2 (sample_adv ~seed:i ())) in
  let expected = List.map Job.execute shared in
  let failures = Atomic.make 0 in
  let clients =
    List.init 4 (fun t ->
        Thread.create
          (fun () ->
            try
              let c = Client.connect ~socket () in
              let mine = Job.make ~k:2 (sample_adv ~seed:(1000 + t) ()) in
              let completions = Client.submit_batch c (shared @ [ mine ]) in
              List.iteri
                (fun i completion ->
                  match (completion.Job.result, List.nth_opt expected i) with
                  | Ok got, Some want when got = want -> ()
                  | Ok _, None -> ()  (* the per-thread unique job *)
                  | _ -> Atomic.incr failures)
                completions;
              Client.close c
            with _ -> Atomic.incr failures)
          ())
  in
  List.iter Thread.join clients;
  check_int "all concurrent replies matched in-process execution" 0
    (Atomic.get failures);
  let s = Client.stats c0 in
  check "shared jobs were hits or joins across clients" true
    (s.Telemetry.cache_hits + s.Telemetry.dedup_joins >= 9);
  check_int "distinct jobs executed once each" 7 s.Telemetry.jobs_completed;
  Client.shutdown c0;
  Client.close c0;
  Thread.join server;
  check "socket file removed on shutdown" false (Sys.file_exists socket)

let tests =
  [
    Alcotest.test_case "bqueue fifo" `Quick test_bqueue_fifo;
    Alcotest.test_case "bqueue close drains" `Quick test_bqueue_close;
    Alcotest.test_case "bqueue backpressure" `Quick test_bqueue_backpressure;
    Alcotest.test_case "ivar" `Quick test_ivar;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction;
    Alcotest.test_case "lru overwrite / capacity 0" `Quick
      test_lru_overwrite_and_zero_capacity;
    Alcotest.test_case "pool graceful shutdown" `Quick
      test_pool_drains_all_on_shutdown;
    Alcotest.test_case "pool survives raising tasks" `Quick
      test_pool_survives_raising_tasks;
    Alcotest.test_case "job canonicalization (permuted text)" `Quick
      test_job_canonical_permuted_text;
    Alcotest.test_case "job canonicalization (default inputs)" `Quick
      test_job_normalizes_default_inputs;
    Alcotest.test_case "job execute = in-process runner" `Quick
      test_job_execute_matches_runner;
    Alcotest.test_case "job keys pinned (examples + sweep grid)" `Quick
      test_job_keys_pinned;
    Alcotest.test_case "protocol framing over a pipe" `Quick
      test_protocol_framing_over_pipe;
    Alcotest.test_case "protocol bytes pinned" `Quick
      test_protocol_bytes_pinned;
    Alcotest.test_case "protocol rejects garbage" `Quick
      test_protocol_rejects_garbage;
    Alcotest.test_case "engine cache + in-flight dedup" `Quick
      test_engine_cache_and_dedup;
    Alcotest.test_case "engine failure propagation" `Quick
      test_engine_failure_propagation;
    Alcotest.test_case "engine batch dedup" `Quick test_engine_batch;
    Alcotest.test_case "server end-to-end (concurrent clients)" `Quick
      test_server_end_to_end;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_job_normalize;
        prop_request_roundtrip;
        prop_reply_roundtrip;
        prop_request_decode_fuzz;
        prop_reply_decode_fuzz;
        prop_read_frame_fuzz;
        prop_lru_model;
      ]
