(* Cluster suite: the consistent-hash ring (unit + property tests for
   the balance and monotonicity claims), the health registry's
   mark-down/re-admission state machine and its prober (driven by fake
   probes), multi-address client failover, the blackhole fault plan,
   and the router end to end — including the acceptance chaos run: 3 workers,
   one killed and healed mid-burst, 200 jobs, zero client-visible
   errors, failovers observed. *)

open Ssg_adversary
open Ssg_util
open Ssg_engine
open Ssg_cluster
module Metrics = Ssg_obs.Metrics

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ---------------- harness ---------------- *)

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "ssg-cluster-%d-%d.sock" (Unix.getpid ()) !socket_counter)

(* One backend worker on a fresh socket; returns (socket, thread). *)
let start_worker ?(workers = 1) ?faults ?persist ?announce ?socket () =
  let socket = match socket with Some s -> s | None -> fresh_socket () in
  if Sys.file_exists socket then Sys.remove socket;
  let thread =
    Thread.create
      (fun () ->
        Server.serve ~workers ~queue_capacity:32 ~cache_capacity:64
          ~drain_timeout_s:5. ?faults ?persist ?announce ~socket ())
      ()
  in
  let c = Service.connect socket in
  Client.close c;
  (socket, thread)

let stop_worker socket thread =
  let c = Service.connect socket in
  Client.shutdown c;
  Client.close c;
  Thread.join thread

let start_router ?vnodes ?(down_after = 2) ?(probe_interval_s = 0.05)
    ?(request_timeout_s = 5.) ~backends () =
  let socket = fresh_socket () in
  if Sys.file_exists socket then Sys.remove socket;
  let thread =
    Thread.create
      (fun () ->
        Router.serve ?vnodes ~down_after ~probe_interval_s ~request_timeout_s
          ~drain_timeout_s:5. ~backends ~socket ())
      ()
  in
  let c = Service.connect socket in
  Client.close c;
  (socket, thread)

let stop_router socket thread =
  let c = Service.connect socket in
  Client.shutdown c;
  Client.close c;
  Thread.join thread

let sample_adv ?(seed = 11) ?(n = 6) () =
  Build.block_sources (Rng.of_int seed) ~n ~k:2 ~prefix_len:1 ()

let sample_job ?seed ?n () = Job.make ~k:2 (sample_adv ?seed ?n ())

(* Pull one counter's value out of a Prometheus text exposition. *)
let prom_counter text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.sub line 0 i = name ->
             int_of_string_opt
               (String.trim (String.sub line i (String.length line - i)))
         | _ -> None)

(* ---------------- ring: unit ---------------- *)

let test_ring_basics () =
  let members = [ "/a.sock"; "/b.sock"; "/c.sock" ] in
  let ring = Ring.create members in
  check_int "members sorted, distinct" 3 (List.length (Ring.members ring));
  check "dup collapsed" true
    (Ring.members (Ring.create [ "/a"; "/a"; "/b" ]) = [ "/a"; "/b" ]);
  check "empty ring has no owner" true (Ring.owner (Ring.create []) "k" = None);
  check "empty successors" true (Ring.successors (Ring.create []) "k" = []);
  (* Determinism: the same configuration always agrees on placement. *)
  let ring' = Ring.create (List.rev members) in
  for i = 0 to 99 do
    let key = Printf.sprintf "key-%d" i in
    check "placement deterministic" true (Ring.owner ring key = Ring.owner ring' key)
  done;
  (match Ring.create ~vnodes:1 members with
  | _ -> ()
  | exception Invalid_argument _ -> Alcotest.fail "vnodes=1 is legal");
  match Ring.create ~vnodes:0 members with
  | _ -> Alcotest.fail "vnodes=0 must be rejected"
  | exception Invalid_argument _ -> ()

(* Placement is [hash64] of the key: a hash that moved by one bit
   would move keys to new owners and strand every journaled cache on
   the old one.  The values were computed by the String.iter fold this
   loop replaced; the last input is the first perfbench hit-http
   hot-set job's key at seed 1 (an 818-byte key). *)
let test_ring_hash64_pinned () =
  let hot_key =
    let cell =
      {
        Ssg_sim.Sweep.n = 16;
        k = 4;
        family = Ssg_sim.Sweep.Block_sources;
        seed = 1_010_010;
      }
    in
    let adv = Ssg_sim.Sweep.adversary cell in
    Job.key (Job.make ~k:(Ssg_sim.Sweep.effective_k cell adv) adv)
  in
  check_int "hot-set key length" 818 (String.length hot_key);
  List.iter
    (fun (label, input, want) ->
      Alcotest.(check int64) label want (Ring.hash64 input))
    [
      ("empty string", "", 0xf52a15e9a9b5e89bL);
      ("unix socket address", "unix:/tmp/w1.sock", 0x72802310e5a6077eL);
      ("tcp socket address", "tcp:127.0.0.1:7411", 0x6e1738e2ae81c40aL);
      ("hot-set job key", hot_key, 0xeff23d5ef366d477L);
    ]

let test_ring_successors () =
  let members = List.init 5 (fun i -> Printf.sprintf "/w%d.sock" i) in
  let ring = Ring.create members in
  for i = 0 to 49 do
    let key = Printf.sprintf "key-%d" i in
    let succ = Ring.successors ring key in
    check_int "successors cover every member" 5 (List.length succ);
    check "head is the owner" true (Some (List.hd succ) = Ring.owner ring key);
    check "successors distinct" true
      (List.length (List.sort_uniq compare succ) = 5)
  done

(* ---------------- ring: properties ---------------- *)

let gen_member_set =
  QCheck2.Gen.(
    pair (int_range 3 8) (int_bound 10_000) >|= fun (n, salt) ->
    List.init n (fun i -> Printf.sprintf "/srv/ssgd-%d-%d.sock" salt i))

(* Balance: with >= 64 vnodes, no member owns more than twice the
   uniform share of a large key population. *)
let prop_balanced =
  QCheck2.Test.make ~count:30 ~name:"ring balance within 2x of uniform"
    gen_member_set (fun members ->
      let keys = 4000 in
      let ring = Ring.create ~vnodes:128 members in
      let counts = Hashtbl.create 8 in
      for i = 0 to keys - 1 do
        match Ring.owner ring (Printf.sprintf "job-key-%d" i) with
        | Some m ->
            Hashtbl.replace counts m
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts m))
        | None -> failwith "non-empty ring returned no owner"
      done;
      let uniform = float_of_int keys /. float_of_int (List.length members) in
      List.for_all
        (fun m ->
          float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts m))
          <= 2. *. uniform)
        members)

(* Monotonicity: removing one member remaps only the keys it owned. *)
let prop_remove_remaps_only_removed =
  QCheck2.Test.make ~count:50
    ~name:"removing a member remaps only its own keys"
    QCheck2.Gen.(pair gen_member_set (int_bound 1_000_000))
    (fun (members, pick) ->
      let ring = Ring.create ~vnodes:64 members in
      let removed = List.nth members (pick mod List.length members) in
      let shrunk =
        Ring.create ~vnodes:64 (List.filter (( <> ) removed) members)
      in
      let ok = ref true in
      for i = 0 to 1999 do
        let key = Printf.sprintf "stable-key-%d" i in
        match Ring.owner ring key with
        | Some m when m <> removed ->
            if Ring.owner shrunk key <> Some m then ok := false
        | Some _ ->
            (* The removed member's keys must land on someone else. *)
            if Ring.owner shrunk key = Some removed then ok := false
        | None -> ok := false
      done;
      !ok)

(* ---------------- registry ---------------- *)

let test_registry_state_machine () =
  let transitions = ref [] in
  let r =
    Registry.create ~down_after:3
      ~on_transition:(fun addr up -> transitions := (addr, up) :: !transitions)
      [ "/b.sock"; "/a.sock" ]
  in
  check "backends sorted" true (Registry.backends r = [ "/a.sock"; "/b.sock" ]);
  check "all start up" true (Registry.up r = Registry.backends r);
  Registry.mark_failure r "/a.sock";
  Registry.mark_failure r "/a.sock";
  check "below down_after still routed" true (Registry.is_up r "/a.sock");
  check "probation recorded" true
    (List.assoc "/a.sock" (Registry.health r) = Registry.Probation 2);
  let gen_before = Registry.generation r in
  Registry.mark_failure r "/a.sock";
  check "down after consecutive failures" false (Registry.is_up r "/a.sock");
  check "ring rebuilt on mark-down" true (Registry.generation r > gen_before);
  check "ring excludes the down backend" true
    (Ring.members (Registry.ring r) = [ "/b.sock" ]);
  check "transition fired downward" true (!transitions = [ ("/a.sock", false) ]);
  (* One success anywhere heals; the count resets fully. *)
  Registry.mark_success r "/a.sock";
  check "one success re-admits" true (Registry.is_up r "/a.sock");
  check "transition fired upward" true
    (List.hd !transitions = ("/a.sock", true));
  Registry.mark_failure r "/a.sock";
  check "failure count was reset by the success" true
    (List.assoc "/a.sock" (Registry.health r) = Registry.Probation 1)

let test_registry_candidates_when_all_down () =
  let r = Registry.create ~down_after:1 [ "/a.sock"; "/b.sock" ] in
  Registry.mark_failure r "/a.sock";
  Registry.mark_failure r "/b.sock";
  check "nothing up" true (Registry.up r = []);
  (* Better to try a possibly-healed backend than fail without trying. *)
  check "candidates fall back to the full list" true
    (List.sort compare (Registry.candidates r "some-key")
    = [ "/a.sock"; "/b.sock" ])

(* A probe that answers every call at once with [ok]. *)
let answering ok _addr answer = answer ok

let test_registry_prober_thread () =
  let r = Registry.create ~down_after:1 ~probe_interval_s:0.05 [ "/a.sock" ] in
  (* Poison the state, then let the background prober heal it. *)
  Registry.mark_failure r "/a.sock";
  check "marked down" false (Registry.is_up r "/a.sock");
  Registry.start r ~probe:(answering true);
  Service.eventually ~deadline_s:5. ~what:"the prober re-admitted the backend"
    (fun () -> Registry.is_up r "/a.sock");
  Registry.stop r

(* Regression: [stop] must return promptly even when called in the
   middle of a long probe sleep — the prober sleeps in short slices and
   re-checks the stop flag, so shutdown never waits out the interval. *)
let test_registry_prober_stop_is_prompt () =
  let r = Registry.create ~down_after:1 ~probe_interval_s:30. [ "/a.sock" ] in
  Registry.start r ~probe:(answering true);
  (* Let the prober finish its first round and settle into the sleep. *)
  Thread.delay 0.2;
  let t0 = Unix.gettimeofday () in
  Registry.stop r;
  let elapsed = Unix.gettimeofday () -. t0 in
  check "stop returned well within the probe interval" true (elapsed < 2.);
  (* Idempotent, and restartable after a stop. *)
  Registry.stop r;
  Registry.start r ~probe:(answering true);
  Registry.stop r

(* The prober never waits on an answer: a probe still unanswered 1 s
   after it was sent fails, an answer that arrives later is dropped,
   and the next probe that answers re-admits the member. *)
let test_registry_probe_deadline () =
  let lock = Mutex.create () in
  let held = ref [] and sent = ref [] and answer_now = ref false in
  let probe _addr answer =
    let now =
      Mutex.protect lock (fun () ->
          sent := Unix.gettimeofday () :: !sent;
          if not !answer_now then held := answer :: !held;
          !answer_now)
    in
    if now then answer true
  in
  let transitions = ref [] in
  let r =
    Registry.create ~down_after:1 ~probe_interval_s:2.
      ~on_transition:(fun _ up ->
        Mutex.protect lock (fun () ->
            transitions := (up, Unix.gettimeofday ()) :: !transitions))
      [ "/a.sock" ]
  in
  Registry.start r ~probe;
  Service.eventually ~what:"the unanswered probe failed" (fun () ->
      not (Registry.is_up r "/a.sock"));
  (match Mutex.protect lock (fun () -> (!sent, !transitions, !held)) with
  | [ sent_at ], [ (false, down_at) ], [ late ] ->
      let after = down_at -. sent_at in
      check
        (Printf.sprintf "marked down %.2f s after the probe was sent" after)
        true (after >= 0.9 && after < 1.5);
      late true;
      check "a late answer leaves the member down" false
        (Registry.is_up r "/a.sock");
      check_int "and fires no transition" 1
        (Mutex.protect lock (fun () -> List.length !transitions))
  | _ -> Alcotest.fail "expected one probe, held, and one mark-down");
  Mutex.protect lock (fun () -> answer_now := true);
  Service.eventually ~what:"the next probe re-admitted the member" (fun () ->
      Registry.is_up r "/a.sock");
  check "re-admission fired" true
    (match Mutex.protect lock (fun () -> !transitions) with
    | (true, _) :: _ -> true
    | _ -> false);
  Registry.stop r;
  (* [stop] stays prompt with a probe outstanding, and an answer after
     it records nothing. *)
  Mutex.protect lock (fun () ->
      answer_now := false;
      held := []);
  Registry.mark_success r "/a.sock";
  let before = Mutex.protect lock (fun () -> List.length !transitions) in
  Registry.start r ~probe;
  Service.eventually ~what:"a probe outstanding" (fun () ->
      Mutex.protect lock (fun () -> !held <> []));
  let t0 = Unix.gettimeofday () in
  Registry.stop r;
  check "stop is prompt with a probe outstanding" true
    (Unix.gettimeofday () -. t0 < 0.5);
  List.iter (fun late -> late false) (Mutex.protect lock (fun () -> !held));
  check "an answer after stop records nothing" true
    (Registry.is_up r "/a.sock"
    && Mutex.protect lock (fun () -> List.length !transitions) = before)

let test_registry_elastic_membership () =
  let r = Registry.create ~down_after:1 [ "/a.sock"; "/b.sock" ] in
  Registry.mark_failure r "/b.sock";
  check "b is down" false (Registry.is_up r "/b.sock");
  let gen = Registry.generation r in
  (* A genuinely new member joins without disturbing existing health. *)
  check "new member changes the up-set" true (Registry.add_member r "/c.sock");
  check "membership sorted with the joiner" true
    (Registry.backends r = [ "/a.sock"; "/b.sock"; "/c.sock" ]);
  check "joiner is up" true (Registry.is_up r "/c.sock");
  check "b's mark-down survived the join" false (Registry.is_up r "/b.sock");
  check "ring rebuilt" true (Registry.generation r > gen);
  check "ring holds exactly the up members" true
    (Ring.members (Registry.ring r) = [ "/a.sock"; "/c.sock" ]);
  (* Joining an already-up member is a no-op. *)
  check "duplicate join is a no-op" false (Registry.add_member r "/a.sock");
  (* Joining a known-down member re-admits it. *)
  check "down member re-admitted by join" true (Registry.add_member r "/b.sock");
  check "b is back" true (Registry.is_up r "/b.sock");
  (* Leave removes from membership and the ring both. *)
  check "leave changes the up-set" true (Registry.remove_member r "/c.sock");
  check "gone from membership" true
    (Registry.backends r = [ "/a.sock"; "/b.sock" ]);
  check "unknown member cannot leave" false (Registry.remove_member r "/zzz");
  (* Leaving while already down does not change the up-set. *)
  Registry.mark_failure r "/b.sock";
  check "down member's leave leaves the up-set alone" false
    (Registry.remove_member r "/b.sock");
  check "but it is still retired" true (Registry.backends r = [ "/a.sock" ]);
  (* Memberless registries are legal: the elastic router starts empty. *)
  let empty = Registry.create [] in
  check "empty membership" true (Registry.backends empty = []);
  check "nobody up" true (Registry.up empty = []);
  check "first join seeds the ring" true (Registry.add_member empty "/w.sock");
  check "ring of one" true (Ring.members (Registry.ring empty) = [ "/w.sock" ])

(* ---------------- telemetry merge ---------------- *)

let test_telemetry_merge () =
  let engine = Engine.create ~workers:1 ~queue_capacity:8 ~cache_capacity:8 () in
  List.iter
    (fun seed -> ignore (Engine.run engine (sample_job ~seed ())))
    [ 1; 2; 3 ];
  let s = Engine.stats engine in
  Engine.shutdown engine;
  let m = Telemetry.merge [ s; s ] in
  check_int "submitted sums" (2 * s.Telemetry.jobs_submitted)
    m.Telemetry.jobs_submitted;
  check_int "workers sum" (2 * s.Telemetry.workers) m.Telemetry.workers;
  check "uptime is the max, not the sum" true
    (m.Telemetry.uptime_s = s.Telemetry.uptime_s);
  let doubles phase (single : Metrics.hist_snapshot)
      (merged : Metrics.hist_snapshot) =
    check (phase ^ " buckets add") true
      (merged.buckets = Array.map (fun (b, c) -> (b, 2 * c)) single.buckets);
    check_int (phase ^ " counts add") (2 * single.count) merged.count;
    check (phase ^ " sums add") true (merged.sum = 2. *. single.sum)
  in
  doubles "queue wait" s.Telemetry.queue_wait_ms m.Telemetry.queue_wait_ms;
  doubles "exec" s.Telemetry.exec_ms m.Telemetry.exec_ms;
  check_int "three executions" 3 s.Telemetry.exec_ms.count;
  (match Telemetry.merge [] with
  | _ -> Alcotest.fail "merging nothing must be rejected"
  | exception Invalid_argument _ -> ());
  let stretched (h : Metrics.hist_snapshot) =
    { h with buckets = Array.map (fun (b, c) -> (2. *. b, c)) h.buckets }
  in
  let other = { s with Telemetry.exec_ms = stretched s.Telemetry.exec_ms } in
  match Telemetry.merge [ s; other ] with
  | _ -> Alcotest.fail "histograms with other bounds must be rejected"
  | exception Invalid_argument _ -> ()

(* Shard A executes 100 jobs at 0.150-0.249 ms, shard B 10 at
   50.0-50.9 ms.  Pooled, p50 is the 55th smallest execution (0.204 ms,
   in the bucket (0.16, 0.226]) and p99 the 109th (50.8 ms, in
   (40.96, 57.9]); averaging the shards' percentiles by count would
   read about 4.8 ms for both. *)
let test_telemetry_merge_pools () =
  let shard samples =
    let t = Telemetry.create () in
    List.iter
      (fun exec_ms -> Telemetry.record_completed t ~queue_ms:0. ~exec_ms)
      samples;
    Telemetry.snapshot t ~workers:1 ~queue_depth:0 ~queue_capacity:8
      ~cache_entries:0
  in
  let a = shard (List.init 100 (fun i -> 0.150 +. (0.001 *. float_of_int i))) in
  let b = shard (List.init 10 (fun i -> 50.0 +. (0.1 *. float_of_int i))) in
  let m = (Telemetry.merge [ a; b ]).Telemetry.exec_ms in
  check_int "every execution pooled" 110 m.Metrics.count;
  let p50 = Metrics.quantile m 0.5 and p99 = Metrics.quantile m 0.99 in
  check (Printf.sprintf "p50 %.3f ms in (0.16, 0.227]" p50) true
    (p50 > 0.16 && p50 <= 0.227);
  check (Printf.sprintf "p99 %.3f ms in (40.9, 58.0]" p99) true
    (p99 > 40.9 && p99 <= 58.0)

(* ---------------- client: multi-address failover ---------------- *)

let test_connect_any_failover () =
  let socket, thread = start_worker () in
  let dead = fresh_socket () in
  (* Dead address first: the client must move on to the live one. *)
  let c = Client.connect_any ~retries:0 ~sockets:[ dead; socket ] () in
  let completion = Client.submit c (sample_job ()) in
  check "job served through the fallback address" true
    (Result.is_ok completion.Job.result);
  Client.close c;
  (match Client.connect_any ~retries:0 ~sockets:[ dead ] () with
  | c -> Client.close c; Alcotest.fail "connect to nothing must fail"
  | exception Unix.Unix_error _ -> ());
  (match Client.connect_any ~sockets:[] () with
  | c -> Client.close c; Alcotest.fail "empty socket list must be rejected"
  | exception Invalid_argument _ -> ());
  stop_worker socket thread

(* ---------------- blackhole fault plan ---------------- *)

let test_blackhole_spec_roundtrip () =
  (match Faults.of_spec "blackhole:3" with
  | Ok f -> check "spec round-trips" true (Faults.spec f = "blackhole:3")
  | Error e -> Alcotest.fail e);
  match Faults.of_spec "partition:4" with
  | Ok f -> check "partition is an alias" true (Faults.spec f = "blackhole:4")
  | Error e -> Alcotest.fail e

let test_blackhole_swallows_reply () =
  (* Every reply swallowed: the server stays reachable but mute, so the
     client's reply deadline is the only way out. *)
  let faults = Faults.create ~blackhole_every:1 () in
  let socket, thread = start_worker ~faults () in
  let c = Client.connect ~retries:0 ~deadline_s:0.3 ~socket () in
  (match Client.submit c (sample_job ()) with
  | _ -> Alcotest.fail "a blackholed reply must not arrive"
  | exception Failure msg ->
      check "deadline names the timeout" true (contains msg "deadline")
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  Client.close c;
  (* The shutdown ack is also swallowed; shut down fd-level instead. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Raw_wire.send fd Protocol.Shutdown;
  Unix.close fd;
  Thread.join thread

(* ---------------- router: end to end ---------------- *)

(* An idle front connection (say, a gateway's persistent backend link)
   must not hold the router's shutdown for the whole drain budget. *)
let test_router_shutdown_closes_idle_connections () =
  let socket = fresh_socket () in
  if Sys.file_exists socket then Sys.remove socket;
  let thread =
    Thread.create
      (fun () -> Router.serve ~drain_timeout_s:10. ~backends:[] ~socket ())
      ()
  in
  let control = Service.connect socket in
  let idle = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect idle (Unix.ADDR_UNIX socket);
  Unix.setsockopt_float idle Unix.SO_RCVTIMEO 5.;
  (* One exchange proves the connection was accepted; then it idles. *)
  Raw_wire.send idle Protocol.Metrics;
  (match Raw_wire.read_reply idle with
  | Protocol.Metrics_text _ -> ()
  | _ -> Alcotest.fail "idle peer's first exchange failed");
  let t0 = Unix.gettimeofday () in
  Client.shutdown control;
  Client.close control;
  Thread.join thread;
  let elapsed = Unix.gettimeofday () -. t0 in
  check (Printf.sprintf "serve returned in %.2f s, under 2 s" elapsed) true
    (elapsed < 2.);
  check "idle peer reads EOF" true
    (match Raw_wire.read_reply idle with
    | _ -> false
    | exception End_of_file -> true);
  Unix.close idle

let test_router_routes_and_merges () =
  let w1, t1 = start_worker () in
  let w2, t2 = start_worker () in
  let w3, t3 = start_worker () in
  let backends = [ w1; w2; w3 ] in
  let router, rt = start_router ~backends () in
  let c = Client.connect ~socket:router ~deadline_s:10. () in
  let jobs = List.init 24 (fun i -> sample_job ~seed:(1000 + i) ()) in
  let completions = Service.submit_all c jobs in
  check_int "every job answered" 24 (List.length completions);
  List.iter
    (fun (completion : Job.completion) ->
      check "job succeeded" true (Result.is_ok completion.Job.result))
    completions;
  (* Merged stats see the whole fleet. *)
  let s = Client.stats c in
  check_int "worker counts sum across shards" 3 s.Telemetry.workers;
  check "all submissions accounted for" true (s.Telemetry.jobs_submitted >= 24);
  (* The exposition names every shard and the merged cluster series. *)
  let text = Client.metrics_text c in
  (* The router canonicalizes addresses on parse, so shards are
     labeled in [unix:PATH] form whatever spelling was passed in. *)
  let routed addr =
    Printf.sprintf "ssg_router_shard_routed_total{backend=\"%s\"}"
      Ssg_net.Transport.(to_string (of_string_exn addr))
  in
  List.iter
    (fun addr ->
      check "per-shard routed counter present" true
        (contains text (routed addr ^ " ")))
    backends;
  check "merged snapshot under cluster prefix" true
    (match prom_counter text "ssg_cluster_jobs_submitted" with
    | Some v -> v >= 24
    | None -> false);
  check "router hop histogram observed every job" true
    (contains text "ssg_hop_router_worker_ms_count 24");
  (* Placement actually spread the keys over several shards. *)
  let routed_shards =
    List.filter
      (fun addr ->
        match prom_counter text (routed addr) with
        | Some v -> v > 0
        | None -> false)
      backends
  in
  check "more than one shard saw traffic" true (List.length routed_shards >= 2);
  Client.close c;
  stop_router router rt;
  stop_worker w1 t1;
  stop_worker w2 t2;
  stop_worker w3 t3

let test_router_dedups_duplicate_backends () =
  let w1, t1 = start_worker () in
  let w2, t2 = start_worker () in
  (* The same worker listed three times under two spellings: bare path
     and explicit unix: scheme.  Before canonical dedup, each listing
     survived to the ring (doubling the worker's vnode share) and every
     stats/metrics fan-out counted the worker once per listing. *)
  let backends = [ w1; "unix:" ^ w1; w2; w1 ] in
  let router, rt = start_router ~backends () in
  let c = Client.connect ~socket:router ~deadline_s:10. () in
  let text = Client.metrics_text c in
  let shards =
    List.filter
      (String.starts_with ~prefix:"ssg_router_shard_up{")
      (String.split_on_char '\n' text)
  in
  check_int "two backends survive dedup, no phantom third shard" 2
    (List.length shards);
  let s = Client.stats c in
  check_int "fan-out does not double-count the duplicate" 2
    s.Telemetry.workers;
  let completion = Client.submit c (sample_job ()) in
  check "jobs still route" true (Result.is_ok completion.Job.result);
  Client.close c;
  stop_router router rt;
  stop_worker w1 t1;
  stop_worker w2 t2

let test_router_relays_job_errors_without_failover () =
  let w1, t1 = start_worker () in
  let w2, t2 = start_worker () in
  let router, rt = start_router ~backends:[ w1; w2 ] () in
  let c = Client.connect ~socket:router ~deadline_s:10. () in
  (* k=1 is unsatisfiable for this run: the backend's lint front door
     rejects it with a protocol Error.  Deterministic, so retrying on
     another shard would only repeat it — the router must relay it. *)
  let doomed = Job.make ~k:1 (sample_adv ()) in
  (match Client.submit c doomed with
  | _ -> Alcotest.fail "lint-rejected job must error"
  | exception Failure msg -> check "lint error relayed" true (contains msg "SSG"));
  let text = Client.metrics_text c in
  check "no failover for a job-level error" true
    (prom_counter text "ssg_router_failovers_total" = Some 0);
  check "not counted as a routing failure" true
    (prom_counter text "ssg_router_jobs_failed_total" = Some 0);
  Client.close c;
  stop_router router rt;
  stop_worker w1 t1;
  stop_worker w2 t2

let test_router_exhaustion_is_an_error_reply () =
  (* Both backends dead: the client still gets an answer, not a hang. *)
  let w1, t1 = start_worker () in
  let w2, t2 = start_worker () in
  let router, rt =
    start_router ~backends:[ w1; w2 ] ~probe_interval_s:10. ()
  in
  stop_worker w1 t1;
  stop_worker w2 t2;
  let c = Client.connect ~socket:router ~deadline_s:10. () in
  (match Client.submit c (sample_job ()) with
  | _ -> Alcotest.fail "no backend can serve: must error"
  | exception Failure msg ->
      check "exhaustion is explicit" true (contains msg "no live backend"));
  let text = Client.metrics_text c in
  check "exhaustion counted" true
    (match prom_counter text "ssg_router_jobs_failed_total" with
    | Some v -> v >= 1
    | None -> false);
  check "no cluster series when no backend reports" false
    (contains text "ssg_cluster_");
  Client.close c;
  stop_router router rt

(* The acceptance chaos run: 3 workers behind the router, one worker
   killed mid-burst and healed before the end, 200 distinct jobs from
   concurrent clients — zero client-visible errors, failover observed. *)
let test_router_chaos_kill_heal () =
  let w1, t1 = start_worker () in
  let w2, t2 = start_worker () in
  let w3, t3 = start_worker () in
  let router, rt = start_router ~backends:[ w1; w2; w3 ] () in
  let errors = Atomic.make 0 and done_jobs = Atomic.make 0 in
  let burst offset count =
    let c = Client.connect ~socket:router ~deadline_s:30. () in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        for i = 0 to count - 1 do
          (match Client.submit c (sample_job ~seed:(offset + i) ~n:6 ()) with
          | completion ->
              if Result.is_error completion.Job.result then Atomic.incr errors
          | exception _ -> Atomic.incr errors);
          Atomic.incr done_jobs
        done)
  in
  let clients =
    List.map
      (fun w -> Thread.create (fun () -> burst (w * 1000) 50) ())
      [ 1; 2; 3; 4 ]
  in
  (* Kill w2 once the burst is moving, heal it before the end. *)
  Service.eventually ~what:"the burst answered 30 jobs" (fun () ->
      Atomic.get done_jobs >= 30);
  stop_worker w2 t2;
  Thread.delay 0.3;  (* pacing: w2 stays down while the burst goes on *)
  let _, healed_thread = start_worker ~socket:w2 () in
  List.iter Thread.join clients;
  check_int "all 200 jobs answered" 200 (Atomic.get done_jobs);
  check_int "zero client-visible errors" 0 (Atomic.get errors);
  let c = Client.connect ~socket:router ~deadline_s:10. () in
  let text = Client.metrics_text c in
  (match prom_counter text "ssg_router_failovers_total" with
  | Some v -> check "failover happened" true (v > 0)
  | None -> Alcotest.fail "failover counter missing");
  (match prom_counter text "ssg_router_jobs_routed_total" with
  | Some v -> check "every job was routed" true (v >= 200)
  | None -> Alcotest.fail "routed counter missing");
  Client.close c;
  stop_router router rt;
  stop_worker w1 t1;
  stop_worker w2 healed_thread;
  stop_worker w3 t3

(* ---------------- router: backend links ---------------- *)

(* A counting proxy in front of a real worker: it counts the
   connections it accepts and the reads it passes back from the worker,
   pipes each connection to the worker, and can drop every live
   connection at once. *)
type proxy = {
  p_socket : string;
  p_listen : Unix.file_descr;
  p_accepts : int Atomic.t;
  p_replied : int Atomic.t;
  p_lock : Mutex.t;
  mutable p_live : Unix.file_descr list;  (* both ends of each pipe *)
  mutable p_threads : Thread.t list;
}

let start_proxy target =
  let socket = fresh_socket () in
  if Sys.file_exists socket then Sys.remove socket;
  let listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_UNIX socket);
  Unix.listen listen 16;
  let p =
    {
      p_socket = socket;
      p_listen = listen;
      p_accepts = Atomic.make 0;
      p_replied = Atomic.make 0;
      p_lock = Mutex.create ();
      p_live = [];
      p_threads = [];
    }
  in
  let pump ?(on_read = ignore) src dst =
    let buf = Bytes.create 65536 in
    let rec go () =
      match Unix.read src buf 0 (Bytes.length buf) with
      | 0 | (exception Unix.Unix_error _) -> ()
      | n -> (
          on_read ();
          match Unix.write dst buf 0 n with
          | _ -> go ()
          | exception Unix.Unix_error _ -> ())
    in
    go ();
    try Unix.shutdown dst Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ()
  in
  let rec accept_loop () =
    match Unix.accept listen with
    | exception Unix.Unix_error _ -> () (* the listener was shut down *)
    | client, _ ->
        Atomic.incr p.p_accepts;
        let upstream = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect upstream (Unix.ADDR_UNIX target);
        Mutex.protect p.p_lock (fun () ->
            p.p_live <- client :: upstream :: p.p_live;
            p.p_threads <-
              Thread.create (fun () -> pump client upstream) ()
              :: Thread.create
                   (fun () ->
                     pump
                       ~on_read:(fun () -> Atomic.incr p.p_replied)
                       upstream client)
                   ()
              :: p.p_threads);
        accept_loop ()
  in
  let acceptor = Thread.create accept_loop () in
  Mutex.protect p.p_lock (fun () -> p.p_threads <- acceptor :: p.p_threads);
  p

(* Cut every live connection, as a crashed link would. *)
let drop_connections p =
  Mutex.protect p.p_lock (fun () ->
      List.iter
        (fun fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        p.p_live)

let stop_proxy p =
  (try Unix.shutdown p.p_listen Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  drop_connections p;
  List.iter Thread.join p.p_threads;
  List.iter Unix.close (p.p_listen :: p.p_live);
  Sys.remove p.p_socket

let canonical addr = Ssg_net.Transport.(to_string (of_string_exn addr))

let worker_submitted socket =
  let c = Client.connect ~socket ~deadline_s:10. () in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () -> (Client.stats c).Telemetry.jobs_submitted)

let test_router_one_link_per_backend () =
  (* The router reaches its backend over one pipelined link only: the
     prober's stats every 50 ms and 20 jobs cost one dial, not a dial
     each.  The jobs wait for the first probe's answer, so that probe
     and the first job do not race to dial. *)
  let w, wt = start_worker () in
  let p = start_proxy w in
  let router, rt =
    start_router ~probe_interval_s:0.05 ~backends:[ p.p_socket ] ()
  in
  Service.eventually ~what:"the first probe answered" (fun () ->
      Atomic.get p.p_replied >= 1);
  let c = Client.connect ~socket:router ~deadline_s:10. () in
  for i = 1 to 20 do
    let completion = Client.submit c (sample_job ~seed:(300 + i) ()) in
    check "routed job ok" true (Result.is_ok completion.Job.result)
  done;
  Client.close c;
  check_int "one backend connection for the probes and 20 jobs" 1
    (Atomic.get p.p_accepts);
  stop_router router rt;
  stop_proxy p;
  stop_worker w wt

(* Over one live backend and a socket nobody serves, the probes alone
   take the dead one out within a few probe intervals (three failures
   at [down_after = 3]; the one scrape below adds one more) and keep
   the live one in. *)
let test_router_probes_mark_dead_backend () =
  let w, wt = start_worker () in
  let dead = fresh_socket () in
  let router, rt =
    start_router ~down_after:3 ~probe_interval_s:0.05 ~backends:[ w; dead ] ()
  in
  Thread.delay 0.5;
  let c = Service.connect router in
  let text = Client.metrics_text c in
  Client.close c;
  let up addr =
    prom_counter text
      (Printf.sprintf "ssg_router_shard_up{backend=\"%s\"}" (canonical addr))
  in
  check "the dead backend is down" true (up dead = Some 0);
  check "the live backend is up" true (up w = Some 1);
  check "one mark-down, the dead one's" true
    (prom_counter text "ssg_router_markdowns_total" = Some 1);
  stop_router router rt;
  stop_worker w wt

(* A worker whose one connection slot holds the router's link: the
   probes ride that link, so the worker is never marked down while it
   serves.  Checked on the mark-down counter, since a scrape's own
   stats fan-out would re-admit a worker the probes had ejected. *)
let test_router_capped_worker_stays_up () =
  let w = fresh_socket () in
  if Sys.file_exists w then Sys.remove w;
  let wt =
    Thread.create
      (fun () ->
        Server.serve ~workers:1 ~max_connections:1 ~drain_timeout_s:5.
          ~socket:w ())
      ()
  in
  (* Bound is enough: the router's link is the worker's first and only
     connection. *)
  Service.eventually ~what:"the worker bound" (fun () -> Sys.file_exists w);
  let router, rt =
    start_router ~down_after:1 ~probe_interval_s:0.05 ~backends:[ w ] ()
  in
  let c = Client.connect ~socket:router ~deadline_s:10. () in
  let completion = Client.submit c (sample_job ~seed:900 ()) in
  check "the job served" true (Result.is_ok completion.Job.result);
  Thread.delay 1.;
  let text = Client.metrics_text c in
  Client.close c;
  check "no mark-down" true
    (prom_counter text "ssg_router_markdowns_total" = Some 0);
  stop_router router rt;
  (* The worker frees its slot once it sees the link close. *)
  Service.eventually ~what:"the worker took the shutdown" (fun () ->
      match Client.connect ~retries:0 ~deadline_s:5. ~socket:w () with
      | exception Unix.Unix_error _ -> false
      | c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match Client.shutdown c with () -> true | exception _ -> false));
  Thread.join wt

(* Two mute backends: a stats fan-out sends to both at once, so it
   costs one request deadline, not one per backend.  The first fan-out
   shares the links the prober dialed and waits for the links' receive
   timer; the second dials fresh links and is timed. *)
let test_router_fan_out_waits_once () =
  let mute () = start_worker ~faults:(Faults.create ~blackhole_every:1 ()) () in
  let w1, t1 = mute () and w2, t2 = mute () in
  let router, rt =
    start_router ~probe_interval_s:60. ~down_after:1000 ~request_timeout_s:1.
      ~backends:[ w1; w2 ] ()
  in
  let c = Client.connect ~socket:router ~deadline_s:10. () in
  let timed_stats () =
    let t0 = Unix.gettimeofday () in
    (match Client.stats c with
    | _ -> Alcotest.fail "mute backends cannot report"
    | exception Failure msg ->
        check "no backend reachable" true
          (contains msg "no backend reachable"));
    Unix.gettimeofday () -. t0
  in
  ignore (timed_stats ());
  let elapsed = timed_stats () in
  check
    (Printf.sprintf "stats over two mute backends took %.2f s, under 1.6 s"
       elapsed)
    true (elapsed < 1.6);
  Client.close c;
  stop_router router rt;
  (* Their shutdown acks are swallowed too. *)
  List.iter
    (fun (w, t) ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX w);
      Raw_wire.send fd Protocol.Shutdown;
      Unix.close fd;
      Thread.join t)
    [ (w1, t1); (w2, t2) ]

let test_router_dropped_link_fails_over () =
  (* The owner's link drops with jobs in flight on it: each of them is
     answered by the successor shard, the failover counter moves, and
     the next job for the owner dials a fresh link. *)
  let w1, t1 =
    start_worker ~faults:(Faults.create ~slow_every:1 ~slow_s:0.5 ()) ()
  in
  let p = start_proxy w1 in
  let w2, t2 = start_worker () in
  let router, rt =
    start_router ~probe_interval_s:60. ~down_after:1000
      ~backends:[ p.p_socket; w2 ] ()
  in
  let ring = Ring.create [ canonical p.p_socket; canonical w2 ] in
  let owned_by_proxy =
    Seq.ints 400
    |> Seq.map (fun seed -> sample_job ~seed ())
    |> Seq.filter (fun job ->
           Ring.owner ring (Job.key job) = Some (canonical p.p_socket))
    |> Seq.take 4 |> List.of_seq
  in
  let in_flight, next =
    match owned_by_proxy with
    | [ a; b; c; d ] -> ([ a; b; c ], d)
    | _ -> Alcotest.fail "the proxy owns too few keys"
  in
  let pc = Client.connect ~socket:router ~deadline_s:30. () in
  let tickets = List.map (Client.submit_async pc) in_flight in
  Service.eventually ~what:"the owner received the jobs" (fun () ->
      worker_submitted w1 >= 3);
  let dialed = Atomic.get p.p_accepts in
  drop_connections p;
  List.iter
    (fun ticket ->
      match Client.await ticket with
      | Ok completion ->
          check "answered after the drop" true
            (Result.is_ok completion.Job.result)
      | Error e -> Alcotest.fail e)
    tickets;
  check_int "the successor answered every dropped job" 3 (worker_submitted w2);
  let c = Service.connect router in
  let text = Client.metrics_text c in
  Client.close c;
  (match prom_counter text "ssg_router_failovers_total" with
  | Some v -> check "failovers counted" true (v >= 3)
  | None -> Alcotest.fail "failover counter missing");
  (match Client.await (Client.submit_async pc next) with
  | Ok completion ->
      check "next job served" true (Result.is_ok completion.Job.result)
  | Error e -> Alcotest.fail e);
  check_int "the next job dialed a fresh link" (dialed + 1)
    (Atomic.get p.p_accepts);
  check_int "and reached the owner" 4 (worker_submitted w1);
  Client.close pc;
  stop_router router rt;
  stop_proxy p;
  stop_worker w1 t1;
  stop_worker w2 t2

let test_router_swallowed_reply_fails_over_alone () =
  (* Three jobs in flight on the owner's link, and the owner swallows
     the reply to the first.  That job fails over alone once its
     deadline passes: the other two, still in flight then, complete on
     the same link, and no link is dialed anew.  The owner's fault plan
     counts its replies: the prober's stats (1st) and two stats fan-outs
     (2nd and 3rd) go before the jobs, so the first job's reply is the
     4th, which is swallowed, and the 8th would be the next. *)
  let deadline_s = 1.2 and exec_s = 0.4 in
  let w1, t1 =
    start_worker ~workers:2
      ~faults:
        (Faults.create ~blackhole_every:4 ~slow_every:1 ~slow_s:exec_s ())
      ()
  in
  let p = start_proxy w1 in
  let w2, t2 = start_worker () in
  let router, rt =
    start_router ~probe_interval_s:60. ~down_after:1000
      ~request_timeout_s:deadline_s ~backends:[ p.p_socket; w2 ] ()
  in
  Service.eventually ~what:"the prober's stats answered" (fun () ->
      Atomic.get p.p_replied >= 1);
  let c = Client.connect ~socket:router ~deadline_s:30. () in
  ignore (Client.stats c);
  ignore (Client.stats c);
  let dialed = Atomic.get p.p_accepts in
  let ring = Ring.create [ canonical p.p_socket; canonical w2 ] in
  let swallowed, others =
    match
      Seq.ints 600
      |> Seq.map (fun seed -> sample_job ~seed ())
      |> Seq.filter (fun job ->
             Ring.owner ring (Job.key job) = Some (canonical p.p_socket))
      |> Seq.take 3 |> List.of_seq
    with
    | first :: rest -> (first, rest)
    | [] -> Alcotest.fail "the proxy owns too few keys"
  in
  let t0 = Unix.gettimeofday () in
  let muted = Client.submit_async c swallowed in
  (* The other two go out while the first is in flight and run until its
     deadline has passed. *)
  Thread.delay (deadline_s -. exec_s);
  let tickets = List.map (Client.submit_async c) others in
  List.iter
    (fun ticket ->
      match Client.await ticket with
      | Ok completion ->
          check "answered on the link" true (Result.is_ok completion.Job.result)
      | Error e -> Alcotest.fail e)
    tickets;
  check "still in flight when the first job's deadline passed" true
    (Unix.gettimeofday () -. t0 >= deadline_s);
  (match Client.await muted with
  | Ok completion ->
      check "the swallowed job answered by the successor" true
        (Result.is_ok completion.Job.result)
  | Error e -> Alcotest.fail e);
  check_int "the successor ran the swallowed job alone" 1
    (worker_submitted w2);
  let text = Client.metrics_text c in
  Client.close c;
  check "one failover" true
    (prom_counter text "ssg_router_failovers_total" = Some 1);
  check_int "no link dialed anew" dialed (Atomic.get p.p_accepts);
  stop_router router rt;
  stop_proxy p;
  (* Its 8th reply, a shutdown ack, would be swallowed. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX w1);
  Raw_wire.send fd Protocol.Shutdown;
  Unix.close fd;
  Thread.join t1;
  stop_worker w2 t2

let test_router_unparseable_run_keeps_link () =
  (* A run text that does not parse travels unparsed to its owner, whose
     lint front door refuses it.  The router relays that Error without
     failover, and the shared link, with the slow jobs in flight on it,
     keeps serving. *)
  let w, wt =
    start_worker ~faults:(Faults.create ~slow_every:1 ~slow_s:0.2 ()) ()
  in
  let p = start_proxy w in
  let router, rt =
    start_router ~probe_interval_s:60. ~down_after:1000
      ~backends:[ p.p_socket ] ()
  in
  let pc = Client.connect ~socket:router ~deadline_s:30. () in
  let served label ticket =
    match Client.await ticket with
    | Ok c -> check label true (Result.is_ok c.Job.result)
    | Error e -> Alcotest.fail (label ^ ": " ^ e)
  in
  (* The prober's first probe dials the link; everything after rides it. *)
  Service.eventually ~what:"the first probe answered" (fun () ->
      Atomic.get p.p_replied >= 1);
  served "the first job rides the link"
    (Client.submit_async pc (sample_job ~seed:500 ()));
  let dialed = Atomic.get p.p_accepts in
  check_int "one backend connection" 1 dialed;
  let in_flight =
    List.init 3 (fun i -> Client.submit_async pc (sample_job ~seed:(501 + i) ()))
  in
  let bad =
    Client.submit_async pc
      (Job.as_sent ~algorithm:Job.Kset ~k:2 ~monitor:false
         "ssg-run v1\nn 3\nstable: 0>1 1>9\n")
  in
  (match Client.await bad with
  | Error msg ->
      check "the worker's lint rejection relayed" true
        (String.starts_with ~prefix:"job rejected by lint:" msg
        && contains msg "SSG000")
  | Ok _ -> Alcotest.fail "an unparseable run must be refused");
  List.iter (served "a job in flight on the link") in_flight;
  served "a job after the bad one"
    (Client.submit_async pc (sample_job ~seed:510 ()));
  Client.close pc;
  check_int "still one backend link" dialed (Atomic.get p.p_accepts);
  let c = Service.connect router in
  let text = Client.metrics_text c in
  Client.close c;
  check "no failover" true
    (prom_counter text "ssg_router_failovers_total" = Some 0);
  stop_router router rt;
  stop_proxy p;
  stop_worker w wt

(* ---------------- elastic membership: end to end ---------------- *)

(* Poll the router's exposition until a counter satisfies [pred]. *)
let wait_prom router name pred =
  Service.eventually ~what:name (fun () ->
      let c = Client.connect ~socket:router ~deadline_s:10. () in
      let v = prom_counter (Client.metrics_text c) name in
      Client.close c;
      match v with Some v -> pred v | None -> false)

(* A worker started with [--announce] joins a live ring at runtime; the
   warm handoff streams the hot keys for its new ranges, so resubmitting
   the original burst stays all-hits even though a third of the keys
   changed owner. *)
let test_router_elastic_join_warm_handoff () =
  let w1, t1 = start_worker () in
  let w2, t2 = start_worker () in
  let router, rt = start_router ~backends:[ w1; w2 ] () in
  let jobs = List.init 60 (fun i -> sample_job ~seed:(5000 + i) ()) in
  let c = Client.connect ~socket:router ~deadline_s:30. () in
  let first = Service.submit_all c jobs in
  check "burst succeeded" true
    (List.for_all (fun x -> Result.is_ok x.Job.result) first);
  (* A third worker walks up and announces itself to the router. *)
  let w3, t3 = start_worker ~announce:router () in
  wait_prom router "ssg_router_joins_total" (fun v -> v >= 1);
  wait_prom router "ssg_router_handoff_keys_total" (fun v -> v > 0);
  let s = Client.stats c in
  check_int "fleet grew to three" 3 s.Telemetry.workers;
  (* The whole burst again: keys that moved to the joiner must be served
     from its handed-off cache, not recomputed. *)
  let again = Service.submit_all c jobs in
  check "no errors across the join" true
    (List.for_all (fun x -> Result.is_ok x.Job.result) again);
  check "every key still a cache hit" true
    (List.for_all (fun x -> x.Job.cached) again);
  let w3c = Service.connect w3 in
  let w3s = Client.stats w3c in
  Client.close w3c;
  check "the joiner served hits from handed-off keys" true
    (w3s.Telemetry.cache_hits > 0);
  Client.close c;
  stop_router router rt;
  stop_worker w1 t1;
  stop_worker w2 t2;
  stop_worker w3 t3

(* Leave is the reverse: the leaver's hot keys are rescued to the
   ranges' new owners before it drops out, so the burst stays all-hits
   with one fewer worker. *)
let test_router_elastic_leave_rescues_keys () =
  let w1, t1 = start_worker () in
  let w2, t2 = start_worker () in
  let w3, t3 = start_worker () in
  let router, rt = start_router ~backends:[ w1; w2; w3 ] () in
  let jobs = List.init 45 (fun i -> sample_job ~seed:(7000 + i) ()) in
  let c = Client.connect ~socket:router ~deadline_s:30. () in
  let first = Service.submit_all c jobs in
  check "burst succeeded" true
    (List.for_all (fun x -> Result.is_ok x.Job.result) first);
  Client.leave c w3;
  let s = Client.stats c in
  check_int "fleet shrank to two" 2 s.Telemetry.workers;
  let text = Client.metrics_text c in
  check "leave counted" true
    (prom_counter text "ssg_router_leaves_total" = Some 1);
  check "rescued keys counted" true
    (match prom_counter text "ssg_router_handoff_keys_total" with
    | Some v -> v > 0
    | None -> false);
  let again = Service.submit_all c jobs in
  check "no errors across the leave" true
    (List.for_all (fun x -> Result.is_ok x.Job.result) again);
  check "every key still a cache hit" true
    (List.for_all (fun x -> x.Job.cached) again);
  Client.close c;
  stop_router router rt;
  stop_worker w1 t1;
  stop_worker w2 t2;
  (* The leaver itself keeps running; it just left the ring. *)
  stop_worker w3 t3

(* A member that leaves loses its shard series: after an announced
   worker's shutdown (its Leave), the scrape names it nowhere, and the
   remaining member keeps all three. *)
let test_router_leaver_loses_shard_series () =
  let w1, t1 = start_worker () in
  let router, rt = start_router ~backends:[ w1 ] () in
  let w2, t2 = start_worker ~announce:router () in
  wait_prom router "ssg_router_joins_total" (fun v -> v >= 1);
  let c = Client.connect ~socket:router ~deadline_s:30. () in
  let burst = List.init 20 (fun i -> sample_job ~seed:(8000 + i) ()) in
  check "burst succeeded" true
    (List.for_all
       (fun x -> Result.is_ok x.Job.result)
       (Service.submit_all c burst));
  (* The sample lines of a scrape that name [addr]. *)
  let naming addr text =
    String.split_on_char '\n' text
    |> List.filter (fun line ->
           line <> "" && line.[0] <> '#' && contains line addr)
    |> List.length
  in
  check_int "the joiner has its three series" 3
    (naming (canonical w2) (Client.metrics_text c));
  stop_worker w2 t2;
  wait_prom router "ssg_router_leaves_total" (fun v -> v >= 1);
  let text = Client.metrics_text c in
  check_int "no sample names the leaver" 0 (naming (canonical w2) text);
  check_int "the member keeps its three series" 3
    (naming (canonical w1) text);
  Client.close c;
  stop_router router rt;
  stop_worker w1 t1

(* ---------------- suite ---------------- *)

let tests =
  [
    Alcotest.test_case "ring: basics" `Quick test_ring_basics;
    Alcotest.test_case "ring: hash64 pinned" `Quick test_ring_hash64_pinned;
    Alcotest.test_case "ring: successors" `Quick test_ring_successors;
    QCheck_alcotest.to_alcotest prop_balanced;
    QCheck_alcotest.to_alcotest prop_remove_remaps_only_removed;
    Alcotest.test_case "registry: state machine" `Quick
      test_registry_state_machine;
    Alcotest.test_case "registry: all-down fallback" `Quick
      test_registry_candidates_when_all_down;
    Alcotest.test_case "registry: prober re-admits" `Quick
      test_registry_prober_thread;
    Alcotest.test_case "registry: prober stop is prompt" `Quick
      test_registry_prober_stop_is_prompt;
    Alcotest.test_case "registry: a probe fails after 1 s, late answers drop"
      `Quick test_registry_probe_deadline;
    Alcotest.test_case "registry: elastic membership" `Quick
      test_registry_elastic_membership;
    Alcotest.test_case "telemetry: merge" `Quick test_telemetry_merge;
    Alcotest.test_case "telemetry: the fleet merge pools" `Quick
      test_telemetry_merge_pools;
    Alcotest.test_case "client: connect_any failover" `Quick
      test_connect_any_failover;
    Alcotest.test_case "faults: blackhole spec" `Quick
      test_blackhole_spec_roundtrip;
    Alcotest.test_case "faults: blackhole swallows replies" `Quick
      test_blackhole_swallows_reply;
    Alcotest.test_case "router: shutdown closes idle connections at once"
      `Quick test_router_shutdown_closes_idle_connections;
    Alcotest.test_case "router: routes and merges" `Quick
      test_router_routes_and_merges;
    Alcotest.test_case "router: dedups duplicate backends" `Quick
      test_router_dedups_duplicate_backends;
    Alcotest.test_case "router: relays job errors" `Quick
      test_router_relays_job_errors_without_failover;
    Alcotest.test_case "router: exhaustion" `Quick
      test_router_exhaustion_is_an_error_reply;
    Alcotest.test_case "router: one link per backend" `Quick
      test_router_one_link_per_backend;
    Alcotest.test_case "router: probes mark a dead backend down" `Quick
      test_router_probes_mark_dead_backend;
    Alcotest.test_case "router: a capped worker stays up" `Quick
      test_router_capped_worker_stays_up;
    Alcotest.test_case "router: a fan-out waits once" `Quick
      test_router_fan_out_waits_once;
    Alcotest.test_case "router: unparseable run text keeps the link" `Quick
      test_router_unparseable_run_keeps_link;
    Alcotest.test_case "router: dropped link fails over and redials" `Quick
      test_router_dropped_link_fails_over;
    Alcotest.test_case "router: a swallowed reply fails over alone" `Quick
      test_router_swallowed_reply_fails_over_alone;
    Alcotest.test_case "router: chaos kill/heal 200-job burst" `Slow
      test_router_chaos_kill_heal;
    Alcotest.test_case "router: elastic join + warm handoff" `Quick
      test_router_elastic_join_warm_handoff;
    Alcotest.test_case "router: elastic leave rescues keys" `Quick
      test_router_elastic_leave_rescues_keys;
    Alcotest.test_case "router: a leaver loses its shard series" `Quick
      test_router_leaver_loses_shard_series;
  ]
