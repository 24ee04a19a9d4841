(* Self-tests of the benchmark harness: request lists, the arithmetic
   behind every reported number, and the reply parsers.  None of them
   starts a fleet. *)

open Perfbench
open Ssg_engine

let keys (w : Workload.t) =
  Array.map (fun (r : Workload.request) -> r.key) (Array.append w.warm w.requests)

let runs (w : Workload.t) =
  Array.map (fun (r : Workload.request) -> (r.job.Job.run, r.job.Job.k)) w.requests

let test_seeded () =
  List.iter
    (fun name ->
      let a = Workload.make ~name ~seed:7 ~seconds:1 in
      let b = Workload.make ~name ~seed:7 ~seconds:1 in
      let c = Workload.make ~name ~seed:8 ~seconds:1 in
      Alcotest.(check (array string)) (name ^ ": same seed, same keys") (keys a) (keys b);
      Alcotest.(check bool) (name ^ ": same seed, same jobs") true (runs a = runs b);
      Alcotest.(check bool) (name ^ ": other seed, other keys") false (keys a = keys c))
    Workload.names

let test_hot_set_fits_lru () =
  List.iter
    (fun name ->
      let w = Workload.make ~name ~seed:3 ~seconds:1 in
      let distinct = Hashtbl.create 64 in
      Array.iter (fun (r : Workload.request) -> Hashtbl.replace distinct r.key ()) w.warm;
      Alcotest.(check int) (name ^ ": 64 distinct hot runs") 64 (Hashtbl.length distinct);
      Alcotest.(check bool) (name ^ ": fits the default LRU") true
        (Hashtbl.length distinct <= 1024);
      Array.iter
        (fun (r : Workload.request) ->
          if r.kind = Workload.Hit then
            Alcotest.(check bool) "hit drawn from the hot set" true (Hashtbl.mem distinct r.key))
        w.requests)
    [ "hit-http"; "mixed-open" ]

let gate (r : Workload.request) = Ssg_lint.Lint.gate ~k:r.job.Job.k r.job.Job.run

let test_miss_native_jobs () =
  let w = Workload.make ~name:"miss-native" ~seed:5 ~seconds:1 in
  let seen = Hashtbl.create 512 in
  Array.iter
    (fun (r : Workload.request) ->
      Alcotest.(check bool) "distinct key" false (Hashtbl.mem seen r.key);
      Hashtbl.add seen r.key ();
      Alcotest.(check bool) "passes Lint.gate" true (gate r = None))
    w.requests;
  let ns =
    Array.to_list w.requests
    |> List.map (fun (r : Workload.request) ->
           Ssg_adversary.Adversary.n (Ssg_adversary.Run_format.of_string r.job.Job.run))
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "sweep sizes" [ 8; 12; 16; 20 ] ns

let test_mixed_open_jobs () =
  let w = Workload.make ~name:"mixed-open" ~seed:5 ~seconds:2 in
  Alcotest.(check int) "100 arrivals per second" 200 (Array.length w.requests);
  let count kind =
    Array.fold_left
      (fun acc (r : Workload.request) -> if r.kind = kind then acc + 1 else acc)
      0 w.requests
  in
  Alcotest.(check (list int)) "7:2:1" [ 140; 40; 20 ]
    [ count Workload.Hit; count Workload.Miss; count Workload.Lint ];
  Array.iter
    (fun (r : Workload.request) ->
      match r.kind with
      | Workload.Lint -> Alcotest.(check bool) "lint job fails Lint.gate" true (gate r <> None)
      | Workload.Miss -> Alcotest.(check bool) "miss passes Lint.gate" true (gate r = None)
      | Workload.Hit -> ())
    w.requests

let close = Alcotest.float 1e-9

let test_percentiles () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.check close "median" 3. (Summary.median xs);
  Alcotest.check close "p90 interpolates" 4.6 (Summary.percentile xs 0.9);
  Alcotest.check close "p0" 1. (Summary.percentile xs 0.);
  Alcotest.check close "p100" 5. (Summary.percentile xs 1.);
  Alcotest.check close "even count median" 2.5 (Summary.median [| 1.; 2.; 3.; 4. |]);
  Alcotest.(check bool) "a failure misses every limit" true
    (Summary.percentile [| 1.; 2.; infinity |] 0.9 = infinity);
  Alcotest.check close "mean" 3. (Summary.mean xs);
  Alcotest.check close "per-job mean" 2.5 (Summary.per_job 10. 4);
  Alcotest.check close "no jobs reads 0" 0. (Summary.per_job 10. 0)

let test_hist_quantile () =
  let b = [| (1., 0); (5., 10); (10., 20); (infinity, 20) |] in
  Alcotest.check close "p50 interpolates inside (1, 5]" 5. (Summary.hist_quantile b 0.5);
  Alcotest.check close "p25" 3. (Summary.hist_quantile b 0.25);
  Alcotest.check close "p75" 7.5 (Summary.hist_quantile b 0.75);
  Alcotest.check close "empty" 0.
    (Summary.hist_quantile [| (1., 0); (infinity, 0) |] 0.5);
  Alcotest.check close "+Inf bucket reads the last bound" 1.
    (Summary.hist_quantile [| (1., 0); (infinity, 4) |] 0.5)

let test_rows_sum () =
  let rows = [ 120.5; 30.25; 0.; 1849.25 ] in
  let mean_ms = 3.75 in
  let residual = Summary.unattributed_ms ~mean_ms rows in
  Alcotest.check close "rows + unattributed = mean" mean_ms
    ((List.fold_left ( +. ) 0. rows /. 1000.) +. residual);
  Alcotest.check close "residual" 1.75 residual

(* The walk touches exactly the layers each workload's path crosses. *)
let test_walk_rows () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "perfbench-walk-test" in
  let walk name n =
    let w = Workload.make ~name ~seed:4 ~seconds:1 in
    let r = Walk.run ~dir ~budget_s:infinity w (Array.sub w.requests 0 n) in
    Alcotest.(check int) (name ^ ": every request walked") n r.jobs;
    (r, fun row -> List.assoc row r.row_us)
  in
  let hit, row = walk "hit-http" 20 in
  List.iter
    (fun z -> Alcotest.check close ("hit-http: no " ^ z) 0. (row z))
    [ "lint.gate_us"; "runner.exec_us"; "store.append_us" ];
  List.iter
    (fun nz -> Alcotest.(check bool) ("hit-http: " ^ nz ^ " > 0") true (row nz > 0.))
    [ "gateway.http_parse_us"; "gateway.normalize_us"; "router.decode_us";
      "router.connect_us"; "worker.decode_us"; "engine.lru_us" ];
  Alcotest.check close "hit-http: three normalizations" 3. hit.normalizations;
  Alcotest.check close "hit-http: nothing executed" 0. hit.rounds_per_job;
  let miss, row = walk "miss-native" 5 in
  List.iter
    (fun z -> Alcotest.check close ("miss-native: no " ^ z) 0. (row z))
    [ "gateway.http_parse_us"; "gateway.normalize_us"; "router.decode_us";
      "router.ring_us"; "router.connect_us" ];
  List.iter
    (fun nz -> Alcotest.(check bool) ("miss-native: " ^ nz ^ " > 0") true (row nz > 0.))
    [ "worker.decode_us"; "lint.gate_us"; "runner.exec_us"; "store.append_us" ];
  Alcotest.check close "miss-native: one normalization" 1. miss.normalizations;
  Alcotest.(check int) "miss-native: every job executed" 5 (Hashtbl.length miss.executed);
  Alcotest.(check bool) "root spans parent the calls" true
    (List.for_all
       (fun (s : Walk.span) ->
         s.parent = -1
         || List.exists (fun (p : Walk.span) -> p.id = s.parent && p.req = s.req) miss.spans)
       miss.spans)

let test_prom () =
  let text a b =
    Printf.sprintf
      "# TYPE h histogram\nh_bucket{le=\"1\"} %d\nh_bucket{le=\"5\"} %d\nh_bucket{le=\"+Inf\"} %d\nh_sum %d\nh_count %d\nc_total %d\n"
      a b b (3 * b) b (a + b)
  in
  let before = Prom.parse (text 1 2) and after = Prom.parse (text 3 10) in
  Alcotest.check close "counter delta" 10. (Prom.delta before after "c_total");
  Alcotest.check close "histogram mean delta" 3. (Prom.hist_mean before after "h");
  Alcotest.(check (array (pair (float 0.) int))) "bucket deltas"
    [| (1., 2); (5., 8); (infinity, 8) |]
    (Prom.hist_delta before after "h")

let test_reply_parsing () =
  let w = Workload.make ~name:"mixed-open" ~seed:2 ~seconds:1 in
  let o = Job.execute w.warm.(0).job in
  let body = Json.render_completion ~cached:true ~latency_ms:0. o in
  let c = { Http_client.fd = Unix.stdin; pending = "" } in
  let resp =
    Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  c.pending <- String.sub resp 0 40;
  Alcotest.(check bool) "partial response waits" true (Http_client.next_response c = None);
  c.pending <- resp ^ "HTTP/1.1";
  (match Http_client.next_response c with
  | Some r -> (
      Alcotest.(check int) "status" 200 r.status;
      Alcotest.(check string) "rest kept" "HTTP/1.1" c.pending;
      match Load.classify_http r with
      | Load.Outcome (o', cached) ->
          Alcotest.(check bool) "cached" true cached;
          Alcotest.(check string) "outcome round-trips"
            (Protocol.outcome_to_string o) (Protocol.outcome_to_string o')
      | _ -> Alcotest.fail "200 not classified as an outcome")
  | None -> Alcotest.fail "complete response not framed");
  let lint = { Http_client.status = 422; body = "{\"error\":\"job rejected by lint:\\n...\"}" } in
  Alcotest.(check bool) "422 lint" true (Load.classify_http lint = Load.Rejected);
  Alcotest.(check bool) "502 fails" true
    (match Load.classify_http { Http_client.status = 502; body = "{}" } with
    | Load.Failed _ -> true
    | _ -> false)

let () =
  Alcotest.run "perfbench"
    [
      ( "workloads",
        [
          Alcotest.test_case "seeded request lists" `Quick test_seeded;
          Alcotest.test_case "hot set fits the LRU" `Quick test_hot_set_fits_lru;
          Alcotest.test_case "miss-native jobs distinct and lint-clean" `Quick
            test_miss_native_jobs;
          Alcotest.test_case "mixed-open mix and lint jobs" `Quick test_mixed_open_jobs;
        ] );
      ( "arithmetic",
        [
          Alcotest.test_case "percentiles and per-job means" `Quick test_percentiles;
          Alcotest.test_case "histogram quantile" `Quick test_hist_quantile;
          Alcotest.test_case "rows sum to the mean" `Quick test_rows_sum;
          Alcotest.test_case "prometheus deltas" `Quick test_prom;
        ] );
      ("walk", [ Alcotest.test_case "rows per workload" `Quick test_walk_rows ]);
      ("replies", [ Alcotest.test_case "HTTP framing and outcomes" `Quick test_reply_parsing ]);
    ]
