(* Tests for the observability layer: the span/event tracer (nesting,
   per-domain ordering, disabled fast path, ring overflow), the metrics
   registry (counters, gauges, histograms, Prometheus exposition), the
   Chrome trace writer (qcheck: always well-formed JSON, always
   B/E-balanced), fleet stitching, the Telemetry snapshot serializers
   derived from [Telemetry.fields], and an end-to-end trace pull from
   a live ssgd.

   The tracer is process-global, so every test starts with [reset] and
   finishes disabled — Alcotest runs cases sequentially in-process. *)

open Ssg_util
module Tracer = Ssg_obs.Tracer
module Metrics = Ssg_obs.Metrics
module Export = Ssg_obs.Export
module Stitch = Ssg_obs.Stitch

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let is_infix ~affix s =
  let h = String.length s and n = String.length affix in
  let rec go i = i + n <= h && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let with_tracing f =
  Tracer.reset ();
  Tracer.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Tracer.set_enabled false;
      Tracer.reset ())
    f

(* --- tracer --- *)

let test_disabled_emits_nothing () =
  Tracer.reset ();
  Tracer.set_enabled false;
  Tracer.instant "i";
  Tracer.span_begin "s";
  Tracer.span_end "s";
  check_int "with_span still runs its body" 7
    (Tracer.with_span "w" (fun () -> 7));
  check_int "no events recorded" 0 (List.length (Tracer.events ()));
  check_int "nothing dropped" 0 (Tracer.dropped ())

let test_span_nesting () =
  with_tracing (fun () ->
      let r =
        Tracer.with_span "outer" (fun () ->
            Tracer.instant "mid";
            Tracer.with_span "inner" (fun () -> 41) + 1)
      in
      check_int "body result" 42 r;
      match Tracer.events () with
      | [ b_outer; mid; b_inner; e_inner; e_outer ] ->
          check "B outer" true
            (b_outer.Tracer.kind = Tracer.Begin
            && b_outer.Tracer.name = "outer");
          check "instant between" true (mid.Tracer.kind = Tracer.Instant);
          check "B inner" true
            (b_inner.Tracer.kind = Tracer.Begin
            && b_inner.Tracer.name = "inner");
          check "E inner before E outer" true
            (e_inner.Tracer.kind = Tracer.End
            && e_inner.Tracer.name = "inner"
            && e_outer.Tracer.kind = Tracer.End
            && e_outer.Tracer.name = "outer");
          let d = b_outer.Tracer.domain in
          check "one domain" true
            (List.for_all
               (fun (e : Tracer.event) -> e.Tracer.domain = d)
               (Tracer.events ()))
      | evs -> Alcotest.failf "expected 5 events, got %d" (List.length evs))

let test_span_end_on_raise () =
  with_tracing (fun () ->
      (try Tracer.with_span "doomed" (fun () -> failwith "boom")
       with Failure _ -> ());
      let kinds =
        List.map (fun (e : Tracer.event) -> e.Tracer.kind) (Tracer.events ())
      in
      check "span closed despite the raise" true
        (kinds = [ Tracer.Begin; Tracer.End ]))

let test_timestamps_monotone () =
  with_tracing (fun () ->
      for i = 1 to 500 do
        Tracer.instant ~args:[ ("i", Tracer.Int i) ] "tick"
      done;
      let rec mono = function
        | (a : Tracer.event) :: (b : Tracer.event) :: rest ->
            a.Tracer.ts_us <= b.Tracer.ts_us && mono (b :: rest)
        | _ -> true
      in
      check "per-domain emission order is timestamp order" true
        (mono (Tracer.events ())))

let test_instant_args () =
  with_tracing (fun () ->
      Tracer.instant
        ~args:
          [
            ("n", Tracer.Int 6);
            ("rate", Tracer.Float 0.5);
            ("who", Tracer.Str "p3");
          ]
        "decide";
      match Tracer.events () with
      | [ e ] ->
          check "args preserved" true
            (e.Tracer.args
            = [
                ("n", Tracer.Int 6);
                ("rate", Tracer.Float 0.5);
                ("who", Tracer.Str "p3");
              ])
      | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs))

let test_ring_overflow () =
  with_tracing (fun () ->
      let total = 20000 in
      for i = 1 to total do
        Tracer.instant ~args:[ ("i", Tracer.Int i) ] "tick"
      done;
      let evs = Tracer.events () in
      check "retention bounded by the ring" true (List.length evs <= 16384);
      check_int "overflow counted" (total - List.length evs)
        (Tracer.dropped ());
      (* The ring keeps the newest events: the last one emitted must
         still be there, the first must be gone. *)
      let has i =
        List.exists
          (fun (e : Tracer.event) -> e.Tracer.args = [ ("i", Tracer.Int i) ])
          evs
      in
      check "newest retained" true (has total);
      check "oldest overwritten" false (has 1))

(* --- metrics registry --- *)

let test_counters_and_gauges () =
  let t = Metrics.create () in
  let c = Metrics.counter t ~help:"jobs" "jobs_total" in
  let g = Metrics.gauge t ~help:"queued" "queue_depth" in
  let routed =
    Metrics.counter_family t ~help:"routed" ~label:"backend" "routed_total"
  in
  let up = Metrics.gauge_family t ~help:"up" ~label:"backend" "up" in
  let drops = ref 0 in
  Metrics.counter_fn t ~help:"drops" "drops_total" (fun () -> !drops);
  Metrics.incr c;
  Metrics.add c 4;
  check_int "counter accumulates" 5 (Metrics.counter_value c);
  Metrics.set_gauge g 3.5;
  Metrics.incr (Metrics.labeled routed "unix:/tmp/w2.sock");
  Metrics.add (Metrics.labeled routed "unix:/tmp/w1.sock") 2;
  Metrics.incr (Metrics.labeled routed "unix:/tmp/w1.sock");
  check_int "one series per label value" 3
    (Metrics.counter_value (Metrics.labeled routed "unix:/tmp/w1.sock"));
  Metrics.set_gauge (Metrics.labeled up "we\"ird\\") 1.;
  drops := 7;
  let text = Metrics.to_prometheus t in
  check "TYPE line" true
    (is_infix ~affix:"# TYPE jobs_total counter" text);
  check "HELP line" true (is_infix ~affix:"# HELP jobs_total jobs" text);
  check "counter sample" true (is_infix ~affix:"jobs_total 5" text);
  check "gauge sample" true (is_infix ~affix:"queue_depth 3.5" text);
  check "one TYPE for a family, its series sorted" true
    (is_infix
       ~affix:
         "# TYPE routed_total counter\n\
          routed_total{backend=\"unix:/tmp/w1.sock\"} 3\n\
          routed_total{backend=\"unix:/tmp/w2.sock\"} 1\n"
       text);
  check "label values escaped" true
    (is_infix ~affix:"up{backend=\"we\\\"ird\\\\\"} 1\n" text);
  check "read at render" true (is_infix ~affix:"\ndrops_total 7\n" text)

let test_histogram_buckets () =
  let t = Metrics.create () in
  let h =
    Metrics.histogram t ~help:"latency" ~buckets:[| 1.; 10.; 100. |] "lat_ms"
  in
  List.iter (Metrics.observe h) [ 0.5; 5.; 5.; 50.; 5000. ];
  let s = Metrics.hist_snapshot h in
  check_int "count" 5 s.Metrics.count;
  check "sum" true (abs_float (s.Metrics.sum -. 5060.5) < 1e-6);
  (match s.Metrics.buckets with
  | [| (b1, c1); (b10, c10); (b100, c100); (binf, cinf) |] ->
      check "bounds" true (b1 = 1. && b10 = 10. && b100 = 100. && binf = infinity);
      check "cumulative counts" true
        (c1 = 1 && c10 = 3 && c100 = 4 && cinf = 5)
  | _ -> Alcotest.fail "expected 4 buckets");
  let text = Metrics.to_prometheus t in
  check "le=+Inf rendered" true
    (is_infix ~affix:"lat_ms_bucket{le=\"+Inf\"} 5" text);
  check "cumulative le=10" true
    (is_infix ~affix:"lat_ms_bucket{le=\"10\"} 3" text);
  check "sum line" true (is_infix ~affix:"lat_ms_sum 5060.5" text);
  check "count line" true (is_infix ~affix:"lat_ms_count 5" text)

(* A percentile read off a phase histogram lies in the bucket that
   holds the ⌈q·count⌉-th smallest sample.  Samples are drawn
   log-uniformly from [0.01, 80000] ms, so every bucket gets some and
   none reaches +Inf. *)
let prop_phase_quantiles_in_their_bucket =
  QCheck2.Test.make ~count:200
    ~name:"metrics: phase percentiles lie in their sample's bucket"
    QCheck2.Gen.(
      list_size (int_range 1 300)
        (map (fun u -> 0.01 *. Float.pow 8e6 u) (float_range 0. 1.)))
    (fun samples ->
      let t = Ssg_engine.Telemetry.create () in
      List.iter
        (fun x ->
          Ssg_engine.Telemetry.record_completed t ~queue_ms:x ~exec_ms:x)
        samples;
      let h =
        (Ssg_engine.Telemetry.snapshot t ~workers:1 ~queue_depth:0
           ~queue_capacity:1 ~cache_entries:0)
          .Ssg_engine.Telemetry.exec_ms
      in
      let sorted = Array.of_list samples in
      Array.sort Float.compare sorted;
      let count = Array.length sorted in
      List.for_all
        (fun q ->
          let x =
            sorted.(int_of_float (Float.ceil (q *. float_of_int count)) - 1)
          in
          let rec bucket b =
            if x <= fst h.Metrics.buckets.(b) then b else bucket (b + 1)
          in
          let b = bucket 0 in
          let lower = if b = 0 then 0. else fst h.Metrics.buckets.(b - 1) in
          let e = Metrics.quantile h q in
          lower < e && e <= fst h.Metrics.buckets.(b))
        [ 0.5; 0.95; 0.99 ])

let test_registry_rejects_bad_names () =
  let t = Metrics.create () in
  ignore (Metrics.counter t ~help:"ok" "ok_name");
  check "duplicate raises" true
    (match Metrics.counter t ~help:"ok" "ok_name" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "invalid chars raise" true
    (match Metrics.counter t ~help:"bad" "bad-name" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "bad buckets raise" true
    (match Metrics.histogram t ~help:"h" ~buckets:[| 2.; 1. |] "h" with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Telemetry snapshot serializers --- *)

let field_name = function
  | Ssg_engine.Telemetry.F_count (n, _)
  | Ssg_engine.Telemetry.F_gauge_i (n, _)
  | Ssg_engine.Telemetry.F_gauge_f (n, _)
  | Ssg_engine.Telemetry.F_histogram (n, _) ->
      n

let sample_adv ?(seed = 11) () =
  Ssg_adversary.Build.block_sources (Rng.of_int seed) ~n:6 ~k:2 ~prefix_len:1
    ()

let test_snapshot_serializers_cover_every_field () =
  let engine = Ssg_engine.Engine.create ~workers:1 ~queue_capacity:4 () in
  let job = Ssg_engine.Job.make ~k:2 (sample_adv ()) in
  (match Ssg_engine.Engine.run engine job with
  | Ok { Ssg_engine.Job.result = Ok _; _ } -> ()
  | Ok { Ssg_engine.Job.result = Error msg; _ } | Error msg ->
      Alcotest.failf "job failed: %s" msg);
  let s = Ssg_engine.Engine.stats engine in
  let fields = Ssg_engine.Telemetry.fields s in
  check "snapshot flattens to every record field" true
    (List.length fields = 21);
  let json = Ssg_engine.Telemetry.json_of_snapshot s in
  check "JSON well-formed" true (Export.json_wellformed json);
  List.iter
    (fun f ->
      check
        (Printf.sprintf "JSON carries %S" (field_name f))
        true
        (is_infix ~affix:(Printf.sprintf "%S:" (field_name f)) json))
    fields;
  let prom = Ssg_engine.Engine.prometheus engine in
  List.iter
    (function
      | Ssg_engine.Telemetry.F_histogram (name, _) ->
          check
            (Printf.sprintf "no Prometheus summary for %S" name)
            false
            (is_infix ~affix:("ssgd_" ^ name ^ "{quantile=") prom)
      | f ->
          check
            (Printf.sprintf "Prometheus carries %S" (field_name f))
            true
            (is_infix ~affix:("\nssgd_" ^ field_name f ^ " ") prom))
    fields;
  check "phase histogram buckets exposed" true
    (is_infix ~affix:"ssgd_job_queue_wait_ms_bucket{le=" prom);
  check "exec histogram exposed" true
    (is_infix ~affix:"ssgd_job_exec_ms_bucket{le=" prom);
  check "gauges set from the snapshot" true
    (is_infix ~affix:"\nssgd_workers 1\n" prom
    && is_infix ~affix:"\nssgd_queue_capacity 4\n" prom
    && is_infix ~affix:"\nssgd_cache_entries 1\n" prom);
  check "no legacy end-to-end latency series" false
    (is_infix ~affix:"ssgd_latency_ms" prom
    || is_infix ~affix:"ssgd_job_latency_ms" prom);
  check_int "the queue-wait histogram holds the one completion" 1
    s.Ssg_engine.Telemetry.queue_wait_ms.Metrics.count;
  check_int "the exec histogram holds the one completion" 1
    s.Ssg_engine.Telemetry.exec_ms.Metrics.count;
  Ssg_engine.Engine.shutdown engine

(* --- Chrome export + JSON checker --- *)

let test_json_wellformed_rejects_garbage () =
  List.iter
    (fun s -> check (Printf.sprintf "rejects %S" s) false (Export.json_wellformed s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "[1 2]"; "nul"; "\"unterminated"; "01";
      "[]]"; "{\"a\":1,}" ];
  List.iter
    (fun s -> check (Printf.sprintf "accepts %S" s) true (Export.json_wellformed s))
    [ "[]"; "{}"; "null"; "-1.5e3"; "{\"a\":[1,2,{\"b\":\"c\\n\"}]} " ]

(* qcheck: any recorded trace exports to well-formed, B/E-balanced
   Chrome JSON.  Random span trees are generated through the public API
   (with_span recursion + instants), which is exactly how instrumented
   code produces traces. *)
let gen_trace_shape =
  QCheck2.Gen.(int_bound 100000)

let record_random_tree seed =
  let rng = Rng.of_int seed in
  let rec grow depth =
    let n = Rng.int rng 4 in
    for _ = 1 to n do
      match Rng.int rng 3 with
      | 0 -> Tracer.instant ~args:[ ("d", Tracer.Int depth) ] "leaf"
      | _ ->
          Tracer.with_span
            ~args:[ ("name", Tracer.Str (Printf.sprintf "s\"\\%d" depth)) ]
            (Printf.sprintf "span%d" (Rng.int rng 5))
            (fun () -> if depth < 4 then grow (depth + 1))
    done
  in
  grow 0

let balanced events =
  (* Stack discipline per domain: every E matches the innermost open B. *)
  let stacks = Hashtbl.create 8 in
  let ok = ref true in
  List.iter
    (fun (e : Tracer.event) ->
      let stack =
        Option.value (Hashtbl.find_opt stacks e.Tracer.domain) ~default:[]
      in
      match e.Tracer.kind with
      | Tracer.Begin ->
          Hashtbl.replace stacks e.Tracer.domain (e.Tracer.name :: stack)
      | Tracer.End -> (
          match stack with
          | top :: rest when top = e.Tracer.name ->
              Hashtbl.replace stacks e.Tracer.domain rest
          | _ -> ok := false)
      | Tracer.Instant -> ())
    events;
  Hashtbl.iter (fun _ stack -> if stack <> [] then ok := false) stacks;
  !ok

let prop_chrome_export_wellformed_and_balanced =
  QCheck2.Test.make ~count:60
    ~name:"chrome export: well-formed JSON, B/E balanced" gen_trace_shape
    (fun seed ->
      with_tracing (fun () ->
          record_random_tree seed;
          let events = Tracer.events () in
          Export.json_wellformed
            (Stitch.chrome_of_reports [ Tracer.report_here ~role:"test" () ])
          && balanced events))

let prop_disabled_tracing_emits_zero =
  QCheck2.Test.make ~count:60
    ~name:"disabled tracing records no events" gen_trace_shape (fun seed ->
      Tracer.reset ();
      Tracer.set_enabled false;
      record_random_tree seed;
      Tracer.events () = [] && Tracer.dropped () = 0)

(* --- trace context --- *)

module Context = Ssg_obs.Context

let gen_ctx =
  QCheck2.Gen.(
    map3
      (fun hi lo sp ->
        (* An all-zero trace id is invalid by construction. *)
        let hi, lo = if Int64.logor hi lo = 0L then (1L, 0L) else (hi, lo) in
        { Context.trace_hi = hi; trace_lo = lo; span_id = sp;
          parent_span_id = 77L })
      int64 int64 int64)

let same_identity (c : Context.t) (d : Context.t) =
  d.Context.trace_hi = c.Context.trace_hi
  && d.Context.trace_lo = c.Context.trace_lo
  && d.Context.span_id = c.Context.span_id
  && d.Context.parent_span_id = 0L

let prop_context_text_roundtrip =
  QCheck2.Test.make ~count:200
    ~name:"context traceparent codec round-trips" gen_ctx (fun c ->
      let s = Context.to_string c in
      String.length s = 55
      && s.[2] = '-' && s.[35] = '-' && s.[52] = '-'
      && match Context.of_string s with
         | None -> false
         | Some d -> same_identity c d)

let prop_context_wire_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"context wire codec round-trips" gen_ctx
    (fun c ->
      let w = Context.to_wire c in
      String.length w = Context.wire_len
      && match Context.of_wire w with
         | None -> false
         | Some d -> same_identity c d)

let test_context_ids_and_rejects () =
  Context.seed 42;
  let a = Context.root () in
  let b = Context.child a in
  check "child keeps the trace id" true
    (a.Context.trace_hi = b.Context.trace_hi
    && a.Context.trace_lo = b.Context.trace_lo);
  check "child's parent is the minting span" true
    (b.Context.parent_span_id = a.Context.span_id);
  check "child mints a fresh span id" false
    (b.Context.span_id = a.Context.span_id);
  check "root has no parent" true (a.Context.parent_span_id = 0L);
  Context.seed 42;
  check "seeded id stream is deterministic" true
    (Context.equal a (Context.root ()));
  List.iter
    (fun s ->
      check (Printf.sprintf "of_string rejects %S" s) true
        (Context.of_string s = None))
    [
      "";
      "not a traceparent";
      String.make 55 'x';
      (* all-zero trace id *)
      "00-00000000000000000000000000000000-00000000000000ab-01";
      (* wrong separators *)
      "00_0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331_01";
      (* truncated *)
      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333";
    ];
  check "of_wire rejects wrong length" true
    (Context.of_wire "short" = None);
  check "of_wire rejects a zero trace id" true
    (Context.of_wire (String.make Context.wire_len '\000') = None)

(* --- fleet stitching --- *)

let ev ?(domain = 0) ?(args = []) kind name ts_us =
  { Tracer.kind; name; domain; ts_us; args }

let ids ~span ~parent =
  [
    ("trace_id", Tracer.Str (String.make 32 'a'));
    ("span_id", Tracer.Str span);
    ("parent_span_id", Tracer.Str parent);
  ]

let test_stitch_links_metadata_and_clock () =
  let r_gw =
    {
      Tracer.role = "gateway";
      pid = 1111;
      epoch_s = 500.;
      dropped_events = 0;
      events =
        [
          ev Tracer.Begin "gateway.request" 0.
            ~args:(ids ~span:"00000000000000aa" ~parent:"0000000000000000");
          ev Tracer.End "gateway.request" 100.;
        ];
    }
  in
  let r_wk =
    {
      Tracer.role = "worker";
      pid = 2222;
      epoch_s = 502.;
      dropped_events = 0;
      events =
        [
          ev Tracer.Begin "engine.execute" 10.
            ~args:(ids ~span:"00000000000000bb" ~parent:"00000000000000aa");
          (* A same-process parent: linked by its args, but no arrow. *)
          ev Tracer.Begin "round" 20.
            ~args:(ids ~span:"00000000000000cc" ~parent:"00000000000000bb");
          ev Tracer.End "round" 30.;
          ev Tracer.End "engine.execute" 60.;
        ];
    }
  in
  let json = Stitch.chrome_of_reports [ r_gw; r_wk ] in
  check "stitched doc is well-formed JSON" true (Export.json_wellformed json);
  check "gateway process metadata present" true
    (is_infix ~affix:"gateway (pid 1111)" json);
  check "worker process metadata present" true
    (is_infix ~affix:"worker (pid 2222)" json);
  (* The worker's epoch is 2 s after the fleet zero: its 10 µs event
     must land at 2000010 µs on the stitched clock. *)
  check "clock-aligned worker timestamp" true (is_infix ~affix:"2000010" json);
  let flow_ends =
    match Export.json_of_string json with
    | Some (Export.Arr items) ->
        List.length
          (List.filter
             (function
               | Export.Obj kvs ->
                   List.assoc_opt "ph" kvs = Some (Export.Str "f")
               | _ -> false)
             items)
    | _ -> Alcotest.fail "stitched doc is not an array"
  in
  check_int "a same-process parent makes no flow event" 1 flow_ends;
  (match Stitch.audit_string json with
  | Error msg -> Alcotest.failf "audit rejected the stitched doc: %s" msg
  | Ok
      {
        Stitch.events;
        processes;
        links;
        truncated_ends;
        open_spans;
        dropped_events;
      } ->
      (* 6 span events + the one cross-process flow pair (s/f). *)
      check_int "span + flow events audited" 8 events;
      check_int "two processes" 2 processes;
      check_int "no truncated ends on a clean doc" 0 truncated_ends;
      check_int "no in-flight spans on a clean doc" 0 open_spans;
      check_int "no ring drops on a clean doc" 0 dropped_events;
      (match links with
      | [ l ] ->
          check "link parent is the gateway span" true
            (l.Stitch.parent_name = "gateway.request"
            && l.Stitch.child_name = "engine.execute"
            && l.Stitch.parent_pid <> l.Stitch.child_pid)
      | ls -> Alcotest.failf "expected 1 cross-process link, got %d"
                (List.length ls)));
  (* A busy-fleet shape: an end whose begin was evicted by the ring
     buffer, a span still open at pull time, and a ring that wrapped
     (its drop count rides in the process_name metadata).  Counted,
     not rejected. *)
  let busy =
    {
      Tracer.role = "worker";
      pid = 1;
      epoch_s = 600.;
      dropped_events = 5;
      events = [ ev Tracer.End "evicted" 1.; ev Tracer.Begin "inflight" 2. ];
    }
  in
  let json = Stitch.chrome_of_reports [ busy; { r_gw with pid = 2 } ] in
  check "process_name carries the drop count" true
    (is_infix ~affix:"\"name\":\"worker (pid 1)\",\"dropped_events\":5" json);
  match Stitch.audit_string json with
  | Error msg -> Alcotest.failf "audit rejected the busy doc: %s" msg
  | Ok a ->
      check_int "truncated end counted" 1 a.Stitch.truncated_ends;
      check_int "in-flight span counted" 1 a.Stitch.open_spans;
      check_int "ring drops summed" 5 a.Stitch.dropped_events

(* --- remote-parent spans --- *)

let test_span_ctx_identity_args () =
  with_tracing (fun () ->
      Context.seed 7;
      let remote = Context.root () in
      let child =
        Tracer.with_span_ctx ~ctx:remote "hop" (fun c ->
            Tracer.instant "inside";
            c)
      in
      check "returned child parents under the remote span" true
        (child.Context.parent_span_id = remote.Context.span_id);
      match Tracer.events () with
      | [ b; _inside; e ] ->
          check "begin carries the trace id" true
            (List.assoc "trace_id" b.Tracer.args
            = Tracer.Str (Context.trace_id_hex remote));
          check "begin carries the child span id" true
            (List.assoc "span_id" b.Tracer.args
            = Tracer.Str (Context.span_id_hex child));
          check "begin carries the remote parent" true
            (List.assoc "parent_span_id" b.Tracer.args
            = Tracer.Str (Context.span_id_hex remote));
          check "balanced" true
            (b.Tracer.kind = Tracer.Begin && e.Tracer.kind = Tracer.End)
      | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs))

(* --- hop histograms + trace drop counter exposition --- *)

let test_hop_histograms_and_dropped_counter () =
  Tracer.reset ();
  let t = Ssg_engine.Telemetry.create () in
  Ssg_engine.Telemetry.record_submitted t;
  Ssg_engine.Telemetry.record_completed t ~queue_ms:2. ~exec_ms:3.;
  let prom = Metrics.to_prometheus (Ssg_engine.Telemetry.registry t) in
  check "queue wait histogram conformant" true
    (is_infix ~affix:"# TYPE ssgd_job_queue_wait_ms histogram" prom
    && is_infix ~affix:"ssgd_job_queue_wait_ms_bucket{le=" prom
    && is_infix ~affix:"ssgd_job_queue_wait_ms_bucket{le=\"+Inf\"} 1" prom
    && is_infix ~affix:"ssgd_job_queue_wait_ms_sum 2" prom
    && is_infix ~affix:"ssgd_job_queue_wait_ms_count 1" prom);
  check "exec histogram conformant" true
    (is_infix ~affix:"ssgd_job_exec_ms_bucket{le=\"+Inf\"} 1" prom
    && is_infix ~affix:"ssgd_job_exec_ms_sum 3" prom
    && is_infix ~affix:"ssgd_job_exec_ms_count 1" prom);
  (* Each observation lands in one histogram: the worker's hops are
     the ssgd_job_* pair, not a second ssg_hop_* copy. *)
  check "no duplicate queue wait series" false
    (is_infix ~affix:"ssg_hop_queue_wait_ms" prom);
  check "no duplicate exec series" false
    (is_infix ~affix:"ssg_hop_exec_ms" prom);
  check "trace drop counter exposed (at zero)" true
    (is_infix ~affix:"# TYPE ssg_trace_dropped_total counter" prom
    && is_infix ~affix:"ssg_trace_dropped_total 0" prom)

(* --- end to end: pull a trace and metrics from a live ssgd --- *)

let test_trace_pull_from_live_daemon () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ssgd-obs-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists socket then Sys.remove socket;
  let server =
    Thread.create
      (fun () ->
        Ssg_engine.Server.serve ~workers:1 ~queue_capacity:8 ~cache_capacity:0
          ~trace:true ~socket ())
      ()
  in
  let c = Service.connect socket in
  Fun.protect
    ~finally:(fun () ->
      (try Ssg_engine.Client.shutdown c with _ -> ());
      Ssg_engine.Client.close c;
      Thread.join server;
      Tracer.set_enabled false;
      Tracer.reset ())
    (fun () ->
      let job = Ssg_engine.Job.make ~k:2 (sample_adv ~seed:23 ()) in
      (match (Ssg_engine.Client.submit c job).Ssg_engine.Job.result with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "job failed: %s" msg);
      let report =
        match Ssg_engine.Client.trace_pull c with
        | [ report ] ->
            check "the worker reports itself" true
              (report.Tracer.role = "worker");
            report
        | reports ->
            Alcotest.failf "%d reports from one worker" (List.length reports)
      in
      let events = report.Tracer.events in
      let has name kind =
        List.exists
          (fun (e : Tracer.event) ->
            e.Tracer.name = name && e.Tracer.kind = kind)
          events
      in
      check "engine submit span pulled" true (has "engine.submit" Tracer.Begin);
      check "worker execute span pulled" true
        (has "engine.execute" Tracer.Begin && has "engine.execute" Tracer.End);
      check "per-round sim spans pulled" true (has "round" Tracer.Begin);
      check "kset round instants pulled" true (has "kset.round" Tracer.Instant);
      check "decide instants pulled" true (has "decide" Tracer.Instant);
      check "reply write span pulled" true
        (has "server.reply_write" Tracer.Begin);
      check "remote trace exports clean" true
        (Export.json_wellformed (Stitch.chrome_of_reports [ report ]));
      let prom = Ssg_engine.Client.metrics_text c in
      check "served exposition has counters" true
        (is_infix ~affix:"ssgd_jobs_completed 1" prom);
      check "served exposition has phase buckets" true
        (is_infix ~affix:"ssgd_job_queue_wait_ms_bucket{le=" prom))

let tests =
  [
    Alcotest.test_case "disabled tracer emits nothing" `Quick
      test_disabled_emits_nothing;
    Alcotest.test_case "span nesting order" `Quick test_span_nesting;
    Alcotest.test_case "with_span closes on raise" `Quick
      test_span_end_on_raise;
    Alcotest.test_case "timestamps monotone per domain" `Quick
      test_timestamps_monotone;
    Alcotest.test_case "instant args preserved" `Quick test_instant_args;
    Alcotest.test_case "ring overflow drops oldest" `Quick test_ring_overflow;
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "histogram buckets cumulative" `Quick
      test_histogram_buckets;
    QCheck_alcotest.to_alcotest prop_phase_quantiles_in_their_bucket;
    Alcotest.test_case "registry rejects bad names" `Quick
      test_registry_rejects_bad_names;
    Alcotest.test_case "snapshot serializers cover every field" `Quick
      test_snapshot_serializers_cover_every_field;
    Alcotest.test_case "json checker rejects garbage" `Quick
      test_json_wellformed_rejects_garbage;
    QCheck_alcotest.to_alcotest prop_chrome_export_wellformed_and_balanced;
    QCheck_alcotest.to_alcotest prop_disabled_tracing_emits_zero;
    QCheck_alcotest.to_alcotest prop_context_text_roundtrip;
    QCheck_alcotest.to_alcotest prop_context_wire_roundtrip;
    Alcotest.test_case "context ids, children and rejects" `Quick
      test_context_ids_and_rejects;
    Alcotest.test_case "stitch: links, metadata, clock alignment" `Quick
      test_stitch_links_metadata_and_clock;
    Alcotest.test_case "remote-parent spans carry identity args" `Quick
      test_span_ctx_identity_args;
    Alcotest.test_case "hop histograms + trace drop counter" `Quick
      test_hop_histograms_and_dropped_counter;
    Alcotest.test_case "trace + metrics pull from live ssgd" `Quick
      test_trace_pull_from_live_daemon;
  ]
