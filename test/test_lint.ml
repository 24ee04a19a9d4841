(* The lint subsystem: diagnostics, semantic passes, reporters, and the
   engine/ssgd front door.

   The fixture texts mirror the paper's geometry: [two_islands] has a
   stable skeleton with two source components (min_k = 2, so Psrcs(1)
   is unsatisfiable — Theorem 1 says consensus is impossible there),
   [noisy] layers every text-level smell (subsumed rounds, a near-miss
   edge, redundant tokens) over a satisfiable run. *)

open Ssg_util
open Ssg_adversary
open Ssg_engine
open Ssg_lint

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let codes diags = List.map (fun (d : Diagnostic.t) -> d.code) diags
let with_code c diags =
  List.filter (fun (d : Diagnostic.t) -> d.code = c) diags

let two_islands =
  "ssg-run v1\nn 6\nstable: 0>1 1>2 2>0 3>4 4>5 5>3\n"

let noisy =
  "ssg-run v1\n\
   n 4\n\
   round 1: 0>1 1>0 2>3 1>3 0>2 0>2 1>1\n\
   round 2: 0>1 1>0 2>3 1>3\n\
   stable: 0>1 1>0 2>3\n"

(* ---------------- semantic passes ---------------- *)

let test_psrcs_unsatisfiable () =
  let diags = Lint.check_text ~k:1 two_islands in
  let errors = with_code "SSG001" diags in
  check_int "exactly one SSG001" 1 (List.length errors);
  check "has_errors" true (Lint.has_errors diags);
  let d = List.hd errors in
  check "names both source components" true
    (contains d.Diagnostic.message "{0, 1, 2}"
    && contains d.Diagnostic.message "{3, 4, 5}");
  check "states the needed k" true (contains d.Diagnostic.message "k >= 2");
  check "anchored to the stable line" true
    (d.Diagnostic.span = Some (Diagnostic.line 3));
  check "witness hint present" true (d.Diagnostic.hint <> None);
  (* The same run at k = 2 is satisfiable — and exactly tight. *)
  let diags2 = Lint.check_text ~k:2 two_islands in
  check "no errors at k = 2" false (Lint.has_errors diags2);
  check "tightness reported" true
    (List.exists
       (fun (d : Diagnostic.t) -> contains d.message "tight")
       (with_code "SSG002" diags2))

let test_psrcs_profile_infos () =
  (* No k: satisfiability is reported, never judged. *)
  let diags = Lint.check_text two_islands in
  check "no errors without k" false (Lint.has_errors diags);
  check "min_k reported" true
    (List.exists
       (fun (d : Diagnostic.t) -> contains d.message "k >= 2")
       (with_code "SSG002" diags));
  (* Slack: k above min_k. *)
  let diags = Lint.check_text ~k:4 two_islands in
  check "slack reported" true
    (List.exists
       (fun (d : Diagnostic.t) -> contains d.message "slack")
       (with_code "SSG002" diags))

let test_parse_failure_is_ssg000 () =
  let diags = Lint.check_text ~k:1 "ssg-run v1\nn 3\nstable: 0>9\n" in
  check_int "single diagnostic" 1 (List.length diags);
  let d = List.hd diags in
  check "code" true (d.Diagnostic.code = "SSG000");
  check "is error" true (Diagnostic.is_error d);
  check "line extracted from the parser message" true
    (d.Diagnostic.span = Some (Diagnostic.line 3));
  (* Total garbage never raises either. *)
  check "garbage yields SSG000" true
    (codes (Lint.check_text "\x00\xffnot a run") = [ "SSG000" ])

let test_degenerate_n_is_ssg000 () =
  (* n 0 / n 1 are parse-time errors; the lint surfaces them anchored
     to the [n] line instead of letting the degenerate run through. *)
  List.iter
    (fun n_directive ->
      let text = Printf.sprintf "ssg-run v1\n# degenerate\n%s\nstable:\n" n_directive in
      let diags = Lint.check_text ~k:1 text in
      check_int (n_directive ^ ": single diagnostic") 1 (List.length diags);
      let d = List.hd diags in
      check (n_directive ^ ": code") true (d.Diagnostic.code = "SSG000");
      check (n_directive ^ ": is error") true (Diagnostic.is_error d);
      check (n_directive ^ ": anchored to the n line") true
        (d.Diagnostic.span = Some (Diagnostic.line 3));
      check (n_directive ^ ": names the bound") true
        (contains d.Diagnostic.message "at least 2"))
    [ "n 0"; "n 1" ]

let test_text_level_warnings () =
  let diags = Lint.check_text ~k:2 noisy in
  check "no errors" false (Lint.has_errors diags);
  check_int "both rounds subsumed (SSG101)" 2
    (List.length (with_code "SSG101" diags));
  (let near = with_code "SSG102" diags in
   check_int "one near-miss edge" 1 (List.length near);
   check "it is 1>3" true
     (contains (List.hd near).Diagnostic.message "1>3");
   check "anchored to stable line" true
     ((List.hd near).Diagnostic.span = Some (Diagnostic.line 5)));
  (let redundant = with_code "SSG105" diags in
   check_int "duplicate + explicit self-loop" 2 (List.length redundant);
   check "all on round 1's line" true
     (List.for_all
        (fun (d : Diagnostic.t) -> d.span = Some (Diagnostic.line 3))
        redundant));
  check "no empty-round warning" true (with_code "SSG103" diags = [])

let test_empty_round_and_isolation () =
  let text = "ssg-run v1\nn 3\nround 1:\nstable: 0>1 1>0 2>0\n" in
  let diags = Lint.check_text ~k:3 text in
  check_int "empty round flagged" 1 (List.length (with_code "SSG103" diags));
  (* The empty round wipes the skeleton: all processes isolated. *)
  let iso = with_code "SSG104" diags in
  check_int "isolation collapses to one warning" 1 (List.length iso);
  check "aggregated message" true
    (contains (List.hd iso).Diagnostic.message "all 3 processes");
  (* One isolated process among connected ones is reported by name. *)
  let text = "ssg-run v1\nn 3\nstable: 0>1 1>0\n" in
  let iso = with_code "SSG104" (Lint.check_text ~k:2 text) in
  check_int "one isolated process" 1 (List.length iso);
  check "names process 2" true
    (contains (List.hd iso).Diagnostic.message "process 2")

let test_stabilization_info () =
  (* Prefix keeps shrinking the skeleton until the stable round (3). *)
  let text =
    "ssg-run v1\nn 3\nround 1: 0>1 1>0 1>2\nround 2: 0>1 1>0\nstable: 0>1\n"
  in
  let info = with_code "SSG003" (Lint.check_text text) in
  check_int "one stabilization info" 1 (List.length info);
  check "r_ST = 3" true
    (contains (List.hd info).Diagnostic.message "round 3 (r_ST)")

let test_check_in_memory () =
  (* Figure 1 has three root components: 2-set agreement is hopeless,
     3-set agreement is exactly tight. *)
  let adv = Build.figure1 () in
  check "figure1 fails k=2" true (Lint.has_errors (Lint.check ~k:2 adv));
  check "figure1 clean at k=3" false (Lint.has_errors (Lint.check ~k:3 adv));
  check "no spans without text" true
    (List.for_all
       (fun (d : Diagnostic.t) -> d.span = None)
       (Lint.check ~k:3 adv))

(* ---------------- reporters ---------------- *)

let test_human_report () =
  let diags = Lint.check_text ~k:1 two_islands in
  let out = Report.human ~file:"islands.run" ~src:two_islands diags in
  check "file:line prefix" true (contains out "islands.run:3: error SSG001");
  check "source excerpt" true
    (contains out "3 | stable: 0>1 1>2 2>0 3>4 4>5 5>3");
  check "hint line" true (contains out "hint:");
  (* Span-less diagnostics still render without a location prefix. *)
  let out = Report.human (Lint.check ~k:1 (Build.synchronous ~n:3)) in
  check "in-memory render works" true (contains out "SSG002")

(* [Report.json]'s output decoded back: per file object its name, the
   four counts and every diagnostic with its [suppressed] mark.  The
   keys must come in the documented order, and the optional fields
   ([line]/[end_line], [hint], [suppressed]) must be absent, not
   null, when they do not apply. *)
let decode_report out =
  let module E = Ssg_obs.Export in
  let str = function E.Str s -> s | _ -> Alcotest.fail "expected a string" in
  let int = function E.Int i -> i | _ -> Alcotest.fail "expected an integer" in
  let diagnostic = function
    | E.Obj kvs ->
        let opt k = List.assoc_opt k kvs in
        let get k =
          match opt k with
          | Some v -> v
          | None -> Alcotest.failf "diagnostic without %S" k
        in
        let severity =
          List.find
            (fun sev -> Diagnostic.severity_label sev = str (get "severity"))
            [ Diagnostic.Error; Warning; Info ]
        in
        let span =
          Option.map
            (fun l ->
              { Diagnostic.line = int l; end_line = int (get "end_line") })
            (opt "line")
        in
        let suppressed =
          match opt "suppressed" with
          | None -> false
          | Some (E.Bool true) -> true
          | Some _ -> Alcotest.fail "suppressed is written only as true"
        in
        ( {
            Diagnostic.code = str (get "code");
            severity;
            span;
            message = str (get "message");
            hint = Option.map str (opt "hint");
          },
          suppressed )
    | _ -> Alcotest.fail "diagnostic is not an object"
  in
  let file = function
    | E.Obj
        [
          ("file", name);
          ("errors", e);
          ("warnings", w);
          ("infos", i);
          ("suppressed", s);
          ("diagnostics", E.Arr ds);
        ] ->
        (str name, [ int e; int w; int i; int s ], List.map diagnostic ds)
    | _ -> Alcotest.fail "file object: wrong keys or key order"
  in
  match E.json_of_string out with
  | Some (E.Arr files) -> List.map file files
  | _ -> Alcotest.fail "the report is not a JSON array"

let test_json_report () =
  let diags = List.sort Diagnostic.compare (Lint.check_text ~k:1 two_islands) in
  let s = Lint.summarize diags in
  (match decode_report (Report.json [ ("islands.run", diags, []) ]) with
  | [ (file, counts, decoded) ] ->
      check "file field" true (file = "islands.run");
      (* Two errors: SSG001's verdict and SSG201's certificate trail. *)
      check "counts" true (counts = [ 2; s.Lint.warnings; s.Lint.infos; 0 ]);
      check "SSG001 is an error on line 3" true
        (List.exists
           (fun ((d : Diagnostic.t), _) ->
             d.code = "SSG001"
             && d.severity = Diagnostic.Error
             && d.span = Some (Diagnostic.line 3))
           decoded);
      check "diagnostics decode to the input, in source order" true
        (decoded = List.map (fun d -> (d, false)) diags)
  | _ -> Alcotest.fail "expected one file object");
  (* Escaping: messages quote tokens like "0>2", which decode intact. *)
  let diags = List.sort Diagnostic.compare (Lint.check_text ~k:2 noisy) in
  match decode_report (Report.json [ ("noisy.run", diags, []) ]) with
  | [ (_, _, decoded) ] ->
      check "quoted token survives" true
        (List.exists
           (fun ((d : Diagnostic.t), _) -> contains d.message "\"0>2\"")
           decoded);
      check "noisy diagnostics decode to the input" true
        (decoded = List.map (fun d -> (d, false)) diags)
  | _ -> Alcotest.fail "expected one file object"

let test_summary_and_strictness () =
  let diags = Lint.check_text ~k:2 noisy in
  let s = Lint.summarize diags in
  check_int "errors" 0 s.Lint.errors;
  check "warnings counted" true (s.Lint.warnings >= 4);
  check "infos counted" true (s.Lint.infos >= 1);
  check "ok by default" true (Lint.ok diags);
  check "not ok under strict" false (Lint.ok ~strict:true diags);
  check "errors fail both" false (Lint.ok (Lint.check_text ~k:1 two_islands))

(* ---------------- engine front door ---------------- *)

let bad_job () = Job.of_run_text ~k:1 two_islands
let good_job () = Job.of_run_text ~k:2 two_islands

let test_gate () =
  (match Lint.gate ~k:1 two_islands with
  | None -> Alcotest.fail "gate must reject k=1"
  | Some rendered ->
      check "rendered diagnostics" true (contains rendered "SSG001");
      check "errors only" false (contains rendered "SSG002"));
  check "gate passes k=2" true (Lint.gate ~k:2 two_islands = None)

let test_engine_front_door () =
  let engine = Engine.create ~workers:1 ~queue_capacity:4 () in
  let bad = bad_job () in
  (* Rejected: an Error that names the diagnostic. *)
  (match Engine.run engine bad with
  | Error msg ->
      check "rejection mentions lint" true (contains msg "rejected by lint");
      check "rejection carries SSG001" true (contains msg "SSG001")
  | Ok _ -> Alcotest.fail "unsatisfiable job must be rejected");
  (* The ticket's result is what the server answers with. *)
  check "rejection through the ticket" true
    (Result.is_error (Engine.await engine (Engine.submit engine bad)));
  let good_ticket = Engine.submit engine (good_job ()) in
  check "good jobs complete" true
    (Result.is_ok (Engine.await engine good_ticket));
  (* Rejections never execute, never cache, and are counted. *)
  (match Engine.run engine bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resubmitted bad job must be rejected again");
  let s = Engine.stats engine in
  check_int "every rejection counted" 3 s.Telemetry.jobs_rejected_lint;
  check_int "rejections never execute or fail" 0 s.Telemetry.jobs_failed;
  check_int "good twin executed once" 1 s.Telemetry.jobs_completed;
  Engine.shutdown engine

let test_engine_batch_mixed () =
  let engine = Engine.create ~workers:2 ~queue_capacity:8 () in
  match Service.run_all engine [ bad_job (); good_job () ] with
  | [ bad; good ] ->
      check "bad rejected in batch" true (Result.is_error bad);
      check "good survives the batch" true
        (Result.is_ok (Service.completed good).Ssg_engine.Job.result);
      Engine.shutdown engine
  | _ -> Alcotest.fail "batch must answer per job"

(* ---------------- e2e: ssgd rejects at the front door ---------------- *)

let test_ssgd_rejects_at_submit () =
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ssgd-lint-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists socket then Sys.remove socket;
  let server =
    Thread.create
      (fun () ->
        Server.serve ~workers:1 ~queue_capacity:8 ~cache_capacity:16 ~socket ())
      ()
  in
  let c = Service.connect socket in
  (* The unsatisfiable job comes back as a protocol Error carrying the
     rendered diagnostics ... *)
  (match Client.submit c (bad_job ()) with
  | _ -> Alcotest.fail "ssgd must refuse the job"
  | exception Failure msg ->
      check "Error reply carries the diagnostics" true (contains msg "SSG001");
      check "Error reply names the front door" true
        (contains msg "rejected by lint"));
  (* ... the connection stays usable ... *)
  let completion = Client.submit c (good_job ()) in
  check "same connection still serves" true
    (Result.is_ok completion.Ssg_engine.Job.result);
  (* ... and the rejection is visible in the telemetry snapshot. *)
  let s = Client.stats c in
  check_int "jobs_rejected_lint over the wire" 1 s.Telemetry.jobs_rejected_lint;
  check_int "nothing failed" 0 s.Telemetry.jobs_failed;
  Client.shutdown c;
  Client.close c;
  Thread.join server

(* ---------------- properties ---------------- *)

(* Build a run description, then maybe maul it: the linter must never
   raise, whatever the parser thinks of the text. *)
let prop_never_raises =
  QCheck2.Test.make ~count:300 ~name:"lint never raises on any input text"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let n = 1 + Rng.int rng 8 in
      let adv =
        Build.arbitrary rng ~n ~density:(Rng.float rng)
          ~prefix_len:(Rng.int rng 3) ~noise:0.5 ()
      in
      let text = Run_format.to_string adv in
      let text =
        (* Mutate half the cases: flip a byte, truncate, or prepend junk. *)
        match Rng.int rng 6 with
        | 0 -> String.sub text 0 (Rng.int rng (String.length text))
        | 1 ->
            let b = Bytes.of_string text in
            Bytes.set b
              (Rng.int rng (Bytes.length b))
              (Char.chr (Rng.int rng 256));
            Bytes.to_string b
        | 2 -> "garbage\n" ^ text
        | _ -> text
      in
      let k = 1 + Rng.int rng 4 in
      let diags = Lint.check_text ~k text in
      let accepted = match Run_format.of_string text with
        | _ -> true
        | exception _ -> false
      in
      (* Accepted text never produces a parse-error diagnostic; rejected
         text produces exactly one. *)
      if accepted then with_code "SSG000" diags = []
      else codes diags = [ "SSG000" ])

(* Well-formed generated adversaries lint clean: no errors at k = min_k
   (and none without a k at all). *)
let prop_generated_lint_clean =
  QCheck2.Test.make ~count:200
    ~name:"generated adversaries lint clean at k = min_k"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let n = 2 + Rng.int rng 8 in
      let adv =
        match Rng.int rng 6 with
        | 0 -> Build.synchronous ~n
        | 1 -> Build.block_sources rng ~n ~k:(1 + Rng.int rng (min 3 n)) ~prefix_len:(Rng.int rng 3) ()
        | 2 -> Build.partitioned rng ~n ~blocks:(1 + Rng.int rng (min 3 (n - 1))) ~prefix_len:(Rng.int rng 3) ()
        | 3 -> Build.single_root rng ~n ~prefix_len:(Rng.int rng 3) ()
        | 4 -> Build.lower_bound ~n ~k:(1 + Rng.int rng (max 1 (n - 1)))
        | _ -> Build.arbitrary rng ~n ~density:(Rng.float rng) ~prefix_len:(Rng.int rng 3) ()
      in
      (not (Lint.has_errors (Lint.check adv)))
      && not (Lint.has_errors (Lint.check ~k:(Adversary.min_k adv) adv)))

(* Recurrent runs have no serialized form, but the in-memory API must
   still analyze them without raising. *)
let prop_recurrent_never_raises =
  QCheck2.Test.make ~count:100 ~name:"lint handles recurrent runs"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let n = 2 + Rng.int rng 6 in
      let adv =
        Build.with_recurrent_noise rng (Build.synchronous ~n)
          ~noise:(Rng.float rng)
      in
      let diags = Lint.check ~k:1 adv in
      (* Synchronous core: one source component, so never an SSG001. *)
      with_code "SSG001" diags = [])

let tests =
  [
    Alcotest.test_case "Psrcs(k) unsatisfiable" `Quick
      test_psrcs_unsatisfiable;
    Alcotest.test_case "Psrcs(k) profile infos" `Quick
      test_psrcs_profile_infos;
    Alcotest.test_case "parse failure is SSG000" `Quick
      test_parse_failure_is_ssg000;
    Alcotest.test_case "degenerate n is SSG000" `Quick
      test_degenerate_n_is_ssg000;
    Alcotest.test_case "text-level warnings" `Quick test_text_level_warnings;
    Alcotest.test_case "empty rounds / isolation" `Quick
      test_empty_round_and_isolation;
    Alcotest.test_case "stabilization info" `Quick test_stabilization_info;
    Alcotest.test_case "in-memory check" `Quick test_check_in_memory;
    Alcotest.test_case "human reporter" `Quick test_human_report;
    Alcotest.test_case "json reporter" `Quick test_json_report;
    Alcotest.test_case "summary and strictness" `Quick
      test_summary_and_strictness;
    Alcotest.test_case "gate" `Quick test_gate;
    Alcotest.test_case "engine front door" `Quick test_engine_front_door;
    Alcotest.test_case "engine batch with rejection" `Quick
      test_engine_batch_mixed;
    Alcotest.test_case "ssgd rejects at submit (e2e)" `Quick
      test_ssgd_rejects_at_submit;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_never_raises; prop_generated_lint_clean; prop_recurrent_never_raises ]
