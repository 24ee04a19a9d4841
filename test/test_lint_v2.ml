(* Lint v2: the semantic fixpoint layer (SSG2xx), autofixes,
   suppressions, SARIF, and the fleet-lint plumbing.

   Every SSG2xx diagnostic is cross-checked against ground truth
   computed the slow way: a fresh [Skeleton.start]/[absorb] enumeration
   per prefix position, with [Analysis]/[Predicate] rebuilt from scratch
   at each step — no incremental caching, no warm starts. *)

open Ssg_util
open Ssg_graph
open Ssg_skeleton
open Ssg_predicates
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

(* ---------------- slow-way ground truth ---------------- *)

(* [G^∩r] from scratch: a fresh accumulator fed rounds [1..r], no reuse
   across positions.  [r = prefix + 1] is the limit (stable absorbed). *)
let slow_skeleton adv r =
  let n = Adversary.n adv in
  let prefix = Adversary.prefix_length adv in
  let acc = Skeleton.start ~n in
  for i = 1 to min r prefix do
    ignore (Skeleton.absorb acc (Adversary.graph adv i))
  done;
  if r > prefix then ignore (Skeleton.absorb acc (Adversary.stable_skeleton adv));
  Digraph.copy (Skeleton.current acc)

let slow_min_k skel = Predicate.min_k (Predicate.of_skeleton skel)
let slow_root_count skel = Analysis.root_count (Analysis.analyze skel)

(* Earliest r (1-based, limit included) whose skeleton equals the limit. *)
let slow_r_st adv =
  let prefix = Adversary.prefix_length adv in
  let limit = slow_skeleton adv (prefix + 1) in
  let rec find r =
    if r > prefix then prefix + 1
    else if Digraph.equal (slow_skeleton adv r) limit then r
    else find (r + 1)
  in
  find 1

let gen_adversary rng =
  let n = 2 + Rng.int rng 7 in
  match Rng.int rng 5 with
  | 0 -> Build.synchronous ~n
  | 1 ->
      Build.block_sources rng ~n
        ~k:(1 + Rng.int rng (min 3 n))
        ~prefix_len:(Rng.int rng 4) ()
  | 2 ->
      Build.partitioned rng ~n
        ~blocks:(1 + Rng.int rng (min 3 (n - 1)))
        ~prefix_len:(Rng.int rng 4) ()
  | 3 -> Build.single_root rng ~n ~prefix_len:(Rng.int rng 4) ()
  | _ ->
      Build.arbitrary rng ~n ~density:(Rng.float rng)
        ~prefix_len:(Rng.int rng 4) ()

(* ---------------- fixtures ---------------- *)

let two_islands =
  "ssg-run v1\nn 6\nstable: 0>1 1>2 2>0 3>4 4>5 5>3\n"

(* Rounds 2 and 3 repeat round 1 exactly: dead at their chain position,
   and the declared prefix overshoots stabilization by two rounds. *)
let overshoot =
  "ssg-run v1\n\
   n 3\n\
   round 1: 0>1 1>2\n\
   round 2: 0>1 1>2\n\
   round 3: 0>1 1>2\n\
   stable: 0>1 1>2\n"

(* One genuinely collapsing empty round (unfixable: without it the
   remaining rounds do not reproduce the loops-only skeleton) and one
   that the first already subsumes (fixable). *)
let two_empty_rounds =
  "ssg-run v1\nn 3\nround 1:\nround 2:\nstable: 0>1\n"

(* ---------------- Semantic ---------------- *)

let test_semantic_chain_facts () =
  let adv = Build.figure1 () in
  let chain = Semantic.analyze adv in
  let prefix = Adversary.prefix_length adv in
  check_int "n" (Adversary.n adv) chain.Semantic.n;
  check_int "facts = prefix + 1" (prefix + 1) (Array.length chain.Semantic.facts);
  Array.iteri
    (fun i (f : Semantic.fact) ->
      let r = i + 1 in
      let skel = slow_skeleton adv r in
      check_int (Printf.sprintf "round %d edges" r) (Digraph.edge_count skel)
        f.Semantic.edge_count;
      check_int (Printf.sprintf "round %d roots" r) (slow_root_count skel)
        f.Semantic.root_count;
      check_int (Printf.sprintf "round %d min_k" r) (slow_min_k skel)
        f.Semantic.min_k;
      check_int (Printf.sprintf "round %d number" r) r f.Semantic.round)
    chain.Semantic.facts;
  check_int "r_st" (slow_r_st adv) chain.Semantic.r_st;
  check_int "final min_k" (Adversary.min_k adv) chain.Semantic.final_min_k;
  check_int "decision bound"
    (chain.Semantic.r_st + (3 * chain.Semantic.n) + 4)
    (Semantic.decision_bound chain);
  (* The fold's last observation is the limit. *)
  let last =
    Semantic.fold adv ~init:None ~f:(fun _ (o : Semantic.obs) -> Some o)
  in
  (match last with
  | Some o ->
      check "last obs is limit" true o.Semantic.is_limit;
      check "limit skeleton = slow limit" true
        (Digraph.equal o.Semantic.skeleton (slow_skeleton adv (prefix + 1)))
  | None -> Alcotest.fail "fold produced no observations")

let test_semantic_lost_at_and_trajectory () =
  let adv = Run_format.of_string two_islands in
  let chain = Semantic.analyze adv in
  check "min_k 2 on the limit" true (chain.Semantic.final_min_k = 2);
  check "k = 2 never lost" true (Semantic.lost_at chain ~k:2 = None);
  (match Semantic.lost_at chain ~k:1 with
  | Some r -> check "k = 1 lost at a real chain position" true (r >= 1)
  | None -> Alcotest.fail "k = 1 must be lost on a two-island run");
  let t = Semantic.trajectory chain in
  check "trajectory starts complete" true (contains t "1 (complete)");
  check "trajectory reaches 2" true (contains t "-> 2")

(* ---------------- SSG201 ---------------- *)

let test_ssg201_certificate () =
  (* Below the certificate: an error carrying the trajectory. *)
  let diags = Lint.check_text ~k:1 two_islands in
  (match with_code "SSG201" diags with
  | [ d ] ->
      check "201 is an error" true (d.Diagnostic.severity = Diagnostic.Error);
      check "carries the trajectory" true
        (contains d.Diagnostic.message "(complete)");
      check "hints the needed k" true
        (match d.Diagnostic.hint with
        | Some h -> contains h "2"
        | None -> false)
  | ds -> Alcotest.failf "expected one SSG201 error, got %d" (List.length ds));
  (* At or above it: an info certificate, never an error. *)
  let diags2 = Lint.check_text ~k:2 two_islands in
  (match with_code "SSG201" diags2 with
  | [ d ] -> check "201 is info at k = min_k" true (d.Diagnostic.severity = Diagnostic.Info)
  | ds -> Alcotest.failf "expected one SSG201 info, got %d" (List.length ds))

(* ---------------- SSG202 ---------------- *)

let test_ssg202_window () =
  let diags = Lint.check_text overshoot in
  let ds = with_code "SSG202" diags in
  check "info report present" true
    (List.exists (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Info) ds);
  (* The declared prefix runs past r_ST = 1: an overshoot warning whose
     span covers the trailing dead rounds (a multi-line range). *)
  (match
     List.find_opt (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Warning) ds
   with
  | Some d -> (
      check "mentions r_ST" true (contains d.Diagnostic.message "r_ST");
      match d.Diagnostic.span with
      | Some s -> check "multi-line span" true (s.end_line > s.line)
      | None -> Alcotest.fail "overshoot warning must carry a span")
  | None -> Alcotest.fail "expected an SSG202 overshoot warning");
  (* The paper's bound and the Lemma 11 horizon are both reported. *)
  let infos =
    List.filter (fun (d : Diagnostic.t) -> d.severity = Diagnostic.Info) ds
  in
  check "names the 3n + 4 bound" true
    (List.exists (fun (d : Diagnostic.t) -> contains d.message "3n + 4") infos);
  (* A run that stabilizes exactly at its last round has no overshoot. *)
  let tight = "ssg-run v1\nn 3\nround 1: 0>1\nstable: 0>1 1>2\n" in
  check "no warning when the prefix is tight" true
    (List.for_all
       (fun (d : Diagnostic.t) -> d.severity <> Diagnostic.Warning)
       (with_code "SSG202" (Lint.check_text tight)))

(* ---------------- SSG203 ---------------- *)

let test_ssg203_dead_rounds () =
  let diags = Lint.check_text overshoot in
  let ds = with_code "SSG203" diags in
  check_int "rounds 2 and 3 are dead" 2 (List.length ds);
  List.iter
    (fun (d : Diagnostic.t) ->
      check "dead round is a warning" true (d.severity = Diagnostic.Warning);
      check "anchored" true (d.span <> None))
    ds;
  (* Ground truth: dead ⟺ the slow skeleton does not change there. *)
  let adv = Run_format.of_string overshoot in
  let chain = Semantic.analyze adv in
  check "chain agrees" true (chain.Semantic.dead = [ 2; 3 ])

(* ---------------- Fix ---------------- *)

let relints_clean_for_fixed_codes text =
  let diags = Lint.check_text text in
  List.for_all
    (fun c ->
      c = "SSG103" (* empty rounds may be legitimately unfixable *)
      || with_code c diags = [])
    Fix.fixed_codes

let test_fix_figure1 () =
  let text = Run_format.to_string (Build.figure1 ()) in
  match Fix.fix text with
  | None -> Alcotest.fail "figure1 text must parse"
  | Some (fixed, plan) ->
      check "something to fix" false (Fix.is_empty plan);
      check "rounds dropped" true (plan.Fix.dropped_rounds <> []);
      check "fixed text parses" true
        (match Run_format.of_string fixed with
        | _ -> true
        | exception _ -> false);
      check "re-lints clean for fixed codes" true
        (relints_clean_for_fixed_codes fixed);
      (* Idempotent: fixing the fixed text is a no-op. *)
      (match Fix.fix fixed with
      | Some (fixed2, plan2) ->
          check "second fix is empty" true (Fix.is_empty plan2);
          check "second fix changes nothing" true (fixed2 = fixed)
      | None -> Alcotest.fail "fixed text must still parse");
      (* Semantics preserved, verified the slow way. *)
      let before = Run_format.of_string text
      and after = Run_format.of_string fixed in
      check "stable skeleton preserved" true
        (Digraph.equal
           (Adversary.stable_skeleton before)
           (Adversary.stable_skeleton after));
      check_int "min_k preserved" (Adversary.min_k before)
        (Adversary.min_k after)

let test_fix_unfixable_empty_round () =
  match Fix.fix two_empty_rounds with
  | None -> Alcotest.fail "fixture must parse"
  | Some (fixed, plan) ->
      (* One of the two empty rounds is subsumed and dropped; the
         survivor genuinely collapses the skeleton and must stay. *)
      check_int "exactly one round dropped" 1
        (List.length plan.Fix.dropped_rounds);
      check "survivor keeps its SSG103" true
        (with_code "SSG103" (Lint.check_text fixed) <> []);
      let before = Run_format.of_string two_empty_rounds
      and after = Run_format.of_string fixed in
      check "stable skeleton preserved" true
        (Digraph.equal
           (Adversary.stable_skeleton before)
           (Adversary.stable_skeleton after))

let test_fix_rejects_unparseable () =
  check "no plan for garbage" true (Fix.plan "not a run\n" = None);
  check "no fix for garbage" true (Fix.fix "not a run\n" = None)

(* ---------------- Suppress ---------------- *)

let test_suppress_line_scope () =
  let noisy_with_directive =
    "ssg-run v1\n\
     n 4\n\
     round 1: 0>1 1>0 2>3 0>2 0>2  # ssg-lint: disable=SSG105\n\
     stable: 0>1 1>0 2>3\n"
  in
  let out = Lint.lint_text noisy_with_directive in
  check "SSG105 suppressed" true
    (with_code "SSG105" out.Lint.suppressed <> []);
  check "SSG105 not active" true (with_code "SSG105" out.Lint.active = []);
  (* The directive is code-specific: SSG101 anchors to the same line
     (round 1 subsumes the stable graph) and must stay active. *)
  check "SSG101 on the same line still active" true
    (with_code "SSG101" out.Lint.active <> [])

let test_suppress_file_scope () =
  let text = "# ssg-lint: disable=SSG001,SSG201\n" ^ two_islands in
  let out = Lint.lint_text ~k:1 text in
  check "SSG001 suppressed file-wide" true
    (with_code "SSG001" out.Lint.suppressed <> []);
  check "no active errors left" false (Lint.has_errors out.Lint.active);
  (* The engine gate honors the opt-out: same text now passes. *)
  check "gate admits the suppressed run" true (Lint.gate ~k:1 text = None);
  check "gate rejects without the directive" true
    (Lint.gate ~k:1 two_islands <> None)

let test_suppress_counts_in_summary () =
  let text = "# ssg-lint: disable=SSG001,SSG201\n" ^ two_islands in
  let out = Lint.lint_text ~k:1 text in
  let s =
    Lint.summarize ~suppressed:(List.length out.Lint.suppressed) out.Lint.active
  in
  check_int "suppressed counted" 2 s.Lint.suppressed;
  check_int "errors zeroed" 0 s.Lint.errors;
  (* The JSON reporter counts them and marks each one. *)
  let module E = Ssg_obs.Export in
  let json = Report.json [ ("t.run", out.Lint.active, out.Lint.suppressed) ] in
  match E.json_of_string json with
  | Some (E.Arr [ E.Obj file ]) ->
      check "json counts suppression" true
        (List.assoc_opt "suppressed" file = Some (E.Int 2));
      let marked =
        match List.assoc_opt "diagnostics" file with
        | Some (E.Arr ds) ->
            List.filter_map
              (function
                | E.Obj d
                  when List.assoc_opt "suppressed" d = Some (E.Bool true) ->
                    List.assoc_opt "code" d
                | _ -> None)
              ds
        | _ -> Alcotest.fail "no diagnostics array"
      in
      check "json marks suppression" true
        (List.sort compare marked = [ E.Str "SSG001"; E.Str "SSG201" ])
  | _ -> Alcotest.fail "the report is not one file object"

let test_suppress_parse_shapes () =
  let text =
    "# ssg-lint: disable=SSG104\n# just a comment\nn 3  # ssg-lint: disable=SSG105\n"
  in
  let ds = Suppress.parse text in
  check_int "two directives" 2 (List.length ds);
  (match ds with
  | [ a; b ] ->
      check "first is file-scoped" true (a.Suppress.scope = Suppress.File);
      check "second is line-scoped" true (b.Suppress.scope = Suppress.Line 3)
  | _ -> ());
  check "empty code list ignored" true
    (Suppress.parse "# ssg-lint: disable=\n" = [])

(* ---------------- SARIF ---------------- *)

module E = Ssg_obs.Export

(* Depth-first search for the first field named [name], so tests can
   reach nested SARIF fields (result → locations → physicalLocation →
   artifactLocation → uri) without spelling the whole path. *)
let rec find_field name j =
  let first f xs =
    List.fold_left
      (fun acc x -> match acc with Some _ -> acc | None -> f x)
      None xs
  in
  match j with
  | E.Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> Some v
      | None -> first (fun (_, v) -> find_field name v) fields)
  | E.Arr xs -> first (find_field name) xs
  | _ -> None

let sarif_results sarif =
  match E.json_of_string sarif with
  | Some (E.Obj top) -> (
      match List.assoc_opt "runs" top with
      | Some (E.Arr [ E.Obj run ]) -> (
          match List.assoc_opt "results" run with
          | Some (E.Arr results) -> Some (run, results)
          | _ -> None)
      | _ -> None)
  | _ -> None

let test_sarif_wellformed_and_roundtrip () =
  let file = "examples/islands.run" in
  let out = Lint.lint_text ~k:1 two_islands in
  let sarif = Sarif.export [ (file, out.Lint.active, out.Lint.suppressed) ] in
  check "validates with the obs JSON checker" true (E.json_wellformed sarif);
  match sarif_results sarif with
  | None -> Alcotest.fail "SARIF shape: runs[0].results missing"
  | Some (run, results) ->
      check_int "one result per diagnostic"
        (List.length out.Lint.active + List.length out.Lint.suppressed)
        (List.length results);
      (* The rule table mirrors the registry. *)
      (match find_field "tool" (E.Obj run) with
      | Some tool -> (
          match find_field "rules" tool with
          | Some (E.Arr rules) ->
              check_int "rules = registry" (List.length Diagnostic.registry)
                (List.length rules)
          | _ -> Alcotest.fail "driver.rules missing")
      | None -> Alcotest.fail "tool missing");
      (* Every diagnostic round-trips file, line and code. *)
      List.iter
        (fun (d : Diagnostic.t) ->
          let matches r =
            find_field "ruleId" r = Some (E.Str d.code)
            && find_field "uri" r = Some (E.Str file)
            &&
            match d.span with
            | Some s -> find_field "startLine" r = Some (E.Int s.line)
            | None -> true
          in
          check (Printf.sprintf "%s round-trips" d.code) true
            (List.exists matches results))
        (out.Lint.active @ out.Lint.suppressed)

let test_sarif_suppressions_and_fixes () =
  let file = "noisy.run" in
  let text =
    "ssg-run v1\n\
     n 4\n\
     round 1: 0>1 1>0 2>3 0>2 0>2\n\
     stable: 0>1 1>0 2>3  # ssg-lint: disable=SSG104\n"
  in
  let out = Lint.lint_text text in
  let plan =
    match Fix.plan text with Some p -> p | None -> Alcotest.fail "parses"
  in
  let sarif =
    Sarif.export
      ~fixes:[ (file, plan) ]
      [ (file, out.Lint.active, out.Lint.suppressed) ]
  in
  check "wellformed" true (E.json_wellformed sarif);
  match sarif_results sarif with
  | None -> Alcotest.fail "SARIF shape"
  | Some (_, results) ->
      let suppressed_results =
        List.filter (fun r -> find_field "suppressions" r <> None) results
      in
      check_int "suppressed results marked"
        (List.length out.Lint.suppressed)
        (List.length suppressed_results);
      List.iter
        (fun r ->
          match find_field "suppressions" r with
          | Some (E.Arr [ s ]) ->
              check "inSource kind" true
                (find_field "kind" s = Some (E.Str "inSource"))
          | _ -> Alcotest.fail "suppressions shape")
        suppressed_results;
      (* The fixable SSG105 result carries the plan. *)
      let fixable =
        List.filter
          (fun r ->
            match find_field "ruleId" r with
            | Some (E.Str c) -> List.mem c Fix.fixed_codes
            | _ -> false)
          results
      in
      check "some fixable result" true (fixable <> []);
      List.iter
        (fun r -> check "fix attached" true (find_field "fixes" r <> None))
        fixable

(* ---------------- Report.human multi-line clamp ---------------- *)

let test_human_excerpt_clamp () =
  let src = String.concat "\n" [ "l1"; "l2"; "l3"; "l4"; "l5"; "l6"; "l7" ] in
  let d =
    Diagnostic.warning ~span:(Diagnostic.range 2 7) ~code:"SSG202" "window"
  in
  let out = Report.human ~src [ d ] in
  check "first span line shown" true (contains out "l2");
  check "fourth span line shown" true (contains out "l5");
  check "fifth span line elided" false (contains out "l6");
  check "ellipsis counts the rest" true (contains out "(2 more line(s))");
  (* Short spans print whole, no marker. *)
  let d2 =
    Diagnostic.warning ~span:(Diagnostic.range 2 4) ~code:"SSG202" "window"
  in
  let out2 = Report.human ~src [ d2 ] in
  check "short span complete" true (contains out2 "l4");
  check "no marker" false (contains out2 "more line(s)")

(* ---------------- Pool.map ---------------- *)

let test_pool_map_order_and_fallback () =
  let pool = Pool.create ~workers:2 ~queue_capacity:2 () in
  let xs = List.init 100 Fun.id in
  check "ordered results" true
    (Pool.map pool (fun x -> x * 2) xs = List.map (fun x -> x * 2) xs);
  check "empty list" true (Pool.map pool Fun.id [] = []);
  Pool.shutdown pool;
  (* After shutdown submissions are refused; map falls back inline. *)
  check "inline fallback after shutdown" true
    (Pool.map pool (fun x -> x + 1) [ 1; 2; 3 ] = [ 2; 3; 4 ])

let test_pool_map_propagates_exception () =
  let pool = Pool.create ~workers:2 ~queue_capacity:4 () in
  let raised =
    match
      Pool.map pool (fun x -> if x = 3 then failwith "boom" else x) (List.init 8 Fun.id)
    with
    | _ -> false
    | exception Failure m -> m = "boom"
  in
  Pool.shutdown pool;
  check "first error re-raised" true raised

(* ---------------- a mixed batch through the engine ---------------- *)

let batch_jobs () =
  let good = Run_format.to_string (Build.synchronous ~n:4) in
  let bad = two_islands in
  [
    Job.of_run_text ~k:1 good;
    Job.of_run_text ~k:1 bad;
    Job.of_run_text ~k:1 good (* duplicate: must dedup, not re-gate *);
  ]

(* Every job submitted, then each awaited in order: the refused job
   comes back as its lint Error, the others as completions. *)
let test_mixed_batch () =
  let engine = Engine.create ~workers:2 ~queue_capacity:8 () in
  let tickets = List.map (Engine.submit engine) (batch_jobs ()) in
  check_int "one ticket per job" 3 (List.length tickets);
  (match List.map (Engine.await engine) tickets with
  | [ ok1; rejected; ok2 ] ->
      check "good job admitted" true (Result.is_ok ok1);
      check "two-island job rejected at the door" true
        (match rejected with
        | Error msg -> contains msg "SSG001"
        | Ok _ -> false);
      check "duplicate admitted" true (Result.is_ok ok2);
      let c1 = Service.completed ok1 and c2 = Service.completed ok2 in
      check "good job succeeded" true (Result.is_ok c1.Job.result);
      check "duplicate shares the result" true (Result.is_ok c2.Job.result)
  | _ -> ());
  Engine.shutdown engine

(* ---------------- properties: SSG2xx vs the slow way ---------------- *)

let prop_chain_matches_slow_enumeration =
  QCheck2.Test.make ~count:120
    ~name:"Semantic.analyze matches from-scratch enumeration"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let adv = gen_adversary rng in
      let prefix = Adversary.prefix_length adv in
      let chain = Semantic.analyze adv in
      Array.length chain.Semantic.facts = prefix + 1
      && Array.for_all
           (fun (f : Semantic.fact) ->
             let skel = slow_skeleton adv f.Semantic.round in
             f.Semantic.edge_count = Digraph.edge_count skel
             && f.Semantic.root_count = slow_root_count skel
             && f.Semantic.min_k = slow_min_k skel)
           chain.Semantic.facts
      && chain.Semantic.r_st = slow_r_st adv
      && chain.Semantic.final_min_k
         = slow_min_k (slow_skeleton adv (prefix + 1))
      (* dead ⟺ the slow skeleton is unchanged at that position *)
      && List.for_all
           (fun r ->
             Digraph.equal (slow_skeleton adv r) (slow_skeleton adv (r - 1)))
           (List.filter (fun r -> r > 1) chain.Semantic.dead)
      && List.for_all
           (fun r ->
             List.mem r chain.Semantic.dead
             || r = 1 (* round 1 vs the complete graph: rarely dead *)
             || not
                  (Digraph.equal (slow_skeleton adv r)
                     (slow_skeleton adv (r - 1))))
           (List.init prefix (fun i -> i + 1)))

let prop_ssg201_matches_slow_min_k =
  QCheck2.Test.make ~count:120
    ~name:"SSG201 error iff k below the slow-way limit min_k"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let adv = gen_adversary rng in
      if Adversary.is_recurrent adv then true
      else
        let text = Run_format.to_string adv in
        let prefix = Adversary.prefix_length adv in
        let true_min_k = slow_min_k (slow_skeleton adv (prefix + 1)) in
        let k = 1 + Rng.int rng (Adversary.n adv) in
        let diags = Lint.check_text ~k text in
        let errors =
          List.filter Diagnostic.is_error (with_code "SSG201" diags)
        in
        if k < true_min_k then
          (* exactly one error, anchored at the earliest slow round whose
             min_k exceeds k *)
          match errors with
          | [ _ ] ->
              let chain = Semantic.analyze adv in
              let slow_lost =
                let rec find r =
                  if r > prefix + 1 then None
                  else if slow_min_k (slow_skeleton adv r) > k then Some r
                  else find (r + 1)
                in
                find 1
              in
              Semantic.lost_at chain ~k = slow_lost
          | _ -> false
        else errors = [] && with_code "SSG201" diags <> [])

let prop_ssg203_matches_slow_deltas =
  QCheck2.Test.make ~count:120
    ~name:"SSG203 warnings exactly at slow-way zero-delta rounds"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let adv = gen_adversary rng in
      if Adversary.is_recurrent adv then true
      else
        let prefix = Adversary.prefix_length adv in
        let slow_dead =
          List.filter
            (fun r ->
              Digraph.equal (slow_skeleton adv r)
                (if r = 1 then
                   Digraph.complete ~self_loops:true (Adversary.n adv)
                 else slow_skeleton adv (r - 1)))
            (List.init prefix (fun i -> i + 1))
        in
        let diags =
          Lint.check_text (Run_format.to_string adv)
        in
        List.length (with_code "SSG203" diags) = List.length slow_dead)

let prop_ssg202_r_st_matches_slow =
  QCheck2.Test.make ~count:120
    ~name:"SSG202 reports the slow-way stabilization round"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let adv = gen_adversary rng in
      if Adversary.is_recurrent adv then true
      else
        let diags = Lint.check_text (Run_format.to_string adv) in
        let expected = Printf.sprintf "r_ST = %d" (slow_r_st adv) in
        List.exists
          (fun (d : Diagnostic.t) -> contains d.message expected)
          (with_code "SSG202" diags))

(* ---------------- properties: fix soundness ---------------- *)

let prop_fix_sound_and_idempotent =
  QCheck2.Test.make ~count:120
    ~name:"--fix preserves skeleton and min_k, re-lints clean, idempotent"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let n = 2 + Rng.int rng 7 in
      let adv =
        Build.arbitrary rng ~n ~density:(Rng.float rng)
          ~prefix_len:(Rng.int rng 5) ~noise:(Rng.float rng) ()
      in
      if Adversary.is_recurrent adv then true
      else
        let text = Run_format.to_string adv in
        match Fix.fix text with
        | None -> false (* serialized adversaries always parse *)
        | Some (fixed, _) -> (
            match Run_format.of_string fixed with
            | exception _ -> false
            | after ->
                Digraph.equal
                  (Adversary.stable_skeleton adv)
                  (Adversary.stable_skeleton after)
                && Adversary.min_k adv = Adversary.min_k after
                && relints_clean_for_fixed_codes fixed
                &&
                match Fix.fix fixed with
                | Some (fixed2, plan2) -> Fix.is_empty plan2 && fixed2 = fixed
                | None -> false))

(* ---------------- properties: SARIF ---------------- *)

let prop_sarif_wellformed_and_complete =
  QCheck2.Test.make ~count:80
    ~name:"SARIF export validates and covers every diagnostic"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let adv = gen_adversary rng in
      if Adversary.is_recurrent adv then true
      else
        let text = Run_format.to_string adv in
        let k = 1 + Rng.int rng (Adversary.n adv) in
        let out = Lint.lint_text ~k text in
        let sarif =
          Sarif.export [ ("gen.run", out.Lint.active, out.Lint.suppressed) ]
        in
        E.json_wellformed sarif
        &&
        match sarif_results sarif with
        | Some (_, results) ->
            List.length results
            = List.length out.Lint.active + List.length out.Lint.suppressed
            && List.for_all
                 (fun (d : Diagnostic.t) ->
                   List.exists
                     (fun r -> find_field "ruleId" r = Some (E.Str d.code))
                     results)
                 (out.Lint.active @ out.Lint.suppressed)
        | None -> false)

(* ------- the gate equals its reference (test/ref_lint_gate.ml) ------- *)

let gate_codes = [| "SSG000"; "SSG001"; "SSG201" |]

(* A [# ssg-lint: disable=] directive over a non-empty subset of the
   codes that can refuse a job, on a comment line of its own (file
   scope) or trailing a random line (that line only). *)
let with_directive rng text =
  let codes =
    List.filter (fun _ -> Rng.bool rng) (Array.to_list gate_codes)
    |> function [] -> [ gate_codes.(Rng.int rng 3) ] | cs -> cs
  in
  let directive = "# ssg-lint: disable=" ^ String.concat "," codes in
  if Rng.bool rng then directive ^ "\n" ^ text
  else
    let lines = String.split_on_char '\n' text in
    let at = Rng.int rng (max 1 (List.length lines - 1)) in
    List.mapi (fun i l -> if i = at then l ^ "  " ^ directive else l) lines
    |> String.concat "\n"

let mutate_byte rng text =
  let b = Bytes.of_string text in
  let pos = Rng.int rng (Bytes.length b) in
  let replacement =
    if Rng.bool rng then "0123456789> \n#:".[Rng.int rng 15]
    else Char.chr (Rng.int rng 256)
  in
  Bytes.set b pos replacement;
  Bytes.to_string b

let gate_agrees ~k text = Lint.gate ~k text = Ref_lint_gate.gate ~k text

let prop_gate_matches_reference =
  QCheck2.Test.make ~count:200
    ~name:"gate equals the reference gate"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let n = 2 + Rng.int rng 9 in
      let adv =
        Build.arbitrary rng ~n ~density:(Rng.float rng)
          ~prefix_len:(Rng.int rng 4) ()
      in
      let text = Run_format.to_string adv in
      let min_k = Adversary.min_k adv in
      let texts =
        [ text; with_directive rng text; mutate_byte rng text;
          mutate_byte rng (with_directive rng text) ]
      in
      List.for_all
        (fun k -> List.for_all (gate_agrees ~k) texts)
        (List.filter (fun k -> k >= 1) [ min_k - 1; min_k; min_k + 1 ]))

let test_gate_matches_reference_on_examples () =
  let dir =
    if Sys.file_exists "../examples/figure1.run" then "../examples"
    else "examples"
  in
  let texts =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".run")
    |> List.sort compare
    |> List.map (fun f ->
           In_channel.with_open_bin (Filename.concat dir f)
             In_channel.input_all)
  in
  let refused = ref 0 and admitted = ref 0 in
  List.iter
    (fun text ->
      for k = 1 to 8 do
        check (Printf.sprintf "k = %d" k) true (gate_agrees ~k text);
        if Lint.gate ~k text = None then incr admitted else incr refused
      done)
    texts;
  check "both verdicts exercised" true (!refused > 0 && !admitted > 0)

let tests =
  [
    Alcotest.test_case "semantic chain facts" `Quick test_semantic_chain_facts;
    Alcotest.test_case "lost_at and trajectory" `Quick
      test_semantic_lost_at_and_trajectory;
    Alcotest.test_case "SSG201 certificate" `Quick test_ssg201_certificate;
    Alcotest.test_case "SSG202 window" `Quick test_ssg202_window;
    Alcotest.test_case "SSG203 dead rounds" `Quick test_ssg203_dead_rounds;
    Alcotest.test_case "fix figure1" `Quick test_fix_figure1;
    Alcotest.test_case "fix keeps unfixable empty round" `Quick
      test_fix_unfixable_empty_round;
    Alcotest.test_case "fix rejects unparseable" `Quick
      test_fix_rejects_unparseable;
    Alcotest.test_case "suppress: line scope" `Quick test_suppress_line_scope;
    Alcotest.test_case "suppress: file scope + gate" `Quick
      test_suppress_file_scope;
    Alcotest.test_case "suppress: summary counts" `Quick
      test_suppress_counts_in_summary;
    Alcotest.test_case "suppress: directive shapes" `Quick
      test_suppress_parse_shapes;
    Alcotest.test_case "sarif roundtrip" `Quick
      test_sarif_wellformed_and_roundtrip;
    Alcotest.test_case "sarif suppressions and fixes" `Quick
      test_sarif_suppressions_and_fixes;
    Alcotest.test_case "human excerpt clamp" `Quick test_human_excerpt_clamp;
    Alcotest.test_case "pool map: order and fallback" `Quick
      test_pool_map_order_and_fallback;
    Alcotest.test_case "pool map: exception" `Quick
      test_pool_map_propagates_exception;
    Alcotest.test_case "mixed batch via submit/await" `Quick test_mixed_batch;
    Alcotest.test_case "gate equals the reference on examples" `Quick
      test_gate_matches_reference_on_examples;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_chain_matches_slow_enumeration;
        prop_ssg201_matches_slow_min_k;
        prop_ssg203_matches_slow_deltas;
        prop_ssg202_r_st_matches_slow;
        prop_fix_sound_and_idempotent;
        prop_sarif_wellformed_and_complete;
        prop_gate_matches_reference;
      ]
