(* [Lint.gate] as it was before it decided from [min_k]: every pass run
   on every job, then the suppression and the error filter, over a
   [Pass.ctx] whose [pts] and [min_k] each rebuild the stable skeleton
   through [Adversary].  Kept as the oracle of the equality property in
   test_lint_v2.ml: [Lint.gate] must accept the same jobs and refuse
   the rest with the same bytes.  Test executable only.  The bodies are
   the library's as they were; only module paths are qualified. *)

open Ssg_adversary
open Ssg_lint

let ctx ?k ?spans adv =
  let skeleton = Adversary.stable_skeleton adv in
  {
    Pass.adv;
    k;
    spans;
    skeleton;
    analysis = Ssg_skeleton.Analysis.analyze skeleton;
    pts = Adversary.pts adv;
    min_k = Adversary.min_k adv;
    chain = lazy (Semantic.analyze adv);
  }

let parse_error_span msg =
  match Scanf.sscanf_opt msg "line %d:" (fun l -> l) with
  | Some l -> Some (Diagnostic.line l)
  | None -> None

let lint_text ?k text =
  let diags =
    match Run_format.parse text with
    | adv, spans -> Pass.run_all Checks.all (ctx ?k ~spans adv)
    | exception Failure msg ->
        [
          Diagnostic.error
            ?span:(parse_error_span msg)
            ~code:"SSG000"
            (Printf.sprintf "run description does not parse: %s" msg);
        ]
  in
  let active, suppressed = Suppress.partition (Suppress.parse text) diags in
  { Lint.active; suppressed }

let gate ~k run =
  let { Lint.active; suppressed } = lint_text ~k run in
  (* A run that does not parse can never execute: a directive may mute
     its SSG000 in reports, never at the gate. *)
  let unparsed =
    List.filter (fun (d : Diagnostic.t) -> d.code = "SSG000") suppressed
  in
  match List.filter Diagnostic.is_error active @ unparsed with
  | [] -> None
  | errors -> Some (Report.human ~src:run errors)
