open Ssg_adversary

let check ?k adv = Pass.run_all Checks.all (Pass.ctx ?k adv)

(* "line N: ..." parse failures anchor SSG000 to line N. *)
let parse_error_span msg =
  match Scanf.sscanf_opt msg "line %d:" (fun l -> l) with
  | Some l -> Some (Diagnostic.line l)
  | None -> None

type outcome = { active : Diagnostic.t list; suppressed : Diagnostic.t list }

let unparsed msg =
  Diagnostic.error
    ?span:(parse_error_span msg)
    ~code:"SSG000"
    (Printf.sprintf "run description does not parse: %s" msg)

let apply_directives text diags =
  let active, suppressed = Suppress.partition (Suppress.parse text) diags in
  { active; suppressed }

let lint_text ?k text =
  apply_directives text
    (match Run_format.parse text with
    | adv, spans -> Pass.run_all Checks.all (Pass.ctx ?k ~spans adv)
    | exception Failure msg -> [ unparsed msg ])

let check_text ?k text = (lint_text ?k text).active

type summary = {
  errors : int;
  warnings : int;
  infos : int;
  suppressed : int;
}

let summarize ?(suppressed = 0) diags =
  List.fold_left
    (fun acc (d : Diagnostic.t) ->
      match d.severity with
      | Diagnostic.Error -> { acc with errors = acc.errors + 1 }
      | Diagnostic.Warning -> { acc with warnings = acc.warnings + 1 }
      | Diagnostic.Info -> { acc with infos = acc.infos + 1 })
    { errors = 0; warnings = 0; infos = 0; suppressed }
    diags

let has_errors diags = List.exists Diagnostic.is_error diags

let ok ?(strict = false) diags =
  let s = summarize diags in
  s.errors = 0 && ((not strict) || s.warnings = 0)

let gate ~k run =
  let refuse diags =
    let { active; suppressed } = apply_directives run diags in
    (* A run that does not parse can never execute: a directive may mute
       its SSG000 in reports, never at the gate. *)
    let unparsed =
      List.filter (fun (d : Diagnostic.t) -> d.code = "SSG000") suppressed
    in
    match List.filter Diagnostic.is_error active @ unparsed with
    | [] -> None
    | errors -> Some (Report.human ~src:run errors)
  in
  match Run_format.parse run with
  | exception Failure msg -> refuse [ unparsed msg ]
  | adv, spans ->
      (* On a parsed run only SSG001 and SSG201 can be errors, and both
         fire exactly when [k < min_k] (SSG201 compares against the
         chain's final min_k, which is the skeleton's), so every pass is
         run only to word a refusal. *)
      let ctx = Pass.ctx ~k ~spans adv in
      if k >= ctx.Pass.min_k then None
      else refuse (Pass.run_all Checks.all ctx)
