(** Front door of the lint subsystem.

    Three consumers share these entry points: the [ssg lint] CLI
    ({!check_text} + the {!Report} renderers), the [ssgd] engine front
    door ({!gate}, which turns lint errors into a rejection payload
    before a job ever reaches the worker pool), and in-memory advisory
    checks on [--load]/[shrink] paths ({!check}). *)

open Ssg_adversary

(** [check ?k adv] lints an in-memory adversary (no source spans).  With
    [k], unsatisfiable [Psrcs(k)] is reported as an [SSG001] error;
    without it, satisfiability is reported as info only. *)
val check : ?k:int -> Adversary.t -> Diagnostic.t list

(** Text-lint result, split by {!Suppress} directives.  [active] drives
    exit codes and the engine gate; [suppressed] is retained so
    reporters and summaries can still show (and count) what was muted. *)
type outcome = { active : Diagnostic.t list; suppressed : Diagnostic.t list }

(** [lint_text ?k text] lints a run description, with line-span anchors
    from the span-tracking parse, honoring inline
    [# ssg-lint: disable=...] directives.  Never raises: text rejected
    by {!Run_format.parse} yields a single active [SSG000] error. *)
val lint_text : ?k:int -> string -> outcome

(** [check_text ?k text] is [(lint_text ?k text).active] — suppressed
    diagnostics (an explicit in-source opt-out) are not reported. *)
val check_text : ?k:int -> string -> Diagnostic.t list

(** [gate ~k run] is the engine front door: [Some rendered] when [run]
    has lint errors at agreement parameter [k] (the string is the
    human-rendered diagnostics, with source excerpts), [None] when the
    job may execute.  A run that parses is accepted from its [min_k]
    alone when [k >= min_k], with no pass run; the passes run only to
    word a refusal.  A run that does not parse is always refused: its
    [SSG000] counts here even when a directive suppresses it. *)
val gate : k:int -> string -> string option

type summary = {
  errors : int;
  warnings : int;
  infos : int;
  suppressed : int;  (** directive-muted diagnostics, any severity *)
}

(** [summarize ?suppressed diags] counts by severity; [suppressed]
    (default 0) is carried through for display. *)
val summarize : ?suppressed:int -> Diagnostic.t list -> summary
val has_errors : Diagnostic.t list -> bool

(** [ok ?strict diags] — no errors; with [strict], no warnings either. *)
val ok : ?strict:bool -> Diagnostic.t list -> bool
