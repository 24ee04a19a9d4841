(** Diagnostic reporters.

    Two renderings of the same diagnostics: a human one (compiler-style
    [file:line: severity CODE: message] lines, plus the offending source
    line when the text is available) and a JSON one for tooling and CI.

    {b JSON schema} (one object per linted file, keys in this order;
    rendered compactly on one line by {!Ssg_obs.Export.json_to_string},
    spread out here for reading):

    {v
    [
      {
        "file": "examples/foo.run",
        "errors": 1, "warnings": 2, "infos": 1, "suppressed": 1,
        "diagnostics": [
          { "code": "SSG001", "severity": "error",
            "line": 5, "end_line": 5,
            "message": "...", "hint": "..." },
          { "code": "SSG104", "severity": "warning",
            "message": "...", "suppressed": true }
        ]
      }
    ]
    v}

    The per-file counts cover active diagnostics; suppressed ones follow
    them in the array, marked [suppressed: true] and counted in the
    [suppressed] field.  Each group is in source order
    ({!Diagnostic.compare}).  [line]/[end_line] are omitted for
    span-less diagnostics, [hint] when there is none. *)

(** [human ?file ?src diags] renders diagnostics in source order.  With
    [src] (the run-description text), each anchored diagnostic is
    followed by an excerpt of its span — up to 4 lines, longer spans
    elided with a [... | (N more line(s))] marker. *)
val human : ?file:string -> ?src:string -> Diagnostic.t list -> string

(** [json results] renders a JSON array with one object per
    [(file, active, suppressed)] triple, with no trailing newline. *)
val json :
  (string * Diagnostic.t list * Diagnostic.t list) list -> string
