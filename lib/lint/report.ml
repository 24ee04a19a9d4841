module E = Ssg_obs.Export

(* How many span lines a human excerpt shows before eliding the rest. *)
let excerpt_max = 4

let human ?file ?src diags =
  let buf = Buffer.create 256 in
  (* Split once per render, not once per diagnostic: O(lines + diags)
     instead of the old List.nth's O(lines × diags). *)
  let src_lines =
    Option.map (fun s -> Array.of_list (String.split_on_char '\n' s)) src
  in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let excerpt lines (s : Diagnostic.span) =
    let last = min s.end_line (Array.length lines) in
    let shown = min last (s.line + excerpt_max - 1) in
    for l = s.line to shown do
      add "  %4d | %s\n" l lines.(l - 1)
    done;
    if last > shown then add "   ... | (%d more line(s))\n" (last - shown)
  in
  List.iter
    (fun (d : Diagnostic.t) ->
      (match (file, d.span) with
      | Some f, Some s -> add "%s:%d: " f s.line
      | Some f, None -> add "%s: " f
      | None, Some s -> add "line %d: " s.line
      | None, None -> ());
      add "%s %s: %s\n" (Diagnostic.severity_label d.severity) d.code d.message;
      (match (src_lines, d.span) with
      | Some lines, Some s when s.line >= 1 && s.line <= Array.length lines ->
          excerpt lines s
      | _ -> ());
      match d.hint with Some h -> add "  hint: %s\n" h | None -> ())
    (List.sort Diagnostic.compare diags);
  Buffer.contents buf

let json_diagnostic ~suppressed (d : Diagnostic.t) =
  let span =
    match d.span with
    | Some s -> [ ("line", E.Int s.line); ("end_line", E.Int s.end_line) ]
    | None -> []
  in
  let hint = match d.hint with Some h -> [ ("hint", E.Str h) ] | None -> [] in
  E.Obj
    ([
       ("code", E.Str d.code);
       ("severity", E.Str (Diagnostic.severity_label d.severity));
     ]
    @ span
    @ [ ("message", E.Str d.message) ]
    @ hint
    @ if suppressed then [ ("suppressed", E.Bool true) ] else [])

let json results =
  let file (name, active, suppressed) =
    let active = List.sort Diagnostic.compare active in
    let suppressed = List.sort Diagnostic.compare suppressed in
    let count sev =
      E.Int
        (List.length
           (List.filter (fun (d : Diagnostic.t) -> d.severity = sev) active))
    in
    E.Obj
      [
        ("file", E.Str name);
        ("errors", count Diagnostic.Error);
        ("warnings", count Diagnostic.Warning);
        ("infos", count Diagnostic.Info);
        ("suppressed", E.Int (List.length suppressed));
        ( "diagnostics",
          E.Arr
            (List.map (json_diagnostic ~suppressed:false) active
            @ List.map (json_diagnostic ~suppressed:true) suppressed) );
      ]
  in
  E.json_to_string (E.Arr (List.map file results))
