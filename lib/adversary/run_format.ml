open Ssg_util
open Ssg_graph

(* Decimal digits of [v >= 0], appended without an intermediate string. *)
let rec add_nat buf v =
  if v >= 10 then add_nat buf (v / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (v mod 10)))

(* [g]'s edges as single-spaced [src>dst] tokens, ascending by source
   then target, without the self-loops the format implies. *)
let add_edges buf g =
  let start = Buffer.length buf in
  Digraph.iter_edges g (fun a b ->
      if a <> b then begin
        if Buffer.length buf > start then Buffer.add_char buf ' ';
        add_nat buf a;
        Buffer.add_char buf '>';
        add_nat buf b
      end)

let to_string adv =
  if Adversary.is_recurrent adv then
    invalid_arg "Run_format.to_string: recurrent runs cannot be serialized";
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "ssg-run v1\n# ";
  Buffer.add_string buf (Adversary.name adv);
  Buffer.add_string buf "\nn ";
  add_nat buf (Adversary.n adv);
  Buffer.add_char buf '\n';
  let prefix = Adversary.prefix_length adv in
  for r = 1 to prefix do
    Buffer.add_string buf "round ";
    add_nat buf r;
    Buffer.add_string buf ": ";
    add_edges buf (Adversary.graph adv r);
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf "stable: ";
  add_edges buf (Adversary.graph adv (prefix + 1));
  Buffer.add_char buf '\n';
  Buffer.contents buf

type spans = {
  n_line : int;
  round_lines : int array;
  stable_line : int;
  redundant_edges : (int * string) list;
}

let syntax_error line msg = failwith (Printf.sprintf "line %d: %s" line msg)

(* The parser's allocation budget, in words.  Every graph a text
   declares is allocated as its line is read, before the text is checked
   as a whole, so without a bound a few bytes ("n 200000", or many round
   lines) could exhaust memory at whichever front door parses them
   first.  2^22 words (32 MiB with 64-bit words) admit one graph up to
   n = 11,000, or 90-odd graphs at n = 1024. *)
let max_graph_words = 1 lsl 22

(* Words one order-[n] [Digraph] occupies: 2n bitset rows of [words_for n]
   words, each with its array header and three-word record, plus the two
   row arrays and the graph record. *)
let graph_words n = (2 * n * (Bitset.words_for n + 4)) + (2 * (n + 1)) + 4

let rec decimal_from text p j v =
  if p = j then v
  else
    match text.[p] with
    | '0' .. '9' as c ->
        decimal_from text (p + 1) j ((v * 10) + Char.code c - Char.code '0')
    | _ -> -1

(* [decimal text i j] is text.[i..j) read as 1 to 9 decimal digits, or -1
   for any other slice. *)
let decimal text i j =
  if j <= i || j - i > 9 then -1 else decimal_from text i j 0

(* The general path for one edge token: every spelling
   [int_of_string_opt] accepts, and the wording of every edge error. *)
let add_token ~lineno ~note g token =
  let n = Digraph.order g in
  match String.split_on_char '>' token with
  | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b when a >= 0 && a < n && b >= 0 && b < n ->
          if a = b || Digraph.mem_edge g a b then note (lineno, token);
          Digraph.add_edge g a b
      | _ ->
          syntax_error lineno
            (Printf.sprintf "edge %S out of range for n = %d" token n))
  | _ -> syntax_error lineno (Printf.sprintf "malformed edge %S" token)

(* Adds the space-separated edge tokens of [text] to [g] in one pass.  A
   token of the shape [to_string] writes, digits>digits in range, is
   decoded in place; every other one goes through [add_token], the only
   code that accepts [int_of_string]'s other spellings ([0x1], [+1],
   [1_0]) and words the errors.  [note] is told about textually
   redundant edge tokens — explicit self-loops (implied by the model)
   and duplicates of an edge already written on the same graph line.
   The graph itself is unaffected; the lint layer turns the notes into
   SSG105 diagnostics. *)
let parse_edges ~lineno ~n ~note text =
  let g = Digraph.create n in
  Digraph.add_self_loops g;
  let len = String.length text in
  let i = ref 0 in
  while !i < len do
    let start = !i in
    (* text.[start..gt) is the token up to its first '>', if it has one. *)
    let gt = ref start in
    while !gt < len && text.[!gt] <> ' ' && text.[!gt] <> '>' do incr gt done;
    let stop = ref !gt in
    while !stop < len && text.[!stop] <> ' ' do incr stop done;
    let gt = !gt and stop = !stop in
    if stop > start then begin
      let a = decimal text start gt and b = decimal text (gt + 1) stop in
      if a >= 0 && b >= 0 && a < n && b < n then begin
        if a = b || Digraph.mem_edge g a b then
          note (lineno, String.sub text start (stop - start));
        Digraph.add_edge g a b
      end
      else add_token ~lineno ~note g (String.sub text start (stop - start))
    end;
    i := stop + 1
  done;
  g

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse text =
  let lines = String.split_on_char '\n' text in
  let n = ref None in
  (* (value, declaring line) *)
  let rounds = ref [] in
  (* (declaring line, graph), reversed *)
  let stable = ref None in
  let header_seen = ref false in
  let redundant = ref [] in
  let note entry = redundant := entry :: !redundant in
  let words = ref 0 in
  (* The graph on line [lineno], counted against the budget before it
     is allocated. *)
  let graph lineno n text =
    words := !words + graph_words n;
    if !words > max_graph_words then
      syntax_error lineno
        (Printf.sprintf
           "run too large: its graphs need more than the parser's budget \
            of %d words"
           max_graph_words);
    parse_edges ~lineno ~n ~note text
  in
  List.iteri
    (fun i raw ->
      let lineno = i + 1 in
      let line = String.trim (strip_comment raw) in
      if line <> "" then
        if not !header_seen then
          if line = "ssg-run v1" then header_seen := true
          else syntax_error lineno "expected header \"ssg-run v1\""
        else
          match String.index_opt line ' ' with
          | None ->
              if line = "stable:" then (
                match !n with
                | None -> syntax_error lineno "n must be declared first"
                | Some (n, _) ->
                    if !stable <> None then
                      syntax_error lineno "duplicate stable graph";
                    stable := Some (lineno, graph lineno n ""))
              else
                syntax_error lineno (Printf.sprintf "unknown directive %S" line)
          | Some sp -> (
              let keyword = String.sub line 0 sp in
              let rest = String.sub line (sp + 1) (String.length line - sp - 1) in
              match keyword with
              | "n" -> (
                  if !n <> None then
                    syntax_error lineno "duplicate n declaration";
                  match int_of_string_opt (String.trim rest) with
                  | Some v when v >= 2 ->
                      (* A run needs at least its stable graph. *)
                      if v > max_graph_words || graph_words v > max_graph_words
                      then
                        syntax_error lineno
                          (Printf.sprintf
                             "n = %d is too large: one graph of that order \
                              needs more than the parser's budget of %d words"
                             v max_graph_words);
                      n := Some (v, lineno)
                  | Some v ->
                      (* n 0 and n 1 describe no agreement problem: the
                         edge grammar cannot even name a second process.
                         Rejecting here gives the lint front door a
                         line-anchored diagnostic instead of letting a
                         degenerate run reach the engine. *)
                      syntax_error lineno
                        (Printf.sprintf
                           "n must be at least 2 (got %d): a run needs two \
                            processes to describe communication"
                           v)
                  | None -> syntax_error lineno "n must be an integer >= 2")
              | "round" -> (
                  if !stable <> None then
                    syntax_error lineno "round after stable graph";
                  match (!n, String.index_opt rest ':') with
                  | None, _ -> syntax_error lineno "n must be declared first"
                  | _, None -> syntax_error lineno "round needs \"round R: edges\""
                  | Some (n, _), Some colon -> (
                      let idx = String.trim (String.sub rest 0 colon) in
                      let edges =
                        String.sub rest (colon + 1) (String.length rest - colon - 1)
                      in
                      match int_of_string_opt idx with
                      | Some r when r = List.length !rounds + 1 ->
                          rounds := (lineno, graph lineno n edges) :: !rounds
                      | Some _ -> syntax_error lineno "rounds must be consecutive from 1"
                      | None -> syntax_error lineno "round index must be an integer"))
              | "stable:" | "stable" -> (
                  match !n with
                  | None -> syntax_error lineno "n must be declared first"
                  | Some (n, _) ->
                      let edges =
                        if keyword = "stable:" then rest
                        else
                          match String.index_opt rest ':' with
                          | Some c ->
                              String.sub rest (c + 1) (String.length rest - c - 1)
                          | None -> syntax_error lineno "stable needs a colon"
                      in
                      if !stable <> None then
                        syntax_error lineno "duplicate stable graph";
                      stable := Some (lineno, graph lineno n edges))
              | other ->
                  syntax_error lineno (Printf.sprintf "unknown directive %S" other)))
    lines;
  if not !header_seen then failwith "line 1: missing header \"ssg-run v1\"";
  match (!n, !stable) with
  | None, _ -> failwith "missing n declaration"
  | _, None -> failwith "missing stable graph"
  | Some (_, n_line), Some (stable_line, stable_graph) ->
      let rounds = List.rev !rounds in
      let adv =
        Adversary.make ~name:"loaded"
          ~prefix:(Array.of_list (List.map snd rounds))
          ~stable:stable_graph
      in
      ( adv,
        {
          n_line;
          round_lines = Array.of_list (List.map fst rounds);
          stable_line;
          redundant_edges = List.rev !redundant;
        } )

let of_string text = fst (parse text)

let save adv path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string adv))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
