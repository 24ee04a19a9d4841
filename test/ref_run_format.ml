(* [Run_format] as it was before the one-pass edge scanner and the
   Printf-free writer: the list-splitting parser and the Printf writer,
   kept verbatim as the oracle of the differential properties in
   test_run_format.ml.  The library's kernels must produce the same
   text, graphs, spans, notes and error messages.  Test executable only.
   It has no allocation budget, so the properties never feed it a text
   over the library's.  Apart from this comment and the second [open],
   the file is unchanged. *)

open Ssg_graph
open Ssg_adversary

let edge_tokens g =
  Digraph.edges g
  |> List.filter (fun (a, b) -> a <> b)
  |> List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b)
  |> String.concat " "

let to_string adv =
  if Adversary.is_recurrent adv then
    invalid_arg "Run_format.to_string: recurrent runs cannot be serialized";
  let buf = Buffer.create 256 in
  Buffer.add_string buf "ssg-run v1\n";
  Buffer.add_string buf
    (Printf.sprintf "# %s\nn %d\n" (Adversary.name adv) (Adversary.n adv));
  for r = 1 to Adversary.prefix_length adv do
    Buffer.add_string buf
      (Printf.sprintf "round %d: %s\n" r (edge_tokens (Adversary.graph adv r)))
  done;
  Buffer.add_string buf
    (Printf.sprintf "stable: %s\n"
       (edge_tokens (Adversary.graph adv (Adversary.prefix_length adv + 1))));
  Buffer.contents buf

type spans = {
  n_line : int;
  round_lines : int array;
  stable_line : int;
  redundant_edges : (int * string) list;
}

let syntax_error line msg = failwith (Printf.sprintf "line %d: %s" line msg)

(* [note] is told about textually redundant edge tokens — explicit
   self-loops (implied by the model) and duplicates of an edge already
   written on the same graph line.  The graph itself is unaffected; the
   lint layer turns the notes into SSG105 diagnostics. *)
let parse_edges ~lineno ~n ~note text =
  let g = Digraph.create n in
  Digraph.add_self_loops g;
  String.split_on_char ' ' text
  |> List.filter (fun t -> t <> "")
  |> List.iter (fun token ->
         match String.split_on_char '>' token with
         | [ a; b ] -> (
             match (int_of_string_opt a, int_of_string_opt b) with
             | Some a, Some b when a >= 0 && a < n && b >= 0 && b < n ->
                 if a = b || Digraph.mem_edge g a b then note (lineno, token);
                 Digraph.add_edge g a b
             | _ ->
                 syntax_error lineno
                   (Printf.sprintf "edge %S out of range for n = %d" token n))
         | _ -> syntax_error lineno (Printf.sprintf "malformed edge %S" token));
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
                    stable := Some (lineno, parse_edges ~lineno ~n ~note ""))
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
                  | Some v when v >= 2 -> n := Some (v, lineno)
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
                          rounds :=
                            (lineno, parse_edges ~lineno ~n ~note edges)
                            :: !rounds
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
                      stable := Some (lineno, parse_edges ~lineno ~n ~note edges))
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
