(* Tests for the run-description file format. *)

open Ssg_util
open Ssg_graph
open Ssg_adversary

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let same_run a b =
  Adversary.n a = Adversary.n b
  && Adversary.prefix_length a = Adversary.prefix_length b
  && List.for_all
       (fun r -> Digraph.equal (Adversary.graph a r) (Adversary.graph b r))
       (List.init (Adversary.prefix_length a + 2) (fun i -> i + 1))

let test_roundtrip_examples () =
  List.iter
    (fun adv ->
      let adv' = Run_format.of_string (Run_format.to_string adv) in
      check ("roundtrip " ^ Adversary.name adv) true (same_run adv adv'))
    [
      Build.synchronous ~n:4;
      Build.lower_bound ~n:6 ~k:3;
      Build.figure1 ();
      Build.partitioned (Rng.of_int 1) ~n:8 ~blocks:2 ~prefix_len:3 ();
    ]

let prop_roundtrip =
  QCheck2.Test.make ~count:120 ~name:"format roundtrips random runs"
    QCheck2.Gen.(int_bound 100000)
    (fun seed ->
      let rng = Rng.of_int seed in
      (* The format requires n >= 2 (a description needs a second
         process to talk about); n = 1 systems stay in-memory only. *)
      let n = 2 + Rng.int rng 9 in
      let adv =
        Build.arbitrary rng ~n ~density:(Rng.float rng)
          ~prefix_len:(Rng.int rng 4) ~noise:0.5 ()
      in
      same_run adv (Run_format.of_string (Run_format.to_string adv)))

let test_parse_by_hand () =
  let adv =
    Run_format.of_string
      "ssg-run v1\n# the minimal E9 witness\nn 3\nround 1: 1>0 0>2 1>2 2>1\nstable: 1>0 0>2 1>2\n"
  in
  check_int "n" 3 (Adversary.n adv);
  check_int "prefix" 1 (Adversary.prefix_length adv);
  check "self loops implied" true
    (Digraph.has_all_self_loops (Adversary.graph adv 1));
  check "transient edge in round 1" true
    (Digraph.mem_edge (Adversary.graph adv 1) 2 1);
  check "gone in stable" false (Digraph.mem_edge (Adversary.graph adv 2) 2 1);
  check_int "min_k 1" 1 (Adversary.min_k adv)

let expect_failure label text =
  check label true
    (try
       ignore (Run_format.of_string text);
       false
     with Failure _ -> true)

let test_parse_errors () =
  expect_failure "missing header" "n 3\nstable: \n";
  expect_failure "missing n" "ssg-run v1\nstable: 0>1\n";
  expect_failure "missing stable" "ssg-run v1\nn 3\n";
  expect_failure "bad edge" "ssg-run v1\nn 3\nstable: 0>9\n";
  expect_failure "malformed edge" "ssg-run v1\nn 3\nstable: 0-1\n";
  expect_failure "non-consecutive rounds" "ssg-run v1\nn 3\nround 2: \nstable: \n";
  expect_failure "duplicate stable" "ssg-run v1\nn 2\nstable: \nstable: \n";
  expect_failure "unknown directive" "ssg-run v1\nn 2\nfrobnicate 7\nstable: \n"

(* Regression: a second [n] declaration used to silently overwrite the
   first, parsing earlier rounds and later graphs against different
   process counts.  The error message is part of the format's contract. *)
let expect_message label text message =
  check label true
    (try
       ignore (Run_format.of_string text);
       false
     with Failure msg -> msg = message)

let test_duplicate_n_rejected () =
  expect_message "duplicate n"
    "ssg-run v1\nn 3\nround 1: 0>1\nn 5\nstable: 0>1\n"
    "line 4: duplicate n declaration";
  (* Even re-declaring the same value is a malformed file. *)
  expect_message "duplicate n, same value"
    "ssg-run v1\nn 3\nn 3\nstable: 0>1\n" "line 3: duplicate n declaration"

(* Regression: [n 0] and [n 1] used to parse (the guard only refused
   non-positive values, and 1 passed it), producing degenerate runs the
   edge grammar cannot even describe.  The diagnostic is line-anchored
   so the lint front door can place it. *)
let test_degenerate_n_rejected () =
  expect_message "n 1"
    "ssg-run v1\nn 1\nstable:\n"
    "line 2: n must be at least 2 (got 1): a run needs two processes to \
     describe communication";
  expect_message "n 0"
    "ssg-run v1\nn 0\nstable:\n"
    "line 2: n must be at least 2 (got 0): a run needs two processes to \
     describe communication";
  expect_message "negative n"
    "ssg-run v1\n\nn -4\nstable:\n"
    "line 3: n must be at least 2 (got -4): a run needs two processes to \
     describe communication";
  expect_message "non-integer n" "ssg-run v1\nn x\nstable:\n"
    "line 2: n must be an integer >= 2"

(* Regression: prefix rounds after the stable graph used to parse (the
   round list and the stable ref were independent), producing a run
   whose textual order lied about its round order. *)
let test_round_after_stable_rejected () =
  expect_message "round after stable"
    "ssg-run v1\nn 3\nstable: 0>1\nround 1: 0>2\n"
    "line 4: round after stable graph";
  expect_message "round after bare stable"
    "ssg-run v1\nn 2\nstable:\nround 1: 0>1\n"
    "line 4: round after stable graph"

let test_spans () =
  let _adv, spans =
    Run_format.parse
      "ssg-run v1\n# comment\nn 3\n\nround 1: 0>1 0>1 2>2\nround 2: 0>1\nstable: 0>1\n"
  in
  check_int "n line" 3 spans.Run_format.n_line;
  check_int "round count" 2 (Array.length spans.Run_format.round_lines);
  check_int "round 1 line" 5 spans.Run_format.round_lines.(0);
  check_int "round 2 line" 6 spans.Run_format.round_lines.(1);
  check_int "stable line" 7 spans.Run_format.stable_line;
  Alcotest.(check (list (pair int string)))
    "redundant tokens in source order"
    [ (5, "0>1"); (5, "2>2") ]
    spans.Run_format.redundant_edges

let test_edgeless_stable () =
  let adv = Run_format.of_string "ssg-run v1\nn 2\nstable:\n" in
  check "only self loops" true
    (Digraph.equal (Adversary.graph adv 1) (Gen.self_loops_only 2))

let test_recurrent_rejected () =
  let rng = Rng.of_int 3 in
  let adv =
    Build.with_recurrent_noise rng (Build.synchronous ~n:3) ~noise:0.2
  in
  check "recurrent rejected" true
    (try ignore (Run_format.to_string adv); false
     with Invalid_argument _ -> true)

let test_save_load_file () =
  let adv = Build.lower_bound ~n:5 ~k:2 in
  let path = Filename.temp_file "ssg_run" ".ssg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Run_format.save adv path;
      check "file roundtrip" true (same_run adv (Run_format.load path)))

(* A run text whose graphs would pass the parser's budget is refused
   with a line-anchored message before it is built, so a few bytes can
   no longer exhaust memory at a front door.  Returns the message and
   the bytes allocated by the refused parse. *)
let refused text =
  let before = Gc.allocated_bytes () in
  match Run_format.of_string text with
  | _ -> Alcotest.fail "a text over the budget was accepted"
  | exception Failure msg -> (msg, Gc.allocated_bytes () -. before)

let test_budget_refuses_large_n () =
  let msg, bytes = refused "ssg-run v1\nn 200000\nstable:\n" in
  check ("refused at the n line: " ^ msg) true
    (String.starts_with ~prefix:"line 2: n = 200000 is too large" msg);
  check "nothing of that order was allocated" true (bytes < 1e6)

let test_budget_refuses_many_rounds () =
  (* At n = 2000 one graph takes 148,006 words (4000 rows of 32 + 4),
     so 28 graphs fit in 2^22 words and round 29, on line 31, is the
     first to cross. *)
  let rounds = List.init 100 (fun i -> Printf.sprintf "round %d:" (i + 1)) in
  let text =
    String.concat "\n" (("ssg-run v1" :: "n 2000" :: rounds) @ [ "stable:" ])
  in
  let msg, bytes = refused text in
  check ("refused at the first round over the budget: " ^ msg) true
    (String.starts_with ~prefix:"line 31: run too large" msg);
  (* The 28 graphs that fit were built; the other 73 never were. *)
  check "allocation stays within the budget" true
    (bytes < (8. *. float_of_int (1 lsl 22)) +. 4e6)

let test_budget_admits_n_1024 () =
  let adv =
    Run_format.of_string "ssg-run v1\nn 1024\nround 1: 0>1\nstable: 1>0\n"
  in
  check_int "n = 1024 parses" 1024 (Adversary.n adv)

(* --- The kernels equal the ones they replaced (test/ref_run_format.ml) --- *)

let gen_run =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Rng.of_int seed in
        let n = 2 + Rng.int rng 129 in
        Build.arbitrary rng ~n ~density:(Rng.float rng)
          ~prefix_len:(Rng.int rng 5) ~noise:(Rng.float rng) ())
      (int_bound 1_000_000))

(* Sizes from 2 to 130 put rows on both sides of the 63-bit word
   boundary, which the roundtrip property (n <= 10) never reaches. *)
let prop_writer_matches_reference =
  QCheck2.Test.make ~count:200
    ~name:"writer is byte-identical to the reference"
    ~print:Ref_run_format.to_string gen_run (fun adv ->
      Run_format.to_string adv = Ref_run_format.to_string adv)

(* Tokens only the general path reads, malformed ones, the separators
   the edge grammar does not skip, and fast-path tokens at its edges. *)
let spliced =
  [|
    "0x1>2"; "+1>2"; "-0>1"; "1_0>2"; "0b1>0o1"; "01>2"; "1234567890>1";
    "99999999999999999999>1"; "1>2>3"; ">"; "1>"; "\t"; "\r"; "  "; "0>0";
    "1>0"; "000000001>1"; "0000000001>1"; "1>999999999"; "#"; "\n"; ":";
    "round"; "stable:"; "n 3";
  |]

let mutate rng ~n text =
  let len = String.length text in
  let pos = Rng.int rng (len + 1) in
  let splice ?(at = pos) s =
    String.sub text 0 at ^ s ^ String.sub text at (len - at)
  in
  (* a space, so that a spliced token does not split one already there *)
  let boundary () =
    match String.index_from_opt text pos ' ' with Some i -> i | None -> pos
  in
  let pick a = a.(Rng.int rng (Array.length a)) in
  match Rng.int rng 8 with
  | 0 | 1 ->
      (* an edge, often a duplicate or a self-loop, sometimes out of range *)
      splice ~at:(boundary ())
        (Printf.sprintf " %d>%d" (Rng.int rng (n + 1)) (Rng.int rng (n + 1)))
  | 2 -> splice ~at:(boundary ()) (" " ^ pick spliced)
  | 3 -> splice (pick spliced)
  | 4 ->
      let k = min (len - pos) (1 + Rng.int rng 3) in
      String.sub text 0 pos ^ String.sub text (pos + k) (len - pos - k)
  | 5 ->
      let chars = "0123456789> \t\r\n#:x-_" in
      splice (String.make 1 chars.[Rng.int rng (String.length chars)])
  | 6 ->
      (* duplicate or drop a whole line *)
      let lines = String.split_on_char '\n' text in
      let i = Rng.int rng (List.length lines) and dup = Rng.bool rng in
      let copies j l = if j <> i then [ l ] else if dup then [ l; l ] else [] in
      String.concat "\n" (List.concat (List.mapi copies lines))
  | _ ->
      (* widen some separators: double spaces are skipped, tabs are not *)
      let sep = pick [| "  "; "\t"; " \t " |] in
      let buf = Buffer.create (len + 64) in
      String.iter
        (fun c ->
          if c = ' ' && Rng.int rng 8 = 0 then Buffer.add_string buf sep
          else Buffer.add_char buf c)
        text;
      Buffer.contents buf

(* The largest [n] a text declares on an [n] line, read as the parser
   reads it.  The reference has no budget, so larger texts are left out. *)
let declared_n text =
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc raw ->
         let line = String.trim (Ref_run_format.strip_comment raw) in
         match String.index_opt line ' ' with
         | Some sp when String.sub line 0 sp = "n" -> (
             let rest = String.sub line sp (String.length line - sp) in
             match int_of_string_opt (String.trim rest) with
             | Some v -> max acc v
             | None -> acc)
         | _ -> acc)
       0

let gen_mutated_text =
  QCheck2.Gen.(
    map
      (fun seed ->
        let rng = Rng.of_int seed in
        let n = 2 + Rng.int rng (if Rng.bool rng then 12 else 69) in
        let adv =
          Build.arbitrary rng ~n ~density:(Rng.float rng)
            ~prefix_len:(Rng.int rng 5) ~noise:0.5 ()
        in
        let text = ref (Run_format.to_string adv) in
        for _ = 1 to Rng.int rng 4 do
          text := mutate rng ~n !text
        done;
        !text)
      (int_bound 1_000_000))

let parsed parse spans_of text =
  match parse text with
  | adv, spans ->
      Ok
        ( Adversary.n adv,
          List.init
            (Adversary.prefix_length adv + 1)
            (fun r -> Digraph.edges (Adversary.graph adv (r + 1))),
          spans_of spans )
  | exception e -> Error (Printexc.to_string e)

let prop_parser_matches_reference =
  QCheck2.Test.make ~count:2000
    ~name:"parser matches the reference on mutated texts" ~print:String.escaped
    gen_mutated_text (fun text ->
      QCheck2.assume (declared_n text <= 1024);
      parsed Run_format.parse
        (fun s ->
          Run_format.
            (s.n_line, s.round_lines, s.stable_line, s.redundant_edges))
        text
      = parsed Ref_run_format.parse
          (fun s ->
            Ref_run_format.
              (s.n_line, s.round_lines, s.stable_line, s.redundant_edges))
          text)

let tests =
  [
    Alcotest.test_case "roundtrip examples" `Quick test_roundtrip_examples;
    Alcotest.test_case "parse by hand" `Quick test_parse_by_hand;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "duplicate n rejected" `Quick test_duplicate_n_rejected;
    Alcotest.test_case "degenerate n rejected" `Quick
      test_degenerate_n_rejected;
    Alcotest.test_case "round after stable rejected" `Quick
      test_round_after_stable_rejected;
    Alcotest.test_case "span tracking" `Quick test_spans;
    Alcotest.test_case "edgeless stable" `Quick test_edgeless_stable;
    Alcotest.test_case "recurrent rejected" `Quick test_recurrent_rejected;
    Alcotest.test_case "save/load file" `Quick test_save_load_file;
    Alcotest.test_case "budget refuses a large n" `Quick
      test_budget_refuses_large_n;
    Alcotest.test_case "budget refuses too many rounds" `Quick
      test_budget_refuses_many_rounds;
    Alcotest.test_case "budget admits n = 1024" `Quick
      test_budget_admits_n_1024;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_roundtrip; prop_writer_matches_reference;
        prop_parser_matches_reference;
      ]
