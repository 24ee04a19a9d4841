(* Tests for the sweep grid: enumeration, validation, naming, JSON, and
   a small end-to-end batch through the engine pool. *)

open Ssg_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_cells_row_major_and_skipped () =
  let grid =
    Sweep.create ~ns:[ 6; 4 ] ~ks:[ 5; 1 ]
      ~families:[ Sweep.Block_sources; Sweep.Partitioned ]
      ~seed:42
  in
  (* ns and ks are sorted; (n=4, k=5) is undescribable and dropped. *)
  let cells = Sweep.cells grid in
  check_int "cell count" 6 (List.length cells);
  check_int "skipped (k >= n)" 2 (Sweep.skipped grid);
  let shapes =
    List.map (fun (c : Sweep.cell) -> (c.n, c.k, c.family)) cells
  in
  Alcotest.(check bool)
    "row-major, n outer" true
    (shapes
    = [
        (4, 1, Sweep.Block_sources);
        (4, 1, Sweep.Partitioned);
        (6, 1, Sweep.Block_sources);
        (6, 1, Sweep.Partitioned);
        (6, 5, Sweep.Block_sources);
        (6, 5, Sweep.Partitioned);
      ]);
  (* Seeds are distinct per cell and reproducible across equal grids. *)
  let seeds = List.map (fun (c : Sweep.cell) -> c.seed) cells in
  check_int "distinct seeds" (List.length cells)
    (List.length (List.sort_uniq compare seeds));
  let grid' =
    Sweep.create ~ns:[ 4; 6 ] ~ks:[ 1; 5 ]
      ~families:[ Sweep.Block_sources; Sweep.Partitioned ]
      ~seed:42
  in
  check "reproducible" true (Sweep.cells grid = Sweep.cells grid')

let test_create_validation () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  check "empty ns" true (raises (fun () ->
      Sweep.create ~ns:[] ~ks:[ 1 ] ~families:[ Sweep.Arbitrary ] ~seed:0));
  check "empty ks" true (raises (fun () ->
      Sweep.create ~ns:[ 4 ] ~ks:[] ~families:[ Sweep.Arbitrary ] ~seed:0));
  check "empty families" true (raises (fun () ->
      Sweep.create ~ns:[ 4 ] ~ks:[ 1 ] ~families:[] ~seed:0));
  check "n < 2" true (raises (fun () ->
      Sweep.create ~ns:[ 4; 1 ] ~ks:[ 1 ] ~families:[ Sweep.Arbitrary ]
        ~seed:0));
  check "k < 1" true (raises (fun () ->
      Sweep.create ~ns:[ 4 ] ~ks:[ 0 ] ~families:[ Sweep.Arbitrary ] ~seed:0));
  (* Duplicate axis entries collapse instead of double-running cells. *)
  let grid =
    Sweep.create ~ns:[ 4; 4 ] ~ks:[ 2; 2 ]
      ~families:[ Sweep.Arbitrary; Sweep.Arbitrary ]
      ~seed:0
  in
  check_int "deduplicated axes" 1 (List.length (Sweep.cells grid))

let test_family_names_roundtrip () =
  List.iter
    (fun f ->
      match Sweep.family_of_string (Sweep.family_name f) with
      | Ok f' -> check ("roundtrip " ^ Sweep.family_name f) true (f = f')
      | Error e -> Alcotest.fail e)
    Sweep.all_families;
  (* tolerant spellings *)
  check "underscored" true
    (Sweep.family_of_string "Block_Sources" = Ok Sweep.Block_sources);
  check "trimmed" true
    (Sweep.family_of_string " single-root " = Ok Sweep.Single_root);
  match Sweep.family_of_string "quantum" with
  | Ok _ -> Alcotest.fail "accepted unknown family"
  | Error msg ->
      check "error lists expected families" true
        (String.length msg > 0
        &&
        let contains needle =
          let nl = String.length needle and hl = String.length msg in
          let rec go i =
            i + nl <= hl && (String.sub msg i nl = needle || go (i + 1))
          in
          go 0
        in
        contains "quantum" && contains "block-sources" && contains "arbitrary")

let test_effective_k_clamps_up () =
  (* A partitioned run with k blocks can have min_k > k; the submitted k
     must absorb that so the engine's lint front door accepts the job. *)
  List.iter
    (fun (cell : Sweep.cell) ->
      let adv = Sweep.adversary cell in
      let k = Sweep.effective_k cell adv in
      check "k_submitted >= requested" true (k >= cell.k);
      check "k_submitted >= min_k" true (k >= Ssg_adversary.Adversary.min_k adv))
    (Sweep.cells
       (Sweep.create ~ns:[ 5; 7 ] ~ks:[ 1; 2 ]
          ~families:Sweep.all_families ~seed:9))

let sample_results grid =
  List.map
    (fun (cell : Sweep.cell) ->
      {
        Sweep.cell;
        k_submitted = cell.k;
        outcome =
          (if cell.n = 4 then Error "boom"
           else
             Ok
               {
                 Sweep.min_k = cell.k;
                 rounds_run = 7;
                 decided = cell.n;
                 distinct_decisions = 1;
                 messages_sent = 100;
                 bits_sent = 800;
                 violations = 0;
               });
        cached = false;
        latency_ms = 1.5;
      })
    (Sweep.cells grid)

let test_to_json_wellformed () =
  let grid =
    Sweep.create ~ns:[ 4; 6 ] ~ks:[ 1 ]
      ~families:[ Sweep.Block_sources; Sweep.Arbitrary ]
      ~seed:3
  in
  let json =
    Sweep.to_json ~elapsed_ms:12.5 ~workers:4 ~domains_used:2 grid
      (sample_results grid)
  in
  check "wellformed" true (Ssg_obs.Export.json_wellformed json);
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i =
      i + nl <= hl && (String.sub json i nl = needle || go (i + 1))
    in
    go 0
  in
  check "grid axes present" true (contains "\"ns\":[4,6]");
  check "cell count" true (contains "\"cells\":4");
  check "error cell kept" true (contains "\"error\":\"boom\"");
  check "ok cell kept" true (contains "\"min_k\":1");
  check "pool utilization" true (contains "\"domains_used\":2")

(* End to end: a small grid as a real batch on the engine pool, mirroring
   the [ssg sweep] command's submit-then-await fold. *)
let test_sweep_through_engine () =
  let grid =
    Sweep.create ~ns:[ 4; 5 ] ~ks:[ 1; 2 ]
      ~families:[ Sweep.Block_sources; Sweep.Partitioned ]
      ~seed:11
  in
  let cells = Sweep.cells grid in
  let engine = Ssg_engine.Engine.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Ssg_engine.Engine.shutdown engine)
    (fun () ->
      let tickets =
        List.map
          (fun (cell : Sweep.cell) ->
            let adv = Sweep.adversary cell in
            let k = Sweep.effective_k cell adv in
            (cell, k, Ssg_engine.Engine.submit engine (Ssg_engine.Job.make ~k adv)))
          cells
      in
      List.iter
        (fun ((cell : Sweep.cell), k_submitted, ticket) ->
          let completion =
            Service.completed (Ssg_engine.Engine.await engine ticket)
          in
          match completion.Ssg_engine.Job.result with
          | Error msg ->
              Alcotest.failf "cell (n=%d,k=%d) failed: %s" cell.n cell.k msg
          | Ok (o : Ssg_engine.Job.outcome) ->
              check "submitted k is achievable" true (o.min_k <= k_submitted);
              check "at most k_submitted decisions" true
                (o.distinct_decisions <= k_submitted))
        tickets)

let tests =
  [
    Alcotest.test_case "cells: row-major + skipped" `Quick
      test_cells_row_major_and_skipped;
    Alcotest.test_case "create: validation + dedup" `Quick
      test_create_validation;
    Alcotest.test_case "family names roundtrip" `Quick
      test_family_names_roundtrip;
    Alcotest.test_case "effective_k clamps up" `Quick
      test_effective_k_clamps_up;
    Alcotest.test_case "to_json wellformed" `Quick test_to_json_wellformed;
    Alcotest.test_case "sweep through engine" `Quick
      test_sweep_through_engine;
  ]
