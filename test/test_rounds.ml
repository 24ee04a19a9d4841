(* Tests for the round model: executor semantics, HO correspondence,
   traces. *)

open Ssg_util
open Ssg_graph
open Ssg_rounds

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A probe algorithm that records what it received and decides its input
   at a fixed round.  Used to pin down delivery semantics. *)
module Probe = struct
  type state = {
    self : int;
    input : int;
    mutable heard : (int * int list) list; (* round, senders (rev) *)
    mutable dec : int option;
  }

  type message = int (* sender id *)

  let name = "probe"
  let init ~n:_ ~self ~input = { self; input; heard = []; dec = None }
  let send ~round:_ s = s.self

  let transition ~round s inbox =
    let senders = ref [] in
    Array.iteri
      (fun q m ->
        match m with
        | Some sender ->
            if sender <> q then failwith "payload mismatch";
            senders := q :: !senders
        | None -> ())
      inbox;
    s.heard <- (round, !senders) :: s.heard;
    if round >= 2 && s.dec = None then s.dec <- Some s.input;
    s

  let decision s = s.dec
  let message_bits ~n:_ ~round:_ _ = 8
end

let ring n =
  (* p -> p+1 plus self loops *)
  let g = Gen.self_loops_only n in
  for p = 0 to n - 1 do
    Digraph.add_edge g p ((p + 1) mod n)
  done;
  g

let run_probe ~n ~rounds ~graphs =
  let module E = Executor.Make (Probe) in
  E.run
    (E.config
       ~inputs:(Array.init n (fun i -> 10 * i))
       ~graphs ~max_rounds:rounds ())

let test_delivery_follows_graph () =
  let n = 4 in
  let g = ring n in
  let _, states = run_probe ~n ~rounds:1 ~graphs:(fun _ -> g) in
  Array.iteri
    (fun q s ->
      match s.Probe.heard with
      | [ (1, senders) ] ->
          Alcotest.(check (list int))
            (Printf.sprintf "inbox of %d" q)
            (List.sort compare [ q; (q + n - 1) mod n ])
            (List.sort compare senders)
      | _ -> Alcotest.fail "expected exactly one round")
    states

let test_decisions_recorded () =
  let n = 3 in
  let outcome, _ = run_probe ~n ~rounds:5 ~graphs:(fun _ -> ring n) in
  check "all decided" true (Executor.all_decided outcome);
  Array.iteri
    (fun p d ->
      match d with
      | Some { Executor.round; value } ->
          check_int "decision round" 2 round;
          check_int "decision value" (10 * p) value
      | None -> Alcotest.fail "missing decision")
    outcome.Executor.decisions

let test_early_stop () =
  let outcome, _ = run_probe ~n:3 ~rounds:50 ~graphs:(fun _ -> ring 3) in
  check_int "stopped after all decided" 2 outcome.Executor.rounds_run

let test_no_early_stop_when_disabled () =
  let module E = Executor.Make (Probe) in
  let outcome, _ =
    E.run
      (E.config ~stop_when_all_decided:false
         ~inputs:[| 0; 1; 2 |]
         ~graphs:(fun _ -> ring 3)
         ~max_rounds:7 ())
  in
  check_int "ran to max" 7 outcome.Executor.rounds_run

let test_message_accounting () =
  let n = 3 in
  let outcome, _ = run_probe ~n ~rounds:1 ~graphs:(fun _ -> ring n) in
  (* Each broadcast counts n point-to-point messages. *)
  check_int "sent" (n * n) outcome.Executor.messages_sent;
  (* ring + self loops: 2 deliveries per process *)
  check_int "delivered" (2 * n) outcome.Executor.messages_delivered;
  check_int "bits" (8 * n * n) outcome.Executor.bits_sent;
  check_int "max message" 8 outcome.Executor.max_message_bits

let test_decision_values () =
  let outcome, _ = run_probe ~n:3 ~rounds:5 ~graphs:(fun _ -> ring 3) in
  Alcotest.(check (list int)) "values" [ 0; 10; 20 ]
    (Executor.decision_values outcome);
  Alcotest.(check (option int)) "last round" (Some 2)
    (Executor.last_decision_round outcome)

let test_on_round_hook () =
  let module E = Executor.Make (Probe) in
  let seen = ref [] in
  let _ =
    E.run
      (E.config
         ~on_round:(fun ~round ~graph:_ _ -> seen := round :: !seen)
         ~inputs:[| 1; 2 |]
         ~graphs:(fun _ -> ring 2)
         ~max_rounds:3 ())
  in
  Alcotest.(check (list int)) "hook rounds" [ 1; 2 ] (List.rev !seen)

let test_graph_order_mismatch () =
  let module E = Executor.Make (Probe) in
  check "raises" true
    (try
       ignore
         (E.run
            (E.config ~inputs:[| 1; 2; 3 |]
               ~graphs:(fun _ -> ring 2)
               ~max_rounds:2 ()));
       false
     with Invalid_argument _ -> true)

let test_empty_system_rejected () =
  let module E = Executor.Make (Probe) in
  check "raises" true
    (try
       ignore
         (E.run
            (E.config ~inputs:[||] ~graphs:(fun _ -> ring 1) ~max_rounds:1 ()));
       false
     with Invalid_argument _ -> true)

(* An algorithm that illegally revokes its decision: executor must fail. *)
module Revoker = struct
  type state = int ref
  type message = unit

  let name = "revoker"
  let init ~n:_ ~self:_ ~input:_ = ref 0

  let send ~round:_ _ = ()

  let transition ~round:_ s _ =
    incr s;
    s

  let decision s = if !s = 1 then Some 42 else None
  let message_bits ~n:_ ~round:_ () = 0
end

let test_revoked_decision_detected () =
  let module E = Executor.Make (Revoker) in
  check "failure raised" true
    (try
       ignore
         (E.run
            (E.config ~stop_when_all_decided:false ~inputs:[| 0 |]
               ~graphs:(fun _ -> ring 1)
               ~max_rounds:3 ()));
       false
     with Failure _ -> true)

(* HO correspondence *)

let test_ho_sets () =
  let g = Digraph.of_edges 4 [ (0, 1); (2, 1); (1, 1) ] in
  Alcotest.(check (list int)) "HO(1)" [ 0; 1; 2 ] (Bitset.elements (Ho.ho g 1));
  Alcotest.(check (list int)) "D(1)" [ 3 ] (Bitset.elements (Ho.rrfd g 1));
  Alcotest.(check (list int)) "HO(0)" [] (Bitset.elements (Ho.ho g 0))

let test_ho_rrfd_duality () =
  let rng = Rng.of_int 5 in
  for _ = 1 to 20 do
    let g = Gen.gnp rng 9 0.4 in
    for p = 0 to 8 do
      let ho = Ho.ho g p and d = Ho.rrfd g p in
      check "partition" true (Bitset.disjoint ho d);
      check "cover" true (Bitset.cardinal ho + Bitset.cardinal d = 9)
    done
  done

let test_pt_equivalence_eq7 () =
  (* PT from HO-intersections equals PT from RRFD-unions: eq. (7). *)
  let rng = Rng.of_int 6 in
  for _ = 1 to 20 do
    let graphs = List.init 5 (fun _ -> Gen.gnp rng 8 0.5) in
    for p = 0 to 7 do
      let hos = List.map (fun g -> Ho.ho g p) graphs in
      let ds = List.map (fun g -> Ho.rrfd g p) graphs in
      check "eq7" true
        (Bitset.equal (Ho.pt_of_hos 8 hos) (Ho.pt_of_rrfds 8 ds))
    done
  done

let test_pt_of_empty_history () =
  check "no rounds -> everyone" true
    (Bitset.equal (Ho.pt_of_hos 5 []) (Bitset.full 5))

(* Trace *)

let test_trace () =
  let t = Trace.record ~n:3 ~rounds:4 (fun r -> if r = 2 then ring 3 else Gen.self_loops_only 3) in
  check_int "rounds" 4 (Trace.rounds t);
  check_int "n" 3 (Trace.n t);
  check "round 2 is ring" true (Digraph.equal (Trace.graph t 2) (ring 3));
  check "round 1 is loops" true
    (Digraph.equal (Trace.graph t 1) (Gen.self_loops_only 3));
  let visited = ref [] in
  Trace.iter (fun r _ -> visited := r :: !visited) t;
  Alcotest.(check (list int)) "iter order" [ 1; 2; 3; 4 ] (List.rev !visited)

let test_trace_bounds () =
  let t = Trace.record ~n:2 ~rounds:2 (fun _ -> ring 2) in
  check "round 0 rejected" true
    (try ignore (Trace.graph t 0); false with Invalid_argument _ -> true);
  check "round 3 rejected" true
    (try ignore (Trace.graph t 3); false with Invalid_argument _ -> true)

let test_trace_mixed_orders_rejected () =
  check "raises" true
    (try
       ignore (Trace.make [| ring 2; ring 3 |]);
       false
     with Invalid_argument _ -> true)

let tests =
  [
    Alcotest.test_case "delivery follows graph" `Quick test_delivery_follows_graph;
    Alcotest.test_case "decisions recorded" `Quick test_decisions_recorded;
    Alcotest.test_case "early stop" `Quick test_early_stop;
    Alcotest.test_case "no early stop when disabled" `Quick
      test_no_early_stop_when_disabled;
    Alcotest.test_case "message accounting" `Quick test_message_accounting;
    Alcotest.test_case "decision values" `Quick test_decision_values;
    Alcotest.test_case "on_round hook" `Quick test_on_round_hook;
    Alcotest.test_case "graph order mismatch" `Quick test_graph_order_mismatch;
    Alcotest.test_case "empty system rejected" `Quick test_empty_system_rejected;
    Alcotest.test_case "revoked decision detected" `Quick
      test_revoked_decision_detected;
    Alcotest.test_case "HO sets" `Quick test_ho_sets;
    Alcotest.test_case "HO/RRFD duality" `Quick test_ho_rrfd_duality;
    Alcotest.test_case "PT equivalence (eq. 7)" `Quick test_pt_equivalence_eq7;
    Alcotest.test_case "PT of empty history" `Quick test_pt_of_empty_history;
    Alcotest.test_case "trace" `Quick test_trace;
    Alcotest.test_case "trace bounds" `Quick test_trace_bounds;
    Alcotest.test_case "trace mixed orders rejected" `Quick
      test_trace_mixed_orders_rejected;
  ]
