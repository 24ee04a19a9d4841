(* Boundary and degenerate-input tests across the whole stack: n = 1
   systems, zero-round executions, single-element structures. *)

open Ssg_util
open Ssg_graph
open Ssg_rounds
open Ssg_adversary
open Ssg_sim

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_single_process_system () =
  (* n = 1: the process is its own root component; Algorithm 1 decides
     its own value at round 1 (G_p is the singleton, trivially SC). *)
  let adv = Build.synchronous ~n:1 in
  let r = Runner.run_kset ~inputs:[| 42 |] adv in
  Alcotest.(check (list int)) "decides own value" [ 42 ]
    (Executor.decision_values r.Runner.outcome);
  (match r.Runner.outcome.Executor.decisions.(0) with
  | Some { Executor.round; _ } -> check_int "at round 1" 1 round
  | None -> Alcotest.fail "undecided");
  check_int "min_k" 1 r.Runner.min_k

let test_single_process_monitored () =
  let adv = Build.synchronous ~n:1 in
  let r = Runner.run_kset ~monitor:true adv in
  Alcotest.(check (list string)) "clean" [] r.Runner.violations

let test_two_process_lower_bound () =
  (* smallest legal lower-bound run: n=2, k=1 *)
  let adv = Build.lower_bound ~n:2 ~k:1 in
  let r = Runner.run_kset adv in
  check_int "one value" 1 (Metrics.distinct_decisions r.Runner.outcome);
  check "terminates" true (Metrics.termination r.Runner.outcome)

let test_executor_zero_rounds () =
  let module E = Executor.Make (Ssg_core.Kset_agreement.Alg) in
  let outcome, _ =
    E.run
      (E.config ~inputs:[| 1; 2 |]
         ~graphs:(fun _ -> Digraph.complete ~self_loops:true 2)
         ~max_rounds:0 ())
  in
  check_int "no rounds" 0 outcome.Executor.rounds_run;
  check "nobody decided" false (Executor.all_decided outcome);
  check_int "no messages" 0 outcome.Executor.messages_sent

let test_digraph_single_node () =
  let g = Digraph.complete ~self_loops:true 1 in
  check_int "one edge" 1 (Digraph.edge_count g);
  check "sc" true (Scc.is_strongly_connected g);
  let g = Digraph.complete ~self_loops:false 1 in
  check_int "no edges" 0 (Digraph.edge_count g);
  (* a loopless single node is still one (trivial) SCC *)
  check_int "one component" 1 (Scc.compute g).Scc.count

let test_lgraph_single_node () =
  let g = Lgraph.create 1 ~self:0 in
  check "sc" true (Lgraph.is_strongly_connected g);
  Lgraph.set_edge g 0 0 ~label:1;
  check_int "self edge" 1 (Lgraph.edge_count g);
  Lgraph.prune_unreachable g ~self:0;
  check "self kept" true (Lgraph.mem_node g 0)

let test_bitset_capacity_one () =
  let s = Bitset.create 1 in
  Bitset.add s 0;
  check_int "cardinal" 1 (Bitset.cardinal s);
  check "full equal" true (Bitset.equal s (Bitset.full 1))

let test_uniform_inputs_zero () =
  let rng = Rng.of_int 1 in
  let adv = Build.partitioned rng ~n:6 ~blocks:2 () in
  let r = Runner.run_kset ~inputs:(Array.make 6 0) adv in
  Alcotest.(check (list int)) "all zero" [ 0 ]
    (Executor.decision_values r.Runner.outcome)

let test_parallel_more_domains_than_items () =
  Alcotest.(check (list int)) "fine" [ 2; 3 ] (Pool.run ~jobs:17 succ [ 1; 2 ])

let test_event_schedule_at_now () =
  let sim = Ssg_timing.Event_sim.create () in
  let log = ref [] in
  Ssg_timing.Event_sim.schedule sim ~at:1.0 (fun () ->
      log := `A :: !log;
      (* scheduling at the current instant is allowed and fires after *)
      Ssg_timing.Event_sim.schedule sim ~at:1.0 (fun () -> log := `B :: !log));
  ignore (Ssg_timing.Event_sim.run sim);
  check "both fired in order" true (List.rev !log = [ `A; `B ])

let test_otr_single_process () =
  let adv = Build.synchronous ~n:1 in
  let r =
    Runner.run_packed Ssg_baselines.One_third_rule.packed ~inputs:[| 7 |]
      ~rounds:3 adv
  in
  Alcotest.(check (list int)) "decides own" [ 7 ]
    (Executor.decision_values r.Runner.outcome)

let test_floodmin_single_round_budget () =
  (* f = 0: one round suffices in the fault-free synchronous model. *)
  let adv = Build.synchronous ~n:5 in
  let alg = Ssg_baselines.Floodmin.make ~rounds:(Ssg_baselines.Floodmin.rounds_for ~f:0 ~k:1) in
  let r = Runner.run_packed alg ~rounds:1 adv in
  check "consensus in one round" true
    (Metrics.termination r.Runner.outcome
    && Metrics.distinct_decisions r.Runner.outcome = 1)

let test_skeleton_single_round_trace () =
  let g = Gen.star 4 ~center:1 in
  let t = Trace.make [| g |] in
  check "G∩1 = G1" true (Digraph.equal (Ssg_skeleton.Skeleton.final t) g);
  check_int "stabilization at 1" 1 (Ssg_skeleton.Skeleton.stabilization_round t)

let test_predicate_n2 () =
  (* smallest nontrivial predicate instance *)
  let pts = [| Bitset.of_list 2 [ 0 ]; Bitset.of_list 2 [ 1 ] |] in
  check "psrcs(1) fails for disjoint pair" false
    (Ssg_predicates.Predicate.psrcs pts ~k:1);
  check_int "min_k = 2" 2 (Ssg_predicates.Predicate.min_k pts);
  let pts = [| Bitset.of_list 2 [ 0 ]; Bitset.of_list 2 [ 0; 1 ] |] in
  check "psrcs(1) holds with shared source" true
    (Ssg_predicates.Predicate.psrcs pts ~k:1)

let test_repeated_single_instance_single_process () =
  let adv = Build.synchronous ~n:1 in
  let results =
    Ssg_apps.Repeated.run adv
      ~proposals:(fun i -> [| i |])
      ~instances:1 ~window:3
  in
  check_int "one instance" 1 (List.length results);
  check "log agrees trivially" true
    (Ssg_apps.Repeated.logs_agree results ~members:(Bitset.full 1))

let test_monitor_single_round () =
  let m = Ssg_core.Monitor.create ~n:2 in
  let g = Digraph.complete ~self_loops:true 2 in
  let views =
    Array.init 2 (fun self ->
        let lg = Lgraph.create 2 ~self in
        Lgraph.set_edge lg 0 self ~label:1;
        Lgraph.set_edge lg 1 self ~label:1;
        { Ssg_core.Monitor.pt = Bitset.full 2; approx = lg })
  in
  Ssg_core.Monitor.observe m ~round:1 ~graph:g views;
  Alcotest.(check (list string)) "clean single round" []
    (Ssg_core.Monitor.finalize ~final_skeleton_exact:false m)

let tests =
  [
    Alcotest.test_case "single-process system" `Quick test_single_process_system;
    Alcotest.test_case "single-process monitored" `Quick
      test_single_process_monitored;
    Alcotest.test_case "two-process lower bound" `Quick test_two_process_lower_bound;
    Alcotest.test_case "executor zero rounds" `Quick test_executor_zero_rounds;
    Alcotest.test_case "digraph single node" `Quick test_digraph_single_node;
    Alcotest.test_case "lgraph single node" `Quick test_lgraph_single_node;
    Alcotest.test_case "bitset capacity one" `Quick test_bitset_capacity_one;
    Alcotest.test_case "uniform zero inputs" `Quick test_uniform_inputs_zero;
    Alcotest.test_case "parallel more domains than items" `Quick
      test_parallel_more_domains_than_items;
    Alcotest.test_case "event at current instant" `Quick test_event_schedule_at_now;
    Alcotest.test_case "OTR single process" `Quick test_otr_single_process;
    Alcotest.test_case "floodmin f=0" `Quick test_floodmin_single_round_budget;
    Alcotest.test_case "single-round trace" `Quick test_skeleton_single_round_trace;
    Alcotest.test_case "predicate n=2" `Quick test_predicate_n2;
    Alcotest.test_case "repeated 1x1" `Quick
      test_repeated_single_instance_single_process;
    Alcotest.test_case "monitor single round" `Quick test_monitor_single_round;
  ]
