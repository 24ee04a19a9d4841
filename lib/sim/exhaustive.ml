open Ssg_util
open Ssg_graph
open Ssg_skeleton
open Ssg_adversary
open Ssg_core

let off_diagonal_pairs n =
  let acc = ref [] in
  for a = n - 1 downto 0 do
    for b = n - 1 downto 0 do
      if a <> b then acc := (a, b) :: !acc
    done
  done;
  !acc

let all_stable_graphs ~n =
  let pairs = Array.of_list (off_diagonal_pairs n) in
  let m = Array.length pairs in
  if m > 20 then invalid_arg "Exhaustive.all_stable_graphs: space too large";
  List.init (1 lsl m) (fun mask ->
      let g = Gen.self_loops_only n in
      Array.iteri
        (fun i (a, b) -> if mask land (1 lsl i) <> 0 then Digraph.add_edge g a b)
        pairs;
      g)

type verdict = {
  runs : int;
  theorem1_failures : int;
  agreement_failures : int;
  strict_agreement_failures : int;
  validity_failures : int;
  termination_failures : int;
  repaired_agreement_failures : int;
  repaired_termination_failures : int;
  counterexample : Adversary.t option;
}

let empty_verdict =
  {
    runs = 0;
    theorem1_failures = 0;
    agreement_failures = 0;
    strict_agreement_failures = 0;
    validity_failures = 0;
    termination_failures = 0;
    repaired_agreement_failures = 0;
    repaired_termination_failures = 0;
    counterexample = None;
  }

let merge a b =
  {
    runs = a.runs + b.runs;
    theorem1_failures = a.theorem1_failures + b.theorem1_failures;
    agreement_failures = a.agreement_failures + b.agreement_failures;
    strict_agreement_failures =
      a.strict_agreement_failures + b.strict_agreement_failures;
    validity_failures = a.validity_failures + b.validity_failures;
    termination_failures = a.termination_failures + b.termination_failures;
    repaired_agreement_failures =
      a.repaired_agreement_failures + b.repaired_agreement_failures;
    repaired_termination_failures =
      a.repaired_termination_failures + b.repaired_termination_failures;
    counterexample =
      (match a.counterexample with Some _ -> a.counterexample | None -> b.counterexample);
  }

let check_one ~n ~prefix stable =
  let adv =
    Adversary.make ~name:"exhaustive" ~prefix:(Array.of_list prefix) ~stable
  in
  let mk = Adversary.min_k adv in
  let roots =
    Analysis.root_count (Analysis.analyze (Adversary.stable_skeleton adv))
  in
  let paper = Runner.run_kset adv in
  let strict_alg = Kset_agreement.make_alg ~strict_guard:true () in
  let strict = Runner.run_kset ~variant:strict_alg adv in
  let repaired_alg = Kset_agreement.make_alg ~confirm_rounds:n () in
  let repaired =
    Runner.run_kset ~variant:repaired_alg
      ~rounds:(List.length prefix + (3 * n) + 4)
      adv
  in
  let too_many r = Metrics.distinct_decisions r.Runner.outcome > mk in
  let paper_bad = too_many paper in
  {
    runs = 1;
    theorem1_failures = (if roots > mk then 1 else 0);
    agreement_failures = (if paper_bad then 1 else 0);
    strict_agreement_failures = (if too_many strict then 1 else 0);
    validity_failures =
      (if Metrics.validity ~inputs:paper.Runner.inputs paper.Runner.outcome then 0 else 1);
    termination_failures =
      (if Metrics.termination paper.Runner.outcome then 0 else 1);
    repaired_agreement_failures = (if too_many repaired then 1 else 0);
    repaired_termination_failures =
      (if Metrics.termination repaired.Runner.outcome then 0 else 1);
    counterexample = (if paper_bad then Some adv else None);
  }

let check ~n ~prefixes =
  let prefixes = match prefixes with [] -> [ [] ] | ps -> ps in
  (* Parallelize over stable graphs; each worker folds its prefixes. *)
  let per_stable =
    Pool.run
      (fun stable ->
        List.fold_left
          (fun acc prefix -> merge acc (check_one ~n ~prefix stable))
          empty_verdict prefixes)
      (all_stable_graphs ~n)
  in
  List.fold_left merge empty_verdict per_stable

let check_prefix_free ~n = check ~n ~prefixes:[ [] ]

let check_with_one_round_prefixes ~n =
  let prefixes = List.map (fun g -> [ g ]) (all_stable_graphs ~n) in
  check ~n ~prefixes

