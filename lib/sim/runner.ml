open Ssg_util
open Ssg_graph
open Ssg_rounds
open Ssg_skeleton
open Ssg_adversary
open Ssg_core

type report = {
  adversary : string;
  algorithm : string;
  n : int;
  inputs : int array;
  outcome : Executor.outcome;
  skeleton : Digraph.t;
  analysis : Analysis.t;
  min_k : int;
  violations : string list;
}

let distinct_inputs n = Array.init n (fun p -> p)
let shuffled_inputs rng n = Rng.permutation rng n
let default_rounds adv = Adversary.decision_horizon adv

let describe adv name inputs outcome violations =
  let skeleton = Adversary.stable_skeleton adv in
  {
    adversary = Adversary.name adv;
    algorithm = name;
    n = Adversary.n adv;
    inputs;
    outcome;
    skeleton;
    analysis = Analysis.analyze skeleton;
    min_k = Ssg_predicates.Predicate.(min_k (of_skeleton skeleton));
    violations;
  }

let run_kset ?variant ?inputs ?rounds ?(monitor = false) adv =
  let (module A : Round_model.ALGORITHM
        with type state = Kset_agreement.state) =
    match variant with
    | Some m -> m
    | None -> (module Kset_agreement.Alg)
  in
  let n = Adversary.n adv in
  let inputs = match inputs with Some i -> i | None -> distinct_inputs n in
  let rounds = match rounds with Some r -> r | None -> default_rounds adv in
  let module E = Executor.Make (A) in
  let mon = if monitor then Some (Monitor.create ~n) else None in
  let monitor_round =
    Option.map
      (fun m ~round ~graph states ->
        Monitor.observe m ~round ~graph (Array.map Monitor.view_of_kset states))
      mon
  in
  (* Per-round trace instant: the skeleton-approximation and PT(p)
     progress measures of Algorithm 1, summarized across processes.
     Composed with the monitor hook (the executor takes only one), and
     installed unconditionally — it reduces to one atomic load per round
     while tracing is off. *)
  let trace_round ~round ~graph:_ states =
    if Ssg_obs.Tracer.enabled () then begin
      let fold f init = Array.fold_left f init states in
      let min_max measure =
        fold
          (fun (lo, hi) s ->
            let v = measure s in
            (min lo v, max hi v))
          (max_int, min_int)
      in
      let e_lo, e_hi = min_max Kset_agreement.approx_edge_count in
      let pt_lo, pt_hi = min_max Kset_agreement.pt_cardinal in
      let decided =
        fold
          (fun acc s ->
            if Kset_agreement.decided s <> None then acc + 1 else acc)
          0
      in
      let open Ssg_obs.Tracer in
      instant
        ~args:
          [
            ("round", Int round);
            ("approx_edges_min", Int e_lo);
            ("approx_edges_max", Int e_hi);
            ("pt_min", Int pt_lo);
            ("pt_max", Int pt_hi);
            ("decided", Int decided);
          ]
        "kset.round"
    end
  in
  let on_round =
    match monitor_round with
    | None -> Some trace_round
    | Some f ->
        Some
          (fun ~round ~graph states ->
            f ~round ~graph states;
            trace_round ~round ~graph states)
  in
  let cfg =
    E.config ?on_round
      ~stop_when_all_decided:(not monitor)
      ~inputs ~graphs:(Adversary.graph adv) ~max_rounds:rounds ()
  in
  let outcome, _states = E.run cfg in
  let violations =
    match mon with
    | None -> []
    | Some m ->
        let exact = outcome.Executor.rounds_run > Adversary.prefix_length adv in
        Monitor.finalize ~final_skeleton_exact:exact m
  in
  describe adv A.name inputs outcome violations

let run_packed alg ?inputs ?rounds adv =
  let n = Adversary.n adv in
  let inputs = match inputs with Some i -> i | None -> distinct_inputs n in
  let rounds = match rounds with Some r -> r | None -> default_rounds adv in
  let outcome =
    Executor.run_packed alg ~inputs ~graphs:(Adversary.graph adv)
      ~max_rounds:rounds
  in
  describe adv (Round_model.name_of alg) inputs outcome []
