open Ssg_util
open Ssg_graph
open Ssg_adversary

type ctx = {
  adv : Adversary.t;
  k : int option;
  spans : Run_format.spans option;
  skeleton : Digraph.t;
  analysis : Ssg_skeleton.Analysis.t;
  pts : Bitset.t array;
  min_k : int;
  chain : Semantic.chain Lazy.t;
}

let ctx ?k ?spans adv =
  let skeleton = Adversary.stable_skeleton adv in
  let pts = Ssg_predicates.Predicate.of_skeleton skeleton in
  {
    adv;
    k;
    spans;
    skeleton;
    analysis = Ssg_skeleton.Analysis.analyze skeleton;
    pts;
    min_k = Ssg_predicates.Predicate.min_k pts;
    chain = lazy (Semantic.analyze adv);
  }

type t = { code : string; title : string; check : ctx -> Diagnostic.t list }

let v ~code ~title check = { code; title; check }

let run_all passes ctx =
  List.concat_map (fun pass -> pass.check ctx) passes
  |> List.sort Diagnostic.compare
