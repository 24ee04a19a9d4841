(** The pass pipeline: shared analysis context + named checks.

    Every check receives one pre-computed {!ctx} — the parsed adversary,
    its stable skeleton, the SCC {!Ssg_skeleton.Analysis}, the timely
    neighbourhoods and [min_k] — so expensive graph work happens exactly
    once per lint run no matter how many passes inspect it.  A pass is a
    pure function [ctx -> Diagnostic.t list]; registering a new check
    means appending a {!t} to {!Checks.all}. *)

open Ssg_util
open Ssg_graph
open Ssg_adversary

type ctx = {
  adv : Adversary.t;
  k : int option;  (** agreement parameter to check against, if any *)
  spans : Run_format.spans option;  (** line anchors when linting text *)
  skeleton : Digraph.t;  (** the stable skeleton [G^∩∞] *)
  analysis : Ssg_skeleton.Analysis.t;  (** SCCs / roots of the skeleton *)
  pts : Bitset.t array;  (** [pts.(q) = PT(q)] *)
  min_k : int;  (** α(H): least [k] with [Psrcs(k)] *)
  chain : Semantic.chain Lazy.t;
      (** per-round fixpoint facts; forced only by the SSG2xx passes *)
}

(** [ctx ?k ?spans adv] runs the shared analysis once: one stable
    skeleton, from which the analysis, [pts] and [min_k] are derived. *)
val ctx : ?k:int -> ?spans:Run_format.spans -> Adversary.t -> ctx

type t = {
  code : string;  (** primary diagnostic code the pass emits *)
  title : string;
  check : ctx -> Diagnostic.t list;
}

val v : code:string -> title:string -> (ctx -> Diagnostic.t list) -> t

(** [run_all passes ctx] concatenates every pass's diagnostics in source
    order ({!Diagnostic.compare}). *)
val run_all : t list -> ctx -> Diagnostic.t list
