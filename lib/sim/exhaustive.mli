(** Exhaustive model checking on tiny systems.

    For small [n] the space of run descriptions is enumerable: a stable
    graph is any digraph with all self-loops ([2^(n(n-1))] of them), and a
    run is a stable graph plus a (short) prefix of such graphs.  Checking
    Algorithm 1 against {e every} such run gives proof-grade evidence that
    random sweeps cannot: for [n = 3] we cover the entire space of runs
    with prefixes of length ≤ 1 (and the diagonal ones of length 2), and
    for [n = 4] every prefix-free run.

    This is how the Theorem 16 gap (experiment E9) is pinned down
    exactly: the checker reports every run on which the paper's decision
    rule exceeds [min_k], along with the smallest counterexample found. *)

open Ssg_graph
open Ssg_adversary

(** [all_stable_graphs ~n] enumerates every digraph on [n] nodes that
    contains all self-loops, in mask order.
    @raise Invalid_argument if [n] makes the count exceed [2^20]. *)
val all_stable_graphs : n:int -> Digraph.t list

(** Aggregate verdict of a check sweep. *)
type verdict = {
  runs : int;
  theorem1_failures : int;  (** runs with more than [min_k] root components *)
  agreement_failures : int;
      (** paper rule ([r >= n] reading): runs deciding more than [min_k] *)
  strict_agreement_failures : int;
      (** strict-guard reading ([r > n]): runs deciding more than [min_k] *)
  validity_failures : int;
  termination_failures : int;
  repaired_agreement_failures : int;
      (** [confirm_rounds = n] rule: runs deciding more than [min_k] *)
  repaired_termination_failures : int;
  counterexample : Adversary.t option;
      (** a smallest-[n], first-found run violating the paper rule *)
}

(** [check ~n ~prefixes] runs every (prefix, stable) combination where
    [stable] ranges over all self-looped digraphs and the prefix over
    [prefixes] (a list of prefix templates; [[]] means prefix-free only).
    Each prefix template is a list of graphs prepended to the run. *)
val check : n:int -> prefixes:Digraph.t list list -> verdict

(** [check_prefix_free ~n] — all [2^(n(n-1))] prefix-free runs (skeleton
    stable from round 1): the regime where Theorem 16's proof is sound,
    so any failure here would be an implementation bug. *)
val check_prefix_free : n:int -> verdict

(** [check_with_one_round_prefixes ~n] — every stable graph combined with
    {e every} 1-round prefix: [2^(2·n(n-1))] runs.  Feasible for [n = 3]
    (4096 runs); this sweep contains the smallest Theorem 16
    counterexamples. *)
val check_with_one_round_prefixes : n:int -> verdict
