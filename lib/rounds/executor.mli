(** Deterministic execution of a round-model algorithm against a sequence
    of communication graphs.

    The executor is the "system": in each round [r = 1, 2, ...] it collects
    every process's broadcast, delivers message [m_p] to [q] exactly when
    the edge [(p -> q)] is in the round's graph, and applies the transition
    function.  It also enforces the model's sanity conditions (graph order
    matches [n], decisions are irrevocable) and accounts messages and
    bits. *)

open Ssg_graph

(** Per-process decision record: the round in which the process first
    decided, and the decided value. *)
type decision = { round : int; value : int }

type outcome = {
  n : int;
  rounds_run : int;
  decisions : decision option array;  (** indexed by process *)
  messages_sent : int;
      (** broadcasts count as [n] point-to-point messages each *)
  messages_delivered : int;  (** edges actually present in round graphs *)
  bits_sent : int;  (** sum of [message_bits · n] over all broadcasts *)
  max_message_bits : int;  (** largest single message on the wire *)
}

(** [all_decided o] — every process has decided. *)
val all_decided : outcome -> bool

(** [decision_values o] is the sorted list of distinct decided values. *)
val decision_values : outcome -> int list

(** [last_decision_round o] is the latest decision round, or [None] if no
    process decided. *)
val last_decision_round : outcome -> int option

(** Typed execution: functorize over the algorithm to get hooks that can
    observe the concrete per-process states (used by the lemma monitors
    and the Figure 1 reproduction). *)
module Make (A : Round_model.ALGORITHM) : sig
  type config = {
    inputs : int array;  (** proposal value of each process; fixes [n] *)
    graphs : int -> Digraph.t;
        (** communication graph of round [r >= 1]; must have order [n] *)
    max_rounds : int;
    stop_when_all_decided : bool;
        (** end the run early once every process has decided *)
    on_round : (round:int -> graph:Digraph.t -> A.state array -> unit) option;
        (** called after each round's transitions with the new states; the
            graph is the round's communication graph (do not mutate) *)
  }

  val config :
    ?stop_when_all_decided:bool ->
    ?on_round:(round:int -> graph:Digraph.t -> A.state array -> unit) ->
    inputs:int array ->
    graphs:(int -> Digraph.t) ->
    max_rounds:int ->
    unit ->
    config

  (** [run cfg] executes and returns the outcome together with the final
      states.  @raise Invalid_argument on malformed configs (empty system,
      graph order mismatch).  @raise Failure if the algorithm revokes or
      changes a decision. *)
  val run : config -> outcome * A.state array
end

(** [run_packed ?stop_when_all_decided alg ~inputs ~graphs ~max_rounds]
    executes a packed algorithm without state observation. *)
val run_packed :
  ?stop_when_all_decided:bool ->
  Round_model.packed ->
  inputs:int array ->
  graphs:(int -> Digraph.t) ->
  max_rounds:int ->
  outcome
