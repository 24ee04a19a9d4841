(** The generic stable-skeleton approximation — Lines 9 and 14–25 of
    Algorithm 1, decoupled from the agreement logic.

    Every process maintains its timely neighbourhood [PT_p] and a
    round-labelled digraph [G_p] approximating the stable skeleton
    [G^∩∞].  Each round it (i) shrinks [PT_p] to the senders it heard
    from, (ii) rebuilds [G_p] from the fresh timely edges [(q --r--> p)]
    and the per-edge maxima of the graphs received from timely senders,
    (iii) purges edges older than [n] rounds, and (iv) prunes nodes that
    cannot reach [p].

    The paper proves this approximation correct in {e all} runs,
    regardless of the communication predicate (Lemmas 3–7, Theorem 8);
    the agreement layer merely adds a decision rule on top.  This module
    is usable stand-alone as a local synchrony-observation service.

    The [purge]/[prune] switches exist for the ablation experiments: both
    mechanisms are load-bearing for Lemma 7 / Theorem 8 (disabling them
    makes the corresponding monitors fire), not optimizations. *)

open Ssg_util
open Ssg_graph

type t

(** [create ~n ~self] — state before round 1: [PT_p = Π],
    [G_p = ⟨{p}, ∅⟩].  The switches default to [true] (the paper's
    algorithm). *)
val create :
  ?enable_purge:bool -> ?enable_prune:bool -> n:int -> self:int -> unit -> t

val n : t -> int
val self : t -> int

(** [message t] is the graph to broadcast this round: an immutable
    {!Lgraph.frozen} snapshot of [G_p] that holds its nodes and its
    labelled edges, as Section V's message does (n⌈n/63⌉ + |E| words).
    Calls between two [step]s return the same snapshot.  It stays valid
    for as long as anyone holds it: later [step]s of [t] change [G_p] but
    never a snapshot already handed out, so a message delivered after its
    sender moved on (as {!Ssg_timing.Round_sync} does) still carries its
    round's graph. *)
val message : t -> Lgraph.frozen

(** [step t ~round ~received] performs the round-[round] update.
    [received q] must be [Some g] exactly when a round-[round] message
    carrying graph [g] arrived from [q] (in particular [received self]
    must be the graph [t] broadcast — a process always hears itself in
    this library's model).  [received] is called once per sender.
    Rounds must be consecutive starting at 1.
    @raise Invalid_argument on out-of-order rounds. *)
val step : t -> round:int -> received:(int -> Lgraph.frozen option) -> unit

(** [pt t] is a copy of the current [PT_p]. *)
val pt : t -> Bitset.t

(** [pt_mem t q] avoids the copy. *)
val pt_mem : t -> int -> bool

(** [graph t] is a copy of the current approximation [G_p]. *)
val graph : t -> Lgraph.t

(** [graph_view t] is the internal graph, {e borrowed}: do not mutate;
    invalidated by the next [step]. *)
val graph_view : t -> Lgraph.t

(** [is_strongly_connected t] — the decision test of Line 28.  Memoized
    across rounds whose rebuild reproduces the same support (node set and
    edge presence): once the run settles, only the labels of [G_p] keep
    rotating, and strong connectivity is label-blind, so the steady-state
    per-round cost is one allocation-free support comparison instead of a
    full SCC pass. *)
val is_strongly_connected : t -> bool
