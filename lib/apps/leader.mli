(** Partition-aware leader election on top of the skeleton approximation.

    Section V suggests communication graphs as a tool for studying which
    synchrony suffices for which problem; this module is a worked
    instance: an Ω-like leader oracle built {e only} from
    {!Ssg_core.Approx}, with no extra messages — each process outputs the
    smallest process among the root components of its current
    approximation graph.

    Guarantees (tested, not proved):
    - {b Stability/agreement per root component}: once the skeleton has
      stabilized and [n] more rounds have passed, all members of a root
      component [R] of [G^∩∞] output [min R] forever.
    - {b Followers}: a process below exactly one root component converges
      to that component's leader; a process fed by several root
      components outputs the smallest of their leaders (a deterministic
      tie-break — "my partition's representative").
    - In a single-root (consensus-capable) run, all processes converge to
      one leader: an eventual leader election service. *)

open Ssg_graph

type t

(** [create ~n ~self] — the observer before round 1 (leader = self). *)
val create : n:int -> self:int -> t

(** [message t] — the graph to broadcast: an immutable snapshot that
    later steps never change (delegates to {!Ssg_core.Approx.message}). *)
val message : t -> Lgraph.frozen

(** [step t ~round ~received] — absorb one round (see
    {!Ssg_core.Approx.step}). *)
val step : t -> round:int -> received:(int -> Lgraph.frozen option) -> unit

(** [leader t] — the current leader estimate. *)
val leader : t -> int

(** [approx t] — the underlying approximation (borrowed). *)
val approx : t -> Ssg_core.Approx.t
