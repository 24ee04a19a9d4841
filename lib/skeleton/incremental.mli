(** Delta-maintained round skeletons: [G^∩r] plus every derivation the
    hot path needs, recomputed only on rounds that change the skeleton.

    A plain {!Skeleton} accumulator already makes the intersection itself
    cheap (O(n²/w) per round), but its consumers — per-round structural
    {!Analysis}, the timely sets [PT(·)], the [Psrcs] machinery — used to
    rebuild their objects every round from the current graph.  The chain
    [G^∩1 ⊇ G^∩2 ⊇ …] (eq. (1)) only ever {e loses} edges, and in an
    eventually-stable run it loses none at all from the stabilization
    round on; on long runs almost every round is a no-op.  This wrapper
    counts the edges each absorb removes ({!Ssg_graph.Digraph.inter_into_count})
    and keys a {e revision}: zero delta ⇒ the skeleton is bit-for-bit
    unchanged ⇒ the cached SCC view, PT rows and snapshot stay valid.

    Borrowing contract: values returned by {!analysis}, {!pts},
    {!snapshot} and {!view} are owned by the accumulator.  They must not
    be mutated, and they are guaranteed stable only until the next
    edge-removing {!absorb} (equal across calls while {!revision} is
    unchanged — that sharing is the point). *)

open Ssg_util
open Ssg_graph

type t

(** [start ~n] — the accumulator before round 1 (complete graph). *)
val start : n:int -> t

(** [absorb t g] intersects round graph [g] into the skeleton and
    returns the number of edges removed.  [0] means the cached
    derivations survived the round untouched. *)
val absorb : t -> Digraph.t -> int

(** [rounds t] — rounds absorbed so far. *)
val rounds : t -> int

(** [revision t] — how many absorbed rounds changed the skeleton.
    Cached derivations are valid exactly while this is unchanged. *)
val revision : t -> int

(** [stable_rounds t] — consecutive zero-delta rounds ending now; within
    a trace this reaches [rounds t - r_ST + 1] after stabilization. *)
val stable_rounds : t -> int

(** [view t] — the live skeleton graph, borrowed (do not mutate). *)
val view : t -> Digraph.t

(** [analysis t] — the {!Analysis} of the current skeleton, cached per
    revision. *)
val analysis : t -> Analysis.t

(** [pts t] — the timely rows [[| PT(0); …; PT(n-1) |]] of the current
    skeleton, cached per revision (rows borrowed). *)
val pts : t -> Bitset.t array

(** [snapshot t] — an immutable copy of the current skeleton, {e shared}
    across calls while the revision is unchanged.  Monitors that retain
    one skeleton per round pay one O(n²) copy per revision instead of
    one per round. *)
val snapshot : t -> Digraph.t
