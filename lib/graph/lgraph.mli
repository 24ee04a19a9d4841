(** Round-labelled directed graphs — the local approximation [G_p].

    Algorithm 1 has every process maintain a {e weighted} digraph whose
    edge labels are round numbers: [(q --s--> p)] records that [q] was in
    [p]'s timely neighbourhood at round [s] (Lemma 3).  This module is that
    data structure, with exactly the operations the algorithm needs:

    - re-initialization to [⟨{p}, ∅⟩] each round (Line 15),
    - recording fresh timely edges with the current round label (Line 17),
    - node-set union with received graphs (Line 18),
    - per-edge maximum of labels over received graphs (Lines 19–23),
    - purging of stale labels (Line 24),
    - pruning of nodes that cannot reach the owner (Line 25),
    - the strong-connectivity decision test (Line 28).

    Labels are strictly positive round numbers; absence is represented by
    0.  Invariant: a positive label implies both endpoints are in the node
    set.

    Representation: a dense n×n label matrix, for O(1) [label] lookups,
    plus word-packed presence rows: bit [p] of row [q] is set iff edge
    [q -> p] has a label, [w = Sys.int_size] (63) targets per word.
    Reset, merge, purge, support comparison, edge counting and edge
    iteration walk the set bits, so they cost O(n⌈n/w⌉ + |E|) instead of
    n².  Pruning and the strong-connectivity test grow reachability
    closures with whole-word operations, in passes of n⌈n/w⌉ operations:
    at most one pass per level of a breadth-first search, plus one.

    Algorithm 1's round message is a {!frozen} snapshot: immutable, and
    n⌈n/w⌉ + |E| words plus a constant, since it keeps the present labels
    only. *)

open Ssg_util

type t

(** [create n ~self] is [⟨{self}, ∅⟩] over the universe [0..n-1]. *)
val create : int -> self:int -> t

(** [capacity g] is the universe size [n]. *)
val capacity : t -> int

(** [reset g ~self] re-initializes in place to [⟨{self}, ∅⟩]. *)
val reset : t -> self:int -> unit

val copy : t -> t

(** [equal a b] — same universe, node set, edges and labels. *)
val equal : t -> t -> bool

(** [mem_node g p] tests node membership. *)
val mem_node : t -> int -> bool

(** [add_node g p] inserts a node. *)
val add_node : t -> int -> unit

(** [nodes g] is a fresh bitset of the nodes. *)
val nodes : t -> Bitset.t

val node_count : t -> int

(** [label g q p] is the label of edge [q -> p], or [0] when absent. *)
val label : t -> int -> int -> int

val mem_edge : t -> int -> int -> bool

(** [set_edge g q p ~label] inserts/overwrites edge [q -> p]; adds both
    endpoints to the node set.  @raise Invalid_argument if [label <= 0]. *)
val set_edge : t -> int -> int -> label:int -> unit

(** [remove_edge g q p] deletes the edge (keeps the endpoints). *)
val remove_edge : t -> int -> int -> unit

(** [edge_count g] is the number of labelled edges. *)
val edge_count : t -> int

(** [iter_edges g f] calls [f q p label] for every edge [q -> p]. *)
val iter_edges : t -> (int -> int -> int -> unit) -> unit

(** [edges g] lists [(q, p, label)] triples in lexicographic order. *)
val edges : t -> (int * int * int) list

(** {2 Snapshots} *)

(** An immutable copy of a graph: its node set, its presence rows and its
    present labels only — what a process broadcasts in a round. *)
type frozen

(** [freeze g] is a snapshot of [g]; later changes to [g] do not reach
    it.  O(n⌈n/w⌉ + |E|). *)
val freeze : t -> frozen

(** [thaw f] is a fresh mutable graph equal to the one [f] was frozen
    from. *)
val thaw : frozen -> t

(** [frozen_capacity f] is the universe size [n]. *)
val frozen_capacity : frozen -> int

(** [same_support g f] — [g] has the universe, node set and edge
    {e presence} of the snapshot [f], labels ignored.  Label-blind
    properties (reachability, strong connectivity) agree on support-equal
    graphs, so a caller that refreshes labels every round can memoize
    them across support-stable rounds, comparing against the graph it
    broadcast.  Compares the presence rows, n⌈n/w⌉ words;
    allocation-free. *)
val same_support : t -> frozen -> bool

(** [frozen_encoded_bits f ~label_bits] is [encoded_bits (thaw f)], from
    the node and edge counts the snapshot stores: O(1). *)
val frozen_encoded_bits : frozen -> label_bits:int -> int

(** [merge_max_into ~into src] sets each edge of [into] to the maximum of
    its label and [src]'s label for that edge (treating absent as 0), and
    unions the node sets — Line 18, and the [R_{i,j}]/[r_max]
    computation of Lines 19–23 when folded over all received graphs.
    O(n⌈n/w⌉ + |E(src)|). *)
val merge_max_into : into:t -> frozen -> unit

(** [purge g ~upto] removes every edge with label [<= upto] — Line 24 with
    [upto = r - n]. *)
val purge : t -> upto:int -> unit

(** [prune_unreachable g ~self] removes every node (and its incident
    edges) from which [self] is not reachable via labelled edges —
    Line 25.  [self] itself is always kept. *)
val prune_unreachable : t -> self:int -> unit

(** [is_strongly_connected g] — the labelled subgraph on [nodes g] is
    strongly connected (true when the node set is the singleton owner) —
    the decision test of Line 28. *)
val is_strongly_connected : t -> bool

(** [swap a b] exchanges the contents of [a] and [b] in O(1) — a
    double-buffering primitive.  @raise Invalid_argument on universe
    mismatch. *)
val swap : t -> t -> unit

(** [to_digraph g] forgets labels, yielding the unlabelled edge set on the
    same universe. *)
val to_digraph : t -> Digraph.t

(** [min_label g] / [max_label g] over present edges; [None] if edgeless. *)
val min_label : t -> int option

val max_label : t -> int option

(** [encoded_bits g ~label_bits] is the size of a wire encoding of the
    graph: each node id costs [⌈log₂ n⌉] bits, each edge two ids plus
    [label_bits] for the round label.  Used for the message-bit-complexity
    experiment (Section V's "polynomial in n" claim). *)
val encoded_bits : t -> label_bits:int -> int

val pp : Format.formatter -> t -> unit
