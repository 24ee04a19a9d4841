(** Structural analysis of a stable skeleton graph.

    Bundles the SCC decomposition, the contraction DAG and the root
    components of [G^∩∞] — the objects Theorems 1 and 16 reason about:
    at most [k] root components exist under [Psrcs(k)], and the (at most
    [k]) distinct decision values of Algorithm 1 correspond one-to-one to
    root components. *)

open Ssg_util
open Ssg_graph

type t

(** [analyze skel] decomposes a skeleton graph. *)
val analyze : Digraph.t -> t

val skeleton : t -> Digraph.t

(** [partition t] is the SCC partition (indices in reverse topological
    order). *)
val partition : t -> Scc.partition

(** [components t] — node set of each SCC, indexed by component id. *)
val components : t -> Bitset.t array

(** [component_of t p] is the node set [C_p] of [p]'s SCC. *)
val component_of : t -> int -> Bitset.t

(** [roots t] — the root components, as node sets. *)
val roots : t -> Bitset.t list

val root_count : t -> int

(** [is_root t p] — [p] belongs to a root component. *)
val is_root : t -> int -> bool

(** [single_root t] — there is exactly one root component ("sufficiently
    well-behaved" runs in which Algorithm 1 solves consensus). *)
val single_root : t -> bool

(** [root_reaching t p] is a root component from which [p] is reachable.
    Always exists: every node of a finite digraph is reachable from a
    source SCC of the condensation. *)
val root_reaching : t -> int -> Bitset.t

val pp : Format.formatter -> t -> unit
