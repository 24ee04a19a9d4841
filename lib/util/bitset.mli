(** Fixed-capacity sets of small integers, packed into native [int] words.

    Bitsets are the workhorse representation of this library: a set of
    process identifiers [0 .. n-1] and a row of a dense adjacency matrix are
    both bitsets.  All operations are O(capacity / word_size) unless noted.

    Mutating operations end in [_into] or are clearly imperative ([add],
    [remove], ...); functional variants allocate a fresh set.  Two bitsets
    may only be combined when they have the same capacity; this is enforced
    with [Invalid_argument]. *)

type t

(** [create n] is the empty set over universe [{0, ..., n-1}].
    @raise Invalid_argument if [n < 0]. *)
val create : int -> t

(** [full n] is the set [{0, ..., n-1}]. *)
val full : int -> t

(** [singleton n i] is [{i}] over universe of size [n]. *)
val singleton : int -> int -> t

(** [of_list n xs] is the set containing exactly the elements of [xs]. *)
val of_list : int -> int list -> t

(** [capacity s] is the size [n] of the universe of [s]. *)
val capacity : t -> int

(** [copy s] is a fresh, independent copy of [s]. *)
val copy : t -> t

(** [blit ~src ~dst] overwrites [dst] with the contents of [src]. *)
val blit : src:t -> dst:t -> unit

(** [mem s i] tests membership.  Out-of-range [i] raises. *)
val mem : t -> int -> bool

(** [add s i] inserts [i] in place. *)
val add : t -> int -> unit

(** [remove s i] deletes [i] in place. *)
val remove : t -> int -> unit

(** [clear s] empties [s] in place. *)
val clear : t -> unit

(** [fill s] makes [s] the full universe, in place. *)
val fill : t -> unit

(** [cardinal s] is the number of elements (popcount). *)
val cardinal : t -> int

val is_empty : t -> bool

(** [equal a b] — extensional equality. *)
val equal : t -> t -> bool

(** [subset a b] is [true] iff every element of [a] is in [b]. *)
val subset : t -> t -> bool

(** [disjoint a b] is [true] iff [a ∩ b = ∅]. *)
val disjoint : t -> t -> bool

(** [inter_into ~into src] computes [into ← into ∩ src]. *)
val inter_into : into:t -> t -> unit

(** [union_into ~into src] computes [into ← into ∪ src]. *)
val union_into : into:t -> t -> unit

(** [diff_into ~into src] computes [into ← into \ src]. *)
val diff_into : into:t -> t -> unit

val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t

(** [iter f s] applies [f] to each element in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [fold f s init] folds over elements in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val for_all : (int -> bool) -> t -> bool
val exists : (int -> bool) -> t -> bool

(** [elements s] lists the elements in increasing order. *)
val elements : t -> int list

(** [min_elt s] is the smallest element.
    @raise Not_found if [s] is empty. *)
val min_elt : t -> int

(** [min_elt_opt s] is the smallest element, if any. *)
val min_elt_opt : t -> int option

(** [choose s] is an arbitrary element (the smallest).
    @raise Not_found if [s] is empty. *)
val choose : t -> int

(** [compare] is a total order compatible with [equal] (lexicographic on
    words); it has no set-theoretic meaning beyond supporting [Map]/[Set]. *)
val compare : t -> t -> int

val hash : t -> int

(** [pp] prints as [{0, 3, 5}]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** {2 Word-level helpers}

    For structures that pack many sets into one [int array] themselves
    ({!Ssg_graph.Lgraph}'s presence rows): as here, element [i] of such a
    packed set is bit [i mod Sys.int_size] of word [i / Sys.int_size]. *)

(** [words_for n] is the number of words a set over [0 .. n-1] takes. *)
val words_for : int -> int

(** [lowest_bit w] is the index of the lowest set bit of the nonzero word
    [w], in constant time.  Clear that bit with [w land (w - 1)]. *)
val lowest_bit : int -> int

(** [popcount w] is the number of set bits of the word [w]. *)
val popcount : int -> int
