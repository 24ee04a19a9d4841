(** Deterministic, splittable pseudo-random numbers (SplitMix64).

    Every stochastic component of the simulator draws from an explicit
    generator, so that any experiment is reproducible from its seed and
    independent runs can be distributed over domains without sharing state.
    [split] derives a statistically independent child generator, which is
    how per-run generators are minted from an experiment seed. *)

type t

(** [make seed] creates a generator from a 64-bit seed. *)
val make : int64 -> t

(** [of_int seed] is [make (Int64.of_int seed)]. *)
val of_int : int -> t

(** [copy g] duplicates the generator state. *)
val copy : t -> t

(** [split g] advances [g] and returns a new generator whose stream is
    independent of the remainder of [g]'s stream. *)
val split : t -> t

(** [next g] is the next raw 64-bit output. *)
val next : t -> int64

(** [int g bound] is uniform in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** [int_in g lo hi] is uniform in [lo, hi] (inclusive). *)
val int_in : t -> int -> int -> int

(** [float g] is uniform in [0, 1). *)
val float : t -> float

(** [bool g] is a fair coin flip. *)
val bool : t -> bool

(** [chance g p] is [true] with probability [p] (clamped to [0,1]). *)
val chance : t -> float -> bool

(** [pick g arr] is a uniformly chosen element of [arr].
    @raise Invalid_argument on an empty array. *)
val pick : t -> 'a array -> 'a

(** [shuffle g arr] permutes [arr] in place (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit

(** [permutation g n] is a uniformly random permutation of [0..n-1]. *)
val permutation : t -> int -> int array

(** [sample g n k] is a uniformly random [k]-subset of [0..n-1], as a sorted
    array.  @raise Invalid_argument if [k < 0 || k > n]. *)
val sample : t -> int -> int -> int array
