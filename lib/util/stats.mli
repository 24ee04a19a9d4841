(** Descriptive statistics for experiment harnesses.

    All functions operate on [float array]s and never mutate their input.
    Empty inputs raise [Invalid_argument] unless documented otherwise. *)

val mean : float array -> float
val stddev : float array -> float
val minimum : float array -> float
val maximum : float array -> float

(** [percentile xs q] for [q] in [0, 100], linear interpolation between
    order statistics. *)
val percentile : float array -> float -> float

(** [percentile_sorted sorted q] — {!percentile} of an already sorted,
    non-empty sample, without the copy and sort.  [q] is not checked. *)
val percentile_sorted : float array -> float -> float

val median : float array -> float

(** [linear_fit xs ys] is [(slope, intercept)] of the least-squares line
    through the points.  Used e.g. for log-log complexity slopes.
    @raise Invalid_argument if lengths differ or fewer than 2 points. *)
val linear_fit : float array -> float array -> float * float

(** [of_ints xs] converts for convenience. *)
val of_ints : int array -> float array

(** [histogram ~buckets xs] is [(lo, hi, count) array] with equal-width
    buckets spanning [min, max].  @raise Invalid_argument if
    [buckets <= 0]. *)
val histogram : buckets:int -> float array -> (float * float * int) array
