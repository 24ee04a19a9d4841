(** Descriptive statistics for experiment harnesses.

    All functions operate on [float array]s and never mutate their input.
    Empty inputs raise [Invalid_argument] unless documented otherwise. *)

(** Five-number-style summary of a sample. *)
type summary = {
  count : int;
  mean : float;
  stddev : float;  (** population standard deviation *)
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

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

(** [summarize xs] computes the full summary in one pass over a sorted
    copy. *)
val summarize : float array -> summary

val pp_summary : Format.formatter -> summary -> unit

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
