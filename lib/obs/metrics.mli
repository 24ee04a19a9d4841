(** Metrics registry: named counters, gauges and histograms, and the
    one Prometheus text-exposition writer: every process renders its
    own registries ({!Ssg_engine.Telemetry}'s and its store's, the
    router's, the gateway's) and nothing else.  Registration is locked;
    the data paths are not: counters are atomic adds, gauges are
    single-word stores, histogram observation is an atomic bucket
    increment plus a CAS loop on the sum — safe to hammer from worker
    domains and connection threads concurrently.

    Metric names must match Prometheus's
    [[a-zA-Z_:][a-zA-Z0-9_:]*]; registering a duplicate or invalid name
    raises [Invalid_argument] (two call sites fighting over one name is
    a bug, not a merge).  Every metric has its help text, so each
    [# TYPE] line of the exposition has its [# HELP]. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(** [counter t ~help name] registers a monotone counter. *)
val counter : t -> help:string -> string -> counter

(** [gauge t ~help name] registers a gauge (set-to-current-value). *)
val gauge : t -> help:string -> string -> gauge

(** [histogram t ~help ?buckets name] registers a histogram with the
    given upper bounds (strictly increasing, [+Inf] implied; the
    default, 0.05 to 5000, is tuned for millisecond latencies). *)
val histogram : t -> help:string -> ?buckets:float array -> string -> histogram

(** [counter_fn t ~help name read] registers a counter kept elsewhere:
    the exposition calls [read] for its value each time it renders
    (the tracer's ring drop count, say). *)
val counter_fn : t -> help:string -> string -> (unit -> int) -> unit

(** A one-label family: one series per label value, rendered as
    [name{label="value"}] under a single [# TYPE], label values
    escaped and sorted.  A series is created at zero on first use and
    kept until {!retain} drops it. *)
type 'a family

val counter_family :
  t -> help:string -> label:string -> string -> counter family

val gauge_family : t -> help:string -> label:string -> string -> gauge family

(** [labeled f v] — the series of [f] for label value [v]: one locked
    table lookup. *)
val labeled : 'a family -> string -> 'a

(** [retain f ~keep] drops every series of [f] whose label value fails
    [keep]. *)
val retain : 'a family -> keep:(string -> bool) -> unit

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set_gauge : gauge -> float -> unit

val observe : histogram -> float -> unit

(** Frozen histogram contents: cumulative bucket counts paired with
    their upper bounds (the implied [+Inf] bucket last, bound
    [infinity]), plus the sum and count of all observations. *)
type hist_snapshot = {
  buckets : (float * int) array;
  sum : float;
  count : int;
}

val hist_snapshot : histogram -> hist_snapshot

(** [quantile s q] — the [q]-quantile ([0 < q <= 1]) of a snapshot of a
    {!histogram}, estimated as Prometheus's [histogram_quantile] does:
    the rank [q · count] falls in the first bucket whose cumulative
    count reaches it, and the answer is linear in the rank between that
    bucket's lower bound (0 for the first bucket) and its upper bound.
    A rank in the [+Inf] bucket answers the largest finite bound.  So
    the answer lies in the bucket that holds the [⌈q · count⌉]-th
    smallest observation.  [nan] when [count = 0]. *)
val quantile : hist_snapshot -> float -> float

(** [to_prometheus t] renders the registry in text exposition format,
    in registration order. *)
val to_prometheus : t -> string
