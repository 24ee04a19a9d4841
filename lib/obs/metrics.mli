(** Metrics registry: named counters, gauges and histograms with a
    Prometheus text-exposition renderer.

    One registry per subsystem ({!Ssg_engine.Telemetry} owns the
    daemon's).  Registration is locked; the data paths are not:
    counters are atomic adds, gauges are single-word stores, histogram
    observation is an atomic bucket increment plus a CAS loop on the
    sum — safe to hammer from worker domains and connection threads
    concurrently.

    Metric names must match Prometheus's
    [[a-zA-Z_:][a-zA-Z0-9_:]*]; registering a duplicate or invalid name
    raises [Invalid_argument] (two call sites fighting over one name is
    a bug, not a merge). *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(** [counter t ?help name] registers a monotone counter. *)
val counter : t -> ?help:string -> string -> counter

(** [gauge t ?help name] registers a gauge (set-to-current-value). *)
val gauge : t -> ?help:string -> string -> gauge

(** [histogram t ?help ?buckets name] registers a histogram with the
    given upper bounds (strictly increasing, [+Inf] implied; the
    default, 0.05 to 5000, is tuned for millisecond latencies). *)
val histogram : t -> ?help:string -> ?buckets:float array -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

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

(** [to_prometheus ?only t] renders the registry in text exposition
    format, in registration order.  [only] filters by metric name. *)
val to_prometheus : ?only:(string -> bool) -> t -> string

(** Low-level exposition helpers, for rendering metrics that live
    outside a registry (the {!Ssg_engine.Telemetry} snapshot exporter
    shares these with the registry renderer above). *)

val prom_scalar :
  Buffer.t -> kind:[ `Counter | `Gauge ] -> ?help:string -> string -> float -> unit

(** [prom_summary buf name ~count ~sum ~quantiles] renders a Prometheus
    summary; [quantiles] pairs each quantile (e.g. [0.5]) with its
    value. *)
val prom_summary :
  Buffer.t ->
  ?help:string ->
  string ->
  count:int ->
  sum:float ->
  quantiles:(float * float) list ->
  unit
