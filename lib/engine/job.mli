(** Simulation jobs: the engine's unit of work.

    A job is a complete, self-contained simulation request — the run
    description (as {!Ssg_adversary.Run_format} text), the
    algorithm to execute, the agreement parameter [k], the proposal
    inputs, an optional round budget and the monitor switch.  Values of
    this type are immutable plain data, so they cross domain and wire
    boundaries freely.

    {b Canonicalization.}  {!make}, {!of_run_text} and {!normalize}
    normalize every field so that jobs describing the same simulation
    are structurally equal and share one {!key}: the run text is
    re-serialized through [Run_format.of_string |> to_string] into the
    canonical text that {!Ssg_adversary.Run_format} specifies byte for
    byte (sorted edge order, comments stripped, the name line
    [# loaded] — a permuted-but-equal hand-written description keys
    identically), an explicit [inputs] array equal to the default
    distinct inputs [0..n-1] collapses to the default, and [monitor] is
    dropped for algorithms other than [Kset].  The engine's result
    cache and in-flight dedup both key on [key], and the store journals
    outcomes under it, so the canonical text may not move by a byte.

    {!as_sent} is the one constructor that normalizes nothing: it is
    what the wire decoder builds, so a hop that only routes a job or
    probes a cache with its key never parses the run text.
    [Engine.submit] takes a job as sent and normalizes it on a cache
    miss, so only canonical keys enter its cache, its dedup table and
    the journal. *)

type algorithm = Kset | Floodmin | Flood_consensus | Naive_min

type t = private {
  run : string;
      (** [ssg-run v1] text: canonical, unless the job was built
          {!as_sent} *)
  algorithm : algorithm;
  k : int;
  inputs : int array option;  (** [None] = distinct inputs [0..n-1] *)
  rounds : int option;  (** [None] = the run's decision horizon *)
  monitor : bool;  (** lemma monitors (Algorithm 1 only) *)
}

(** [make adv] builds a job from an in-memory run description.
    Defaults: [algorithm = Kset], [k = 1], distinct inputs, horizon
    rounds, monitors off.
    @raise Invalid_argument for recurrent runs (not serializable) or
    [k < 1]. *)
val make :
  ?algorithm:algorithm ->
  ?k:int ->
  ?inputs:int array ->
  ?rounds:int ->
  ?monitor:bool ->
  Ssg_adversary.Adversary.t ->
  t

(** [of_run_text text] — like {!make} from serialized form.
    @raise Failure on malformed run text, [Invalid_argument] on bad
    parameters. *)
val of_run_text :
  ?algorithm:algorithm ->
  ?k:int ->
  ?inputs:int array ->
  ?rounds:int ->
  ?monitor:bool ->
  string ->
  t

(** [as_sent ~algorithm ~k ?inputs ?rounds ~monitor run] — the job
    with its fields exactly as given: [run] is not parsed, [inputs] and
    [monitor] are kept as they are.
    @raise Invalid_argument if [k < 1] or [rounds < 0], the parameter
    errors no run text can repair. *)
val as_sent :
  algorithm:algorithm ->
  k:int ->
  ?inputs:int array ->
  ?rounds:int ->
  monitor:bool ->
  string ->
  t

(** [normalize job] — the canonical job with [job]'s fields, as
    {!of_run_text} builds it; on a canonical job it is the identity
    (structurally).
    @raise Failure when [job]'s run text does not parse. *)
val normalize : t -> t

(** [key job] — the cache/dedup key.  For canonical jobs [key a = key b]
    iff the jobs request the same simulation.  The fields are
    [\x00]-separated with the run text last, and no field before it
    can hold a [\x00], so equal keys mean equal fields: a job
    {!as_sent} whose key equals a canonical job's key {e is} that
    canonical job.  A non-canonical job never shares a key with a
    canonical one. *)
val key : t -> string

val equal : t -> t -> bool
val algorithm_name : algorithm -> string

(** What a finished job reports back — the wire-friendly projection of
    {!Ssg_sim.Runner.report}. *)
type outcome = {
  algorithm : string;
  n : int;
  min_k : int;
  rounds_run : int;
  decisions : (int * int) option array;
      (** per process: [(round, value)] of its irrevocable decision *)
  distinct_decisions : int;
  messages_sent : int;
  messages_delivered : int;
  bits_sent : int;
  violations : string list;
}

(** [execute job] runs the simulation in the calling domain.
    @raise Failure / [Invalid_argument] on inconsistent jobs (e.g. an
    inputs array whose length differs from the run's [n]) — the engine
    converts these into error replies. *)
val execute : t -> outcome

(** How the service layer reports a finished submission: the outcome (or
    the execution error), whether it was served from the result cache /
    deduplicated against an in-flight twin, and the submit-to-reply
    latency observed by the engine. *)
type completion = {
  result : (outcome, string) Stdlib.result;
  cached : bool;
  latency_ms : float;
}

val pp_completion : Format.formatter -> completion -> unit
