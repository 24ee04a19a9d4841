(** Span/event tracing core.

    A process-wide tracer with per-domain ring buffers.  Instrumentation
    sites emit {e events} — span begins, span ends, instants — tagged
    with the emitting domain's id and a timestamp that is monotone
    within each domain.  The engine, the executor and the simulation
    runner are instrumented with it; {!Ssg_obs.Export.chrome_json} turns
    a drained event list into Chrome trace-event JSON that loads in
    Perfetto.

    {b Cost model.}  Tracing is globally disabled by default.  The
    disabled fast path is a single atomic load and a branch — cheap
    enough to leave instrumentation in per-round and per-job hot paths
    unconditionally.  Call sites that would otherwise allocate argument
    lists guard on {!enabled} first:
    {[
      if Tracer.enabled () then
        Tracer.instant ~args:[ ("round", Tracer.Int r) ] "round"
    ]}
    When enabled, an emit is one [Atomic.fetch_and_add] on the emitting
    domain's ring cursor plus one array store — no locks anywhere on the
    write path, so worker domains never contend.

    {b Ring semantics.}  Each domain writes to its own fixed-size ring;
    when a ring wraps, the oldest events of that domain are overwritten
    (counted by {!dropped}).  {!events} snapshots all rings; it is meant
    to be called at quiescence (after a run, or from the daemon's
    [Trace_pull] wire op between jobs) — a concurrent writer can race the
    snapshot, in which case a just-overwritten slot may surface as a
    slightly newer event, never as garbage. *)

(** Span/instant argument values (rendered into Chrome-trace [args]). *)
type arg = Int of int | Float of float | Str of string

type kind = Begin | End | Instant

type event = {
  kind : kind;
  name : string;
  domain : int;  (** id of the emitting domain ([Domain.self]) *)
  ts_us : float;
      (** microseconds since the tracer epoch; monotone per domain *)
  args : (string * arg) list;
}

(** [set_enabled b] flips the global switch.  Enabling does not clear
    previously recorded events; use {!reset} for a fresh capture. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** [reset ()] discards all recorded events, zeroes {!dropped} and
    re-arms the timestamp epoch at now. *)
val reset : unit -> unit

(** [instant ?args name] records a point event.  No-op when disabled. *)
val instant : ?args:(string * arg) list -> string -> unit

(** [span_begin ?args name] / [span_end ?args name] delimit a span on
    the calling domain.  Callers must balance them per domain (use
    {!with_span} unless a span crosses a control-flow boundary). *)
val span_begin : ?args:(string * arg) list -> string -> unit

val span_end : ?args:(string * arg) list -> string -> unit

(** [with_span ?args name f] wraps [f ()] in a span; the end event is
    emitted even if [f] raises.  When disabled this is just [f ()]. *)
val with_span : ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a

(** [events ()] — every retained event, grouped by domain, in emission
    order within each domain (which is also timestamp order). *)
val events : unit -> event list

(** [dropped ()] — events lost to ring wrap-around since the last
    {!reset}. *)
val dropped : unit -> int

(** [epoch_s ()] — the tracer epoch as absolute Unix seconds: the
    instant that event timestamp 0 µs refers to.  Exchanged in fleet
    trace pulls so {!Ssg_obs.Stitch} can place every process's events
    on one clock. *)
val epoch_s : unit -> float

(** {1 Remote parents}

    Cross-process spans carry their identity in ordinary span args
    (["trace_id"], ["span_id"], ["parent_span_id"] as hex strings) —
    the event record itself is unchanged, which is what keeps the
    trace wire codec and existing exporters compatible. *)

(** [ctx_args c] — the three identity args for a span running as
    context [c]. *)
val ctx_args : Context.t -> (string * arg) list

(** [span_begin_ctx ?args ~ctx name] — begin a span that adopts [ctx]
    as its (possibly remote) parent: mints [Context.child ctx], emits
    the begin event with identity args prepended, and returns the
    child context to propagate further.  Balance with {!span_end}.
    Emits nothing when disabled (the child is still minted so callers
    can propagate unconditionally). *)
val span_begin_ctx :
  ?args:(string * arg) list -> ctx:Context.t -> string -> Context.t

(** [with_span_ctx ?args ~ctx name f] — like {!with_span}, but the
    span adopts [ctx] as parent and [f] receives the minted child
    context. *)
val with_span_ctx :
  ?args:(string * arg) list -> ctx:Context.t -> string -> (Context.t -> 'a) -> 'a

(** {1 Pull reports}

    What one process hands over when its buffers are pulled: its role
    and pid (for [process_name] metadata), its epoch (for clock
    alignment), its drop counter, and the retained events. *)

type report = {
  role : string;
  pid : int;
  epoch_s : float;
  dropped_events : int;
  events : event list;
}

(** [report_here ~role ()] — snapshot this process's tracer state. *)
val report_here : role:string -> unit -> report
