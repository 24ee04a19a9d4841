(** The [ssgd] wire protocol: length-prefixed binary frames.

    Every message on the Unix-domain socket is one {e frame}: a 4-byte
    big-endian payload length followed by the payload; the payload's
    first byte is a constructor tag.  Integers travel as 8-byte
    big-endian two's complement, floats as their IEEE-754 bits, strings
    as a length then raw bytes — no escaping, no delimiters, so framing
    is exact under any kernel buffering and the codec round-trips
    byte-for-byte (property-tested).

    Clients send {!request}s, the server answers each with exactly one
    {!reply}, in order, on the same connection — a strict request/reply
    pipeline per connection; concurrency comes from multiple
    connections. *)

type request =
  | Submit of Job.t
  | Batch of Job.t list  (** one reply carrying one completion per job *)
  | Stats
  | Trace
      (** drain the server's trace buffers — answered with
          {!Trace_events} (empty when tracing is disabled) *)
  | Trace_pull
      (** fleet trace pull — answered with {!Trace_reports}: like
          {!Trace} but each buffer comes wrapped in a
          {!Ssg_obs.Tracer.report} carrying role, pid and the clock
          anchor stitching needs; a router answering it relays the pull
          to every backend and prepends its own report *)
  | Metrics
      (** Prometheus text exposition of the server's stats — answered
          with {!Metrics_text} *)
  | Shutdown  (** graceful: drains the queue, then the server exits *)
  | Join of string
      (** elastic membership: a worker announcing itself to the router
          by the address clients should reach it at — answered with
          {!Ack} once admitted (and once any warm handoff toward it has
          run); a worker receiving it answers {!Error} *)
  | Leave of string
      (** graceful retirement of a member; the router pulls its hot
          keys before dropping it from the ring — answered with {!Ack} *)
  | Export of int
      (** warm handoff: hand me up to n of your hottest cache entries
          (most-recently-used first) — answered with {!Entries} *)
  | Transfer of (string * string) list
      (** warm handoff: seed these (cache key, encoded outcome) entries
          into your cache — answered with {!Transferred} (the count
          actually imported; undecodable entries are skipped) *)
  | Compact
      (** roll the store generation: snapshot the live cache, truncate
          the journal — answered with {!Compacted} (snapshot size; 0
          when no store is attached); a router relays it to every
          backend and answers with the sum *)

type reply =
  | Completed of Job.completion
  | Batch_completed of Job.completion list
  | Stats_snapshot of Telemetry.snapshot
  | Trace_events of Ssg_obs.Tracer.event list
      (** the server-side trace, oldest first per domain *)
  | Trace_reports of Ssg_obs.Tracer.report list
      (** fleet pull reply: one report per process reached — a worker
          answers with exactly its own, a router with its own plus one
          per backend *)
  | Metrics_text of string
      (** Prometheus text rendered server-side, so any scraper that can
          speak the frame format gets a consistent exposition without
          reimplementing the snapshot maths *)
  | Shutting_down
  | Ack  (** {!Join} / {!Leave} accepted *)
  | Entries of (string * string) list
      (** {!Export} reply: (cache key, encoded outcome) pairs,
          most-recently-used first *)
  | Transferred of int  (** {!Transfer} reply: entries imported *)
  | Compacted of int  (** {!Compact} reply: snapshot size in records *)
  | Error of string  (** protocol-level failure (not a job failure) *)

(** {b Wire compatibility note (latency split).}  The stats snapshot
    ends with three optional {!Ssg_util.Stats.summary} values:
    [latency_ms] (the legacy submit-to-completion figure, kept with its
    original meaning and position) followed by the two phases it splits
    into, [queue_wait_ms] and [exec_ms] — appended {e after} every
    pre-existing field, so a reader of the old layout consumes a prefix
    that still parses as before.  [latency_ms ≈ queue_wait_ms + exec_ms]
    per job; the split comes from the worker-side execution span, not
    from a second clock. *)

(** Hard cap on payload size ([16 MiB]); both sides refuse larger frames
    rather than attempting unbounded allocation on garbage input. *)
val max_frame_bytes : int

(** Pure codecs (what the qcheck round-trip and decode-fuzz tests
    exercise).  [request_of_bytes] builds every [Submit] and [Batch]
    job with {!Job.as_sent}: it checks [k] and [rounds] but does not
    parse the run text, so a job decodes exactly as it was sent and a
    run text that does not parse is the worker's to refuse.  Decoders
    @raise Failure — and {e only} [Failure] — on truncated or malformed
    payloads, including payloads that frame correctly but describe an
    invalid job ([k < 1], [rounds < 0]): parameter validation errors
    are folded into [Failure] here so nothing else can escape a
    connection handler. *)

val request_to_bytes : request -> Bytes.t

val request_of_bytes : Bytes.t -> request
val reply_to_bytes : reply -> Bytes.t
val reply_of_bytes : Bytes.t -> reply

(** Standalone outcome codec — the exact encoding outcomes use inside
    wire frames, exposed so the durable store journals them in the same
    form.  [outcome_of_string]
    @raise Failure — and only [Failure] — on malformed or trailing
    bytes (same contract as the frame decoders; fuzz-tested the same
    way). *)

val outcome_to_string : Job.outcome -> string

val outcome_of_string : string -> Job.outcome

(** Descriptor framing: one codec call around {!Ssg_net.Frame.read_fd} /
    {!Ssg_net.Frame.write_fd}, so a socket read timeout ([SO_RCVTIMEO])
    surfaces as [Unix_error (EAGAIN | EWOULDBLOCK)] at the stalled
    syscall.  Readers
    @raise End_of_file on a peer closed at a frame boundary,
    @raise Failure on oversized frames, a peer dying mid-frame, or an
    undecodable payload. *)

val write_request_fd : Unix.file_descr -> request -> unit
val read_request_fd : Unix.file_descr -> request
val write_reply_fd : Unix.file_descr -> reply -> unit
val read_reply_fd : Unix.file_descr -> reply
