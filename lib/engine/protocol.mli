(** The [ssgd] wire protocol: length-prefixed binary frames.

    Every message is one {e frame}: a 4-byte big-endian payload length
    followed by the payload; the payload's first byte is a constructor
    tag.  Integers travel as 8-byte big-endian two's complement, floats
    as their IEEE-754 bits, strings as a length then raw bytes — no
    escaping, no delimiters, so framing is exact under any kernel
    buffering and the codec round-trips byte-for-byte (property-tested).

    Clients send {!request}s inside the request-id envelope
    ({!Ssg_net.Frame.with_id}); the server answers each with exactly one
    {!reply} carrying the same id, in completion order, so one
    connection carries any number of requests at once: N jobs are N
    [Submit]s in flight together ({!Client}).  A request
    outside the envelope is answered with one [Error], itself outside
    the envelope, and the connection is closed ({!Conn}); so is a
    connection the server turns away at its connection limit. *)

type request =
  | Submit of Job.t
  | Stats
  | Trace_pull
      (** trace pull — answered with {!Trace_reports}: the process's
          trace buffers (empty when tracing is disabled) wrapped in a
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
      (** roll the store generation: the live cache becomes the next
          journal's first records — answered with {!Compacted} (their
          count; 0 when no store is attached); a router relays it to
          every backend and answers with the sum *)

type reply =
  | Completed of Job.completion
  | Stats_snapshot of Telemetry.snapshot
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
  | Compacted of int  (** {!Compact} reply: image size in records *)
  | Error of string  (** protocol-level failure (not a job failure) *)

(** Hard cap on payload size ([16 MiB]); both sides refuse larger frames
    rather than attempting unbounded allocation on garbage input. *)
val max_frame_bytes : int

(** Pure codecs (what the qcheck round-trip and decode-fuzz tests
    exercise).  [request_of_bytes] builds every [Submit] job with
    {!Job.as_sent}: it checks [k] and [rounds] but does not parse the
    run text, so a job decodes exactly as it was sent and a
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

(** [write_reply_fd fd reply] writes one reply frame outside the id
    envelope: how a server answers a connection it turns away at its
    connection limit. *)
val write_reply_fd : Unix.file_descr -> reply -> unit
