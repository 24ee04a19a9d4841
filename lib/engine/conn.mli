(** One native-protocol connection: the framed-request loop that both
    the worker ({!Server}) and the cluster router run on every accepted
    descriptor.

    The handler classifies each request by the {!answer} it returns:
    - [Now reply]: the answer needed no waiting (a cache hit, stats);
      the reader writes it itself, with no thread;
    - [Later f]: [f] waits (a cache miss queued on the engine's pool, a
      fan-out to every backend); it runs on a replier thread of its own;
    - [Async start]: the answer arrives through a callback — [start k]
      begins the work and [k] is called with the reply, exactly once,
      on whatever thread completes it (the router's backend link
      reader), so no thread is spent waiting.

    Every request travels in the id envelope
    ({!Ssg_net.Frame.with_id}), and requests run concurrently: up to
    [max_inflight] [Later] or [Async] answers are outstanding at once
    and replies return in completion order, each carrying its request's
    id.  Past the cap, and always for [Shutdown], the reader answers the
    request itself — a [Later] runs there, an [Async] is waited for
    there — which stops it pulling further frames: back-pressure, not
    queueing.  A request may also carry a trace context envelope inside
    the id envelope, handed to [handle] as [ctx].

    {b Supervision.}  A frame that cannot be read or decoded is answered
    with an [Error] where the wire still allows one and ends the
    connection; so does a request outside the id envelope, whose
    [Error] carries no id since there is none to repeat.  [telemetry]
    counts each as a rejected frame.  An exception escaping [handle] or
    a [Later] also ends the connection, after an [Error] carrying its
    message.  A reply write that fails ends the connection quietly —
    the peer is gone.  [serve] returns only once every outstanding
    answer has been written or has failed, so the caller may close
    [fd] right after. *)

type answer =
  | Now of Protocol.reply
  | Later of (unit -> Protocol.reply)
  | Async of ((Protocol.reply -> unit) -> unit)

(** [serve ~max_inflight ~handle fd] reads requests from [fd] until the
    peer hangs up, a read times out ([SO_RCVTIMEO]), a frame is
    rejected, a reply cannot be written, or [handle] has answered a
    [Shutdown].  It never closes [fd].
    - [handle ?ctx request] classifies the request; it runs on the
      reader's thread, so anything that waits belongs in a [Later] or
      an [Async].
    - [write] (default {!Ssg_net.Frame.write_fd}) writes one reply
      frame; calls are serialized per connection.  Any exception it
      raises ends the connection — this is where a fault plan may
      mangle or drop replies.
    - [telemetry], when given, counts rejected frames and reaped
      (timed-out) connections. *)
val serve :
  ?telemetry:Telemetry.t ->
  ?write:(Unix.file_descr -> Bytes.t -> unit) ->
  max_inflight:int ->
  handle:(?ctx:Ssg_obs.Context.t -> Protocol.request -> answer) ->
  Unix.file_descr ->
  unit
