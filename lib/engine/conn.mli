(** One native-protocol connection: the framed-request loop that both
    the worker ({!Server}) and the cluster router run on every accepted
    descriptor.

    Two dialects share a connection, classified frame by frame
    ({!Ssg_net.Frame.classify}):
    - {e plain} frames are answered strictly in order, one request at a
      time;
    - {e id-framed} requests are dispatched to their own thread, so up
      to [max_inflight] run at once and replies return in completion
      order, each carrying its request's id.  Past the cap, and always
      for [Shutdown], the reader serves the request inline, which stops
      it pulling further frames: back-pressure, not queueing.

    Either may carry a trace context envelope, handed to [handle] as
    [ctx].

    {b Supervision.}  A frame that cannot be read or decoded is answered
    with an [Error] where the wire still allows one and ends the
    connection; so does an exception escaping [handle] (its message is
    the [Error]).  A reply write that fails ends the connection quietly
    — the peer is gone.  [serve] returns only once every pipelined
    replier has finished, so the caller may close [fd] right after. *)

(** [serve ~max_inflight ~handle fd] reads requests from [fd] until the
    peer hangs up, a read times out ([SO_RCVTIMEO]), a frame is
    rejected, a reply cannot be written, or [handle] has answered a
    [Shutdown].  It never closes [fd].
    - [handle ?ctx request] computes the reply; it runs on the reader's
      thread or a replier's.
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
  handle:(?ctx:Ssg_obs.Context.t -> Protocol.request -> Protocol.reply) ->
  Unix.file_descr ->
  unit
