(** Trace exporters: a minimal JSON layer and the Chrome trace-event
    format.

    The Chrome pieces ({!event_json}, {!metadata_jsons}) are what
    {!Ssg_obs.Stitch.chrome_of_reports} assembles into a trace-event
    JSON array — the format [chrome://tracing] and Perfetto
    ([ui.perfetto.dev]) load directly.  Mapping: each tracer domain
    becomes a [tid], span begins/ends become ["B"]/["E"] phase events,
    instants become thread-scoped ["i"] events; timestamps are the
    tracer's microseconds.

    The JSON layer is deliberately tiny (build + escape + one parser) —
    enough for the exporters and for tests and CI to validate emitted
    documents without a JSON dependency. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(** [json_to_string j] — compact rendering.  Strings are escaped per RFC
    8259; non-finite floats render as [null] (JSON has no [NaN]). *)
val json_to_string : json -> string

(** [json_wellformed s] — [s] parses as a single JSON value (with
    trailing whitespace allowed): [json_of_string s <> None].  A full
    structural check: balanced containers, legal literals, string
    escapes, number syntax. *)
val json_wellformed : string -> bool

(** [json_of_string s] — the parsed value, or [None] on malformed
    input (RFC 8259, leading and trailing whitespace allowed); string
    escapes are decoded ([\uXXXX] as the UTF-8 encoding of the
    code unit, surrogate pairs not combined), numbers become [Int] when
    they are integral and fit, [Float] otherwise.  This is what lets
    tests and tools {e navigate} emitted documents (the SARIF exporter's
    round-trip tests) instead of merely validating them. *)
val json_of_string : string -> json option

(** [event_json pid e] — one tracer event as a Chrome trace-event
    object (phases ["B"]/["E"]/["i"], [tid] = tracer domain).  Exposed
    for {!Ssg_obs.Stitch}, which assembles multi-process documents
    event by event. *)
val event_json : int -> Tracer.event -> json

(** [metadata_jsons ~pid ~process ~dropped events] — a [process_name]
    event (args [name] = [process] and [dropped_events] = [dropped], the
    events the process's rings lost) plus one [thread_name] event per
    distinct domain appearing in [events], labelling the tracks
    Perfetto will draw for them. *)
val metadata_jsons :
  pid:int -> process:string -> dropped:int -> Tracer.event list -> json list
