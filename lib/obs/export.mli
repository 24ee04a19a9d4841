(** The JSON codec: a value type, one compact writer and one parser.

    The service's and the CLI's JSON documents are built as {!json}
    values and rendered by {!json_to_string}: the gateway's bodies,
    [/stats] ([Ssg_engine.Telemetry]), [ssg sweep], [ssg loadgen
    --json], [ssg lint --json], SARIF and the Chrome trace documents
    ({!Ssg_obs.Stitch}).  Deliberately tiny — enough for the writers
    and for tests and CI to decode emitted documents without a JSON
    dependency. *)

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
