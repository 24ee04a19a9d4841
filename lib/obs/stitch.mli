(** Chrome trace documents: one trace-event JSON array from
    per-process tracer reports, and the auditor that checks one.

    The document is the format [chrome://tracing] and Perfetto
    ([ui.perfetto.dev]) load directly: each tracer domain becomes a
    [tid], span begins/ends become ["B"]/["E"] phase events, instants
    become thread-scoped ["i"] events, and [ph:"M"] metadata names
    every process and thread track.  It is built as an
    {!Export.json} value, as every JSON document is.

    {b Clock alignment.}  Event timestamps are µs since each process's
    own tracer epoch ({!Tracer.epoch_s}); the pull reply carries that
    epoch as absolute seconds.  {!chrome_of_reports} anchors the fleet
    at the earliest epoch and shifts every other process's events by
    its epoch delta, so spans of one request line up across tracks.
    Every report comes from {!Tracer.report_here}, so every epoch is a
    wall-clock anchor.

    {b Identity.}  Display pids are synthesized (1, 2, … in report
    order) so reports from the same OS process still get distinct
    tracks; the real pid is in the [process_name] metadata.  Cross
    -process parent links — a span whose [parent_span_id] arg names a
    span that began in a different report — become Chrome flow events
    ([ph:"s"] at the parent, [ph:"f"] at the child), the arrows
    Perfetto draws between tracks. *)

(** [chrome_of_reports reports] — the stitched Chrome trace-event JSON
    array: per-process [process_name]/[thread_name] metadata (the
    [process_name] event carries the report's [dropped_events]), clock
    -shifted events, and cross-process flow events.  The one Chrome
    writer: a single process's trace is [chrome_of_reports
    [Tracer.report_here ~role ()]], and the gateway's [GET /trace]
    answers the stitched document of itself and every process behind
    it. *)
val chrome_of_reports : Tracer.report list -> string

type link = {
  parent_pid : int;
  parent_name : string;
  child_pid : int;
  child_name : string;
}

type audit = {
  events : int;  (** non-metadata trace events seen *)
  processes : int;  (** distinct pids with at least one event *)
  links : link list;  (** cross-process parent links, document order *)
  truncated_ends : int;
      (** E events whose B was evicted by the ring buffer — expected on
          a busy fleet, zero on an idle one *)
  open_spans : int;
      (** spans still open when the buffers were pulled — in-flight
          requests, zero on a quiescent fleet *)
  dropped_events : int;
      (** events the processes' rings overwrote before the pull, summed
          from each [process_name] event — zero unless a ring wrapped *)
}

(** [audit_string s] — validate a stitched document: [s] passes
    {!Export.json_wellformed}, is a JSON array of events, and B/E
    balance per [(pid, tid, name)] track.  Balance is per name rather
    than one LIFO stack per track because concurrent request threads
    share a track; ring-buffer truncation and in-flight spans are
    counted, not rejected.  Returns the audit summary, or a message
    naming the first violation. *)
val audit_string : string -> (audit, string) result
