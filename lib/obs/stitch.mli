(** Fleet trace stitching: one Chrome trace document from per-process
    tracer reports.

    {b Clock alignment.}  Event timestamps are µs since each process's
    own tracer epoch ({!Tracer.epoch_s}); the pull reply carries that
    epoch as absolute seconds.  {!chrome_of_reports} anchors the fleet
    at the earliest epoch and shifts every other process's events by
    its epoch delta, so spans of one request line up across tracks.
    Reports without a positive [epoch_s] (no anchor to align by) are
    left unshifted.

    {b Identity.}  Display pids are synthesized (1, 2, … in report
    order) so reports from the same OS process still get distinct
    tracks; the real pid is in the [process_name] metadata.  Cross
    -process parent links — a span whose [parent_span_id] arg names a
    span that began in a different report — become Chrome flow events
    ([ph:"s"] at the parent, [ph:"f"] at the child), the arrows
    Perfetto draws between tracks. *)

(** [chrome_of_reports reports] — the stitched Chrome trace-event JSON
    array: per-process [process_name]/[thread_name] metadata, clock
    -shifted events, and cross-process flow events. *)
val chrome_of_reports : Tracer.report list -> string

(** [report_to_json r] / [report_of_json j] — JSON codec for one
    report, used by the gateway's [GET /trace] endpoint and the fleet
    CLI that consumes it.  Round-trips role, pid, epoch, drop count
    and events (a [Float] arg with integral value may come back as
    [Int] — JSON does not distinguish them). *)
val report_to_json : Tracer.report -> Export.json

val report_of_json : Export.json -> Tracer.report option

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
}

(** [audit_string s] — validate a stitched document: [s] passes
    {!Export.json_wellformed}, is a JSON array of events, and B/E
    balance per [(pid, tid, name)] track.  Balance is per name rather
    than one LIFO stack per track because concurrent request threads
    share a track; ring-buffer truncation and in-flight spans are
    counted, not rejected.  Returns the audit summary, or a message
    naming the first violation. *)
val audit_string : string -> (audit, string) result
