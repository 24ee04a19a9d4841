(* Fleet trace stitching: turn per-process tracer reports into one
   Chrome trace document.

   Clock alignment: every event timestamp is µs since its process's
   tracer epoch, and every report carries that epoch as absolute Unix
   seconds (a [gettimeofday] taken by [Tracer.report_here]'s process).
   The stitcher anchors the fleet at the earliest epoch and shifts
   every other process's events forward by the epoch delta — so one
   request's spans line up across tracks even though no two processes
   ever shared a clock.

   Display pids are synthesized (1, 2, …) so two reports from the
   same OS process — the in-process test fleet — still get distinct
   tracks; the real pid lives in the [process_name] metadata. *)

open Export

let arg_str e key =
  List.find_map
    (fun (k, v) ->
      if String.equal k key then
        match v with Tracer.Str s -> Some s | _ -> None
      else None)
    e.Tracer.args

let no_parent = String.make 16 '0'

let fleet_zero (reports : Tracer.report list) =
  List.fold_left
    (fun acc (r : Tracer.report) -> Float.min acc r.epoch_s)
    infinity reports

(* Location of a span's begin event: where flow arrows start and end. *)
type span_loc = { pid : int; tid : int; ts : float }

let flow_events reports =
  (* Index every span id that appears on a begin event. *)
  let index = Hashtbl.create 64 in
  List.iteri
    (fun i (r : Tracer.report) ->
      List.iter
        (fun (e : Tracer.event) ->
          if e.kind = Tracer.Begin then
            match arg_str e "span_id" with
            | Some sid ->
                Hashtbl.replace index sid
                  (i, { pid = i + 1; tid = e.domain; ts = e.ts_us })
            | None -> ())
        r.events)
    reports;
  (* One s→f arrow per begin event whose parent span began in a
     different process.  The flow id is the child span id — unique per
     arrow, stable across re-stitches. *)
  let flows = ref [] in
  List.iteri
    (fun i (r : Tracer.report) ->
      List.iter
        (fun (e : Tracer.event) ->
          if e.kind = Tracer.Begin then
            match (arg_str e "span_id", arg_str e "parent_span_id") with
            | Some sid, Some psid when psid <> no_parent -> (
                match Hashtbl.find_opt index psid with
                | Some (j, parent) when j <> i ->
                    let mk ph loc extra =
                      Obj
                        ([
                           ("name", Str "ctx");
                           ("cat", Str "ssg");
                           ("ph", Str ph);
                           ("id", Str sid);
                           ("ts", Float loc.ts);
                           ("pid", Int loc.pid);
                           ("tid", Int loc.tid);
                         ]
                        @ extra)
                    in
                    let child = { pid = i + 1; tid = e.domain; ts = e.ts_us } in
                    flows :=
                      mk "f" child [ ("bp", Str "e") ]
                      :: mk "s" parent []
                      :: !flows
                | _ -> ())
            | _ -> ())
        r.events)
    reports;
  List.rev !flows

(* ---------------- Chrome trace-event builders ---------------- *)

let arg_json = function
  | Tracer.Int i -> Int i
  | Tracer.Float f -> Float f
  | Tracer.Str s -> Str s

let event_json pid (e : Tracer.event) =
  let base =
    [
      ("name", Str e.Tracer.name);
      ("cat", Str "ssg");
      ( "ph",
        Str
          (match e.Tracer.kind with
          | Tracer.Begin -> "B"
          | Tracer.End -> "E"
          | Tracer.Instant -> "i") );
      ("ts", Float e.Tracer.ts_us);
      ("pid", Int pid);
      ("tid", Int e.Tracer.domain);
    ]
  in
  let scope =
    (* Instant events need a scope; "t" = thread-scoped, the narrow tick
       mark Perfetto draws on the emitting track. *)
    match e.Tracer.kind with Tracer.Instant -> [ ("s", Str "t") ] | _ -> []
  in
  let args =
    match e.Tracer.args with
    | [] -> []
    | kvs -> [ ("args", Obj (List.map (fun (k, v) -> (k, arg_json v)) kvs)) ]
  in
  Obj (base @ scope @ args)

let metadata_json ~pid ?tid ~meta args =
  Obj
    ([ ("name", Str meta); ("ph", Str "M"); ("pid", Int pid) ]
    @ (match tid with Some t -> [ ("tid", Int t) ] | None -> [])
    @ [ ("args", Obj args) ])

(* Metadata events naming the process and its threads (domains) — what
   makes the export Perfetto-readable as labelled tracks rather than
   bare pid/tid numbers.  The process's ring drop count rides along. *)
let metadata_jsons ~pid ~process ~dropped events =
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.Tracer.domain) events)
  in
  metadata_json ~pid ~meta:"process_name"
    [ ("name", Str process); ("dropped_events", Int dropped) ]
  :: List.map
       (fun tid ->
         metadata_json ~pid ~tid ~meta:"thread_name"
           [ ("name", Str (Printf.sprintf "domain %d" tid)) ])
       tids

let process_label (r : Tracer.report) =
  Printf.sprintf "%s (pid %d)" r.role r.pid

let shift_events ~zero (r : Tracer.report) =
  let d = (r.epoch_s -. zero) *. 1e6 in
  if d = 0. then r.events
  else
    List.map (fun (e : Tracer.event) -> { e with Tracer.ts_us = e.ts_us +. d })
      r.events

let chrome_of_reports (reports : Tracer.report list) =
  let zero = fleet_zero reports in
  let shifted =
    List.map (fun (r : Tracer.report) -> { r with Tracer.events = shift_events ~zero r })
      reports
  in
  let meta =
    List.concat
      (List.mapi
         (fun i (r : Tracer.report) ->
           metadata_jsons ~pid:(i + 1) ~process:(process_label r)
             ~dropped:r.dropped_events r.events)
         shifted)
  in
  let evs =
    List.concat
      (List.mapi
         (fun i (r : Tracer.report) -> List.map (event_json (i + 1)) r.events)
         shifted)
  in
  json_to_string (Arr (meta @ evs @ flow_events shifted))

(* ---------------- stitched-document audit ---------------- *)

let field obj key = match obj with
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let num = function Some (Int i) -> Some (float_of_int i) | Some (Float f) -> Some f | _ -> None
let str = function Some (Str s) -> Some s | _ -> None

type link = {
  parent_pid : int;
  parent_name : string;
  child_pid : int;
  child_name : string;
}

type audit = {
  events : int;
  processes : int;
  links : link list;
  truncated_ends : int;
  open_spans : int;
  dropped_events : int;
}

(* Validate a stitched document: well-formed JSON, B/E balance per
   (pid, tid, name) track, and extraction of cross-process parent links
   from the identity args — what the CI fleet step asserts on.

   Balance is counted per name, not by one LIFO stack per track: on a
   live fleet, concurrent request threads share a track (they run on
   the same domain), so differently-named spans legitimately
   interleave.  Two imbalances are expected on a busy fleet and are
   reported rather than rejected: an E whose B was evicted by the ring
   buffer ([truncated_ends]) and a span still open at pull time
   ([open_spans]).  The rings' own drop counts, carried on each
   [process_name] event, are summed into [dropped_events]. *)
let audit_string s =
  match json_of_string s with
  | None -> Error "malformed JSON"
  | Some (Arr items) -> (
      let jstr j key = str (field j key) in
      let jnum j key = num (field j key) in
      let jarg j key =
        match field j "args" with Some a -> str (field a key) | None -> None
      in
      let opens : (int * int * string, int ref) Hashtbl.t =
        Hashtbl.create 16
      in
      let pids = Hashtbl.create 8 in
      let index = Hashtbl.create 64 in
      let begins = ref [] in
      let events = ref 0 in
      let truncated = ref 0 in
      let dropped = ref 0 in
      let err = ref None in
      let fail msg = if !err = None then err := Some msg in
      List.iter
        (fun item ->
          match (jstr item "ph", jstr item "name") with
          | Some ph, Some name -> (
              let pid =
                match jnum item "pid" with Some p -> int_of_float p | None -> -1
              in
              let tid =
                match jnum item "tid" with Some t -> int_of_float t | None -> -1
              in
              if ph <> "M" then Hashtbl.replace pids pid ();
              let counter () =
                match Hashtbl.find_opt opens (pid, tid, name) with
                | Some c -> c
                | None ->
                    let c = ref 0 in
                    Hashtbl.replace opens (pid, tid, name) c;
                    c
              in
              match ph with
              | "B" ->
                  incr events;
                  incr (counter ());
                  (match jarg item "span_id" with
                  | Some sid -> Hashtbl.replace index sid (pid, name)
                  | None -> ());
                  begins := (pid, name, jarg item "parent_span_id") :: !begins
              | "E" ->
                  incr events;
                  let c = counter () in
                  if !c > 0 then decr c else incr truncated
              | "i" | "s" | "f" -> incr events
              | "M" ->
                  (* Metadata labels, not trace events. *)
                  let args = Option.value (field item "args") ~default:Null in
                  Option.iter
                    (fun n -> dropped := !dropped + int_of_float n)
                    (num (field args "dropped_events"))
              | _ -> fail (Printf.sprintf "unknown phase %S" ph))
          | _ -> fail "event missing ph/name")
        items;
      let open_spans =
        Hashtbl.fold (fun _ c acc -> acc + !c) opens 0
      in
      match !err with
      | Some msg -> Error msg
      | None ->
          let links =
            List.filter_map
              (fun (pid, name, parent) ->
                match parent with
                | Some psid when psid <> no_parent -> (
                    match Hashtbl.find_opt index psid with
                    | Some (ppid, pname) when ppid <> pid ->
                        Some
                          {
                            parent_pid = ppid;
                            parent_name = pname;
                            child_pid = pid;
                            child_name = name;
                          }
                    | _ -> None)
                | _ -> None)
              (List.rev !begins)
          in
          Ok
            {
              events = !events;
              processes = Hashtbl.length pids;
              links;
              truncated_ends = !truncated;
              open_spans;
              dropped_events = !dropped;
            })
  | Some _ -> Error "top level is not an array"
