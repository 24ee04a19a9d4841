module Transport = Ssg_net.Transport
module Frame = Ssg_net.Frame
module Context = Ssg_obs.Context
module E = Ssg_obs.Export
open Ssg_engine

type mix = { cached : int; uncached : int; lint_error : int }
type slo = { quantile : float; limit_ms : float; spec : string }

let slo_of_string s =
  let fail () =
    Error
      (Printf.sprintf "bad SLO %S (expected e.g. p99<250ms or p50<1.5ms)" s)
  in
  match String.index_opt s '<' with
  | None -> fail ()
  | Some i ->
      let q = String.sub s 0 i in
      let lim = String.sub s (i + 1) (String.length s - i - 1) in
      if String.length q < 2 || (q.[0] <> 'p' && q.[0] <> 'P') then fail ()
      else if
        String.length lim < 3
        || String.sub lim (String.length lim - 2) 2 <> "ms"
      then fail ()
      else
        let qs = String.sub q 1 (String.length q - 1) in
        let ls = String.sub lim 0 (String.length lim - 2) in
        match (float_of_string_opt qs, float_of_string_opt ls) with
        | Some qv, Some limit_ms
          when qv > 0. && qv < 100. && limit_ms > 0. ->
            Ok { quantile = qv /. 100.; limit_ms; spec = s }
        | _ -> fail ()

type report = {
  connections : int;
  sent : int;
  completed : int;
  rejected : int;
  errors : int;
  duration_s : float;
  throughput_rps : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  slo_violations : string list;
  slow_traces : (float * string) list;
}

(* ---------------- synthetic jobs ---------------- *)

(* The paper's two-islands geometry: n=6, two 3-cycles.  Psrcs(2) holds
   (one source per island), so k=2 passes the lint gate and k=1 is
   rejected with SSG001 — which is exactly the job mix's lint-error
   case. *)
let run_text = "ssg-run v1\nn 6\nstable: 0>1 1>2 2>0 3>4 4>5 5>3\n"

type kind = Cached | Uncached | Lint_error

let fresh_inputs =
  let counter = Atomic.make 1 in
  fun () ->
    let c = Atomic.fetch_and_add counter 1 in
    Array.init 6 (fun i -> c + i)

let encode_job kind =
  let job =
    match kind with
    | Cached -> Job.of_run_text ~k:2 run_text
    | Uncached -> Job.of_run_text ~k:2 ~inputs:(fresh_inputs ()) run_text
    | Lint_error -> Job.of_run_text ~k:1 run_text
  in
  Protocol.request_to_bytes (Protocol.Submit job)

let kind_of_mix mix =
  let total = mix.cached + mix.uncached + mix.lint_error in
  let counter = Atomic.make 0 in
  fun () ->
    let c = Atomic.fetch_and_add counter 1 mod total in
    if c < mix.cached then Cached
    else if c < mix.cached + mix.uncached then Uncached
    else Lint_error

(* ---------------- per-driver accounting ---------------- *)

type tally = {
  mutable sent : int;
  mutable completed : int;
  mutable rejected : int;
  mutable errors : int;
  mutable latencies : float array;  (* ms *)
  mutable n_latencies : int;
  mutable slow : (float * string) list;  (* (ms, trace id hex), desc *)
}

let new_tally () =
  {
    sent = 0;
    completed = 0;
    rejected = 0;
    errors = 0;
    latencies = Array.make 4096 0.;
    n_latencies = 0;
    slow = [];
  }

let record_latency tally ms =
  if tally.n_latencies = Array.length tally.latencies then begin
    let bigger = Array.make (2 * tally.n_latencies) 0. in
    Array.blit tally.latencies 0 bigger 0 tally.n_latencies;
    tally.latencies <- bigger
  end;
  tally.latencies.(tally.n_latencies) <- ms;
  tally.n_latencies <- tally.n_latencies + 1

(* Keep the [top] slowest (latency, trace id) samples, descending.
   [top] is small (a report-sized handful), so a sorted list is fine. *)
let merge_slow top lists =
  List.concat lists
  |> List.sort (fun (a, _) (b, _) -> compare (b : float) a)
  |> List.filteri (fun i _ -> i < top)

let record_slow tally top ms trace_hex =
  if top > 0 then tally.slow <- merge_slow top [ (ms, trace_hex) :: tally.slow ]

(* ---------------- connections ---------------- *)

type conn = {
  mutable fd : Unix.file_descr option;
  mutable next_id : int;
  pending : (int, kind * float * string option) Hashtbl.t;
      (* id -> kind, latency origin, sampled trace id *)
  mutable heard : float;
      (* the last reply, or the send that found nothing pending: where
         the deadline's silence starts *)
  mutable due : float;
      (* open loop: the next scheduled send; closed loop: when a dead
         connection is re-dialed *)
  mutable dialed : bool;  (* connected at least once during the run *)
}

(* One attempt: false when [conn] stays down. *)
let dial addr deadline_s conn =
  match Transport.connect addr with
  | fd ->
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO deadline_s
       with Unix.Unix_error _ -> ());
      conn.fd <- Some fd;
      conn.dialed <- true;
      true
  | exception (Unix.Unix_error _ | Failure _) -> false

(* A connection that fails — deadline, hangup, garbage — loses every
   request still pending on it. *)
let drop tally conn =
  tally.errors <- tally.errors + Hashtbl.length conn.pending;
  Hashtbl.reset conn.pending;
  (match conn.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  conn.fd <- None

(* One request/reply classified against what was asked for.  A
   lint-error job answered with a lint rejection (a protocol [Error])
   is the expected outcome; everything else unexpected is a
   client-visible error. *)
let classify tally kind reply_payload =
  match (Protocol.reply_of_bytes reply_payload, kind) with
  | exception Failure _ -> tally.errors <- tally.errors + 1
  | Protocol.Completed { Job.result = Ok _; _ }, (Cached | Uncached) ->
      tally.completed <- tally.completed + 1
  | Protocol.Error _, Lint_error ->
      tally.completed <- tally.completed + 1;
      tally.rejected <- tally.rejected + 1
  | _ -> tally.errors <- tally.errors + 1

(* When sampling is on ([trace_top > 0]) each request originates a root
   trace context, carried in the context envelope inside the id
   envelope — the loadgen is the edge of those traces, exactly like a
   traceparent-bearing HTTP caller. *)
let encode_request kind trace_top =
  if trace_top > 0 then begin
    let ctx = Context.root () in
    ( Some (Context.trace_id_hex ctx),
      Frame.with_ctx ~ctx:(Context.to_wire ctx) (encode_job kind) )
  end
  else (None, encode_job kind)

(* Send the next job of the mix on [conn], its latency timed from
   [origin]. *)
let send tally next_kind trace_top conn origin =
  let kind = next_kind () in
  let id = conn.next_id in
  conn.next_id <- id + 1;
  let trace_hex, payload = encode_request kind trace_top in
  if Hashtbl.length conn.pending = 0 then conn.heard <- Unix.gettimeofday ();
  Hashtbl.replace conn.pending id (kind, origin, trace_hex);
  tally.sent <- tally.sent + 1;
  Frame.write_fd (Option.get conn.fd) (Frame.with_id ~id payload)

(* Read one reply off [conn] and time it as it arrives. *)
let receive tally trace_top conn =
  match Frame.classify (Frame.read_fd (Option.get conn.fd)) with
  | Frame.Plain _ -> failwith "loadgen: reply outside the id envelope"
  | Frame.Id (id, inner) -> (
      let now = Unix.gettimeofday () in
      conn.heard <- now;
      match Hashtbl.find_opt conn.pending id with
      | None -> ()  (* an id nothing waits for: ignore *)
      | Some (kind, origin, trace_hex) ->
          Hashtbl.remove conn.pending id;
          let ms = (now -. origin) *. 1000. in
          record_latency tally ms;
          Option.iter (record_slow tally trace_top ms) trace_hex;
          classify tally kind inner)

(* ---------------- the driver ---------------- *)

(* A dead connection of the closed loop is re-dialed after this pause,
   so a target that refuses costs a few dials a second, not a spin. *)
let redial_pause_s = 0.1

(* One driver thread over its slice [conns], the first of which is the
   run's connection [first].  Each connection is served on its own:
   the closed loop ([rate = 0.]) keeps [pipeline] requests in flight on
   every live connection, sending the next as each reply arrives; in
   the open loop connection g sends at g/[rate] and then every
   [connections]/[rate] seconds, whatever it still has pending, a dead
   connection re-dialing at its slot.  [Unix.select] waits for the
   first reply, deadline or due send of any of them.  A connection that
   never connects during the run counts one error. *)
let drive addr deadline_s pipeline rate connections first next_kind trace_top
    t_start t_end tally conns =
  (* A connection whose first dial fails is re-dialed like a dead one. *)
  Array.iter (fun conn -> ignore (dial addr deadline_s conn)) conns;
  (* The schedule starts once this slice has dialed — charging the dial
     phase to the service would inflate every first-request latency by
     setup time the service never saw. *)
  let base = Float.max t_start (Unix.gettimeofday ()) in
  let closed = rate = 0. in
  let interval = float_of_int connections /. rate in
  Array.iteri
    (fun i conn ->
      conn.due <-
        (if closed then base +. redial_pause_s
         else base +. (float_of_int (first + i) /. rate)))
    conns;
  let retry_later conn now = if closed then conn.due <- now +. redial_pause_s in
  let fail conn now =
    drop tally conn;
    retry_later conn now
  in
  let send conn origin =
    try send tally next_kind trace_top conn origin
    with _ -> fail conn (Unix.gettimeofday ())
  in
  let receive conn =
    try receive tally trace_top conn
    with _ -> fail conn (Unix.gettimeofday ())
  in
  (* Everything [conn] is owed at [now] short of a reply: its deadline,
     a re-dial, its sends. *)
  let serve conn now =
    if Hashtbl.length conn.pending > 0 && now -. conn.heard >= deadline_s
    then fail conn now;
    if conn.due <= now && conn.due < t_end then begin
      let slot = conn.due in
      if not closed then conn.due <- slot +. interval;
      if conn.fd = None && not (dial addr deadline_s conn) then
        retry_later conn now;
      if (not closed) && conn.fd <> None then send conn slot
    end;
    if closed && now < t_end then
      while conn.fd <> None && Hashtbl.length conn.pending < pipeline do
        send conn (Unix.gettimeofday ())
      done
  in
  let wake conn =
    Float.min
      (if Hashtbl.length conn.pending > 0 then conn.heard +. deadline_s
       else infinity)
      (if conn.due < t_end && ((not closed) || conn.fd = None) then conn.due
       else infinity)
  in
  let reply conn =
    receive conn;
    serve conn (Unix.gettimeofday ())
  in
  let rec loop () =
    let now = Unix.gettimeofday () in
    Array.iter (fun conn -> serve conn now) conns;
    let next =
      Array.fold_left (fun t conn -> Float.min t (wake conn)) infinity conns
    in
    if next < infinity then begin
      let live = List.filter (fun c -> c.fd <> None) (Array.to_list conns) in
      let fd conn = Option.get conn.fd in
      let timeout = Float.max 0. (next -. Unix.gettimeofday ()) in
      (match Unix.select (List.map fd live) [] [] timeout with
      | ready, _, _ ->
          List.iter (fun c -> if List.mem (fd c) ready then reply c) live
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.EINVAL, _, _) -> (
          (* [Unix.select] cannot watch a descriptor past FD_SETSIZE:
             then each waiting connection is read in turn, each read
             bounded by [SO_RCVTIMEO]. *)
          match List.filter (fun c -> Hashtbl.length c.pending > 0) live with
          | [] -> Thread.delay timeout
          | waiting -> List.iter reply waiting));
      loop ()
    end
  in
  loop ();
  Array.iter
    (fun conn -> if not conn.dialed then tally.errors <- tally.errors + 1)
    conns

(* ---------------- the run ---------------- *)

let default_mix = { cached = 8; uncached = 1; lint_error = 1 }

let run ?threads ?(pipeline = 1) ?(rate = 0.) ?(mix = default_mix)
    ?(deadline_s = 30.) ?(slos = []) ?(trace_top = 0) ~connections ~duration_s
    ~target () =
  if connections < 1 then
    invalid_arg "Loadgen.run: connections must be >= 1";
  if pipeline < 1 then invalid_arg "Loadgen.run: pipeline must be >= 1";
  if duration_s <= 0. then invalid_arg "Loadgen.run: duration_s must be > 0";
  if rate < 0. then invalid_arg "Loadgen.run: rate must be >= 0";
  if trace_top < 0 then invalid_arg "Loadgen.run: trace_top must be >= 0";
  if mix.cached < 0 || mix.uncached < 0 || mix.lint_error < 0
     || mix.cached + mix.uncached + mix.lint_error = 0
  then invalid_arg "Loadgen.run: the mix needs a positive total";
  let threads =
    match threads with
    | Some t when t >= 1 -> min t connections
    | Some _ -> invalid_arg "Loadgen.run: threads must be >= 1"
    | None -> min connections 8
  in
  let addr = Transport.of_string_exn target in
  (* A target that hangs up mid-write must cost the requests on that
     connection and a re-dial, not the process. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
   with Invalid_argument _ | Sys_error _ -> ());
  let next_kind = kind_of_mix mix in
  let tallies = Array.init threads (fun _ -> new_tally ()) in
  let t_start = Unix.gettimeofday () in
  let t_end = t_start +. duration_s in
  let drivers =
    Array.init threads (fun i ->
        (* Spread connections across threads, first slices one larger. *)
        let base = connections / threads and extra = connections mod threads in
        let conns =
          Array.init
            (base + if i < extra then 1 else 0)
            (fun _ ->
              {
                fd = None;
                next_id = 0;
                pending = Hashtbl.create pipeline;
                heard = 0.;
                due = 0.;
                dialed = false;
              })
        in
        let tally = tallies.(i) in
        Thread.create
          (fun () ->
            (try
               drive addr deadline_s pipeline rate connections
                 ((i * base) + min i extra)
                 next_kind trace_top t_start t_end tally conns
             with e ->
               Logs.err (fun m ->
                   m "loadgen driver died: %s" (Printexc.to_string e));
               tally.errors <- tally.errors + 1);
            Array.iter (drop tally) conns)
          ())
  in
  Array.iter Thread.join drivers;
  let duration = Unix.gettimeofday () -. t_start in
  let sent = Array.fold_left (fun a t -> a + t.sent) 0 tallies in
  let completed = Array.fold_left (fun a t -> a + t.completed) 0 tallies in
  let rejected = Array.fold_left (fun a t -> a + t.rejected) 0 tallies in
  let errors = Array.fold_left (fun a t -> a + t.errors) 0 tallies in
  let total_lat = Array.fold_left (fun a t -> a + t.n_latencies) 0 tallies in
  let latencies = Array.make (max total_lat 1) 0. in
  let off = ref 0 in
  Array.iter
    (fun t ->
      Array.blit t.latencies 0 latencies !off t.n_latencies;
      off := !off + t.n_latencies)
    tallies;
  let latencies = Array.sub latencies 0 (max total_lat 0) in
  Array.sort compare latencies;
  let mean =
    if total_lat = 0 then Float.nan
    else Array.fold_left ( +. ) 0. latencies /. float_of_int total_lat
  in
  let pct q =
    if total_lat = 0 then Float.nan
    else Ssg_util.Stats.percentile_sorted latencies (100. *. q)
  in
  let p50 = pct 0.5 and p95 = pct 0.95 and p99 = pct 0.99 in
  let maxl = if total_lat = 0 then Float.nan else latencies.(total_lat - 1) in
  let violations =
    List.filter_map
      (fun slo ->
        let v = pct slo.quantile in
        if Float.is_nan v then
          Some (Printf.sprintf "%s: no latency samples" slo.spec)
        else if v > slo.limit_ms then
          Some
            (Printf.sprintf "%s violated: observed %.1fms > %.1fms" slo.spec v
               slo.limit_ms)
        else None)
      slos
  in
  let violations =
    if errors > 0 then
      violations
      @ [ Printf.sprintf "%d client-visible error(s) during the run" errors ]
    else violations
  in
  {
    connections;
    sent;
    completed;
    rejected;
    errors;
    duration_s = duration;
    throughput_rps =
      (if duration > 0. then float_of_int completed /. duration else 0.);
    mean_ms = mean;
    p50_ms = p50;
    p95_ms = p95;
    p99_ms = p99;
    max_ms = maxl;
    slo_violations = violations;
    slow_traces =
      merge_slow trace_top (Array.to_list (Array.map (fun t -> t.slow) tallies));
  }

(* ---------------- rendering ---------------- *)

let to_json r =
  let slow (ms, trace) =
    E.Obj [ ("latency_ms", E.Float ms); ("trace_id", E.Str trace) ]
  in
  E.json_to_string
    (E.Obj
       [
         ("connections", E.Int r.connections);
         ("sent", E.Int r.sent);
         ("completed", E.Int r.completed);
         ("rejected", E.Int r.rejected);
         ("errors", E.Int r.errors);
         ("duration_s", E.Float r.duration_s);
         ("throughput_rps", E.Float r.throughput_rps);
         ("mean_ms", E.Float r.mean_ms);
         ("p50_ms", E.Float r.p50_ms);
         ("p95_ms", E.Float r.p95_ms);
         ("p99_ms", E.Float r.p99_ms);
         ("max_ms", E.Float r.max_ms);
         ( "slo_violations",
           E.Arr (List.map (fun v -> E.Str v) r.slo_violations) );
         ("slow_traces", E.Arr (List.map slow r.slow_traces));
       ])

let pp fmt r =
  Format.fprintf fmt
    "@[<v>connections : %d@,sent        : %d@,completed   : %d@,\
     rejected    : %d (expected lint rejections)@,errors      : %d@,\
     duration    : %.2f s@,throughput  : %.1f req/s@,latency mean: %.2f ms@,\
     latency p50 : %.2f ms@,latency p95 : %.2f ms@,latency p99 : %.2f ms@,\
     latency max : %.2f ms@]" r.connections r.sent r.completed r.rejected
    r.errors r.duration_s r.throughput_rps r.mean_ms r.p50_ms r.p95_ms
    r.p99_ms r.max_ms;
  (match r.slow_traces with
  | [] -> ()
  | slow ->
      Format.fprintf fmt "@.slowest traces (trace id, latency):";
      List.iter
        (fun (ms, trace) -> Format.fprintf fmt "@.  %s  %8.2f ms" trace ms)
        slow);
  match r.slo_violations with
  | [] -> Format.fprintf fmt "@.slo         : ok@."
  | vs ->
      List.iter (fun v -> Format.fprintf fmt "@.slo VIOLATED: %s" v) vs;
      Format.fprintf fmt "@."
