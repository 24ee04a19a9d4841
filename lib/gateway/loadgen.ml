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
  (* Open-loop only: when this connection's next request is due. *)
  mutable next_sched : float;
}

let dial addr deadline_s =
  let fd = Transport.connect addr in
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO deadline_s
   with Unix.Unix_error _ -> ());
  fd

(* Initial connect with patience: thousands of simultaneous dials can
   outrun the server's accept loop, and a SYN dropped off a full
   backlog deserves a retry, not an error. *)
let dial_retry addr deadline_s =
  let rec go attempt =
    match dial addr deadline_s with
    | fd -> Some fd
    | exception (Unix.Unix_error _ | Failure _) when attempt < 20 ->
        Thread.delay (0.02 *. float_of_int (1 + (attempt mod 5)));
        go (attempt + 1)
    | exception (Unix.Unix_error _ | Failure _) -> None
  in
  go 0

let drop conn =
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

(* ---------------- drivers ---------------- *)

(* Closed-loop round over one connection: send [pipeline] id-framed
   requests back to back, then read the replies (any order — the ids
   correlate them).  All of a driver's connections send before any of
   them reads, so the whole slice has work in flight at once. *)

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

let send_batch conn tally next_kind pipeline trace_top =
  let fd = Option.get conn.fd in
  let outstanding = Hashtbl.create pipeline in
  let payloads =
    List.init pipeline (fun _ ->
        let kind = next_kind () in
        let id = conn.next_id in
        conn.next_id <- id + 1;
        let trace_hex, payload = encode_request kind trace_top in
        Hashtbl.replace outstanding id (kind, trace_hex);
        Frame.with_id ~id payload)
  in
  List.iter (Frame.write_fd fd) payloads;
  let t0 = Unix.gettimeofday () in
  tally.sent <- tally.sent + pipeline;
  (conn, t0, outstanding)

(* A connection that fails — deadline, hangup, garbage — loses every
   request still unanswered on it. *)
let lose tally (conn, _, outstanding) =
  tally.errors <- tally.errors + Hashtbl.length outstanding;
  drop conn

(* Read one reply of a round sent at [t0]; true while the connection
   still owes replies. *)
let read_reply tally trace_top ((conn, t0, outstanding) as round) =
  match Frame.classify (Frame.read_fd (Option.get conn.fd)) with
  | Frame.Plain _ | (exception _) ->
      lose tally round;
      false
  | Frame.Id (id, inner) ->
      (match Hashtbl.find_opt outstanding id with
      | None -> ()  (* stale reply from a previous batch: ignore *)
      | Some (kind, trace_hex) ->
          Hashtbl.remove outstanding id;
          let ms = (Unix.gettimeofday () -. t0) *. 1000. in
          record_latency tally ms;
          (match trace_hex with
          | Some hex -> record_slow tally trace_top ms hex
          | None -> ());
          classify tally kind inner);
      Hashtbl.length outstanding > 0

(* Phase 2 of a round: every reply, timed as it arrives.  Draining the
   connections one after another would time a reply only once those
   read before it had drained, charging it for their slowest reply.
   Silence on every connection for [deadline_s] fails them all.
   [Unix.select] cannot watch a descriptor past FD_SETSIZE; then the
   connections drain one after another. *)
let rec drain tally trace_top deadline_s = function
  | [] -> ()
  | pending -> (
      let fd (conn, _, _) = Option.get conn.fd in
      match Unix.select (List.map fd pending) [] [] deadline_s with
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          drain tally trace_top deadline_s pending
      | exception Unix.Unix_error (Unix.EINVAL, _, _) ->
          List.iter
            (fun round -> while read_reply tally trace_top round do () done)
            pending
      | [], _, _ -> List.iter (lose tally) pending
      | ready, _, _ ->
          drain tally trace_top deadline_s
            (List.filter
               (fun round ->
                 (not (List.mem (fd round) ready))
                 || read_reply tally trace_top round)
               pending))

let closed_loop addr deadline_s pipeline next_kind trace_top t_end tally conns
    =
  (* Connect the whole slice up front. *)
  Array.iter
    (fun conn ->
      match dial_retry addr deadline_s with
      | Some fd -> conn.fd <- Some fd
      | None -> tally.errors <- tally.errors + 1)
    conns;
  while Unix.gettimeofday () < t_end do
    (* Phase 1: every live connection gets a batch in flight. *)
    let rounds =
      Array.to_list conns
      |> List.filter_map (fun conn ->
             match conn.fd with
             | None -> None
             | Some _ -> (
                 match send_batch conn tally next_kind pipeline trace_top with
                 | round -> Some round
                 | exception _ ->
                     tally.errors <- tally.errors + pipeline;
                     drop conn;
                     None))
    in
    drain tally trace_top deadline_s rounds;
    (* Re-dial what died so the load level recovers. *)
    if Unix.gettimeofday () < t_end then
      Array.iter
        (fun conn ->
          if conn.fd = None then
            match dial addr deadline_s with
            | fd -> conn.fd <- Some fd
            | exception (Unix.Unix_error _ | Failure _) -> ())
        conns
  done

(* Open-loop: each connection fires at fixed schedule times (the
   aggregate rate split evenly), one request in flight each, and the
   latency clock starts at the {e scheduled} time — a service that
   falls behind pays for its queue. *)
let open_loop addr deadline_s rate next_kind trace_top t_start t_end tally
    conns =
  let n = Array.length conns in
  let interval = float_of_int n /. rate in
  Array.iter
    (fun conn ->
      match dial_retry addr deadline_s with
      | Some fd -> conn.fd <- Some fd
      | None -> tally.errors <- tally.errors + 1)
    conns;
  (* The schedule starts once this slice is actually connected —
     charging the dial phase to the service would inflate every
     first-request latency by setup time the service never saw. *)
  let base = Float.max t_start (Unix.gettimeofday ()) in
  Array.iteri
    (fun i conn -> conn.next_sched <- base +. (float_of_int i /. rate))
    conns;
  let live = ref true in
  while !live && Unix.gettimeofday () < t_end do
    live := false;
    Array.iter
      (fun conn ->
        match conn.fd with
        | None -> ()
        | Some fd ->
            if conn.next_sched < t_end then begin
              live := true;
              let now = Unix.gettimeofday () in
              if now < conn.next_sched then
                Thread.delay (conn.next_sched -. now);
              let sched = conn.next_sched in
              conn.next_sched <- conn.next_sched +. interval;
              let kind = next_kind () in
              let id = conn.next_id in
              conn.next_id <- id + 1;
              match
                let trace_hex, payload = encode_request kind trace_top in
                Frame.write_fd fd (Frame.with_id ~id payload);
                tally.sent <- tally.sent + 1;
                let rec read_mine () =
                  match Frame.classify (Frame.read_fd fd) with
                  | Frame.Plain _ ->
                      failwith "loadgen: reply outside the id envelope"
                  | Frame.Id (rid, inner) when rid = id -> inner
                  | Frame.Id _ -> read_mine ()
                in
                let inner = read_mine () in
                let ms = (Unix.gettimeofday () -. sched) *. 1000. in
                record_latency tally ms;
                (match trace_hex with
                | Some hex -> record_slow tally trace_top ms hex
                | None -> ());
                classify tally kind inner
              with
              | () -> ()
              | exception _ ->
                  tally.errors <- tally.errors + 1;
                  drop conn;
                  (match dial addr deadline_s with
                  | fd -> conn.fd <- Some fd
                  | exception (Unix.Unix_error _ | Failure _) -> ())
            end)
      conns
  done

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
  let next_kind = kind_of_mix mix in
  let tallies = Array.init threads (fun _ -> new_tally ()) in
  let t_start = Unix.gettimeofday () in
  let t_end = t_start +. duration_s in
  let slice i =
    (* Spread connections across threads, first slices one larger. *)
    let base = connections / threads and extra = connections mod threads in
    let count = base + if i < extra then 1 else 0 in
    Array.init count (fun _ -> { fd = None; next_id = 0; next_sched = 0. })
  in
  let drivers =
    Array.init threads (fun i ->
        let conns = slice i in
        let tally = tallies.(i) in
        Thread.create
          (fun () ->
            (try
               if rate > 0. then
                 open_loop addr deadline_s
                   (rate /. float_of_int threads)
                   next_kind trace_top t_start t_end tally conns
               else
                 closed_loop addr deadline_s pipeline next_kind trace_top
                   t_end tally conns
             with e ->
               Logs.err (fun m ->
                   m "loadgen driver died: %s" (Printexc.to_string e));
               tally.errors <- tally.errors + 1);
            Array.iter drop conns)
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
