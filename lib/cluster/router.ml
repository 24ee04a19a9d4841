let log_src = Logs.Src.create "ssg.cluster.router" ~doc:"cluster front end"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Metrics = Ssg_obs.Metrics
module Tracer = Ssg_obs.Tracer
module Transport = Ssg_net.Transport
module Listener = Ssg_net.Listener
open Ssg_engine

(* Per-shard metric slot.  Members come and go at runtime (Join/Leave),
   so slots live in a table keyed by canonical address; each gets a
   stable, monotonically assigned index for its metric names.  A slot
   is never unregistered — a departed member's counters keep their last
   value in the exposition, which is how Prometheus expects counters to
   behave across membership churn. *)
type shard = {
  idx : int;
  s_routed : Metrics.counter;
  s_up : Metrics.gauge;
  s_reporting : Metrics.gauge;
}

type t = {
  registry : Registry.t;
  request_timeout_s : float;
  metrics : Metrics.t;
  routed : Metrics.counter;
  failovers : Metrics.counter;
  exhausted : Metrics.counter;
  markdowns : Metrics.counter;
  readmissions : Metrics.counter;
  joins : Metrics.counter;
  leaves : Metrics.counter;
  handoff_keys : Metrics.counter;
  shard_lock : Mutex.t;
  shards : (string, shard) Hashtbl.t;
  mutable next_shard : int;
  mutable self_addr : string option;  (* set once serving, for Join guard *)
  hop_worker : Metrics.histogram;  (* router→worker exchange latency *)
}

let shard_for t addr =
  Mutex.lock t.shard_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.shard_lock)
    (fun () ->
      match Hashtbl.find_opt t.shards addr with
      | Some s -> s
      | None ->
          let i = t.next_shard in
          t.next_shard <- i + 1;
          let s =
            {
              idx = i;
              s_routed =
                Metrics.counter t.metrics ~help:"Jobs routed to this shard"
                  (Printf.sprintf "ssg_router_shard%d_routed_total" i);
              s_up =
                Metrics.gauge t.metrics
                  ~help:"1 when this shard is in the ring"
                  (Printf.sprintf "ssg_router_shard%d_up" i);
              s_reporting =
                Metrics.gauge t.metrics
                  ~help:"1 when this shard answered the last stats fan-out"
                  (Printf.sprintf "ssg_router_shard%d_reporting" i);
            }
          in
          Hashtbl.add t.shards addr s;
          s)

let backends t = Registry.backends t.registry

(* One forwarded exchange: fresh connection (Unix-domain connects are
   cheap and a per-request descriptor keeps failover semantics exact —
   no poisoned pooled connection can leak between jobs), no connect
   retries (the router does its own failover instead), reply deadline
   armed so a mute backend costs [request_timeout_s], not forever.
   Job-bearing exchanges feed the router→worker hop histogram; control
   exchanges (stats, metrics, trace pulls) do not — the hop family
   decomposes request latency, not management traffic. *)
let forward ?ctx t addr request =
  let c =
    Client.connect ~retries:0 ~deadline_s:t.request_timeout_s ~socket:addr ()
  in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      match request with
      | Protocol.Submit _ | Protocol.Batch _ ->
          let t0 = Unix.gettimeofday () in
          let reply = Client.rpc ?ctx c request in
          Metrics.observe t.hop_worker (1000. *. (Unix.gettimeofday () -. t0));
          reply
      | _ -> Client.rpc ?ctx c request)

let record_routed t addr =
  Registry.mark_success t.registry addr;
  Metrics.incr t.routed;
  Metrics.incr (shard_for t addr).s_routed

(* Route one job to its ring owner, failing over along the successor
   list.  A protocol [Error] reply is relayed without failover: it is
   deterministic (the lint front door), not a shard failure.  [ctx]
   parents the [router.route] span under the caller's (the gateway's)
   span and hands the route span's own identity to the backend, making
   the worker's spans grandchildren of the edge request. *)
let route_job ?ctx t job =
  let key = Job.key job in
  let key_hex = Printf.sprintf "%Lx" (Ring.hash64 key) in
  let rec go fwd_ctx attempts = function
    | [] ->
        Metrics.incr t.exhausted;
        Protocol.Error "cluster: no live backend could serve the job"
    | addr :: rest -> (
        let outcome =
          match forward ?ctx:fwd_ctx t addr (Protocol.Submit job) with
          | (Protocol.Completed _ | Protocol.Error _) as reply -> Ok reply
          | _unexpected -> Error "unexpected reply kind"
          | exception Unix.Unix_error (e, _, _) ->
              Error (Unix.error_message e)
          | exception Failure msg -> Error msg
          | exception End_of_file -> Error "backend closed mid-exchange"
          | exception Sys_error msg -> Error msg
        in
        match outcome with
        | Ok reply ->
            record_routed t addr;
            reply
        | Error reason ->
            Registry.mark_failure t.registry addr;
            Log.info (fun m ->
                m "forward to %s failed (%s), %s" addr reason
                  (if rest = [] then "no shard left"
                   else "failing over to the successor shard"));
            if rest <> [] then begin
              Metrics.incr t.failovers;
              if Tracer.enabled () then
                Tracer.instant "router.failover"
                  ~args:
                    [ ("key", Tracer.Str key_hex); ("from", Tracer.Str addr) ]
            end;
            go fwd_ctx (attempts + 1) rest)
  in
  let run fwd_ctx = go fwd_ctx 0 (Registry.candidates t.registry key) in
  if Tracer.enabled () then
    let args = [ ("key", Tracer.Str key_hex) ] in
    match ctx with
    | Some c ->
        Tracer.with_span_ctx ~args ~ctx:c "router.route" (fun child ->
            run (Some child))
    | None -> Tracer.with_span ~args "router.route" (fun () -> run None)
  else
    (* Tracing off here: pass the caller's context through untouched so
       a tracing backend still parents under the edge span. *)
    run ctx

let error_completion msg =
  { Job.result = Error msg; cached = false; latency_ms = 0. }

let completion_of_reply = function
  | Protocol.Completed c -> c
  | Protocol.Error msg -> error_completion msg
  | _ -> error_completion "cluster: unexpected reply kind"

(* A batch splits by ring owner into per-backend sub-batches forwarded
   concurrently (that concurrency is where the cluster's throughput
   comes from: one client connection's batch fans out over every
   shard's worker pool at once).  A sub-batch whose backend fails falls
   back to job-by-job routing, which brings failover with it. *)
let route_batch ?ctx t jobs =
  let arr = Array.of_list jobs in
  let results = Array.map (fun _ -> error_completion "unrouted") arr in
  let groups = Hashtbl.create 8 in
  Array.iteri
    (fun i job ->
      let owner =
        match Registry.candidates t.registry (Job.key job) with
        | addr :: _ -> addr
        | [] -> ""
      in
      Hashtbl.replace groups owner
        (i :: (try Hashtbl.find groups owner with Not_found -> [])))
    arr;
  let run_group owner indices =
    let indices = List.rev indices in
    let sub = List.map (fun i -> arr.(i)) indices in
    let fallback () =
      List.iter
        (fun i -> results.(i) <- completion_of_reply (route_job ?ctx t arr.(i)))
        indices
    in
    if owner = "" then fallback ()
    else
      match forward ?ctx t owner (Protocol.Batch sub) with
      | Protocol.Batch_completed cs when List.length cs = List.length indices
        ->
          Registry.mark_success t.registry owner;
          Metrics.add t.routed (List.length indices);
          Metrics.add (shard_for t owner).s_routed (List.length indices);
          List.iter2 (fun i c -> results.(i) <- c) indices cs
      | _ | (exception _) ->
          Registry.mark_failure t.registry owner;
          fallback ()
  in
  let threads =
    Hashtbl.fold
      (fun owner indices acc ->
        Thread.create (fun () -> run_group owner indices) () :: acc)
      groups []
  in
  List.iter Thread.join threads;
  Protocol.Batch_completed (Array.to_list results)

(* Fan [Stats] out to every configured backend (down ones included — a
   healed backend that the prober has not revisited yet still reports,
   and the success re-admits it). *)
let fan_stats t =
  backends t
  |> List.filter_map (fun addr ->
         match forward t addr Protocol.Stats with
         | Protocol.Stats_snapshot s ->
             Registry.mark_success t.registry addr;
             Some (addr, s)
         | _ ->
             Registry.mark_failure t.registry addr;
             None
         | exception _ ->
             Registry.mark_failure t.registry addr;
             None)

let merged_stats t =
  match fan_stats t with
  | [] -> Protocol.Error "cluster: no backend reachable for stats"
  | reports ->
      Protocol.Stats_snapshot (Telemetry.merge (List.map snd reports))

(* Fleet trace pull: relay [Trace_pull] to every backend and prepend
   the router's own report.  A pre-context backend answers the unknown
   tag with a protocol [Error] (and drops the connection) — fall back
   to the legacy [Trace] op for it, wrapped in an anchor-less report
   ([epoch_s = 0]: the stitcher leaves it unshifted). *)
let fleet_reports t =
  let legacy addr =
    match forward t addr Protocol.Trace with
    | Protocol.Trace_events events ->
        [
          {
            Tracer.role = "worker";
            pid = 0;
            epoch_s = 0.;
            dropped_events = 0;
            events;
          };
        ]
    | _ -> []
    | exception _ -> []
  in
  let backend_reports =
    backends t
    |> List.concat_map (fun addr ->
           match forward t addr Protocol.Trace_pull with
           | Protocol.Trace_reports reports -> reports
           | _ -> legacy addr
           | exception _ -> legacy addr)
  in
  Tracer.report_here ~role:"router" () :: backend_reports

(* The cluster exposition: router registry (global and per-shard
   counters), shard index -> address mapping as comments, then the
   merged backend snapshot under ssg_cluster_*. *)
let metrics_text t =
  let members = backends t in
  let reports = fan_stats t in
  let reported addr = List.mem_assoc addr reports in
  List.iter
    (fun addr ->
      let shard = shard_for t addr in
      Metrics.set_gauge shard.s_up
        (if Registry.is_up t.registry addr then 1. else 0.);
      Metrics.set_gauge shard.s_reporting (if reported addr then 1. else 0.))
    members;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "# ssg cluster: %d backend(s), %d up, %d reporting\n"
       (List.length members)
       (List.length (Registry.up t.registry))
       (List.length reports));
  List.iter
    (fun addr ->
      Buffer.add_string buf
        (Printf.sprintf "# shard %d = %s\n" (shard_for t addr).idx addr))
    members;
  Buffer.add_string buf (Metrics.to_prometheus t.metrics);
  (match reports with
  | [] -> ()
  | _ ->
      Buffer.add_string buf
        (Telemetry.prometheus_of_snapshot ~prefix:"ssg_cluster_"
           (Telemetry.merge (List.map snd reports))));
  Buffer.contents buf

let create ?vnodes ?down_after ?probe_interval_s ?probe_timeout_s
    ?(request_timeout_s = 30.) backends =
  if request_timeout_s <= 0. then
    invalid_arg "Router: request_timeout_s must be > 0";
  (* Canonicalize addresses before registering: [/tmp/w.sock] and
     [unix:/tmp/w.sock] name the same worker, but Registry's
     string-level dedup cannot see that.  A duplicate surviving here
     would double the worker's vnodes (double load share) and
     double-count it in every Stats/Metrics fan-out. *)
  let seen = Hashtbl.create 8 in
  let backends =
    List.filter
      (fun canonical ->
        if Hashtbl.mem seen canonical then begin
          Log.warn (fun m ->
              m "duplicate backend %s dropped (listed more than once)"
                canonical);
          false
        end
        else begin
          Hashtbl.add seen canonical ();
          true
        end)
      (List.map
         (fun b -> Transport.to_string (Transport.of_string_exn b))
         backends)
  in
  let metrics = Metrics.create () in
  let counter name help = Metrics.counter metrics ~help name in
  let markdowns =
    counter "ssg_router_markdowns_total"
      "Backends taken out of the ring after consecutive failures"
  in
  let readmissions =
    counter "ssg_router_readmissions_total"
      "Down backends re-admitted after a healthy exchange"
  in
  let on_transition _addr up =
    Metrics.incr (if up then readmissions else markdowns)
  in
  let registry =
    Registry.create ?vnodes ?down_after ?probe_interval_s ?probe_timeout_s
      ~on_transition backends
  in
  let t =
    {
      registry;
      request_timeout_s;
      metrics;
      routed =
        counter "ssg_router_jobs_routed_total"
          "Jobs forwarded to a backend and answered";
      failovers =
        counter "ssg_router_failovers_total"
          "Jobs retried on a successor shard after their owner failed";
      exhausted =
        counter "ssg_router_jobs_failed_total"
          "Jobs answered with an error after every candidate shard failed";
      markdowns;
      readmissions;
      joins =
        counter "ssg_router_joins_total"
          "Members admitted via a Join announcement";
      leaves =
        counter "ssg_router_leaves_total" "Members retired via a Leave";
      handoff_keys =
        counter "ssg_router_handoff_keys_total"
          "Cache entries streamed to their new owner on ring changes";
      shard_lock = Mutex.create ();
      shards = Hashtbl.create 8;
      next_shard = 0;
      self_addr = None;
      hop_worker = Telemetry.hop_router_worker metrics;
    }
  in
  (* Pre-assign shard indices in sorted order so a statically configured
     fleet numbers its shards exactly as before elastic membership. *)
  List.iter (fun addr -> ignore (shard_for t addr)) (Registry.backends registry);
  t

(* ---------------- elastic membership & warm handoff ---------------- *)

(* Bounds for one handoff: how many hot entries a donor is asked for,
   and how many ride in one Transfer frame. *)
let handoff_export_limit = 1024
let handoff_batch = 64

let rec chunks n = function
  | [] -> []
  | l ->
      let rec take k acc rest =
        match rest with
        | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
        | _ -> (List.rev acc, rest)
      in
      let batch, rest = take n [] l in
      batch :: chunks n rest

(* Push entries to their (new) owners, batched; returns keys landed. *)
let push_entries t entries =
  let by_owner = Hashtbl.create 4 in
  let ring = Registry.ring t.registry in
  List.iter
    (fun ((key, _) as entry) ->
      match Ring.owner ring key with
      | Some owner ->
          Hashtbl.replace by_owner owner
            (entry :: (try Hashtbl.find by_owner owner with Not_found -> []))
      | None -> ())
    entries;
  Hashtbl.fold
    (fun owner entries landed ->
      List.fold_left
        (fun landed batch ->
          match forward t owner (Protocol.Transfer batch) with
          | Protocol.Transferred n ->
              Registry.mark_success t.registry owner;
              landed + n
          | _ -> landed
          | exception _ ->
              Registry.mark_failure t.registry owner;
              landed)
        landed
        (chunks handoff_batch (List.rev entries)))
    by_owner 0

let export_from t donor =
  match forward t donor (Protocol.Export handoff_export_limit) with
  | Protocol.Entries entries -> entries
  | _ -> []
  | exception _ ->
      Registry.mark_failure t.registry donor;
      []

(* A new member owns ring ranges that existing members served until
   now: ask each donor for its hottest entries and stream the ones the
   new ring assigns to the joiner.  Best-effort by design — a failed
   handoff costs cache misses, never correctness. *)
let handoff_to t joiner =
  let ring = Registry.ring t.registry in
  let donors =
    List.filter (fun a -> not (String.equal a joiner)) (Registry.up t.registry)
  in
  let moved =
    List.concat_map
      (fun donor ->
        export_from t donor
        |> List.filter (fun (key, _) ->
               match Ring.owner ring key with
               | Some owner -> String.equal owner joiner
               | None -> false))
      donors
  in
  let landed = push_entries t moved in
  if landed > 0 then begin
    Metrics.add t.handoff_keys landed;
    Log.info (fun m ->
        m "warm handoff: %d hot key(s) streamed to joiner %s" landed joiner)
  end

let admit t addr =
  Metrics.incr t.joins;
  if Registry.add_member t.registry addr then handoff_to t addr

(* Retirement pulls the leaver's hot entries while it is still
   reachable, drops it from the ring, then pushes what it held to the
   ranges' new owners. *)
let retire t addr =
  let rescued = export_from t addr in
  if Registry.remove_member t.registry addr then begin
    Metrics.incr t.leaves;
    let landed = push_entries t rescued in
    if landed > 0 then begin
      Metrics.add t.handoff_keys landed;
      Log.info (fun m ->
          m "warm handoff: %d hot key(s) rescued from leaver %s" landed addr)
    end
  end

let fan_compact t =
  List.fold_left
    (fun total addr ->
      match forward t addr Protocol.Compact with
      | Protocol.Compacted n -> total + n
      | _ -> total
      | exception _ -> total)
    0 (Registry.up t.registry)

(* ---------------- the front-end socket server ---------------- *)

(* The router's answer to one request; the connection loop around it
   is the worker's ({!Conn}), so both front ends speak the same two
   dialects and one slow shard does not head-of-line-block a
   pipelining client. *)
let handle t listener ?ctx = function
  | Protocol.Submit job -> route_job ?ctx t job
  | Protocol.Batch jobs -> route_batch ?ctx t jobs
  | Protocol.Stats -> merged_stats t
  | Protocol.Metrics -> Protocol.Metrics_text (metrics_text t)
  | Protocol.Trace -> Protocol.Trace_events (Tracer.events ())
  | Protocol.Trace_pull -> Protocol.Trace_reports (fleet_reports t)
  | Protocol.Join addr -> (
      match Transport.of_string_exn addr with
      | exception (Invalid_argument msg | Failure msg) ->
          Protocol.Error ("join: bad address: " ^ msg)
      | a ->
          let canonical = Transport.to_string a in
          if t.self_addr = Some canonical then
            Protocol.Error "join: the router cannot be its own backend"
          else begin
            (* The Ack goes out only after any warm handoff ran, so a
               joiner knows its cache is seeded once admitted. *)
            admit t canonical;
            Protocol.Ack
          end)
  | Protocol.Leave addr -> (
      match Transport.of_string_exn addr with
      | exception (Invalid_argument msg | Failure msg) ->
          Protocol.Error ("leave: bad address: " ^ msg)
      | a ->
          retire t (Transport.to_string a);
          Protocol.Ack)
  | Protocol.Compact -> Protocol.Compacted (fan_compact t)
  | Protocol.Export _ | Protocol.Transfer _ ->
      (* Handoff ops terminate at workers; the router only issues them. *)
      Protocol.Error "handoff ops are worker-facing"
  | Protocol.Shutdown ->
      Log.info (fun m -> m "router shutdown requested");
      Listener.stop listener;
      Protocol.Shutting_down

let serve ?vnodes ?down_after ?probe_interval_s ?probe_timeout_s
    ?request_timeout_s ?(max_connections = 256) ?(max_inflight = 32)
    ?(read_timeout_s = 30.) ?(drain_timeout_s = 5.) ?(trace = false)
    ~backends ~socket () =
  if max_connections < 1 then
    invalid_arg "Router.serve: max_connections must be >= 1";
  if max_inflight < 1 then
    invalid_arg "Router.serve: max_inflight must be >= 1";
  let addr = Transport.of_string_exn socket in
  if
    List.exists
      (fun b -> Transport.equal addr (Transport.of_string_exn b))
      backends
  then invalid_arg "Router.serve: the router socket cannot be its own backend";
  if trace then begin
    Tracer.reset ();
    Tracer.set_enabled true
  end;
  let t =
    create ?vnodes ?down_after ?probe_interval_s ?probe_timeout_s
      ?request_timeout_s backends
  in
  let listener = Listener.bind addr in
  let addr = Listener.addr listener in
  t.self_addr <- Some (Transport.to_string addr);
  Registry.start t.registry;
  let members = Registry.backends t.registry in
  Log.app (fun m ->
      m "ssg router listening on %s, fronting %d backend(s)%s"
        (Transport.to_string addr) (List.length members)
        (if members = [] then " (waiting for Join announcements)" else ""));
  Listener.run ~max_connections ~read_timeout_s ~drain_timeout_s listener
    ~refuse:(fun fd ->
      Protocol.write_reply_fd fd (Protocol.Error "router at connection limit"))
    (Conn.serve ~max_inflight ~handle:(handle t listener));
  Registry.stop t.registry;
  Listener.close listener;
  Log.app (fun m -> m "ssg router stopped")
