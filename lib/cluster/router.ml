let log_src = Logs.Src.create "ssg.cluster.router" ~doc:"cluster front end"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Metrics = Ssg_obs.Metrics
module Tracer = Ssg_obs.Tracer
module Transport = Ssg_net.Transport
module Listener = Ssg_net.Listener
open Ssg_engine

type t = {
  registry : Registry.t;
  request_timeout_s : float;
  links_lock : Mutex.t;  (* guards [links] and [stopped] *)
  links : (string, Client.t) Hashtbl.t;  (* one pipelined link per backend *)
  mutable stopped : bool;  (* set by [close_links]: no link is dialed after *)
  metrics : Metrics.t;
  routed : Metrics.counter;
  failovers : Metrics.counter;
  exhausted : Metrics.counter;
  markdowns : Metrics.counter;
  readmissions : Metrics.counter;
  joins : Metrics.counter;
  leaves : Metrics.counter;
  handoff_keys : Metrics.counter;
  (* Per-shard series, labeled by canonical backend address. *)
  shard_routed : Metrics.counter Metrics.family;
  shard_up : Metrics.gauge Metrics.family;
  shard_reporting : Metrics.gauge Metrics.family;
  mutable self_addr : string option;  (* set once serving, for Join guard *)
  hop_worker : Metrics.histogram;  (* router→worker exchange latency *)
}

let backends t = Registry.backends t.registry

(* The backend's link, dialed on first use and again once it has
   failed: a failed link is closed, never reused — its in-flight
   requests were already failed over.  The dial runs outside the lock,
   so a slow connect stalls only its caller; of two racing dials the
   loser's link is closed.  Links are only ever closed outside the
   lock, since failover takes it on a link's reader thread. *)
let link t addr =
  match
    Mutex.protect t.links_lock (fun () ->
        if t.stopped then failwith "router: stopped";
        Hashtbl.find_opt t.links addr)
  with
  | Some c when Client.alive c -> c
  | _ ->
      let fresh =
        Client.connect ~retries:0 ~deadline_s:t.request_timeout_s ~socket:addr
          ()
      in
      let winner, closed =
        Mutex.protect t.links_lock (fun () ->
            match Hashtbl.find_opt t.links addr with
            | _ when t.stopped -> (None, [ fresh ])
            | Some c when Client.alive c -> (Some c, [ fresh ])
            | stale ->
                Hashtbl.replace t.links addr fresh;
                (Some fresh, Option.to_list stale))
      in
      List.iter Client.close closed;
      match winner with Some c -> c | None -> failwith "router: stopped"

let close_links t =
  let all =
    Mutex.protect t.links_lock (fun () ->
        t.stopped <- true;
        let all = Hashtbl.fold (fun _ m acc -> m :: acc) t.links [] in
        Hashtbl.reset t.links;
        all)
  in
  List.iter Client.close all

(* One forwarded exchange over the backend's link: [k] gets the decoded
   reply, or why the exchange failed, exactly once — on the link's
   reader thread, or on this one when the link cannot take the request.
   No retries here (the router does its own failover instead); the
   link's deadline turns a request a mute backend swallowed into a
   failure after [request_timeout_s], not a hang.  Jobs feed the
   router→worker hop histogram; control exchanges (stats, metrics,
   trace pulls) do not — the hop family decomposes request latency,
   not management traffic. *)
let forward_cb ?ctx t addr request k =
  match link t addr with
  | exception Unix.Unix_error (e, _, _) -> k (Error (Unix.error_message e))
  | exception Failure msg -> k (Error msg)
  | c -> (
      match request with
      | Protocol.Submit _ ->
          let t0 = Unix.gettimeofday () in
          Client.request ?ctx c request (fun outcome ->
              Metrics.observe t.hop_worker
                (1000. *. (Unix.gettimeofday () -. t0));
              k outcome)
      | _ -> Client.request ?ctx c request k)

let forward t addr request = Ivar.wait (forward_cb t addr request)

let record_routed t addr =
  Registry.mark_success t.registry addr;
  Metrics.incr t.routed;
  Metrics.incr (Metrics.labeled t.shard_routed addr)

(* Route one job to its ring owner, failing over along the successor
   list; [reply] gets the answer exactly once, usually on the owner
   link's reader thread.  The job is routed by its key as sent and
   forwarded unparsed: the owner normalizes it on a miss.  A protocol
   [Error] reply is relayed without failover: it is deterministic (the
   lint front door, which also answers a run text that does not
   parse), not a shard failure.  [ctx] parents the [router.route] span
   under the caller's (the gateway's) span and hands the route span's
   own identity to the backend, making the worker's spans grandchildren
   of the edge request.  The span begins on the front connection's
   reader and ends where the answer arrives. *)
let route_job ?ctx t job reply =
  let key = Job.key job in
  (* A span argument: hashed again only when tracing is on. *)
  let key_hex () = Tracer.Str (Printf.sprintf "%Lx" (Ring.hash64 key)) in
  let fwd_ctx, finish =
    if Tracer.enabled () then
      let args = [ ("key", key_hex ()) ] in
      let child =
        match ctx with
        | Some c -> Some (Tracer.span_begin_ctx ~args ~ctx:c "router.route")
        | None ->
            Tracer.span_begin ~args "router.route";
            None
      in
      ( child,
        fun answer ->
          Tracer.span_end "router.route";
          reply answer )
    else
      (* Tracing off here: pass the caller's context through untouched
         so a tracing backend still parents under the edge span. *)
      (ctx, reply)
  in
  let rec go = function
    | [] ->
        Metrics.incr t.exhausted;
        finish (Protocol.Error "cluster: no live backend could serve the job")
    | addr :: rest ->
        forward_cb ?ctx:fwd_ctx t addr (Protocol.Submit job) (function
          | Ok ((Protocol.Completed _ | Protocol.Error _) as answer) ->
              record_routed t addr;
              finish answer
          | Ok _ -> failover addr rest "unexpected reply kind"
          | Error reason -> failover addr rest reason)
  and failover addr rest reason =
    Registry.mark_failure t.registry addr;
    Log.info (fun m ->
        m "forward to %s failed (%s), %s" addr reason
          (if rest = [] then "no shard left"
           else "failing over to the successor shard"));
    if rest <> [] then begin
      Metrics.incr t.failovers;
      if Tracer.enabled () then
        Tracer.instant "router.failover"
          ~args:[ ("key", key_hex ()); ("from", Tracer.Str addr) ]
    end;
    go rest
  in
  go (Registry.candidates t.registry key)

(* Fan [Stats] out to every configured backend (down ones included — a
   healed backend that the prober has not revisited yet still reports,
   and the success re-admits it). *)
let fan_stats t =
  backends t
  |> List.filter_map (fun addr ->
         match forward t addr Protocol.Stats with
         | Ok (Protocol.Stats_snapshot s) ->
             Registry.mark_success t.registry addr;
             Some (addr, s)
         | _ ->
             Registry.mark_failure t.registry addr;
             None)

let merged_stats t =
  match fan_stats t with
  | [] -> Protocol.Error "cluster: no backend reachable for stats"
  | reports ->
      Protocol.Stats_snapshot (Telemetry.merge (List.map snd reports))

(* Fleet trace pull: relay [Trace_pull] to every backend and prepend
   the router's own report. *)
let fleet_reports t =
  let backend_reports =
    backends t
    |> List.concat_map (fun addr ->
           match forward t addr Protocol.Trace_pull with
           | Ok (Protocol.Trace_reports reports) -> reports
           | _ -> [])
  in
  Tracer.report_here ~role:"router" () :: backend_reports

(* The cluster exposition: the router's registry, its per-shard gauges
   set from this scrape's stats fan-out, then the merged snapshot's
   ssg_cluster_* gauges when any backend answered.  Every member gets
   a routed series, at zero until a job lands there; a member that
   left loses all three series, even one a late [record_routed]
   recreated after its Leave. *)
let metrics_text t =
  let reports = fan_stats t in
  let members = backends t in
  let keep addr = List.mem addr members in
  Metrics.retain t.shard_routed ~keep;
  Metrics.retain t.shard_up ~keep;
  Metrics.retain t.shard_reporting ~keep;
  List.iter
    (fun addr ->
      let flag b = if b then 1. else 0. in
      ignore (Metrics.labeled t.shard_routed addr);
      Metrics.set_gauge
        (Metrics.labeled t.shard_up addr)
        (flag (Registry.is_up t.registry addr));
      Metrics.set_gauge
        (Metrics.labeled t.shard_reporting addr)
        (flag (List.mem_assoc addr reports)))
    members;
  Metrics.to_prometheus t.metrics
  ^ Metrics.to_prometheus (Telemetry.cluster_registry (List.map snd reports))

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
  {
    registry;
    request_timeout_s;
    links_lock = Mutex.create ();
    links = Hashtbl.create 8;
    stopped = false;
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
    leaves = counter "ssg_router_leaves_total" "Members retired via a Leave";
    handoff_keys =
      counter "ssg_router_handoff_keys_total"
        "Cache entries streamed to their new owner on ring changes";
    shard_routed =
      Metrics.counter_family metrics ~help:"Jobs routed to this shard"
        ~label:"backend" "ssg_router_shard_routed_total";
    shard_up =
      Metrics.gauge_family metrics ~help:"1 when this shard is in the ring"
        ~label:"backend" "ssg_router_shard_up";
    shard_reporting =
      Metrics.gauge_family metrics
        ~help:"1 when this shard answered the last stats fan-out"
        ~label:"backend" "ssg_router_shard_reporting";
    self_addr = None;
    hop_worker =
      Metrics.histogram metrics
        ~help:
          "Milliseconds the router waited on a backend exchange \
           (router\xe2\x86\x92worker hop)"
        "ssg_hop_router_worker_ms";
  }

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
          | Ok (Protocol.Transferred n) ->
              Registry.mark_success t.registry owner;
              landed + n
          | Ok _ -> landed
          | Error _ ->
              Registry.mark_failure t.registry owner;
              landed)
        landed
        (chunks handoff_batch (List.rev entries)))
    by_owner 0

let export_from t donor =
  match forward t donor (Protocol.Export handoff_export_limit) with
  | Ok (Protocol.Entries entries) -> entries
  | Ok _ -> []
  | Error _ ->
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
      | Ok (Protocol.Compacted n) -> total + n
      | _ -> total)
    0 (Registry.up t.registry)

(* ---------------- the front-end socket server ---------------- *)

(* The router's answer to one request; the connection loop around it
   is the worker's ({!Conn}), so both front ends speak the same
   protocol.  A job is answered from its backend link's reader
   ([Async]: no thread waits on it), so one slow shard does not
   head-of-line-block a pipelining client; fan-outs and membership
   changes wait on a replier thread. *)
let handle t listener ?ctx request =
  let open Conn in
  match request with
  | Protocol.Submit job -> Async (route_job ?ctx t job)
  | Protocol.Stats -> Later (fun () -> merged_stats t)
  | Protocol.Metrics -> Later (fun () -> Protocol.Metrics_text (metrics_text t))
  | Protocol.Trace_pull ->
      Later (fun () -> Protocol.Trace_reports (fleet_reports t))
  | Protocol.Join addr ->
      Later
        (fun () ->
          match Transport.of_string_exn addr with
          | exception (Invalid_argument msg | Failure msg) ->
              Protocol.Error ("join: bad address: " ^ msg)
          | a ->
              let canonical = Transport.to_string a in
              if t.self_addr = Some canonical then
                Protocol.Error "join: the router cannot be its own backend"
              else begin
                (* The Ack goes out only after any warm handoff ran, so
                   a joiner knows its cache is seeded once admitted. *)
                admit t canonical;
                Protocol.Ack
              end)
  | Protocol.Leave addr ->
      Later
        (fun () ->
          match Transport.of_string_exn addr with
          | exception (Invalid_argument msg | Failure msg) ->
              Protocol.Error ("leave: bad address: " ^ msg)
          | a ->
              retire t (Transport.to_string a);
              Protocol.Ack)
  | Protocol.Compact -> Later (fun () -> Protocol.Compacted (fan_compact t))
  | Protocol.Export _ | Protocol.Transfer _ ->
      (* Handoff ops terminate at workers; the router only issues them. *)
      Now (Protocol.Error "handoff ops are worker-facing")
  | Protocol.Shutdown ->
      Log.info (fun m -> m "router shutdown requested");
      Listener.stop listener;
      Now Protocol.Shutting_down

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
  close_links t;
  Listener.close listener;
  Log.app (fun m -> m "ssg router stopped")
