let log_src = Logs.Src.create "ssg.store" ~doc:"durable result store"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Metrics = Ssg_obs.Metrics
module Tracer = Ssg_obs.Tracer

type sync_policy = Always | Group of int | Never

let sync_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | s -> (
      match String.split_on_char ':' s with
      | [ "group"; n ] -> (
          match int_of_string_opt (String.trim n) with
          | Some n when n >= 1 -> Ok (Group n)
          | _ -> Error (Printf.sprintf "bad group commit size %S" n))
      | _ ->
          Error
            (Printf.sprintf "bad sync policy %S (always | never | group:N)" s))

let sync_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Group n -> Printf.sprintf "group:%d" n

let fsync_every_of = function
  | Always -> 1
  | Never -> 0
  | Group n ->
      if n < 1 then invalid_arg "Store: group commit size must be >= 1";
      n

type t = {
  dir : string;
  fsync_every : int;
  compact_bytes : int;
  lock : Mutex.t;
  mutable gen : int;
  mutable journal : Journal.t;
  mutable image_bytes : int;
      (* the image at the head of the journal; 0 after a boot, since
         nothing on disk marks where an image ends *)
  mutable recovered : (string * string) list;  (* file order; consumed once *)
  mutable fsyncs_seen : int;
  metrics : Metrics.t;
  m_replayed : Metrics.counter;
  m_appends : Metrics.counter;
  m_fsyncs : Metrics.counter;
  m_compactions : Metrics.counter;
  m_torn : Metrics.counter;
  m_journal_bytes : Metrics.gauge;
  m_generation : Metrics.gauge;
}

let journal_name gen = Printf.sprintf "journal-%06d.log" gen
let journal_path dir gen = Filename.concat dir (journal_name gen)

let generation_of name = Scanf.sscanf_opt name "journal-%u.log%!" Fun.id

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let remove path = try Sys.remove path with Sys_error _ -> ()

(* The live generation is the highest-numbered journal; only a crash
   mid-compaction leaves another journal-* file beside it (the
   generation it replaced, or a temp image never renamed), and those
   are deleted. *)
let live_generation dir =
  let names =
    Sys.readdir dir |> Array.to_list
    |> List.filter (String.starts_with ~prefix:"journal-")
  in
  let gen = List.filter_map generation_of names |> List.fold_left max 0 in
  List.iter
    (fun name ->
      if name <> journal_name gen then remove (Filename.concat dir name))
    names;
  gen

let open_ ?(sync = Group 8) ?(compact_bytes = 4 * 1024 * 1024) ~dir () =
  if compact_bytes < 1 then invalid_arg "Store.open_: compact_bytes must be >= 1";
  let fsync_every = fsync_every_of sync in
  mkdir_p dir;
  let gen = live_generation dir in
  let recovered = ref [] in
  let recover () =
    Journal.recover (journal_path dir gen) ~f:(fun ~key ~value ->
        recovered := (key, value) :: !recovered)
  in
  let r =
    if Tracer.enabled () then Tracer.with_span "store.replay" recover
    else recover ()
  in
  let journal = Journal.open_append ~fsync_every (journal_path dir gen) in
  let metrics = Metrics.create () in
  let counter name help = Metrics.counter metrics ~help name in
  let t =
    {
      dir;
      fsync_every;
      compact_bytes;
      lock = Mutex.create ();
      gen;
      journal;
      image_bytes = 0;
      recovered = List.rev !recovered;
      fsyncs_seen = 0;
      metrics;
      m_replayed =
        counter "ssg_store_replayed_total"
          "Records recovered from the snapshot and journal at boot";
      m_appends =
        counter "ssg_store_appends_total" "Records appended to the journal";
      m_fsyncs = counter "ssg_store_fsyncs_total" "Journal fsync calls";
      m_compactions =
        counter "ssg_store_compactions_total"
          "Snapshot compactions (generation rolls)";
      m_torn =
        counter "ssg_store_torn_tail_recoveries_total"
          "Torn tails recovered (longest valid prefix kept)";
      m_journal_bytes =
        Metrics.gauge metrics ~help:"Current journal size in bytes"
          "ssg_store_journal_bytes";
      m_generation =
        Metrics.gauge metrics ~help:"Current store generation"
          "ssg_store_generation";
    }
  in
  Metrics.add t.m_replayed r.Record.records;
  if r.Record.torn then Metrics.incr t.m_torn;
  Metrics.set_gauge t.m_journal_bytes (float_of_int (Journal.bytes journal));
  Metrics.set_gauge t.m_generation (float_of_int gen);
  Log.info (fun m ->
      m "store %s: generation %d, %d record(s) recovered%s" dir gen
        r.Record.records
        (if r.Record.torn then ", torn tail truncated" else ""));
  t

let dir t = t.dir
let generation t = t.gen
let replayed_records t = Metrics.counter_value t.m_replayed
let torn_recoveries t = Metrics.counter_value t.m_torn
let journal_bytes t = Journal.bytes t.journal - t.image_bytes
let wedged t = Journal.wedged t.journal
let metrics t = t.metrics

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let replay t f =
  let entries = locked t (fun () ->
      let e = t.recovered in
      t.recovered <- [];
      e)
  in
  List.iter (fun (key, value) -> f ~key ~value) entries;
  List.length entries

(* Mirror the journal's fsync count into the registry as a delta —
   appends may group-commit, so one append is zero or one fsync. *)
let sync_metrics_unlocked t =
  let fs = Journal.fsyncs t.journal in
  if fs > t.fsyncs_seen then begin
    Metrics.add t.m_fsyncs (fs - t.fsyncs_seen);
    t.fsyncs_seen <- fs
  end;
  Metrics.set_gauge t.m_journal_bytes (float_of_int (journal_bytes t))

let append ?(torn = false) t ~key ~value =
  let go () =
    locked t (fun () ->
        let ok = Journal.append ~torn t.journal ~key ~value in
        if ok then Metrics.incr t.m_appends;
        sync_metrics_unlocked t;
        ok)
  in
  if Tracer.enabled () then
    Tracer.with_span
      ~args:[ ("bytes", Tracer.Int (String.length key + String.length value)) ]
      "store.append" go
  else go ()

let should_compact t = (not (wedged t)) && journal_bytes t > t.compact_bytes

let compact t ~entries =
  let go () =
    locked t (fun () ->
        if Journal.wedged t.journal then 0
        else begin
          let gen' = t.gen + 1 in
          Journal.write_image (journal_path t.dir gen') entries;
          Journal.close t.journal;
          remove (journal_path t.dir t.gen);
          t.journal <-
            Journal.open_append ~fsync_every:t.fsync_every
              (journal_path t.dir gen');
          t.image_bytes <- Journal.bytes t.journal;
          t.fsyncs_seen <- 0;
          t.gen <- gen';
          Metrics.incr t.m_compactions;
          Metrics.set_gauge t.m_generation (float_of_int gen');
          Metrics.set_gauge t.m_journal_bytes 0.;
          let n = List.length entries in
          Log.info (fun m ->
              m "compacted to generation %d: %d record(s) in the image" gen' n);
          n
        end)
  in
  if Tracer.enabled () then
    Tracer.with_span
      ~args:[ ("entries", Tracer.Int (List.length entries)) ]
      "store.compact" go
  else go ()

let close t = locked t (fun () -> Journal.close t.journal)
