(* Tests for the durable result store: CRC-32 vectors, record framing
   (round-trip + one-byte-mutation qcheck fuzz), journal group commit
   and torn-tail recovery, the atomic compaction image, generation
   compaction, every crash state of a generation file (each byte cut
   of an image plus appends, each cut of a temp image beside a live
   generation, a renamed image beside the generation it replaces) and
   the older CURRENT + snapshot layout, the outcome string codec,
   engine warm boot, and an end-to-end crash-recovery run: a server
   with an injected torn write is killed and restarted, and the longest
   valid journal prefix must come back as cache hits. *)

open Ssg_util
open Ssg_adversary
open Ssg_engine
open Ssg_store

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ssg-store-test-%d-%d" (Unix.getpid ()) !dir_counter)

let fresh_path name =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ssg-store-test-%d-%d-%s" (Unix.getpid ()) !dir_counter name)

(* --- Crc32 --- *)

let test_crc32_vectors () =
  (* The IEEE 802.3 check value: crc32("123456789") = 0xCBF43926. *)
  check "check value" true (Crc32.digest "123456789" = 0xCBF43926l);
  check "empty" true (Crc32.digest "" = 0l);
  let a = "stable skeleton" and b = " graphs" in
  check "update continues a digest" true
    (Crc32.update (Crc32.digest a) b 0 (String.length b)
    = Crc32.digest (a ^ b));
  check "ranged digest" true
    (Crc32.digest ~pos:2 ~len:3 "xx123xx" = Crc32.digest "123")

(* --- Record --- *)

let test_record_roundtrip () =
  let cases =
    [
      ("key", "value");
      ("", "");
      ("k", "");
      ("", "v");
      ("bin\000\255key", String.init 300 (fun i -> Char.chr (i mod 256)));
    ]
  in
  List.iter
    (fun (key, value) ->
      check "round-trip" true (Record.unframe (Record.frame ~key ~value) = (key, value)))
    cases;
  check "oversized record refused" true
    (try
       ignore (Record.frame ~key:"k" ~value:(String.make (Record.max_record_bytes + 1) 'x'));
       false
     with Failure _ -> true)

let test_record_scan_longest_prefix () =
  let r1 = Record.frame ~key:"a" ~value:"1" in
  let r2 = Record.frame ~key:"b" ~value:"22" in
  let r3 = Record.frame ~key:"c" ~value:"333" in
  let torn_tail = String.sub r1 0 (String.length r1 / 2) in
  let image = r1 ^ r2 ^ r3 ^ torn_tail in
  let seen = ref [] in
  let r = Record.scan image ~f:(fun ~key ~value -> seen := (key, value) :: !seen) in
  check_int "valid records delivered" 3 r.Record.records;
  check_int "valid_bytes is the clean prefix"
    (String.length r1 + String.length r2 + String.length r3)
    r.Record.valid_bytes;
  check "torn flagged" true r.Record.torn;
  check "records in file order" true
    (List.rev !seen = [ ("a", "1"); ("b", "22"); ("c", "333") ]);
  (* A clean image reports no tear; garbage-only is an empty torn walk. *)
  let clean = Record.scan (r1 ^ r2) ~f:(fun ~key:_ ~value:_ -> ()) in
  check "clean image not torn" false clean.Record.torn;
  let garbage = Record.scan "not a record" ~f:(fun ~key:_ ~value:_ -> ()) in
  check_int "garbage yields nothing" 0 garbage.Record.records;
  check "garbage is torn" true garbage.Record.torn

(* Satellite: the decoder contract under single-byte corruption.  CRC-32
   detects every one-byte error, so [unframe] must raise [Failure] — and
   only [Failure] — for any one-byte mutation of a framed record. *)
let prop_record_mutation_fuzz =
  QCheck2.Test.make ~count:300
    ~name:"store record: any one-byte mutation is rejected with Failure"
    QCheck2.Gen.(int_bound 1000000)
    (fun seed ->
      let rng = Rng.of_int seed in
      let gen_str n = String.init (Rng.int rng n) (fun _ -> Char.chr (Rng.int rng 256)) in
      let key = gen_str 20 and value = gen_str 64 in
      let framed = Record.frame ~key ~value in
      let b = Bytes.of_string framed in
      let pos = Rng.int rng (Bytes.length b) in
      let delta = 1 + Rng.int rng 255 in
      Bytes.set b pos (Char.chr ((Char.code (Bytes.get b pos) + delta) land 0xff));
      match Record.unframe (Bytes.to_string b) with
      | _ -> false (* a corrupt record must never decode *)
      | exception Failure _ -> true
      | exception _ -> false)

(* --- Journal --- *)

let test_journal_roundtrip_and_group_commit () =
  let path = fresh_path "journal.log" in
  let j = Journal.open_append ~fsync_every:2 path in
  for i = 1 to 4 do
    check "append accepted" true
      (Journal.append j ~key:(Printf.sprintf "k%d" i) ~value:(Printf.sprintf "v%d" i))
  done;
  check_int "group commit: one fsync per 2 records" 2 (Journal.fsyncs j);
  Journal.close j;
  let seen = ref [] in
  let r = Journal.recover path ~f:(fun ~key ~value -> seen := (key, value) :: !seen) in
  check_int "all records recovered" 4 r.Record.records;
  check "no tear" false r.Record.torn;
  check "append order preserved" true
    (List.rev !seen = [ ("k1", "v1"); ("k2", "v2"); ("k3", "v3"); ("k4", "v4") ]);
  Sys.remove path;
  (* fsync_every 0: the OS decides, no fsync issued by us. *)
  let path = fresh_path "journal-nosync.log" in
  let j = Journal.open_append ~fsync_every:0 path in
  ignore (Journal.append j ~key:"k" ~value:"v");
  check_int "never-sync issues no fsync on append" 0 (Journal.fsyncs j);
  Journal.close j;
  Sys.remove path

let test_journal_torn_write_wedges_and_recovers () =
  let path = fresh_path "journal-torn.log" in
  let j = Journal.open_append ~fsync_every:1 path in
  check "first append lands" true (Journal.append j ~key:"a" ~value:"1");
  check "second append lands" true (Journal.append j ~key:"b" ~value:"2");
  let bytes_before = Journal.bytes j in
  check "torn append reports failure" false
    (Journal.append ~torn:true j ~key:"c" ~value:"3");
  check "handle wedged" true (Journal.wedged j);
  check "torn tail on disk" true (Journal.bytes j > bytes_before);
  check "later appends dropped" false (Journal.append j ~key:"d" ~value:"4");
  check_int "dropped append wrote nothing"
    (Journal.bytes j)
    ((Unix.stat path).Unix.st_size);
  Journal.close j;
  let seen = ref 0 in
  let r = Journal.recover path ~f:(fun ~key:_ ~value:_ -> incr seen) in
  check_int "longest valid prefix recovered" 2 r.Record.records;
  check "tear detected" true r.Record.torn;
  check_int "callback saw the prefix" 2 !seen;
  check_int "file truncated to the valid prefix" r.Record.valid_bytes
    ((Unix.stat path).Unix.st_size);
  (* Second recovery sees a clean log. *)
  let r2 = Journal.recover path ~f:(fun ~key:_ ~value:_ -> ()) in
  check "clean after truncation" false r2.Record.torn;
  check_int "same records" 2 r2.Record.records;
  Sys.remove path

(* --- Compaction image --- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let test_image_roundtrip () =
  let path = fresh_path "image.log" in
  let entries = List.init 10 (fun i -> (Printf.sprintf "k%d" i, String.make i 'v')) in
  Journal.write_image path entries;
  check "no temp file left behind" false (Sys.file_exists (path ^ ".tmp"));
  let seen = ref [] in
  let r = Journal.recover path ~f:(fun ~key ~value -> seen := (key, value) :: !seen) in
  check_int "read count" 10 r.Record.records;
  check "list order preserved" true (List.rev !seen = entries);
  (* Rewrite replaces wholesale. *)
  Journal.write_image path [ ("only", "one") ];
  let again = ref [] in
  ignore (Journal.recover path ~f:(fun ~key ~value -> again := (key, value) :: !again));
  check "atomic replace" true (!again = [ ("only", "one") ]);
  check "no temp file left after the replace" false
    (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path;
  let missing = Journal.recover path ~f:(fun ~key:_ ~value:_ -> ()) in
  check_int "missing file is an empty image" 0 missing.Record.records;
  check "missing file is not torn" false missing.Record.torn

(* --- Store --- *)

let test_sync_of_string () =
  check "always" true (Store.sync_of_string "always" = Ok Store.Always);
  check "never" true (Store.sync_of_string "Never" = Ok Store.Never);
  check "group" true (Store.sync_of_string "group:8" = Ok (Store.Group 8));
  check "group 1" true (Store.sync_of_string "group:1" = Ok (Store.Group 1));
  check "group 0 refused" true (Result.is_error (Store.sync_of_string "group:0"));
  check "garbage refused" true (Result.is_error (Store.sync_of_string "sometimes"));
  List.iter
    (fun p -> check "round-trip" true
        (Store.sync_of_string (Store.sync_to_string p) = Ok p))
    [ Store.Always; Store.Never; Store.Group 7 ]

let test_store_warm_boot () =
  let dir = fresh_dir () in
  let s = Store.open_ ~sync:Store.Always ~dir () in
  check_int "fresh store replays nothing" 0 (Store.replayed_records s);
  check_int "generation 0" 0 (Store.generation s);
  for i = 1 to 3 do
    check "append" true
      (Store.append s ~key:(Printf.sprintf "k%d" i) ~value:(Printf.sprintf "v%d" i))
  done;
  Store.close s;
  let s2 = Store.open_ ~dir () in
  check_int "warm boot recovers the journal" 3 (Store.replayed_records s2);
  check_int "no torn tails" 0 (Store.torn_recoveries s2);
  let seen = ref [] in
  check_int "replay delivers and counts" 3
    (Store.replay s2 (fun ~key ~value -> seen := (key, value) :: !seen));
  check "file order" true
    (List.rev !seen = [ ("k1", "v1"); ("k2", "v2"); ("k3", "v3") ]);
  check_int "replay consumes" 0 (Store.replay s2 (fun ~key:_ ~value:_ -> ()));
  Store.close s2

let test_store_torn_tail_recovery () =
  let dir = fresh_dir () in
  let s = Store.open_ ~sync:Store.Always ~dir () in
  ignore (Store.append s ~key:"a" ~value:"1");
  ignore (Store.append s ~key:"b" ~value:"2");
  check "torn append fails" false (Store.append ~torn:true s ~key:"c" ~value:"3");
  check "store wedged" true (Store.wedged s);
  check "wedged store refuses compaction" true (Store.compact s ~entries:[] = 0);
  check "wedged store never wants compaction" false (Store.should_compact s);
  Store.close s;
  let s2 = Store.open_ ~dir () in
  check_int "prefix recovered" 2 (Store.replayed_records s2);
  check_int "one torn tail" 1 (Store.torn_recoveries s2);
  check "recovered store is not wedged" false (Store.wedged s2);
  check "appends work again" true (Store.append s2 ~key:"c" ~value:"3");
  Store.close s2;
  let s3 = Store.open_ ~dir () in
  check_int "clean reboot after repair" 3 (Store.replayed_records s3);
  check_int "no new tear" 0 (Store.torn_recoveries s3);
  Store.close s3

let dir_names dir = Sys.readdir dir |> Array.to_list |> List.sort compare

let test_store_compaction_rolls_generation () =
  let dir = fresh_dir () in
  let s = Store.open_ ~sync:Store.Never ~compact_bytes:64 ~dir () in
  let rec fill i =
    if not (Store.should_compact s) then begin
      ignore (Store.append s ~key:(Printf.sprintf "key-%d" i) ~value:(String.make 16 'v'));
      fill (i + 1)
    end
  in
  fill 0;
  check "journal outgrew the threshold" true (Store.journal_bytes s > 64);
  let entries = [ ("hot", "1"); ("warm", "2") ] in
  check_int "compaction returns the image size" 2 (Store.compact s ~entries);
  check_int "generation rolled" 1 (Store.generation s);
  check_int "journal reset" 0 (Store.journal_bytes s);
  check "one file per generation" true
    (dir_names dir = [ "journal-000001.log" ]);
  ignore (Store.append s ~key:"fresh" ~value:"3");
  check_int "only the appends count"
    (String.length (Record.frame ~key:"fresh" ~value:"3"))
    (Store.journal_bytes s);
  Store.close s;
  let s2 = Store.open_ ~dir () in
  check_int "boot from the highest journal" 1 (Store.generation s2);
  check_int "after a restart the whole file counts"
    (Unix.stat (Filename.concat dir "journal-000001.log")).Unix.st_size
    (Store.journal_bytes s2);
  let seen = ref [] in
  ignore (Store.replay s2 (fun ~key ~value -> seen := (key, value) :: !seen));
  check "image then appends, file order" true
    (List.rev !seen = [ ("hot", "1"); ("warm", "2"); ("fresh", "3") ]);
  Store.close s2

(* --- Crash states of the one-file layout ---

   Every state a crash can leave is enumerated on real files: a
   generation file cut at any byte (a torn append, or an image torn by
   a filesystem without atomic rename), a compaction that died before
   its rename (a temp image cut at any byte beside the live
   generation), and one that died after it (the renamed image beside
   the generation it replaces). *)

let clear_dir dir =
  List.iter (fun name -> Sys.remove (Filename.concat dir name)) (dir_names dir)

let boot dir =
  let s = Store.open_ ~sync:Store.Never ~dir () in
  let seen = ref [] in
  ignore (Store.replay s (fun ~key ~value -> seen := (key, value) :: !seen));
  (s, List.rev !seen)

let image_entries = [ ("i0", "a"); ("i1", "bb") ]
let append_entries = [ ("a0", "ccc"); ("a1", "d") ]
let frames entries =
  List.map (fun (key, value) -> Record.frame ~key ~value) entries

let append_all s entries =
  List.iter (fun (key, value) -> ignore (Store.append s ~key ~value)) entries

let test_crash_byte_cuts () =
  let dir = fresh_dir () in
  let s = Store.open_ ~sync:Store.Never ~dir () in
  ignore (Store.compact s ~entries:image_entries);
  append_all s append_entries;
  Store.close s;
  let name = "journal-000001.log" in
  let file = read_file (Filename.concat dir name) in
  let records = image_entries @ append_entries in
  check "the file is the image then the appends" true
    (file = String.concat "" (frames records));
  (* Where each record's frame ends, in file order. *)
  let _, ends =
    List.fold_left_map
      (fun pos frame -> let e = pos + String.length frame in (e, e))
      0 (frames records)
  in
  for cut = 0 to String.length file do
    clear_dir dir;
    write_file (Filename.concat dir name) (String.sub file 0 cut);
    let whole = List.length (List.filter (fun e -> e <= cut) ends) in
    let expected = List.filteri (fun i _ -> i < whole) records in
    let what = Printf.sprintf "cut at byte %d: " cut in
    let s, seen = boot dir in
    check_int (what ^ "generation") 1 (Store.generation s);
    check (what ^ "the records whose frames end at or before the cut") true
      (seen = expected);
    check_int (what ^ "one torn tail exactly when the cut is inside a frame")
      (if cut = 0 || List.mem cut ends then 0 else 1)
      (Store.torn_recoveries s);
    check (what ^ "appends after recovery") true
      (Store.append s ~key:"next" ~value:"e");
    Store.close s;
    let s, seen = boot dir in
    check (what ^ "the append follows the recovered prefix") true
      (seen = expected @ [ ("next", "e") ]);
    check_int (what ^ "no tear after the repair") 0 (Store.torn_recoveries s);
    Store.close s
  done;
  clear_dir dir;
  Sys.rmdir dir

let test_crash_compaction_states () =
  let dir = fresh_dir () in
  let s = Store.open_ ~sync:Store.Never ~dir () in
  append_all s append_entries;
  Store.close s;
  let live = read_file (Filename.concat dir "journal-000000.log") in
  let image_path = fresh_path "image.log" in
  Journal.write_image image_path image_entries;
  let image = read_file image_path in
  Sys.remove image_path;
  let set_up name contents =
    clear_dir dir;
    write_file (Filename.concat dir "journal-000000.log") live;
    write_file (Filename.concat dir name) contents
  in
  (* Died before the rename: generation 0 stays live, whole. *)
  for cut = 0 to String.length image do
    set_up "journal-000001.log.tmp" (String.sub image 0 cut);
    let what = Printf.sprintf "temp image cut at byte %d: " cut in
    let s, seen = boot dir in
    check_int (what ^ "the complete generation") 0 (Store.generation s);
    check (what ^ "all of its records") true (seen = append_entries);
    check_int (what ^ "no tear") 0 (Store.torn_recoveries s);
    Store.close s;
    check (what ^ "no temp file left") true
      (dir_names dir = [ "journal-000000.log" ])
  done;
  (* Died after the rename: the image is the live generation. *)
  set_up "journal-000001.log" image;
  let s, seen = boot dir in
  check_int "renamed image: the next generation" 1 (Store.generation s);
  check "renamed image: only the image" true (seen = image_entries);
  Store.close s;
  check "renamed image: the replaced generation is removed" true
    (dir_names dir = [ "journal-000001.log" ]);
  clear_dir dir;
  Sys.rmdir dir

(* A directory in the older layout (a CURRENT pointer and a snapshot
   file beside the journal) boots: its journal replays, and the
   snapshot and CURRENT are not read (the store is a cache; what the
   snapshot held is recomputed on demand). *)
let test_old_layout_boots () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  write_file (Filename.concat dir "CURRENT") "0\n";
  write_file
    (Filename.concat dir "snapshot-000000.ssg")
    (String.concat "" (frames image_entries));
  write_file
    (Filename.concat dir "journal-000000.log")
    (String.concat "" (frames append_entries));
  let s, seen = boot dir in
  check_int "generation 0" 0 (Store.generation s);
  check "the journal replays" true (seen = append_entries);
  check_int "no tear" 0 (Store.torn_recoveries s);
  Store.close s;
  clear_dir dir;
  Sys.rmdir dir

(* --- Outcome string codec --- *)

let sample_outcome () : Job.outcome =
  {
    Job.algorithm = "kset";
    n = 4;
    min_k = 2;
    rounds_run = 7;
    decisions = [| Some (1, 3); None; Some (2, 0); Some (7, 1) |];
    distinct_decisions = 3;
    messages_sent = 120;
    messages_delivered = 118;
    bits_sent = 99456;
    violations = [ "agreement: 3 > 2" ];
  }

let test_outcome_codec () =
  let o = sample_outcome () in
  let s = Protocol.outcome_to_string o in
  check "round-trip" true (Protocol.outcome_of_string s = o);
  check "trailing bytes rejected" true
    (try ignore (Protocol.outcome_of_string (s ^ "x")); false
     with Failure _ -> true);
  check "truncation rejected" true
    (try ignore (Protocol.outcome_of_string (String.sub s 0 (String.length s - 1))); false
     with Failure _ -> true);
  check "garbage rejected" true
    (try ignore (Protocol.outcome_of_string "not an outcome"); false
     with Failure _ -> true)

let test_faults_torn_write_spec () =
  match Faults.of_spec "torn-write:3" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      check "round-trippable" true (Faults.spec plan = "torn-write:3");
      let fates = List.init 6 (fun _ -> Faults.on_append plan) in
      check "fires on exactly every 3rd append" true
        (fates
        = [ Faults.Write; Faults.Write; Faults.Torn;
            Faults.Write; Faults.Write; Faults.Torn ])

(* --- Engine warm boot --- *)

let sample_adv ?(seed = 11) ?(n = 6) () =
  Build.block_sources (Rng.of_int seed) ~n ~k:2 ~prefix_len:1 ()

let prom_value text name =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.sub line 0 i = name ->
             float_of_string_opt
               (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> None)

let test_engine_warm_boot () =
  let dir = fresh_dir () in
  let jobs = List.init 3 (fun i -> Job.make ~k:2 (sample_adv ~seed:i ())) in
  let store = Store.open_ ~sync:Store.Always ~dir () in
  let engine = Engine.create ~workers:2 ~store () in
  let first = List.map Service.completed (Service.run_all engine jobs) in
  check "all computed fresh" true
    (List.for_all (fun c -> Result.is_ok c.Job.result && not c.Job.cached) first);
  Engine.shutdown engine;
  (* Cold process, same directory: the cache must come back pre-warmed. *)
  let store2 = Store.open_ ~dir () in
  check_int "journal replayed" 3 (Store.replayed_records store2);
  let engine2 = Engine.create ~workers:2 ~store:store2 () in
  let again = List.map Service.completed (Service.run_all engine2 jobs) in
  check "warm boot serves every job from cache" true
    (List.for_all (fun c -> c.Job.cached) again);
  check "results identical across the restart" true
    (List.for_all2 (fun a b -> a.Job.result = b.Job.result) first again);
  let prom = Engine.prometheus engine2 in
  check "store series spliced into the exposition" true
    (prom_value prom "ssg_store_replayed_total" = Some 3.);
  (* Explicit compaction snapshots the live cache and rolls the generation. *)
  check_int "compaction snapshots the cache" 3 (Engine.compact engine2);
  check_int "generation rolled" 1 (Store.generation store2);
  Engine.shutdown engine2;
  let store3 = Store.open_ ~dir () in
  check_int "snapshot carries the records" 3 (Store.replayed_records store3);
  Store.close store3

(* An entry imported while its key is in flight is left to the running
   job: [import] neither counts nor journals it, and the job journals
   its outcome once. *)
let test_import_leaves_in_flight_key () =
  let dir = fresh_dir () in
  let faults = Faults.create ~slow_every:1 ~slow_s:0.3 () in
  let store = Store.open_ ~sync:Store.Always ~dir () in
  let engine = Engine.create ~workers:1 ~faults ~store () in
  let job = Job.make ~k:2 (sample_adv ~seed:77 ()) in
  let entry =
    (Job.key job, Protocol.outcome_to_string (Job.execute job))
  in
  let ticket = Engine.submit engine job in
  check_int "nothing imported while the job runs" 0
    (Engine.import engine [ entry ]);
  let completion = Service.completed (Engine.await engine ticket) in
  check "the job computed its own outcome" false completion.Job.cached;
  check "one append for the key" true
    (prom_value (Engine.prometheus engine) "ssg_store_appends_total" = Some 1.);
  Engine.shutdown engine

(* --- Crash recovery end to end ---

   A server with [torn-write:3] injected and a persist directory: the
   third fresh outcome's append is torn mid-record and wedges the
   journal (simulating a writer killed mid-write), so of 5 completed
   jobs only the first 2 reach the platter.  Restarting over the same
   directory must recover exactly that longest valid prefix — the
   first 2 jobs answer as cache hits, the rest recompute — and the
   torn-tail recovery must show up in the Prometheus exposition. *)

let test_server_crash_recovery () =
  let dir = fresh_dir () in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ssgd-store-test-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists socket then Sys.remove socket;
  let jobs = List.init 5 (fun i -> Job.make ~k:2 (sample_adv ~seed:(100 + i) ())) in
  let faults =
    match Faults.of_spec "torn-write:3" with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  (* Life 1: one worker so journal appends happen in submission order. *)
  let server1 =
    Thread.create
      (fun () ->
        Server.serve ~workers:1 ~queue_capacity:16 ~cache_capacity:64 ~faults
          ~persist:dir ~persist_sync:Store.Always ~socket ())
      ()
  in
  let c = Service.connect socket in
  List.iter
    (fun job ->
      let completion = Client.submit c job in
      check "job completed despite the torn journal" true
        (Result.is_ok completion.Job.result))
    jobs;
  Client.shutdown c;
  Client.close c;
  Thread.join server1;
  (* Life 2: same directory, no faults — recover and serve. *)
  let server2 =
    Thread.create
      (fun () ->
        Server.serve ~workers:1 ~queue_capacity:16 ~cache_capacity:64
          ~persist:dir ~socket ())
      ()
  in
  let c = Service.connect socket in
  let completions = List.map (Client.submit c) jobs in
  let cached = List.map (fun x -> x.Job.cached) completions in
  check "longest valid prefix answers from cache" true
    (List.filteri (fun i _ -> i < 2) cached = [ true; true ]);
  check "torn and wedged-out jobs recompute" true
    (List.filteri (fun i _ -> i >= 2) cached = [ false; false; false ]);
  let prom = Client.metrics_text c in
  check "replayed records exported" true
    (prom_value prom "ssg_store_replayed_total" = Some 2.);
  check "torn-tail recovery exported" true
    (prom_value prom "ssg_store_torn_tail_recoveries_total" = Some 1.);
  Client.shutdown c;
  Client.close c;
  Thread.join server2;
  (* Life 3: everything recomputed in life 2 was journaled again — a
     third boot serves all 5 from the platter. *)
  let server3 =
    Thread.create
      (fun () ->
        Server.serve ~workers:1 ~queue_capacity:16 ~cache_capacity:64
          ~persist:dir ~socket ())
      ()
  in
  let c = Service.connect socket in
  let completions = List.map (Client.submit c) jobs in
  check "full fleet of hits after a clean life" true
    (List.for_all (fun x -> x.Job.cached) completions);
  Client.shutdown c;
  Client.close c;
  Thread.join server3

(* --- A second server on a live socket leaves the store alone ---

   A second [serve --persist] aimed at a live server's socket must fail
   at bind, before its store recovery could truncate the torn tail of
   the journal the live server is appending to: every store file stays
   byte-identical. *)

let dir_image dir =
  dir_names dir
  |> List.map (fun name -> (name, read_file (Filename.concat dir name)))

let test_second_server_leaves_store_alone () =
  let dir = fresh_dir () in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ssgd-store-twin-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists socket then Sys.remove socket;
  let faults = Faults.create ~torn_write_every:2 () in
  let live =
    Thread.create
      (fun () ->
        Server.serve ~workers:1 ~queue_capacity:16 ~cache_capacity:64 ~faults
          ~persist:dir ~persist_sync:Store.Always ~socket ())
      ()
  in
  let c = Service.connect socket in
  List.iter
    (fun seed -> ignore (Client.submit c (Job.make ~k:2 (sample_adv ~seed ()))))
    [ 200; 201 ];
  let before = dir_image dir in
  (match Server.serve ~workers:1 ~persist:dir ~socket () with
  | () -> Alcotest.fail "a second server must not bind a live socket"
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
  check "store directory byte-identical" true (dir_image dir = before);
  Client.shutdown c;
  Client.close c;
  Thread.join live;
  (* The torn tail is still there for the live server's successor to
     recover. *)
  let s = Store.open_ ~dir () in
  check_int "torn tail recovered by the next owner" 1 (Store.torn_recoveries s);
  check_int "first record survives" 1 (Store.replayed_records s);
  Store.close s

(* --- Only canonical keys reach the cache and the journal ---

   A job arrives as sent: the worker probes its cache with the key as
   sent and normalizes only on a miss.  A valid but non-canonical job
   (edges permuted, a comment, explicit default inputs) must be served
   the canonical job's outcome, leave only the canonical key in the
   cache and the journal, and make its canonical twin a cache hit. *)

let test_server_caches_only_canonical_keys () =
  let dir = fresh_dir () in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ssgd-store-canon-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists socket then Sys.remove socket;
  let canonical =
    Job.of_run_text ~k:2 "ssg-run v1\nn 6\nstable: 0>1 1>2 2>0 3>4 4>5 5>3\n"
  in
  let sent =
    Job.as_sent ~algorithm:Job.Kset ~k:2 ~inputs:(Array.init 6 Fun.id)
      ~monitor:false
      "ssg-run v1\n# by hand\nn 6\nstable: 5>3 2>0 4>5 0>1 3>4 1>2\n"
  in
  check "the job as sent keys differently" false
    (Job.key sent = Job.key canonical);
  let server =
    Thread.create
      (fun () ->
        Server.serve ~workers:1 ~queue_capacity:16 ~cache_capacity:64
          ~persist:dir ~persist_sync:Store.Always ~socket ())
      ()
  in
  let c = Service.connect socket in
  let first = Client.submit c sent in
  check "computed on first sight" false first.Job.cached;
  check "the canonical job's outcome" true
    (first.Job.result = Ok (Job.execute canonical));
  let twin = Client.submit c canonical in
  check "the canonical twin is a cache hit" true twin.Job.cached;
  check "same outcome" true (twin.Job.result = first.Job.result);
  check "the job as sent hits after its normalization" true
    (Client.submit c sent).Job.cached;
  let exported = List.map fst (Client.export c 64) in
  Client.shutdown c;
  Client.close c;
  Thread.join server;
  let store = Store.open_ ~dir () in
  let journaled = ref [] in
  ignore
    (Store.replay store (fun ~key ~value:_ -> journaled := key :: !journaled));
  Store.close store;
  let canonical_key = Job.key canonical in
  check "exported keys are canonical" true (exported = [ canonical_key ]);
  check "journaled keys are canonical" true (!journaled = [ canonical_key ])

let tests =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "record round-trip" `Quick test_record_roundtrip;
    Alcotest.test_case "record scan: longest valid prefix" `Quick
      test_record_scan_longest_prefix;
    Alcotest.test_case "journal round-trip + group commit" `Quick
      test_journal_roundtrip_and_group_commit;
    Alcotest.test_case "journal torn write wedges + recovers" `Quick
      test_journal_torn_write_wedges_and_recovers;
    Alcotest.test_case "journal image atomic round-trip" `Quick
      test_image_roundtrip;
    Alcotest.test_case "sync policy parsing" `Quick test_sync_of_string;
    Alcotest.test_case "store warm boot" `Quick test_store_warm_boot;
    Alcotest.test_case "store torn-tail recovery" `Quick
      test_store_torn_tail_recovery;
    Alcotest.test_case "store compaction rolls the generation" `Quick
      test_store_compaction_rolls_generation;
    Alcotest.test_case "crash points: every byte cut of a generation" `Quick
      test_crash_byte_cuts;
    Alcotest.test_case
      "crash points: a compaction cut before and after its rename" `Quick
      test_crash_compaction_states;
    Alcotest.test_case "old layout: CURRENT and snapshot are not read"
      `Quick test_old_layout_boots;
    Alcotest.test_case "outcome string codec" `Quick test_outcome_codec;
    Alcotest.test_case "faults: torn-write spec" `Quick
      test_faults_torn_write_spec;
    Alcotest.test_case "engine warm boot" `Quick test_engine_warm_boot;
    Alcotest.test_case "import leaves an in-flight key" `Quick
      test_import_leaves_in_flight_key;
    Alcotest.test_case "server crash recovery end-to-end" `Quick
      test_server_crash_recovery;
    Alcotest.test_case "server caches only canonical keys" `Quick
      test_server_caches_only_canonical_keys;
    Alcotest.test_case "second server on a live socket leaves the store alone"
      `Quick test_second_server_leaves_store_alone;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_record_mutation_fuzz ]
