let log_src = Logs.Src.create "ssg.store.journal" ~doc:"durable result log"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  fd : Unix.file_descr;
  fsync_every : int;
  mutable bytes : int;
  mutable unsynced : int;
  mutable fsyncs : int;
  mutable wedged : bool;
  mutable closed : bool;
}

let open_append ~fsync_every path =
  if fsync_every < 0 then
    invalid_arg "Journal.open_append: fsync_every must be >= 0";
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let bytes = (Unix.fstat fd).Unix.st_size in
  {
    fd;
    fsync_every;
    bytes;
    unsynced = 0;
    fsyncs = 0;
    wedged = false;
    closed = false;
  }

let bytes t = t.bytes
let fsyncs t = t.fsyncs
let wedged t = t.wedged

let really_write fd s pos len =
  let b = Bytes.unsafe_of_string s in
  let rec go pos len =
    if len > 0 then begin
      let n =
        try Unix.write fd b pos len
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (pos + n) (len - n)
    end
  in
  go pos len

let sync t =
  if (not t.wedged) && not t.closed then begin
    (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
    t.fsyncs <- t.fsyncs + 1;
    t.unsynced <- 0
  end

let append ?(torn = false) t ~key ~value =
  if t.wedged || t.closed then false
  else begin
    let framed = Record.frame ~key ~value in
    if torn then begin
      (* Simulated kill mid-write: half the record lands (at least one
         byte, never all of it), then the handle is dead — exactly the
         file image a crashed single writer leaves behind. *)
      let half = max 1 (String.length framed / 2) in
      really_write t.fd framed 0 half;
      t.bytes <- t.bytes + half;
      (try Unix.fsync t.fd with Unix.Unix_error _ -> ());
      t.wedged <- true;
      Log.warn (fun m ->
          m "injected torn write: %d of %d bytes, journal wedged" half
            (String.length framed));
      false
    end
    else begin
      really_write t.fd framed 0 (String.length framed);
      t.bytes <- t.bytes + String.length framed;
      t.unsynced <- t.unsynced + 1;
      if t.fsync_every > 0 && t.unsynced >= t.fsync_every then sync t;
      true
    end
  end

let close t =
  if not t.closed then begin
    sync t;
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let recover path ~f =
  if not (Sys.file_exists path) then
    { Record.records = 0; valid_bytes = 0; torn = false }
  else begin
    let contents = read_all path in
    let r = Record.scan contents ~f in
    if r.Record.torn then begin
      Log.warn (fun m ->
          m "torn tail in %s: %d valid record(s) in %d bytes, truncating %d \
             trailing byte(s)"
            path r.Record.records r.Record.valid_bytes
            (String.length contents - r.Record.valid_bytes));
      try Unix.truncate path r.Record.valid_bytes
      with Unix.Unix_error _ -> ()
    end;
    r
  end

let write_image path entries =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun (key, value) -> output_string oc (Record.frame ~key ~value))
        entries;
      flush oc;
      (* Flush reaches the kernel; fsync reaches the platter — only
         then may the rename publish the new generation. *)
      try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ());
  Unix.rename tmp path
