let max_frame_bytes = 16 * 1024 * 1024

(* 'I' is not the constructor tag of any protocol request or reply, so
   a reader tells an enveloped payload from a bare one by its first
   byte. *)
let id_magic = 'I'

let with_id ~id payload =
  if id < 0 then invalid_arg "Frame.with_id: id must be >= 0";
  let n = Bytes.length payload in
  let out = Bytes.create (9 + n) in
  Bytes.set out 0 id_magic;
  Bytes.set_int64_be out 1 (Int64.of_int id);
  Bytes.blit payload 0 out 9 n;
  out

type classified = Plain of Bytes.t | Id of int * Bytes.t

let classify payload =
  let n = Bytes.length payload in
  if n = 0 || Bytes.get payload 0 <> id_magic then Plain payload
  else if n < 9 then failwith "Frame: truncated id envelope"
  else
    let id = Int64.to_int (Bytes.get_int64_be payload 1) in
    if id < 0 then failwith "Frame: negative request id"
    else Id (id, Bytes.sub payload 9 (n - 9))

(* Trace-context envelope, optional: 'X' is not the tag of any request,
   so a request without a context is told apart by its first byte
   (replies never carry a context and are never split).  The context
   rides {e inside} the id envelope ([with_id ~id (with_ctx ~ctx p)]):
   the mux correlates replies without caring whether a context is
   present. *)
let ctx_magic = 'X'
let ctx_len = 24

let with_ctx ~ctx payload =
  if String.length ctx <> ctx_len then
    invalid_arg "Frame.with_ctx: context must be 24 bytes";
  let n = Bytes.length payload in
  let out = Bytes.create (1 + ctx_len + n) in
  Bytes.set out 0 ctx_magic;
  Bytes.blit_string ctx 0 out 1 ctx_len;
  Bytes.blit payload 0 out (1 + ctx_len) n;
  out

let split_ctx payload =
  let n = Bytes.length payload in
  if n = 0 || Bytes.get payload 0 <> ctx_magic then (None, payload)
  else if n < 1 + ctx_len then failwith "Frame: truncated context envelope"
  else
    ( Some (Bytes.sub_string payload 1 ctx_len),
      Bytes.sub payload (1 + ctx_len) (n - 1 - ctx_len) )

(* ---------------- descriptor framing ---------------- *)

(* Same discipline as the engine protocol: frame directly over the
   descriptor so a read timeout (SO_RCVTIMEO) surfaces as
   [Unix_error (EAGAIN | EWOULDBLOCK)] exactly at the stalled syscall. *)

let rec read_some fd buf off len =
  try Unix.read fd buf off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> read_some fd buf off len

let really_read fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let n = read_some fd buf off len in
      if n = 0 then raise End_of_file;
      go (off + n) (len - n)
    end
  in
  go off len

let really_write fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let n =
        try Unix.write fd buf off len
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      go (off + n) (len - n)
    end
  in
  go off len

let read_fd fd =
  let header = Bytes.create 4 in
  let first = read_some fd header 0 4 in
  if first = 0 then raise End_of_file;
  (try really_read fd header first (4 - first)
   with End_of_file -> failwith "Frame: connection died mid-frame");
  let len = Int32.to_int (Bytes.get_int32_be header 0) in
  if len < 0 || len > max_frame_bytes then
    failwith (Printf.sprintf "Frame: refused frame of %d bytes" len);
  let payload = Bytes.create len in
  (try really_read fd payload 0 len
   with End_of_file -> failwith "Frame: connection died mid-frame");
  payload

(* Header and payload leave in one write: with TCP_NODELAY, two writes
   are two segments, and the peer's reader can wake for the header
   alone. *)
let write_fd fd payload =
  let len = Bytes.length payload in
  if len > max_frame_bytes then failwith "Frame: frame too large";
  let frame = Bytes.create (4 + len) in
  Bytes.set_int32_be frame 0 (Int32.of_int len);
  Bytes.blit payload 0 frame 4 len;
  really_write fd frame 0 (4 + len)
