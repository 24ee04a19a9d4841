(* Fixed bytes before the body: the length and crc fields. *)
let header_bytes = 8
let max_record_bytes = 16 * 1024 * 1024

(* Big-endian 32-bit helpers over strings; a negative [Int32.to_int] of
   a length field is rejected by the range checks at every use site. *)
let get_u32 s pos = Int32.to_int (String.get_int32_be s pos)

let frame ~key ~value =
  let klen = String.length key and vlen = String.length value in
  let body_len = 8 + klen + vlen in
  if body_len > max_record_bytes then failwith "Record: record too large";
  let b = Bytes.create (header_bytes + body_len) in
  Bytes.set_int32_be b 0 (Int32.of_int body_len);
  Bytes.set_int32_be b 8 (Int32.of_int klen);
  Bytes.blit_string key 0 b 12 klen;
  Bytes.set_int32_be b (12 + klen) (Int32.of_int vlen);
  Bytes.blit_string value 0 b (16 + klen) vlen;
  let s = Bytes.unsafe_to_string b in
  let crc = Crc32.digest ~pos:header_bytes ~len:body_len s in
  Bytes.set_int32_be b 4 crc;
  Bytes.unsafe_to_string b

(* Explicit bounds checks before every [String.sub]: nothing but
   [Failure] may escape, per the decoder contract. *)
let unframe s =
  let fail msg = failwith ("Record: " ^ msg) in
  let len = String.length s in
  if len < header_bytes + 8 then fail "short record";
  let body_len = get_u32 s 0 in
  if body_len < 8 || body_len > max_record_bytes then fail "bad body length";
  if body_len <> len - header_bytes then fail "body length mismatch";
  let crc = String.get_int32_be s 4 in
  if not (Int32.equal (Crc32.digest ~pos:header_bytes ~len:body_len s) crc)
  then fail "crc mismatch";
  let klen = get_u32 s header_bytes in
  if klen < 0 || 16 + klen > len then fail "bad key length";
  let key = String.sub s 12 klen in
  let vlen = get_u32 s (12 + klen) in
  if vlen < 0 || 16 + klen + vlen <> len then fail "bad value length";
  let value = String.sub s (16 + klen) vlen in
  (key, value)

type recovery = { records : int; valid_bytes : int; torn : bool }

let scan contents ~f =
  let len = String.length contents in
  let rec go pos records =
    if pos + header_bytes > len then
      { records; valid_bytes = pos; torn = pos <> len }
    else
      let body_len = get_u32 contents pos in
      if
        body_len < 8 || body_len > max_record_bytes
        || pos + header_bytes + body_len > len
      then { records; valid_bytes = pos; torn = true }
      else
        let chunk = String.sub contents pos (header_bytes + body_len) in
        match unframe chunk with
        | key, value ->
            f ~key ~value;
            go (pos + header_bytes + body_len) (records + 1)
        | exception Failure _ -> { records; valid_bytes = pos; torn = true }
  in
  go 0 0
