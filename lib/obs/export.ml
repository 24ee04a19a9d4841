type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_literal f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let rec render buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_literal f)
  | Str s -> escape_string buf s
  | Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          render buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          render buf v)
        fields;
      Buffer.add_char buf '}'

let json_to_string j =
  let buf = Buffer.create 256 in
  render buf j;
  Buffer.contents buf

(* ---------------- parser ---------------- *)

exception Malformed

let json_of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    if !pos < n && s.[!pos] = c then advance () else raise Malformed
  in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let literal word =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then pos := !pos + l
    else raise Malformed
  in
  let hex_value c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> raise Malformed
  in
  let add_utf8 buf u =
    (* Encode one code unit.  Unpaired surrogates are encoded as-is —
       good enough for the ASCII-dominated documents this layer emits. *)
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
    end
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let closed = ref false in
    while not !closed do
      match peek () with
      | None -> raise Malformed
      | Some '"' ->
          advance ();
          closed := true
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some (('"' | '\\' | '/') as c) ->
              Buffer.add_char buf c;
              advance ()
          | Some 'b' ->
              Buffer.add_char buf '\b';
              advance ()
          | Some 'f' ->
              Buffer.add_char buf '\012';
              advance ()
          | Some 'n' ->
              Buffer.add_char buf '\n';
              advance ()
          | Some 'r' ->
              Buffer.add_char buf '\r';
              advance ()
          | Some 't' ->
              Buffer.add_char buf '\t';
              advance ()
          | Some 'u' ->
              advance ();
              let u = ref 0 in
              for _ = 1 to 4 do
                (match peek () with
                | Some c -> u := (!u * 16) + hex_value c
                | None -> raise Malformed);
                advance ()
              done;
              add_utf8 buf !u
          | _ -> raise Malformed)
      | Some c when Char.code c < 0x20 -> raise Malformed
      | Some c ->
          Buffer.add_char buf c;
          advance ()
    done;
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_float = ref false in
    let digits () =
      let saw = ref false in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        saw := true;
        advance ()
      done;
      if not !saw then raise Malformed
    in
    (match peek () with Some '-' -> advance () | _ -> ());
    (match peek () with
    | Some '0' -> (
        advance ();
        match peek () with Some '0' .. '9' -> raise Malformed | _ -> ())
    | Some '1' .. '9' -> digits ()
    | _ -> raise Malformed);
    (match peek () with
    | Some '.' ->
        is_float := true;
        advance ();
        digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let lit = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> Float (float_of_string lit)
  in
  let rec value () =
    skip_ws ();
    let v =
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let fields = ref [] in
            let more = ref true in
            while !more do
              skip_ws ();
              let key = string_body () in
              skip_ws ();
              expect ':';
              let v = value () in
              fields := (key, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' -> advance ()
              | Some '}' ->
                  advance ();
                  more := false
              | _ -> raise Malformed
            done;
            Obj (List.rev !fields)
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let items = ref [] in
            let more = ref true in
            while !more do
              let v = value () in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' -> advance ()
              | Some ']' ->
                  advance ();
                  more := false
              | _ -> raise Malformed
            done;
            Arr (List.rev !items)
          end
      | Some '"' -> Str (string_body ())
      | Some 't' ->
          literal "true";
          Bool true
      | Some 'f' ->
          literal "false";
          Bool false
      | Some 'n' ->
          literal "null";
          Null
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> raise Malformed
    in
    skip_ws ();
    v
  in
  match
    let v = value () in
    if !pos <> n then raise Malformed else v
  with
  | v -> Some v
  | exception Malformed -> None

let json_wellformed s = Option.is_some (json_of_string s)
