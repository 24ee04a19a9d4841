(* A keep-alive HTTP/1.1 client for the gateway, written for a
   single-threaded event loop: [feed] reads what the socket has and
   [next_response] frames complete responses out of the buffer. *)

type conn = { fd : Unix.file_descr; mutable pending : string }
type response = { status : int; body : string }

let tcp_connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e -> Unix.close fd; raise e);
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let connect port = { fd = tcp_connect port; pending = "" }
let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off len =
  if len > 0 then
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)

let send c s = write_all c.fd s 0 (String.length s)

let submit_request (job : Ssg_engine.Job.t) =
  Printf.sprintf
    "POST /submit?k=%d HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n%s"
    job.k (String.length job.run) job.run

let get_request path =
  Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" path

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec matches i j = j = m || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go 0

let content_length headers =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.trim (String.sub line 0 i))
             = "content-length" ->
          int_of_string
            (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> acc)
    0 headers

(* One complete response off the front of the buffer, if there is one. *)
let next_response c =
  match find_sub c.pending "\r\n\r\n" with
  | None -> None
  | Some hdr_end ->
      let lines = String.split_on_char '\n' (String.sub c.pending 0 hdr_end) in
      let lines = List.map (fun l -> String.trim l) lines in
      let status = Scanf.sscanf (List.hd lines) "HTTP/%_s %d" Fun.id in
      let len = content_length (List.tl lines) in
      let total = hdr_end + 4 + len in
      if String.length c.pending < total then None
      else begin
        let body = String.sub c.pending (hdr_end + 4) len in
        c.pending <- String.sub c.pending total (String.length c.pending - total);
        Some { status; body }
      end

let chunk = Bytes.create 65536

(* Read what the socket holds; [End_of_file] when the peer closed. *)
let feed c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then raise End_of_file;
  c.pending <- c.pending ^ Bytes.sub_string chunk 0 n

let rec await c =
  match next_response c with
  | Some r -> r
  | None ->
      feed c;
      await c

(* One blocking exchange on a fresh connection (scrapes, probes). *)
let exchange port request =
  let c = connect port in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      send c request;
      await c)
