(* Raw native-protocol exchanges for the suites that drive a server
   below [Client]: hostile payloads, hand-built requests, idle peers.
   Requests go out in the id envelope, as every client sends them;
   replies are read with or without it, since a connection-level
   [Error] (a refused connection, a request outside the envelope)
   carries no id. *)

open Ssg_engine
module Frame = Ssg_net.Frame

(* [send_payload ?id fd payload] — one request payload, well-formed or
   not, in the id envelope. *)
let send_payload ?(id = 0) fd payload =
  Frame.write_fd fd (Frame.with_id ~id payload)

let send ?id fd request =
  send_payload ?id fd (Protocol.request_to_bytes request)

(* The next reply.  Raises as [Frame.read_fd] and
   [Protocol.reply_of_bytes] do: [End_of_file] on a closed connection,
   [Failure] on a garbled frame. *)
let read_reply fd =
  match Frame.classify (Frame.read_fd fd) with
  | Frame.Id (_, inner) -> Protocol.reply_of_bytes inner
  | Frame.Plain payload -> Protocol.reply_of_bytes payload
