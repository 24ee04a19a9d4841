module Mux = Ssg_net.Mux

type t = { mux : Mux.t }

type 'a ticket = { cell : Mux.ticket; decode : Protocol.reply -> ('a, string) result }

let connect ?retries ?retry_backoff_s ?deadline_s ~socket () =
  {
    mux =
      Mux.create ?deadline_s
        (Client.dial ~who:"Pclient.connect" ?retries ?retry_backoff_s
           ?deadline_s [ socket ]);
  }

let request ?ctx t request decode =
  let payload = Protocol.request_to_bytes request in
  let ctx = Option.map Ssg_obs.Context.to_wire ctx in
  { cell = Mux.send ?ctx t.mux payload; decode }

let await ticket =
  match Mux.await ticket.cell with
  | Error reason -> Error reason
  | Ok payload -> (
      match Protocol.reply_of_bytes payload with
      | exception Failure msg -> Error msg
      | reply -> ticket.decode reply)

let submit ?ctx t job =
  request ?ctx t (Protocol.Submit job) (function
    | Protocol.Completed completion -> Ok completion
    | Protocol.Error msg -> Error msg
    | _ -> Error "Pclient: unexpected reply to submit")

let stats t =
  request t Protocol.Stats (function
    | Protocol.Stats_snapshot snapshot -> Ok snapshot
    | Protocol.Error msg -> Error msg
    | _ -> Error "Pclient: unexpected reply to stats")

let metrics_text t =
  request t Protocol.Metrics (function
    | Protocol.Metrics_text text -> Ok text
    | Protocol.Error msg -> Error msg
    | _ -> Error "Pclient: unexpected reply to metrics")

let submit_sync t job =
  match await (submit t job) with
  | Ok completion -> completion
  | Error msg -> failwith ("server error: " ^ msg)

let inflight t = Mux.inflight t.mux
let alive t = Mux.alive t.mux
let close t = Mux.close t.mux
