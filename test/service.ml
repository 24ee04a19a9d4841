(* A live service from the suites' side, through [Client]: waiting for
   one a suite has just started on a thread, and sending it jobs all in
   flight at once. *)

open Ssg_engine

(* [connect socket] — the first connection the service at [socket]
   accepts: how a suite waits for a server it has just started.
   [Client.connect]'s own jittered backoff does the waiting, about 5 s
   on average and 10 s at most, before the test fails. *)
let connect ?(deadline_s = 10.) socket =
  match
    Client.connect ~retries:10 ~retry_backoff_s:0.01 ~deadline_s ~socket ()
  with
  | c -> c
  | exception Unix.Unix_error (e, _, _) ->
      Alcotest.failf "%s did not come up: %s" socket (Unix.error_message e)

(* [submit_all c jobs] — every job in flight at once on [c], the
   completions in job order; a job that gets no completion fails the
   test. *)
let submit_all c jobs =
  List.map (Client.submit_async c) jobs
  |> List.map (fun ticket ->
         match Client.await ticket with
         | Ok completion -> completion
         | Error msg -> Alcotest.fail msg)
