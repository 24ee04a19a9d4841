(* A service from the suites' side: waiting for one a suite has just
   started on a thread, or for anything else a test must see happen,
   and sending jobs all in flight at once — to a live service through
   [Client], or to an in-process [Engine]. *)

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

(* [eventually ~what f] — returns once [f ()] holds, polling every
   10 ms; fails the test naming [what] if it still does not hold after
   [deadline_s]. *)
let eventually ?(deadline_s = 10.) ~what f =
  let deadline = Unix.gettimeofday () +. deadline_s in
  while not (f ()) do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "%s: not within %g s" what deadline_s;
    Thread.delay 0.01
  done

(* [completed r] — the completion of an awaited job ([Engine.await],
   [Client.await]); an [Error] fails the test. *)
let completed = function
  | Ok completion -> completion
  | Error msg -> Alcotest.fail msg

(* [submit_all c jobs] — every job in flight at once on [c], the
   completions in job order; a job that gets no completion fails the
   test. *)
let submit_all c jobs =
  List.map (Client.submit_async c) jobs
  |> List.map (fun ticket -> completed (Client.await ticket))

(* [run_all engine jobs] — every job submitted to [engine], then each
   awaited in job order, so the pool pipelines them. *)
let run_all engine jobs =
  List.map (Engine.submit engine) jobs |> List.map (Engine.await engine)
