let log_src = Logs.Src.create "ssg.pool" ~doc:"Domain worker pool"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  queue : (unit -> unit) Bqueue.t;
  domains : unit Domain.t array;
  joined : Mutex.t;  (* serializes shutdown; joining a domain twice is UB *)
  mutable down : bool;
}

let worker queue () =
  let rec loop () =
    match Bqueue.pop queue with
    | None -> ()
    | Some task ->
        (try task ()
         with e ->
           Log.err (fun m ->
               m "task escaped its wrapper: %s" (Printexc.to_string e)));
        loop ()
  in
  loop ()

let default_workers () = max 1 (Domain.recommended_domain_count () - 1)

let create ?(workers = default_workers ()) ?(queue_capacity = 64) () =
  if workers < 1 then invalid_arg "Pool.create: workers must be >= 1";
  let queue = Bqueue.create ~capacity:queue_capacity () in
  let domains = Array.init workers (fun _ -> Domain.spawn (worker queue)) in
  Log.info (fun m ->
      m "pool up: %d worker domain(s), queue capacity %d" workers
        queue_capacity);
  { queue; domains; joined = Mutex.create (); down = false }

let workers pool = Array.length pool.domains
let queue_depth pool = Bqueue.length pool.queue
let queue_capacity pool = Bqueue.capacity pool.queue
let submit pool task = Bqueue.push pool.queue task

(* Dynamic work claiming: the caller and its helper tasks repeatedly take
   the next unclaimed index from one atomic counter, so uneven item costs
   balance.  Output slots are disjoint, so plain writes are safe; they
   are published by the [remaining] decrement the caller waits on. *)
let map pool f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  let results = Array.make n None in
  let next = Atomic.make 0 and remaining = Atomic.make n in
  let mu = Mutex.create () and all_done = Condition.create () in
  let rec claim () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <- Some (try Ok (f items.(i)) with e -> Error e);
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock mu;
        Condition.broadcast all_done;
        Mutex.unlock mu
      end;
      claim ()
    end
  in
  (* A helper that starts after every item is claimed returns at
     once, so the caller waits only for items already running, never
     for a helper still queued behind other work.  A shut-down pool
     refuses helpers and the caller does every item itself. *)
  let rec add_helpers k =
    if k > 0 && submit pool claim then add_helpers (k - 1)
  in
  add_helpers (min (workers pool) (n - 1));
  claim ();
  Mutex.lock mu;
  while Atomic.get remaining > 0 do
    Condition.wait all_done mu
  done;
  Mutex.unlock mu;
  Array.to_list results
  |> List.map (function
       | Some (Ok v) -> v
       | Some (Error e) -> raise e
       | None -> assert false)

let shutdown pool =
  Bqueue.close pool.queue;
  Mutex.lock pool.joined;
  if not pool.down then begin
    Array.iter Domain.join pool.domains;
    pool.down <- true;
    Log.info (fun m -> m "pool drained and joined")
  end;
  Mutex.unlock pool.joined

let run ?(jobs = Domain.recommended_domain_count ()) f xs =
  match xs with
  | _ :: _ :: _ when jobs > 1 ->
      let pool = create ~workers:(min (jobs - 1) (List.length xs - 1)) () in
      Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> map pool f xs)
  | xs -> List.map f xs
