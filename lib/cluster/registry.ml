let log_src = Logs.Src.create "ssg.cluster.registry" ~doc:"backend health"

module Log = (val Logs.src_log log_src : Logs.LOG)

type health = Up | Probation of int | Down of int

type t = {
  mutex : Mutex.t;
  vnodes : int;
  down_after : int;
  probe_interval_s : float;
  on_transition : string -> bool -> unit;
  mutable addrs : string array;  (* sorted, distinct *)
  mutable states : health array;  (* parallel to [addrs] *)
  mutable ring : Ring.t;
  mutable generation : int;
  stop_flag : bool Atomic.t;
  mutable prober : Thread.t option;
}

let create ?(vnodes = Ring.default_vnodes) ?(down_after = 3)
    ?(probe_interval_s = 1.0) ?(on_transition = fun _ _ -> ()) backends =
  (* An empty backend list is legal since elastic membership: the
     router starts with nobody and waits for [Join] announcements. *)
  if down_after < 1 then
    invalid_arg "Registry.create: down_after must be >= 1";
  if probe_interval_s <= 0. then
    invalid_arg "Registry.create: probe_interval_s must be > 0";
  let addrs = Array.of_list (List.sort_uniq String.compare backends) in
  {
    mutex = Mutex.create ();
    vnodes;
    down_after;
    probe_interval_s;
    on_transition;
    addrs;
    states = Array.make (Array.length addrs) Up;
    ring = Ring.create ~vnodes (Array.to_list addrs);
    generation = 0;
    stop_flag = Atomic.make false;
    prober = None;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let index t addr =
  let rec go i =
    if i >= Array.length t.addrs then None
    else if String.equal t.addrs.(i) addr then Some i
    else go (i + 1)
  in
  go 0

let is_up_state = function Up | Probation _ -> true | Down _ -> false

let up_unlocked t =
  Array.to_list t.addrs
  |> List.filteri (fun i _ -> is_up_state t.states.(i))

let rebuild_unlocked t =
  t.ring <- Ring.create ~vnodes:t.vnodes (up_unlocked t);
  t.generation <- t.generation + 1

let backends t = locked t (fun () -> Array.to_list t.addrs)

let health t =
  locked t (fun () ->
      List.combine (Array.to_list t.addrs) (Array.to_list t.states))

let up t = locked t (fun () -> up_unlocked t)

let is_up t addr =
  locked t (fun () ->
      match index t addr with
      | Some i -> is_up_state t.states.(i)
      | None -> false)

let ring t = locked t (fun () -> t.ring)
let generation t = locked t (fun () -> t.generation)

let candidates t key =
  let r = ring t in
  if Ring.is_empty r then backends t else Ring.successors r key

(* Returns the transition edge crossed, if any, so the callback can run
   outside the lock. *)
let record_unlocked t addr ok =
  match index t addr with
  | None -> None
  | Some i -> (
      match (t.states.(i), ok) with
      | (Up | Probation _), true ->
          t.states.(i) <- Up;
          None
      | Down _, true ->
          t.states.(i) <- Up;
          rebuild_unlocked t;
          Some true
      | Up, false ->
          t.states.(i) <-
            (if t.down_after = 1 then Down 1 else Probation 1);
          if t.down_after = 1 then begin
            rebuild_unlocked t;
            Some false
          end
          else None
      | Probation k, false ->
          let k = k + 1 in
          if k >= t.down_after then begin
            t.states.(i) <- Down k;
            rebuild_unlocked t;
            Some false
          end
          else begin
            t.states.(i) <- Probation k;
            None
          end
      | Down k, false ->
          t.states.(i) <- Down (k + 1);
          None)

let record t addr ok =
  match locked t (fun () -> record_unlocked t addr ok) with
  | None -> ()
  | Some up ->
      Log.info (fun m ->
          m "backend %s %s" addr (if up then "re-admitted" else "marked down"));
      t.on_transition addr up

let mark_failure t addr = record t addr false
let mark_success t addr = record t addr true

(* Elastic membership: admit or retire a member at runtime.  Both
   return whether the up-set changed (and hence the ring was rebuilt),
   so the router knows when a warm handoff is due. *)

let add_member t addr =
  let changed =
    locked t (fun () ->
        match index t addr with
        | Some i ->
            (* Re-joining a known member is a health report: a down
               backend announcing itself is back. *)
            if is_up_state t.states.(i) then false
            else begin
              t.states.(i) <- Up;
              rebuild_unlocked t;
              true
            end
        | None ->
            (* Splice the newcomer in while keeping every existing
               member's health untouched. *)
            let old =
              List.combine (Array.to_list t.addrs) (Array.to_list t.states)
            in
            let merged =
              List.sort
                (fun (a, _) (b, _) -> String.compare a b)
                ((addr, Up) :: old)
            in
            t.addrs <- Array.of_list (List.map fst merged);
            t.states <- Array.of_list (List.map snd merged);
            rebuild_unlocked t;
            true)
  in
  if changed then Log.info (fun m -> m "member %s joined" addr);
  changed

let remove_member t addr =
  let changed =
    locked t (fun () ->
        match index t addr with
        | None -> false
        | Some i ->
            let was_up = is_up_state t.states.(i) in
            let n = Array.length t.addrs in
            t.addrs <-
              Array.init (n - 1) (fun j ->
                  if j < i then t.addrs.(j) else t.addrs.(j + 1));
            t.states <-
              Array.init (n - 1) (fun j ->
                  if j < i then t.states.(j) else t.states.(j + 1));
            rebuild_unlocked t;
            was_up)
  in
  if changed then Log.info (fun m -> m "member %s left" addr);
  changed

(* A probe unanswered this long after it was sent fails. *)
let probe_deadline_s = 1.0

(* The prober's loop.  It never waits on an answer: each probe records
   exactly once — its answer, or a failure once past the deadline,
   whichever settles it first — and one still out when the prober
   stops records nothing. *)
let run_prober t probe =
  (* The probes of the last deadline: (settled, member, send time). *)
  let out = ref [] in
  let settle (settled, addr, _) ok =
    if Atomic.compare_and_set settled false true then record t addr ok
  in
  while not (Atomic.get t.stop_flag) do
    (* Snapshot the members: Join/Leave may replace the arrays. *)
    let addrs = locked t (fun () -> Array.copy t.addrs) in
    Array.iter
      (fun addr ->
        let p = (Atomic.make false, addr, Unix.gettimeofday ()) in
        out := p :: !out;
        probe addr (settle p))
      addrs;
    (* Sleep in short slices so [stop] is prompt; each slice fails the
       probes past their deadline. *)
    let slept = ref 0. in
    while (not (Atomic.get t.stop_flag)) && !slept < t.probe_interval_s do
      let d = Float.min 0.02 (t.probe_interval_s -. !slept) in
      Thread.delay d;
      slept := !slept +. d;
      let cutoff = Unix.gettimeofday () -. probe_deadline_s in
      let late, young = List.partition (fun (_, _, at) -> at <= cutoff) !out in
      List.iter (fun p -> settle p false) late;
      out := young
    done
  done;
  List.iter (fun (settled, _, _) -> Atomic.set settled true) !out

let start t ~probe =
  locked t (fun () ->
      if t.prober = None then begin
        Atomic.set t.stop_flag false;
        t.prober <- Some (Thread.create (run_prober t) probe)
      end)

let stop t =
  let prober =
    locked t (fun () ->
        let p = t.prober in
        t.prober <- None;
        Atomic.set t.stop_flag true;
        p)
  in
  match prober with None -> () | Some th -> Thread.join th
