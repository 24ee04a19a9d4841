(* The service under test: worker, router and gateway as three
   processes of the built [ssg] binary, over loopback TCP.

   Each fleet gets fresh ports and a fresh store directory, starts
   from an environment without [OCAMLRUNPARAM] or any [SSG_*] variable,
   and is only declared ready once each process accepts connections —
   polled, never slept on, so set-up time is not rounded to a sleep or
   to the router's probe interval. *)

type proc = { role : string; pid : int; log : string; mutable reaped : bool }

type t = {
  dir : string;
  worker_addr : string;
  router_addr : string;
  gateway_port : int;
  procs : proc list;  (** worker, router, gateway *)
  launched : float;  (** when the first process was spawned *)
}

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let free_ports n =
  let socks =
    List.init n (fun _ ->
        let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind s (loopback 0);
        s)
  in
  let ports =
    List.map
      (fun s ->
        match Unix.getsockname s with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false)
      socks
  in
  List.iter Unix.close socks;
  ports

let scrubbed_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         let name =
           match String.index_opt kv '=' with
           | Some i -> String.sub kv 0 i
           | None -> kv
         in
         not
           (name = "OCAMLRUNPARAM" || name = "CAMLRUNPARAM"
           || String.starts_with ~prefix:"SSG_" name))
  |> Array.of_list

let spawn ~ssg ~dir role args =
  let log = Filename.concat dir (role ^ ".log") in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close null)
      (fun () ->
        Unix.create_process_env ssg (Array.of_list (ssg :: args)) (scrubbed_env ())
          null out out)
  in
  { role; pid; log; reaped = false }

let exited p =
  (not p.reaped)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] p.pid with
  | 0, _ -> false
  | _ ->
      p.reaped <- true;
      true

let log_tail p =
  try
    let s = Procfs.read_file p.log in
    let n = String.length s in
    if n > 2000 then String.sub s (n - 2000) 2000 else s
  with Sys_error _ -> ""

let died p =
  failwith (Printf.sprintf "%s exited during set-up:\n%s" p.role (log_tail p))

(* Poll until [p] accepts a TCP connection on [port]. *)
let wait_listening ?(timeout_s = 30.) p port =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if exited p then died p;
    let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect s (loopback port) with
    | () -> Unix.close s
    | exception Unix.Unix_error ((ECONNREFUSED | ECONNRESET | EAGAIN), _, _) ->
        Unix.close s;
        if Unix.gettimeofday () > deadline then
          failwith (Printf.sprintf "%s not listening after %.0f s" p.role timeout_s);
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

let launch ~ssg ~dir =
  rm_rf dir;
  mkdir_p dir;
  let wport, rport, gport =
    match free_ports 3 with [ w; r; g ] -> (w, r, g) | _ -> assert false
  in
  let addr p = Printf.sprintf "tcp:127.0.0.1:%d" p in
  let launched = Unix.gettimeofday () in
  let procs = ref [] in
  let start role args port =
    let p = spawn ~ssg ~dir role args in
    procs := p :: !procs;
    wait_listening p port
  in
  let t () =
    {
      dir;
      worker_addr = addr wport;
      router_addr = addr rport;
      gateway_port = gport;
      procs = List.rev !procs;
      launched;
    }
  in
  try
    start "worker"
      [ "serve"; "--socket"; addr wport; "--workers"; "1";
        "--persist"; Filename.concat dir "store" ]
      wport;
    start "router" [ "route"; "--socket"; addr rport; "-b"; addr wport ] rport;
    start "gateway" [ "gateway"; "--listen"; addr gport; "--backend"; addr rport ] gport;
    t ()
  with e ->
    List.iter (fun p -> if not p.reaped then (try Unix.kill p.pid Sys.sigkill with _ -> ())) !procs;
    List.iter (fun p -> if not p.reaped then ignore (Unix.waitpid [] p.pid)) !procs;
    raise e

(* SIGTERM everything, reap, SIGKILL whatever is still up after 3 s. *)
let stop t =
  List.iter
    (fun p -> if not p.reaped then try Unix.kill p.pid Sys.sigterm with _ -> ())
    t.procs;
  let deadline = Unix.gettimeofday () +. 3. in
  List.iter
    (fun p ->
      while (not p.reaped) && not (exited p) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.002
      done;
      if not p.reaped then begin
        (try Unix.kill p.pid Sys.sigkill with _ -> ());
        ignore (Unix.waitpid [] p.pid);
        p.reaped <- true
      end)
    t.procs;
  rm_rf t.dir

(* Prometheus scrapes of each process's own counters. *)
let native_metrics addr =
  let c = Ssg_engine.Client.connect ~retries:0 ~deadline_s:30. ~socket:addr () in
  Fun.protect
    ~finally:(fun () -> Ssg_engine.Client.close c)
    (fun () -> Prom.parse (Ssg_engine.Client.metrics_text c))

type scrape = { worker : Prom.t; router : Prom.t; gateway : Prom.t }

let scrape t =
  {
    worker = native_metrics t.worker_addr;
    router = native_metrics t.router_addr;
    gateway =
      Prom.parse
        (Http_client.exchange t.gateway_port (Http_client.get_request "/metrics"))
          .body;
  }
