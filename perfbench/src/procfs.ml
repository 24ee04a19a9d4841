(* Process and host counters from /proc, read from outside the program.

   CPU comes from /proc/<pid>/stat, which sums every thread the process
   ever ran, exited ones included: the router and the worker start a
   thread per pipelined request, so per-thread counters would lose most
   of their time. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

(* USER_HZ: the unit of utime and stime (100 on every Linux ABI). *)
let ticks_per_s = 100.

(* User plus system CPU seconds of the whole process so far. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* Fields after the parenthesised command name, which may hold spaces;
     utime and stime are fields 14 and 15 overall, 12 and 13 here. *)
  let start = String.rindex s ')' + 2 in
  let rest = String.sub s start (String.length s - start) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. ticks_per_s

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* The host's online CPUs (nproc), counted from the per-CPU lines of
   /proc/stat, and the CPUs this process may run on. *)
let online_cpus () =
  String.split_on_char '\n' (read_file "/proc/stat")
  |> List.filter (fun l ->
         String.length l > 3 && String.sub l 0 3 = "cpu" && l.[3] >= '0' && l.[3] <= '9')
  |> List.length

let allowed_cpus () =
  String.split_on_char '\n' (read_file "/proc/self/status")
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "Cpus_allowed_list"; v ] -> Some (String.trim v)
         | _ -> None)
  |> Option.value ~default:"?"

(* Aggregate host CPU jiffies: (steal, total). *)
type host = { steal : float; total : float }

let host () =
  let s = read_file "/proc/stat" in
  let first = List.hd (String.split_on_char '\n' s) in
  let fields =
    String.split_on_char ' ' first
    |> List.filter (fun f -> f <> "" && f <> "cpu")
    |> List.map float_of_string
  in
  (* user nice system idle iowait irq softirq steal [guest guest_nice];
     guest time is already counted in user. *)
  let total = List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < 8) fields) in
  { steal = List.nth fields 7; total }

let steal_share a b =
  let dt = b.total -. a.total in
  if dt <= 0. then 0. else (b.steal -. a.steal) /. dt
