(* The three workloads, each a request list fixed by the seed.

   Runs come from the same generators [ssg sweep] uses
   ({!Ssg_sim.Sweep.adversary}, {!Ssg_sim.Sweep.effective_k}); the
   fleet only ever sees the jobs built here, so two runs with one seed
   send byte-identical request streams. *)

open Ssg_engine
module Sweep = Ssg_sim.Sweep

(* What the reply to a request must be: an outcome (served from the
   cache or freshly computed) or a lint rejection. *)
type kind = Hit | Miss | Lint

type request = { kind : kind; job : Job.t; key : string }

type entry =
  | Http  (** gateway → router → worker *)
  | Native  (** straight to the worker's native port *)

type shape =
  | Closed of int  (** closed loop with this many requests in flight *)
  | Open of float  (** open loop at this many arrivals per second *)

type t = {
  name : string;
  entry : entry;
  shape : shape;
  connections : int;
  warm : request array;
      (** sent during set-up, so the LRU holds them before timing *)
  requests : request array;  (** the timed list, in send order *)
}

let names = [ "hit-http"; "miss-native"; "mixed-open" ]

(* Upper bounds on what a closed loop can complete per second on this
   service; the list is sized so a run never exhausts it. *)
let hot_cap_per_s = 4000
let miss_cap_per_s = 300
let open_rate = 100.
let hot_size = 64

(* Cell seeds mix the workload seed, a per-stream salt and the index,
   so streams never share runs and every seed gives new ones. *)
let cell_seed ~seed ~salt i = (seed * 1_000_003) + (salt * 10_007) + i

let request kind job = { kind; job; key = Job.key job }

let job_of_cell (cell : Sweep.cell) =
  let adv = Sweep.adversary cell in
  Job.make ~k:(Sweep.effective_k cell adv) adv

(* The first [count] distinct-key requests of the stream [gen]; [gen i]
   may decline an index with [None].  [seen] is shared across streams
   so one workload's hits, misses and lint jobs never collide. *)
let distinct ~seen ~count gen =
  let out = ref [] and got = ref 0 and i = ref 0 in
  while !got < count do
    if !i > (100 * count) + 1000 then
      failwith "Workload.distinct: generator keeps repeating keys";
    (match gen !i with
    | Some r when not (Hashtbl.mem seen r.key) ->
        Hashtbl.add seen r.key ();
        out := r :: !out;
        incr got
    | _ -> ());
    incr i
  done;
  Array.of_list (List.rev !out)

(* 64 block-source runs at n = 16 with k = n/4. *)
let hot_set ~seen ~seed =
  distinct ~seen ~count:hot_size (fun i ->
      Some
        (request Hit
           (job_of_cell
              {
                Sweep.n = 16;
                k = 4;
                family = Sweep.Block_sources;
                seed = cell_seed ~seed ~salt:1 i;
              })))

let miss_families = [ Sweep.Block_sources; Sweep.Partitioned; Sweep.Single_root ]

(* Every cell of a run of seeded sweep grids, grid after grid. *)
let sweep_misses ~seen ~seed ~count =
  let grid g =
    Array.of_list
      (Sweep.cells
         (Sweep.create ~ns:[ 8; 12; 16; 20 ] ~ks:[ 1; 2; 3; 4 ]
            ~families:miss_families ~seed:(cell_seed ~seed ~salt:2 g)))
  in
  let per_grid = Array.length (grid 0) in
  let current = ref (-1, [||]) in
  distinct ~seen ~count (fun i ->
      let g = i / per_grid in
      if fst !current <> g then current := (g, grid g);
      Some (request Miss (job_of_cell (snd !current).(i mod per_grid))))

(* Fresh n = 12 misses, cycling family and k. *)
let small_misses ~seen ~seed ~count =
  distinct ~seen ~count (fun i ->
      let family = List.nth miss_families (i mod 3) in
      Some
        (request Miss
           (job_of_cell
              { Sweep.n = 12; k = 1 + (i / 3 mod 3); family;
                seed = cell_seed ~seed ~salt:3 i })))

(* Block-source runs submitted with k one below their min_k, which the
   lint front door refuses (SSG001). *)
let lint_jobs ~seen ~seed ~count =
  distinct ~seen ~count (fun i ->
      let cell =
        { Sweep.n = 16; k = 4; family = Sweep.Block_sources;
          seed = cell_seed ~seed ~salt:4 i }
      in
      let adv = Sweep.adversary cell in
      let min_k = Ssg_adversary.Adversary.min_k adv in
      if min_k < 2 then None else Some (request Lint (Job.make ~k:(min_k - 1) adv)))

let make ~name ~seed ~seconds =
  let seen = Hashtbl.create 4096 in
  let st = Random.State.make [| seed; Hashtbl.hash name |] in
  match name with
  | "hit-http" ->
      let hot = hot_set ~seen ~seed in
      let requests =
        Array.init (hot_cap_per_s * seconds) (fun _ ->
            hot.(Random.State.int st hot_size))
      in
      { name; entry = Http; shape = Closed 2; connections = 2; warm = hot;
        requests }
  | "miss-native" ->
      let requests = sweep_misses ~seen ~seed ~count:(miss_cap_per_s * seconds) in
      { name; entry = Native; shape = Closed 2; connections = 1; warm = [||];
        requests }
  | "mixed-open" ->
      (* Blocks of ten arrivals, each a seeded shuffle of 7 hits, 2 fresh
         misses and 1 lint rejection.  (At 8:1:1 the misses are exactly
         the slowest tenth, so p90 reads the boundary between two
         classes — an extreme order statistic that swung by a third
         between seeds.  With a fifth of the arrivals missing, p90 falls
         inside the miss distribution.) *)
      let hot = hot_set ~seen ~seed in
      let blocks = int_of_float (open_rate *. float_of_int seconds) / 10 in
      let misses = small_misses ~seen ~seed ~count:(2 * blocks) in
      let lints = lint_jobs ~seen ~seed ~count:blocks in
      let requests =
        Array.concat
          (List.init blocks (fun b ->
               let block =
                 Array.init 10 (fun j ->
                     if j >= 7 && j <= 8 then misses.((2 * b) + j - 7)
                     else if j = 9 then lints.(b)
                     else hot.(Random.State.int st hot_size))
               in
               for j = 9 downto 1 do
                 let r = Random.State.int st (j + 1) in
                 let tmp = block.(j) in
                 block.(j) <- block.(r);
                 block.(r) <- tmp
               done;
               block))
      in
      { name; entry = Http; shape = Open open_rate; connections = 2; warm = hot;
        requests }
  | other ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (expected %s)" other
           (String.concat " | " names))
