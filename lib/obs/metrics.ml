type counter = int Atomic.t
type gauge = float Atomic.t

type histogram = {
  bounds : float array;  (* strictly increasing upper bounds, no +Inf *)
  counts : int Atomic.t array;  (* one per bound, plus the +Inf bucket *)
  h_sum : float Atomic.t;
}

type 'a family = {
  fresh : unit -> 'a;
  series_lock : Mutex.t;
  series : (string, 'a) Hashtbl.t;  (* label value -> series *)
}

(* A registered metric renders as its [# HELP] and [# TYPE] lines, then
   one line per sample: the name, the sample's suffix (labels, or a
   histogram's [_bucket{le=...}] / [_sum] / [_count]) and its value,
   read at render time. *)
type entry = {
  name : string;
  help : string;
  kind : string;
  samples : unit -> (string * string) list;
}

type t = {
  lock : Mutex.t;
  mutable entries : entry list;  (* newest first *)
}

let default_buckets =
  [| 0.05; 0.1; 0.5; 1.; 5.; 10.; 50.; 100.; 500.; 1000.; 5000. |]

let create () = { lock = Mutex.create (); entries = [] }

let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

let prom_bound b = if b = infinity then "+Inf" else prom_float b

(* Help text escapes backslash and newline; a label value also escapes
   the double quote that closes it. *)
let escape ~quote s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let valid_name name =
  String.length name > 0
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

let register t ~help ~kind name samples =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  Mutex.protect t.lock (fun () ->
      if List.exists (fun e -> String.equal e.name name) t.entries then
        invalid_arg (Printf.sprintf "Metrics: duplicate metric %S" name);
      t.entries <- { name; help; kind; samples } :: t.entries)

let counter_fn t ~help name read =
  register t ~help ~kind:"counter" name (fun () ->
      [ ("", string_of_int (read ())) ])

let counter t ~help name =
  let c = Atomic.make 0 in
  counter_fn t ~help name (fun () -> Atomic.get c);
  c

let gauge t ~help name =
  let g = Atomic.make 0. in
  register t ~help ~kind:"gauge" name (fun () ->
      [ ("", prom_float (Atomic.get g)) ]);
  g

type hist_snapshot = {
  buckets : (float * int) array;
  sum : float;
  count : int;
}

let hist_snapshot h =
  let cumulative = ref 0 in
  let buckets =
    Array.mapi
      (fun i c ->
        cumulative := !cumulative + Atomic.get c;
        let bound =
          if i < Array.length h.bounds then h.bounds.(i) else infinity
        in
        (bound, !cumulative))
      h.counts
  in
  { buckets; sum = Atomic.get h.h_sum; count = !cumulative }

(* Prometheus's [histogram_quantile].  [lower *. (1 - f) +. upper *. f]
   rather than [lower +. (upper -. lower) *. f], so that a rank at the
   top of its bucket answers the bound exactly. *)
let quantile s q =
  if s.count = 0 then Float.nan
  else
    let rank = q *. float_of_int s.count in
    let last = Array.length s.buckets - 1 in
    let rec find b =
      if b = last || float_of_int (snd s.buckets.(b)) >= rank then b
      else find (b + 1)
    in
    let b = find 0 in
    if b = last then fst s.buckets.(last - 1)
    else
      let lower, below = if b = 0 then (0., 0) else s.buckets.(b - 1) in
      let upper, cumulative = s.buckets.(b) in
      let f =
        (rank -. float_of_int below) /. float_of_int (cumulative - below)
      in
      (lower *. (1. -. f)) +. (upper *. f)

let histogram t ~help ?(buckets = default_buckets) name =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: empty bucket list";
  Array.iteri
    (fun i b ->
      if i > 0 && buckets.(i - 1) >= b then
        invalid_arg "Metrics.histogram: buckets must be strictly increasing")
    buckets;
  let h =
    {
      bounds = Array.copy buckets;
      counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
      h_sum = Atomic.make 0.;
    }
  in
  register t ~help ~kind:"histogram" name (fun () ->
      let s = hist_snapshot h in
      List.map
        (fun (bound, cumulative) ->
          ( Printf.sprintf "_bucket{le=\"%s\"}" (prom_bound bound),
            string_of_int cumulative ))
        (Array.to_list s.buckets)
      @ [ ("_sum", prom_float s.sum); ("_count", string_of_int s.count) ]);
  h

let family t ~help ~kind ~label name fresh value =
  if not (valid_name label) then
    invalid_arg (Printf.sprintf "Metrics: invalid label name %S" label);
  let f = { fresh; series_lock = Mutex.create (); series = Hashtbl.create 8 } in
  register t ~help ~kind name (fun () ->
      Mutex.protect f.series_lock (fun () ->
          Hashtbl.fold (fun v s acc -> (v, value s) :: acc) f.series [])
      |> List.sort compare
      |> List.map (fun (v, x) ->
             (Printf.sprintf "{%s=\"%s\"}" label (escape ~quote:true v), x)));
  f

let counter_family t ~help ~label name =
  family t ~help ~kind:"counter" ~label name
    (fun () -> Atomic.make 0)
    (fun c -> string_of_int (Atomic.get c))

let gauge_family t ~help ~label name =
  family t ~help ~kind:"gauge" ~label name
    (fun () -> Atomic.make 0.)
    (fun g -> prom_float (Atomic.get g))

let labeled f value =
  Mutex.protect f.series_lock (fun () ->
      match Hashtbl.find_opt f.series value with
      | Some s -> s
      | None ->
          let s = f.fresh () in
          Hashtbl.add f.series value s;
          s)

let retain f ~keep =
  Mutex.protect f.series_lock (fun () ->
      Hashtbl.filter_map_inplace
        (fun v s -> if keep v then Some s else None)
        f.series)

let incr = Atomic.incr
let add c n = ignore (Atomic.fetch_and_add c n)
let counter_value = Atomic.get
let set_gauge = Atomic.set

let rec atomic_add_float a x =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. x)) then atomic_add_float a x

let observe h x =
  let rec bucket i =
    if i >= Array.length h.bounds || x <= h.bounds.(i) then i else bucket (i + 1)
  in
  Atomic.incr h.counts.(bucket 0);
  atomic_add_float h.h_sum x

(* ---------------- Prometheus text exposition ---------------- *)

let to_prometheus t =
  let entries = Mutex.protect t.lock (fun () -> List.rev t.entries) in
  let buf = Buffer.create 1024 in
  List.iter
    (fun { name; help; kind; samples } ->
      Printf.bprintf buf "# HELP %s %s\n# TYPE %s %s\n" name
        (escape ~quote:false help) name kind;
      List.iter
        (fun (series, value) ->
          Printf.bprintf buf "%s%s %s\n" name series value)
        (samples ()))
    entries;
  Buffer.contents buf
