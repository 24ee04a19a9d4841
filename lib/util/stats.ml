let require_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty sample")

let mean xs =
  require_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let stddev xs =
  require_nonempty "Stats.stddev" xs;
  let m = mean xs in
  let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
  sqrt (ss /. float_of_int (Array.length xs))

let minimum xs =
  require_nonempty "Stats.minimum" xs;
  Array.fold_left Float.min xs.(0) xs

let maximum xs =
  require_nonempty "Stats.maximum" xs;
  Array.fold_left Float.max xs.(0) xs

(* Percentile with linear interpolation, on a pre-sorted copy. *)
let percentile_sorted sorted q =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = q /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let percentile xs q =
  require_nonempty "Stats.percentile" xs;
  if q < 0.0 || q > 100.0 then invalid_arg "Stats.percentile: q out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  percentile_sorted sorted q

let median xs = percentile xs 50.0

let linear_fit xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.linear_fit: length mismatch";
  if n < 2 then invalid_arg "Stats.linear_fit: need at least 2 points";
  let fx = mean xs and fy = mean ys in
  let num = ref 0.0 and den = ref 0.0 in
  for i = 0 to n - 1 do
    num := !num +. ((xs.(i) -. fx) *. (ys.(i) -. fy));
    den := !den +. ((xs.(i) -. fx) ** 2.0)
  done;
  if !den = 0.0 then invalid_arg "Stats.linear_fit: degenerate x values";
  let slope = !num /. !den in
  (slope, fy -. (slope *. fx))

let of_ints xs = Array.map float_of_int xs

let histogram ~buckets xs =
  if buckets <= 0 then invalid_arg "Stats.histogram: buckets must be positive";
  require_nonempty "Stats.histogram" xs;
  let lo = minimum xs and hi = maximum xs in
  let width =
    if hi = lo then 1.0 else (hi -. lo) /. float_of_int buckets
  in
  let counts = Array.make buckets 0 in
  Array.iter
    (fun x ->
      let b = int_of_float ((x -. lo) /. width) in
      let b = if b >= buckets then buckets - 1 else b in
      counts.(b) <- counts.(b) + 1)
    xs;
  Array.mapi
    (fun i c ->
      (lo +. (float_of_int i *. width), lo +. (float_of_int (i + 1) *. width), c))
    counts
