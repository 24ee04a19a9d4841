(* Sample arithmetic shared by the load drivers, the traced walk and the
   result line.  Everything here is pure so the self-tests can pin it on
   fixed samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Percentile [p] in [0, 1] of an ascending array, interpolating
   linearly between the two closest ranks (numpy's default).  A failed
   request enters the samples as [infinity], so it counts as missing any
   latency limit: a percentile that reaches it reads [infinity]. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    if frac = 0. then a.(lo)
    else if a.(hi) = infinity then infinity
    else a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let percentile xs p = percentile_sorted (sorted xs) p
let median xs = percentile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* [per_job total jobs] — a total spread over the jobs it served; 0 when
   no job was served, so a bypassed layer reads 0, not nan. *)
let per_job total jobs = if jobs <= 0 then 0. else total /. float_of_int jobs

(* Quantile of a Prometheus histogram from its cumulative bucket counts
   [(upper_bound, count)], in bound order with [+Inf] last — the same
   interpolation as PromQL's [histogram_quantile]: find the bucket the
   rank falls in and interpolate linearly inside it, from 0 for the
   first bucket.  A rank in the [+Inf] bucket reads the last finite
   bound.  0 when the histogram is empty. *)
let hist_quantile buckets q =
  let n = Array.length buckets in
  let total = if n = 0 then 0 else snd buckets.(n - 1) in
  if total <= 0 then 0.
  else
    let rank = q *. float_of_int total in
    let rec go i =
      let bound, count = buckets.(i) in
      if float_of_int count >= rank || i = n - 1 then
        let lo_bound, lo_count = if i = 0 then (0., 0) else buckets.(i - 1) in
        if bound = infinity then lo_bound
        else if count = lo_count then bound
        else
          lo_bound
          +. (bound -. lo_bound)
             *. (rank -. float_of_int lo_count)
             /. float_of_int (count - lo_count)
      else go (i + 1)
    in
    go 0

(* The residual of the per-layer table: end-to-end mean latency (ms)
   minus the walked rows (µs per job). *)
let unattributed_ms ~mean_ms rows_us =
  mean_ms -. (List.fold_left ( +. ) 0. rows_us /. 1000.)
