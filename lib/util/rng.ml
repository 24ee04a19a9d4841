(* SplitMix64 (Steele, Lea & Flood 2014).  Small state, passes BigCrush,
   and supports cheap splitting — ideal for reproducible parallel runs. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let make seed = { state = seed }
let of_int seed = make (Int64.of_int seed)
let copy g = { state = g.state }

let next g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state

let split g =
  let s = next g in
  (* Re-mix with a distinct finalizer so parent and child streams differ
     even for pathological seeds. *)
  make (mix (Int64.logxor s 0xD6E8FEB86659FD93L))

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let rec go () =
    let r = Int64.to_int (Int64.shift_right_logical (next g) 2) in
    let v = r mod bound in
    if r - v > max_int - bound then go () else v
  in
  go ()

let int_in g lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int g (hi - lo + 1)

let float g =
  let bits53 = Int64.to_float (Int64.shift_right_logical (next g) 11) in
  bits53 /. 9007199254740992.0 (* 2^53 *)

let bool g = Int64.logand (next g) 1L = 1L
let chance g p = if p >= 1.0 then true else if p <= 0.0 then false else float g < p

let pick g arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int g (Array.length arr))

let shuffle g arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation g n =
  let arr = Array.init n (fun i -> i) in
  shuffle g arr;
  arr

let sample g n k =
  if k < 0 || k > n then invalid_arg "Rng.sample: k out of range";
  let perm = permutation g n in
  let picked = Array.sub perm 0 k in
  Array.sort Stdlib.compare picked;
  picked
