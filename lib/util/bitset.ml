(* Packed bitsets over [0 .. capacity-1].  Words are native ints; we use
   [word_bits] bits per word.  The last word may contain slack bits that are
   kept at zero by every operation ([fill] masks them), so [cardinal],
   [equal] and friends can work word-wise without special cases. *)

let word_bits = Sys.int_size

type t = { n : int; words : int array }

let words_for n = if n = 0 then 0 else ((n - 1) / word_bits) + 1

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { n; words = Array.make (words_for n) 0 }

let capacity s = s.n

let check_range s i =
  if i < 0 || i >= s.n then
    invalid_arg
      (Printf.sprintf "Bitset: index %d out of range [0, %d)" i s.n)

let check_same a b =
  if a.n <> b.n then
    invalid_arg
      (Printf.sprintf "Bitset: capacity mismatch (%d vs %d)" a.n b.n)

let copy s = { n = s.n; words = Array.copy s.words }

let blit ~src ~dst =
  check_same src dst;
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let mem s i =
  check_range s i;
  s.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let add s i =
  check_range s i;
  let w = i / word_bits in
  s.words.(w) <- s.words.(w) lor (1 lsl (i mod word_bits))

let remove s i =
  check_range s i;
  let w = i / word_bits in
  s.words.(w) <- s.words.(w) land lnot (1 lsl (i mod word_bits))

let clear s = Array.fill s.words 0 (Array.length s.words) 0

(* Mask of the valid bits of the last word. *)
let last_mask n =
  let r = n mod word_bits in
  if r = 0 then -1 else (1 lsl r) - 1

let fill s =
  let k = Array.length s.words in
  if k > 0 then begin
    Array.fill s.words 0 k (-1);
    s.words.(k - 1) <- s.words.(k - 1) land last_mask s.n
  end

let full n =
  let s = create n in
  fill s;
  s

let singleton n i =
  let s = create n in
  add s i;
  s

let of_list n xs =
  let s = create n in
  List.iter (add s) xs;
  s

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal s = Array.fold_left (fun acc w -> acc + popcount w) 0 s.words

let is_empty s = Array.for_all (fun w -> w = 0) s.words

let equal a b =
  check_same a b;
  Array.for_all2 (fun x y -> x = y) a.words b.words

let subset a b =
  check_same a b;
  Array.for_all2 (fun x y -> x land lnot y = 0) a.words b.words

let disjoint a b =
  check_same a b;
  Array.for_all2 (fun x y -> x land y = 0) a.words b.words

let inter_into ~into src =
  check_same into src;
  Array.iteri (fun i w -> into.words.(i) <- into.words.(i) land w) src.words

let union_into ~into src =
  check_same into src;
  Array.iteri (fun i w -> into.words.(i) <- into.words.(i) lor w) src.words

let diff_into ~into src =
  check_same into src;
  Array.iteri
    (fun i w -> into.words.(i) <- into.words.(i) land lnot w)
    src.words

let inter a b =
  let r = copy a in
  inter_into ~into:r b;
  r

let union a b =
  let r = copy a in
  union_into ~into:r b;
  r

let diff a b =
  let r = copy a in
  diff_into ~into:r b;
  r

(* [x land (-x)] isolates the lowest set bit, 2^i.  Since 2 is a
   primitive root mod 67, 2^i mod 67 is distinct for i = 0..65, so one
   table lookup recovers i.  The sign bit (i = word_bits - 1) isolates to
   [min_int], whose remainder is negative: it gets its own case. *)
let bit_index =
  let t = Array.make 67 0 in
  for i = 0 to word_bits - 2 do
    t.((1 lsl i) mod 67) <- i
  done;
  t

let lowest_bit w =
  let b = w land -w in
  if b < 0 then word_bits - 1 else bit_index.(b mod 67)

let iter f s =
  Array.iteri
    (fun wi word ->
      let base = wi * word_bits in
      let w = ref word in
      while !w <> 0 do
        f (base + lowest_bit !w);
        w := !w land (!w - 1)
      done)
    s.words

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

exception Early_exit

let for_all p s =
  try
    iter (fun i -> if not (p i) then raise Early_exit) s;
    true
  with Early_exit -> false

let exists p s = not (for_all (fun i -> not (p i)) s)

let elements s = List.rev (fold (fun i acc -> i :: acc) s [])

let min_elt s =
  let rec go wi =
    if wi >= Array.length s.words then raise Not_found
    else if s.words.(wi) = 0 then go (wi + 1)
    else (wi * word_bits) + lowest_bit s.words.(wi)
  in
  go 0

let min_elt_opt s = match min_elt s with i -> Some i | exception Not_found -> None
let choose = min_elt

let compare a b =
  check_same a b;
  let rec go i =
    if i >= Array.length a.words then 0
    else
      let c = Stdlib.compare a.words.(i) b.words.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let hash s = Array.fold_left (fun acc w -> (acc * 31) + w) s.n s.words

let pp fmt s =
  Format.fprintf fmt "{";
  let first = ref true in
  iter
    (fun i ->
      if !first then first := false else Format.fprintf fmt ", ";
      Format.fprintf fmt "%d" i)
    s;
  Format.fprintf fmt "}"

let to_string s = Format.asprintf "%a" pp s
