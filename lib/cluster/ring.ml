(* Points are (hash, member) pairs sorted by unsigned hash, ties broken
   by member name then vnode index at build time so the ring is a pure
   function of (members, vnodes). *)

let default_vnodes = 128

(* FNV-1a 64 over the bytes, then a splitmix64 finalizer: FNV alone
   clusters on short common-prefix inputs (socket paths differing in one
   digit), the finalizer spreads them over the whole circle. *)
let hash64 s =
  let open Int64 in
  (* A loop over a local ref keeps [h] unboxed: no allocation per byte. *)
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h := mul (logxor !h (of_int (Char.code s.[i]))) 0x100000001b3L
  done;
  let h = !h in
  let h = logxor h (shift_right_logical h 30) in
  let h = mul h 0xbf58476d1ce4e5b9L in
  let h = logxor h (shift_right_logical h 27) in
  let h = mul h 0x94d049bb133111ebL in
  logxor h (shift_right_logical h 31)

type t = {
  members : string array;  (* sorted, distinct *)
  points : (int64 * string) array;  (* sorted by unsigned hash *)
}

let create ?(vnodes = default_vnodes) members =
  if vnodes < 1 then invalid_arg "Ring.create: vnodes must be >= 1";
  let members =
    Array.of_list (List.sort_uniq String.compare members)
  in
  let points =
    Array.init
      (Array.length members * vnodes)
      (fun i ->
        let m = members.(i / vnodes) in
        (hash64 (Printf.sprintf "%s#%d" m (i mod vnodes)), m))
  in
  Array.sort
    (fun (ha, ma) (hb, mb) ->
      match Int64.unsigned_compare ha hb with
      | 0 -> String.compare ma mb
      | c -> c)
    points;
  { members; points }

let members t = Array.to_list t.members
let is_empty t = Array.length t.members = 0

(* Index of the first point at or clockwise after [h] (wrapping). *)
let locate t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst t.points.(mid)) h < 0 then lo := mid + 1
    else hi := mid
  done;
  if !lo = n then 0 else !lo

let owner t key =
  if is_empty t then None
  else Some (snd t.points.(locate t (hash64 key)))

let successors t key =
  if is_empty t then []
  else begin
    let n = Array.length t.points in
    let want = Array.length t.members in
    let seen = Hashtbl.create want in
    let order = ref [] in
    let i = ref (locate t (hash64 key)) in
    while Hashtbl.length seen < want do
      let m = snd t.points.(!i) in
      if not (Hashtbl.mem seen m) then begin
        Hashtbl.add seen m ();
        order := m :: !order
      end;
      i := (!i + 1) mod n
    done;
    List.rev !order
  end
