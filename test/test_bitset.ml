(* Unit and property tests for Ssg_util.Bitset. *)

open Ssg_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_empty () =
  let s = Bitset.create 10 in
  check "empty" true (Bitset.is_empty s);
  check_int "cardinal" 0 (Bitset.cardinal s);
  check_int "capacity" 10 (Bitset.capacity s);
  check "mem" false (Bitset.mem s 3)

let test_add_remove () =
  let s = Bitset.create 70 in
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 69;
  check "mem 0" true (Bitset.mem s 0);
  check "mem 63" true (Bitset.mem s 63);
  check "mem 69" true (Bitset.mem s 69);
  check "mem 64" false (Bitset.mem s 64);
  check_int "cardinal" 3 (Bitset.cardinal s);
  Bitset.remove s 63;
  check "removed" false (Bitset.mem s 63);
  check_int "cardinal after remove" 2 (Bitset.cardinal s);
  Bitset.add s 0;
  check_int "idempotent add" 2 (Bitset.cardinal s)

let test_full () =
  let s = Bitset.full 65 in
  check_int "cardinal" 65 (Bitset.cardinal s);
  check "mem last" true (Bitset.mem s 64);
  Bitset.clear s;
  check "cleared" true (Bitset.is_empty s);
  Bitset.fill s;
  check_int "refilled" 65 (Bitset.cardinal s)

let test_full_word_boundary () =
  (* Capacity a multiple of the word size exercises the last-word mask. *)
  List.iter
    (fun n ->
      let s = Bitset.full n in
      check_int (Printf.sprintf "full %d" n) n (Bitset.cardinal s);
      check_int "elements length" n (List.length (Bitset.elements s)))
    [ 1; 62; 63; 64; 126; 128 ]

let test_zero_capacity () =
  let s = Bitset.create 0 in
  check "empty" true (Bitset.is_empty s);
  check "full 0 empty too" true (Bitset.is_empty (Bitset.full 0));
  check "equal" true (Bitset.equal s (Bitset.create 0))

let test_out_of_range () =
  let s = Bitset.create 5 in
  Alcotest.check_raises "mem -1" (Invalid_argument "Bitset: index -1 out of range [0, 5)")
    (fun () -> ignore (Bitset.mem s (-1)));
  Alcotest.check_raises "add 5" (Invalid_argument "Bitset: index 5 out of range [0, 5)")
    (fun () -> Bitset.add s 5)

let test_capacity_mismatch () =
  let a = Bitset.create 4 and b = Bitset.create 5 in
  Alcotest.check_raises "inter" (Invalid_argument "Bitset: capacity mismatch (4 vs 5)")
    (fun () -> ignore (Bitset.inter a b))

let test_set_algebra () =
  let a = Bitset.of_list 10 [ 1; 3; 5; 7 ] in
  let b = Bitset.of_list 10 [ 3; 4; 5; 6 ] in
  check "inter" true (Bitset.equal (Bitset.inter a b) (Bitset.of_list 10 [ 3; 5 ]));
  check "union" true
    (Bitset.equal (Bitset.union a b) (Bitset.of_list 10 [ 1; 3; 4; 5; 6; 7 ]));
  check "diff" true (Bitset.equal (Bitset.diff a b) (Bitset.of_list 10 [ 1; 7 ]));
  check "subset no" false (Bitset.subset a b);
  check "subset yes" true (Bitset.subset (Bitset.of_list 10 [ 3; 5 ]) a);
  check "disjoint no" false (Bitset.disjoint a b);
  check "disjoint yes" true
    (Bitset.disjoint a (Bitset.of_list 10 [ 0; 2; 4 ]))

let test_iter_order () =
  let s = Bitset.of_list 100 [ 99; 0; 64; 63; 31 ] in
  Alcotest.(check (list int)) "elements sorted" [ 0; 31; 63; 64; 99 ]
    (Bitset.elements s);
  check_int "min_elt" 0 (Bitset.min_elt s);
  check_int "fold count" 5 (Bitset.fold (fun _ acc -> acc + 1) s 0);
  (* 62 and 125 are the sign bits of their words. *)
  let s = Bitset.of_list 130 [ 129; 125; 64; 63; 62; 61; 0 ] in
  Alcotest.(check (list int)) "sign-bit elements sorted"
    [ 0; 61; 62; 63; 64; 125; 129 ] (Bitset.elements s);
  check_int "min_elt at a sign bit" 62
    (Bitset.min_elt (Bitset.of_list 130 [ 125; 62 ]));
  check_int "min_elt at the second sign bit" 125
    (Bitset.min_elt (Bitset.of_list 130 [ 129; 125 ]))

let test_min_elt_empty () =
  let s = Bitset.create 8 in
  check "min_elt_opt" true (Bitset.min_elt_opt s = None);
  Alcotest.check_raises "min_elt" Not_found (fun () ->
      ignore (Bitset.min_elt s))

let test_for_all_exists () =
  let s = Bitset.of_list 20 [ 2; 4; 6 ] in
  check "for_all even" true (Bitset.for_all (fun i -> i mod 2 = 0) s);
  check "for_all >2" false (Bitset.for_all (fun i -> i > 2) s);
  check "exists 6" true (Bitset.exists (fun i -> i = 6) s);
  check "exists 7" false (Bitset.exists (fun i -> i = 7) s);
  check "for_all empty" true
    (Bitset.for_all (fun _ -> false) (Bitset.create 5))

let test_copy_independent () =
  let a = Bitset.of_list 10 [ 1; 2 ] in
  let b = Bitset.copy a in
  Bitset.add b 9;
  check "original unchanged" false (Bitset.mem a 9);
  check "copy changed" true (Bitset.mem b 9)

let test_blit () =
  let a = Bitset.of_list 10 [ 1; 2 ] in
  let b = Bitset.of_list 10 [ 7 ] in
  Bitset.blit ~src:a ~dst:b;
  check "blit equal" true (Bitset.equal a b)

let test_pp () =
  Alcotest.(check string) "pp" "{1, 3}" (Bitset.to_string (Bitset.of_list 5 [ 3; 1 ]));
  Alcotest.(check string) "pp empty" "{}" (Bitset.to_string (Bitset.create 5))

(* Property tests: bitsets behave like the reference Stdlib Set. *)

module IntSet = Set.Make (Int)

let cap = 130

let gen_elems = QCheck2.Gen.(list_size (int_bound 40) (int_bound (cap - 1)))

let of_elems xs = Bitset.of_list cap xs
let to_set s = IntSet.of_list (Bitset.elements s)

let prop_model name f =
  QCheck2.Test.make ~count:300 ~name
    QCheck2.Gen.(pair gen_elems gen_elems)
    (fun (xs, ys) -> f (of_elems xs) (of_elems ys) (IntSet.of_list xs) (IntSet.of_list ys))

let props =
  [
    prop_model "inter models Set.inter" (fun a b sa sb ->
        IntSet.equal (to_set (Bitset.inter a b)) (IntSet.inter sa sb));
    prop_model "union models Set.union" (fun a b sa sb ->
        IntSet.equal (to_set (Bitset.union a b)) (IntSet.union sa sb));
    prop_model "diff models Set.diff" (fun a b sa sb ->
        IntSet.equal (to_set (Bitset.diff a b)) (IntSet.diff sa sb));
    prop_model "subset models Set.subset" (fun a b sa sb ->
        Bitset.subset a b = IntSet.subset sa sb);
    prop_model "disjoint models Set.disjoint" (fun a b sa sb ->
        Bitset.disjoint a b = IntSet.disjoint sa sb);
    prop_model "cardinal models Set.cardinal" (fun a _ sa _ ->
        Bitset.cardinal a = IntSet.cardinal sa);
    prop_model "equal iff same set" (fun a b sa sb ->
        Bitset.equal a b = IntSet.equal sa sb);
    prop_model "compare consistent with equal" (fun a b sa sb ->
        (Bitset.compare a b = 0) = IntSet.equal sa sb);
    prop_model "union is commutative" (fun a b _ _ ->
        Bitset.equal (Bitset.union a b) (Bitset.union b a));
    prop_model "inter distributes over union" (fun a b _ _ ->
        let c = Bitset.of_list cap [ 0; 17; 64; 99 ] in
        Bitset.equal
          (Bitset.inter a (Bitset.union b c))
          (Bitset.union (Bitset.inter a b) (Bitset.inter a c)));
    prop_model "de Morgan via diff" (fun a b _ _ ->
        let u = Bitset.full cap in
        Bitset.equal
          (Bitset.diff u (Bitset.union a b))
          (Bitset.inter (Bitset.diff u a) (Bitset.diff u b)));
  ]

let tests =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "add/remove" `Quick test_add_remove;
    Alcotest.test_case "full/clear/fill" `Quick test_full;
    Alcotest.test_case "word boundaries" `Quick test_full_word_boundary;
    Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
    Alcotest.test_case "out of range" `Quick test_out_of_range;
    Alcotest.test_case "capacity mismatch" `Quick test_capacity_mismatch;
    Alcotest.test_case "set algebra" `Quick test_set_algebra;
    Alcotest.test_case "iteration order" `Quick test_iter_order;
    Alcotest.test_case "min_elt on empty" `Quick test_min_elt_empty;
    Alcotest.test_case "for_all/exists" `Quick test_for_all_exists;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "blit" `Quick test_blit;
    Alcotest.test_case "pretty printing" `Quick test_pp;
  ]
  @ List.map QCheck_alcotest.to_alcotest props
