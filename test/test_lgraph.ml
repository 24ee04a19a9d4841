(* Tests for the round-labelled approximation graph. *)

open Ssg_util
open Ssg_graph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_create () =
  let g = Lgraph.create 5 ~self:2 in
  check_int "capacity" 5 (Lgraph.capacity g);
  check "owner present" true (Lgraph.mem_node g 2);
  check_int "one node" 1 (Lgraph.node_count g);
  check_int "no edges" 0 (Lgraph.edge_count g);
  check "strongly connected (singleton)" true (Lgraph.is_strongly_connected g)

let test_set_edge () =
  let g = Lgraph.create 4 ~self:0 in
  Lgraph.set_edge g 1 0 ~label:3;
  check "edge present" true (Lgraph.mem_edge g 1 0);
  check_int "label" 3 (Lgraph.label g 1 0);
  check "endpoints added" true (Lgraph.mem_node g 1);
  check_int "absent label is 0" 0 (Lgraph.label g 0 1);
  Lgraph.set_edge g 1 0 ~label:5;
  check_int "overwrite" 5 (Lgraph.label g 1 0);
  Alcotest.check_raises "bad label"
    (Invalid_argument "Lgraph.set_edge: label must be positive") (fun () ->
      Lgraph.set_edge g 1 2 ~label:0)

let test_remove_edge () =
  let g = Lgraph.create 4 ~self:0 in
  Lgraph.set_edge g 1 2 ~label:1;
  Lgraph.remove_edge g 1 2;
  check "gone" false (Lgraph.mem_edge g 1 2);
  check "nodes kept" true (Lgraph.mem_node g 1 && Lgraph.mem_node g 2)

let test_reset () =
  let g = Lgraph.create 4 ~self:0 in
  Lgraph.set_edge g 1 2 ~label:1;
  Lgraph.reset g ~self:3;
  check_int "one node" 1 (Lgraph.node_count g);
  check "new owner" true (Lgraph.mem_node g 3);
  check_int "no edges" 0 (Lgraph.edge_count g)

let test_edges_listing () =
  let g = Lgraph.create 3 ~self:0 in
  Lgraph.set_edge g 2 1 ~label:4;
  Lgraph.set_edge g 0 1 ~label:2;
  Alcotest.(check (list (triple int int int))) "edges" [ (0, 1, 2); (2, 1, 4) ]
    (Lgraph.edges g)

let test_merge_max () =
  let a = Lgraph.create 4 ~self:0 in
  Lgraph.set_edge a 1 0 ~label:2;
  Lgraph.set_edge a 2 0 ~label:5;
  let b = Lgraph.create 4 ~self:1 in
  Lgraph.set_edge b 1 0 ~label:4;
  Lgraph.set_edge b 3 1 ~label:1;
  Lgraph.merge_max_into ~into:a (Lgraph.freeze b);
  check_int "max taken" 4 (Lgraph.label a 1 0);
  check_int "kept larger" 5 (Lgraph.label a 2 0);
  check_int "new edge" 1 (Lgraph.label a 3 1);
  check "nodes unioned" true (Lgraph.mem_node a 3)

let test_purge () =
  let g = Lgraph.create 4 ~self:0 in
  Lgraph.set_edge g 1 0 ~label:2;
  Lgraph.set_edge g 2 0 ~label:5;
  Lgraph.purge g ~upto:2;
  check "old gone" false (Lgraph.mem_edge g 1 0);
  check "new kept" true (Lgraph.mem_edge g 2 0);
  check "nodes kept" true (Lgraph.mem_node g 1)

let test_prune_unreachable () =
  let g = Lgraph.create 6 ~self:0 in
  (* 1 -> 0 (kept), 2 -> 1 (kept, reaches 0 via 1), 3 -> 4 (dropped, no
     path to 0), 0 -> 5 (5 dropped: 5 cannot reach 0). *)
  Lgraph.set_edge g 1 0 ~label:1;
  Lgraph.set_edge g 2 1 ~label:1;
  Lgraph.set_edge g 3 4 ~label:1;
  Lgraph.set_edge g 0 5 ~label:1;
  Lgraph.prune_unreachable g ~self:0;
  Alcotest.(check (list int)) "kept nodes" [ 0; 1; 2 ]
    (Bitset.elements (Lgraph.nodes g));
  check "edge 3->4 gone" false (Lgraph.mem_edge g 3 4);
  check "edge 0->5 gone" false (Lgraph.mem_edge g 0 5);
  check "edge 2->1 kept" true (Lgraph.mem_edge g 2 1)

let test_prune_keeps_owner () =
  let g = Lgraph.create 3 ~self:1 in
  Lgraph.add_node g 0;
  Lgraph.prune_unreachable g ~self:1;
  Alcotest.(check (list int)) "only owner" [ 1 ]
    (Bitset.elements (Lgraph.nodes g))

let test_strong_connectivity () =
  let g = Lgraph.create 4 ~self:0 in
  Lgraph.set_edge g 0 1 ~label:1;
  check "not sc" false (Lgraph.is_strongly_connected g);
  Lgraph.set_edge g 1 0 ~label:2;
  check "sc pair" true (Lgraph.is_strongly_connected g);
  Lgraph.add_node g 3;
  check "isolated node breaks sc" false (Lgraph.is_strongly_connected g)

let test_to_digraph () =
  let g = Lgraph.create 3 ~self:0 in
  Lgraph.set_edge g 1 2 ~label:7;
  let d = Lgraph.to_digraph g in
  check "edge carried" true (Digraph.mem_edge d 1 2);
  check_int "one edge" 1 (Digraph.edge_count d)

let test_min_max_label () =
  let g = Lgraph.create 3 ~self:0 in
  check "empty min" true (Lgraph.min_label g = None);
  Lgraph.set_edge g 0 1 ~label:3;
  Lgraph.set_edge g 1 2 ~label:9;
  Alcotest.(check (option int)) "min" (Some 3) (Lgraph.min_label g);
  Alcotest.(check (option int)) "max" (Some 9) (Lgraph.max_label g)

let test_encoded_bits () =
  let g = Lgraph.create 8 ~self:0 in
  (* id_bits for n=8 is 3 *)
  check_int "one node" 3 (Lgraph.encoded_bits g ~label_bits:5);
  Lgraph.set_edge g 1 0 ~label:1;
  (* 2 nodes * 3 + 1 edge * (6 + 5) *)
  check_int "node + edge" 17 (Lgraph.encoded_bits g ~label_bits:5)

let test_swap () =
  let a = Lgraph.create 3 ~self:0 in
  Lgraph.set_edge a 1 0 ~label:2;
  let b = Lgraph.create 3 ~self:2 in
  Lgraph.set_edge b 0 2 ~label:7;
  let a0 = Lgraph.copy a and b0 = Lgraph.copy b in
  Lgraph.swap a b;
  check "a has b's content" true (Lgraph.equal a b0);
  check "b has a's content" true (Lgraph.equal b a0);
  Lgraph.swap a b;
  check "swap is involutive" true (Lgraph.equal a a0 && Lgraph.equal b b0);
  check "mismatch rejected" true
    (try Lgraph.swap a (Lgraph.create 4 ~self:0); false
     with Invalid_argument _ -> true)

let test_copy_equal () =
  let g = Lgraph.create 3 ~self:0 in
  Lgraph.set_edge g 1 0 ~label:2;
  let h = Lgraph.copy g in
  check "equal" true (Lgraph.equal g h);
  Lgraph.set_edge h 2 0 ~label:1;
  check "independent" false (Lgraph.equal g h)

(* Properties.  n is 6, or one of the sizes where the presence rows span
   one, two or three 63-bit words, or the single-node universe. *)

let gen_n = QCheck2.Gen.(oneof [ return 6; oneofl [ 1; 62; 63; 64; 130 ] ])

let gen_lgraph_on n =
  QCheck2.Gen.(
    let edge = triple (int_bound (n - 1)) (int_bound (n - 1)) (int_range 1 9) in
    let+ es = list_size (int_bound (max 15 (2 * n))) edge in
    let g = Lgraph.create n ~self:0 in
    List.iter (fun (q, p, l) -> Lgraph.set_edge g q p ~label:l) es;
    g)

let gen_lgraph = QCheck2.Gen.(gen_n >>= gen_lgraph_on)

(* Two graphs on one universe: unrelated, or the second derived from the
   first by new labels, a removed edge or an extra node. *)
let gen_pair =
  QCheck2.Gen.(
    let* n = gen_n in
    let* a = gen_lgraph_on n in
    let* b = gen_lgraph_on n in
    let* v = int_bound (n - 1) in
    let+ mode = int_bound 3 in
    if mode = 0 then (a, b)
    else begin
      let b' = Lgraph.copy a in
      (match (mode, Lgraph.edges a) with
      | 1, es ->
          List.iter (fun (q, p, l) -> Lgraph.set_edge b' q p ~label:(l + 1)) es
      | 2, (q, p, _) :: _ -> Lgraph.remove_edge b' q p
      | _ -> Lgraph.add_node b' v);
      (a, b')
    end)

let props =
  [
    QCheck2.Test.make ~count:200 ~name:"merge_max commutative" gen_pair
      (fun (a, b) ->
        let ab = Lgraph.copy a and ba = Lgraph.copy b in
        Lgraph.merge_max_into ~into:ab (Lgraph.freeze b);
        Lgraph.merge_max_into ~into:ba (Lgraph.freeze a);
        Lgraph.equal ab ba);
    QCheck2.Test.make ~count:200 ~name:"merge_max idempotent" gen_lgraph
      (fun a ->
        let aa = Lgraph.copy a in
        Lgraph.merge_max_into ~into:aa (Lgraph.freeze a);
        Lgraph.equal aa a);
    QCheck2.Test.make ~count:200 ~name:"purge removes exactly stale labels"
      (QCheck2.Gen.pair gen_lgraph (QCheck2.Gen.int_range 0 10))
      (fun (g, upto) ->
        let before = Lgraph.edges g in
        Lgraph.purge g ~upto;
        let after = Lgraph.edges g in
        List.for_all (fun (_, _, l) -> l > upto) after
        && List.length after
           = List.length (List.filter (fun (_, _, l) -> l > upto) before));
    QCheck2.Test.make ~count:200
      ~name:"prune keeps exactly the backward closure" gen_lgraph (fun g ->
        let d = Lgraph.to_digraph g in
        let expect = Reach.reaches d 0 in
        (* owner 0 is always in the graph *)
        Lgraph.prune_unreachable g ~self:0;
        let kept = Lgraph.nodes g in
        (* every kept node reaches 0 in the original graph *)
        Bitset.for_all (fun v -> Bitset.mem expect v) kept
        && Bitset.for_all
             (fun v -> not (Bitset.mem kept v) || v = 0)
             (Bitset.diff (Bitset.full (Lgraph.capacity g)) expect));
    QCheck2.Test.make ~count:200 ~name:"edge_count = length of edges"
      gen_lgraph (fun g -> Lgraph.edge_count g = List.length (Lgraph.edges g));
    QCheck2.Test.make ~count:200
      ~name:"same_support iff equal nodes and digraphs" gen_pair (fun (a, b) ->
        Lgraph.same_support a (Lgraph.freeze b)
        = (Bitset.equal (Lgraph.nodes a) (Lgraph.nodes b)
          && Digraph.equal (Lgraph.to_digraph a) (Lgraph.to_digraph b)));
    QCheck2.Test.make ~count:200 ~name:"thaw (freeze g) = g" gen_lgraph
      (fun g ->
        let g' = Lgraph.thaw (Lgraph.freeze g) in
        Lgraph.equal g g' && Lgraph.same_support g' (Lgraph.freeze g));
    QCheck2.Test.make ~count:200
      ~name:"merging a snapshot = merging its thawed graph" gen_pair
      (fun (a, b) ->
        let f = Lgraph.freeze b in
        let merged = Lgraph.copy a and expect = Lgraph.copy a in
        Lgraph.merge_max_into ~into:merged f;
        let b' = Lgraph.thaw f in
        Bitset.iter (Lgraph.add_node expect) (Lgraph.nodes b');
        Lgraph.iter_edges b' (fun q p l ->
            if l > Lgraph.label expect q p then Lgraph.set_edge expect q p ~label:l);
        Lgraph.equal merged expect
        && Lgraph.same_support merged (Lgraph.freeze expect));
  ]

let tests =
  [
    Alcotest.test_case "create" `Quick test_create;
    Alcotest.test_case "set_edge" `Quick test_set_edge;
    Alcotest.test_case "remove_edge" `Quick test_remove_edge;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "edges listing" `Quick test_edges_listing;
    Alcotest.test_case "merge max" `Quick test_merge_max;
    Alcotest.test_case "purge" `Quick test_purge;
    Alcotest.test_case "prune unreachable" `Quick test_prune_unreachable;
    Alcotest.test_case "prune keeps owner" `Quick test_prune_keeps_owner;
    Alcotest.test_case "strong connectivity" `Quick test_strong_connectivity;
    Alcotest.test_case "to_digraph" `Quick test_to_digraph;
    Alcotest.test_case "min/max label" `Quick test_min_max_label;
    Alcotest.test_case "encoded bits" `Quick test_encoded_bits;
    Alcotest.test_case "swap" `Quick test_swap;
    Alcotest.test_case "copy/equal" `Quick test_copy_equal;
  ]
  @ List.map QCheck_alcotest.to_alcotest props
