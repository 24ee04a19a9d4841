(* Tests for Table, Pool and Order. *)

open Ssg_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Table *)

let test_table_render () =
  let t = Table.create [ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  check_str "header" "name   value" (List.nth lines 0);
  check_str "row 1" "alpha  1" (List.nth lines 2);
  check_str "row 2" "b      22" (List.nth lines 3)

let test_table_padding () =
  let t = Table.create [ "a"; "b"; "c" ] in
  Table.add_row t [ "x" ];
  (* short row padded *)
  check "renders" true (String.length (Table.render t) > 0);
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Table.add_row: more cells than headers") (fun () ->
      Table.add_row t [ "1"; "2"; "3"; "4" ])

let test_table_rule () =
  let t = Table.create [ "x" ] in
  Table.add_row t [ "1" ];
  Table.add_rule t;
  Table.add_row t [ "2" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  check "rule is dashes" true
    (String.for_all (fun c -> c = '-') (List.nth lines 3))

let test_table_csv () =
  let t = Table.create [ "a"; "b" ] in
  Table.add_row t [ "x,y"; "pla\"in" ];
  Table.add_rule t;
  Table.add_row t [ "1"; "2" ];
  check_str "csv" "a,b\n\"x,y\",\"pla\"\"in\"\n1,2\n" (Table.to_csv t)

let test_table_cells () =
  check_str "int" "42" (Table.cell_int 42);
  check_str "float" "3.14" (Table.cell_float ~decimals:2 3.14159);
  check_str "bool" "yes" (Table.cell_bool true);
  check_str "bool no" "no" (Table.cell_bool false)

(* Pool.run: a pool of [jobs - 1] workers plus the caller *)

let test_parallel_map_matches_sequential () =
  let xs = List.init 200 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "parallel = sequential" (List.map f xs)
    (Pool.run ~jobs:5 f xs)

let test_parallel_zero_domains () =
  let xs = List.init 10 Fun.id in
  Alcotest.(check (list int)) "sequential path" (List.map succ xs)
    (Pool.run ~jobs:1 succ xs)

let test_parallel_empty () =
  check_int "empty input" 0 (List.length (Pool.run ~jobs:3 succ []))

let test_parallel_order_preserved () =
  let xs = List.init 64 Fun.id in
  let ys = Pool.run ~jobs:4 Fun.id xs in
  Alcotest.(check (list int)) "order" xs ys

let test_parallel_exception () =
  Alcotest.check_raises "propagates" (Failure "boom") (fun () ->
      ignore
        (Pool.run ~jobs:3
           (fun x -> if x = 5 then failwith "boom" else x)
           (List.init 10 Fun.id)))

(* The caller works through the items itself, so a pool whose only
   worker is stuck on other work still answers [map]. *)
let test_pool_map_with_busy_worker () =
  let pool = Pool.create ~workers:1 () in
  let started = Atomic.make false and release = Atomic.make false in
  assert (
    Pool.submit pool (fun () ->
        Atomic.set started true;
        while not (Atomic.get release) do
          Domain.cpu_relax ()
        done));
  while not (Atomic.get started) do
    Thread.yield ()
  done;
  let result = Atomic.make None in
  let mapper =
    Thread.create
      (fun () -> Atomic.set result (Some (Pool.map pool succ [ 1; 2; 3 ])))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Thread.join mapper;
      Pool.shutdown pool)
    (fun () ->
      Service.eventually ~deadline_s:5. ~what:"map returned" (fun () ->
          Atomic.get result <> None));
  check "map returned within 5 s" true (Atomic.get result = Some [ 2; 3; 4 ])

(* Order *)

let test_min_by () =
  check_int "min_by" 3 (Order.min_by (fun x -> x * x) [ 5; -4; 3 ]);
  check_int "max_by" (-4) (Order.max_by (fun x -> x * x) [ 3; -4; 2 ]);
  check_int "leftmost tie" 2 (Order.min_by (fun x -> x mod 2) [ 2; 4; 6 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Order.min_by: empty list")
    (fun () -> ignore (Order.min_by Fun.id []))

let test_argmin_argmax () =
  check_int "argmin" 1 (Order.argmin [| 4; 1; 3 |]);
  check_int "argmax" 0 (Order.argmax [| 4; 1; 3 |]);
  check_int "argmin tie leftmost" 0 (Order.argmin [| 1; 1 |])

let test_clamp () =
  check_int "below" 0 (Order.clamp ~lo:0 ~hi:10 (-5));
  check_int "above" 10 (Order.clamp ~lo:0 ~hi:10 15);
  check_int "inside" 7 (Order.clamp ~lo:0 ~hi:10 7)

let test_distinct () =
  Alcotest.(check (list int)) "distinct" [ 1; 2; 3 ]
    (Order.distinct [ 3; 1; 2; 1; 3; 3 ])

let tests =
  [
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table padding" `Quick test_table_padding;
    Alcotest.test_case "table rule" `Quick test_table_rule;
    Alcotest.test_case "table csv" `Quick test_table_csv;
    Alcotest.test_case "table cells" `Quick test_table_cells;
    Alcotest.test_case "parallel map = sequential" `Quick
      test_parallel_map_matches_sequential;
    Alcotest.test_case "parallel zero domains" `Quick test_parallel_zero_domains;
    Alcotest.test_case "parallel empty" `Quick test_parallel_empty;
    Alcotest.test_case "parallel order" `Quick test_parallel_order_preserved;
    Alcotest.test_case "parallel exception" `Quick test_parallel_exception;
    Alcotest.test_case "Pool.map finishes while the pool's only worker is busy"
      `Quick test_pool_map_with_busy_worker;
    Alcotest.test_case "min_by/max_by" `Quick test_min_by;
    Alcotest.test_case "argmin/argmax" `Quick test_argmin_argmax;
    Alcotest.test_case "clamp" `Quick test_clamp;
    Alcotest.test_case "distinct" `Quick test_distinct;
  ]
