(* Tests for Ssg_util.Stats. *)

open Ssg_util

let checkf msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

let test_mean_stddev () =
  checkf "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  checkf "stddev of constant" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |]);
  checkf "stddev" (sqrt 2.0) (Stats.stddev [| 1.0; 3.0; 1.0; 3.0; 0.0; 4.0 |])

let test_min_max () =
  checkf "min" (-2.0) (Stats.minimum [| 3.0; -2.0; 7.0 |]);
  checkf "max" 7.0 (Stats.maximum [| 3.0; -2.0; 7.0 |])

let test_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0 |] in
  checkf "p0" 10.0 (Stats.percentile xs 0.0);
  checkf "p100" 40.0 (Stats.percentile xs 100.0);
  checkf "p50 interpolated" 25.0 (Stats.percentile xs 50.0);
  checkf "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  checkf "singleton" 9.0 (Stats.percentile [| 9.0 |] 73.0)

let test_percentile_sorted () =
  checkf "singleton" 7.0 (Stats.percentile_sorted [| 7.0 |] 99.0);
  let sorted = [| 1.0; 2.0; 3.0; 4.0 |] in
  checkf "p0 is the min" 1.0 (Stats.percentile_sorted sorted 0.0);
  checkf "p100 is the max" 4.0 (Stats.percentile_sorted sorted 100.0);
  (* rank 0.5 * 3 = 1.5 — halfway between 2 and 3. *)
  checkf "p50 interpolates" 2.5 (Stats.percentile_sorted sorted 50.0);
  checkf "p75 interpolates" 3.25 (Stats.percentile_sorted sorted 75.0)

let test_percentile_unsorted_input_untouched () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.percentile xs 50.0);
  Alcotest.(check (array (float 0.0))) "input preserved" [| 3.0; 1.0; 2.0 |] xs

let test_linear_fit () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = Array.map (fun x -> (3.0 *. x) +. 1.0) xs in
  let slope, intercept = Stats.linear_fit xs ys in
  checkf "slope" 3.0 slope;
  checkf "intercept" 1.0 intercept

let test_linear_fit_noisy () =
  (* Fit is exact for collinear points regardless of order. *)
  let slope, intercept = Stats.linear_fit [| 5.0; 1.0; 3.0 |] [| -10.0; -2.0; -6.0 |] in
  checkf "slope" (-2.0) slope;
  checkf "intercept" 0.0 intercept

let test_linear_fit_errors () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Stats.linear_fit: length mismatch") (fun () ->
      ignore (Stats.linear_fit [| 1.0 |] [| 1.0; 2.0 |]));
  Alcotest.check_raises "too few"
    (Invalid_argument "Stats.linear_fit: need at least 2 points") (fun () ->
      ignore (Stats.linear_fit [| 1.0 |] [| 1.0 |]));
  Alcotest.check_raises "degenerate"
    (Invalid_argument "Stats.linear_fit: degenerate x values") (fun () ->
      ignore (Stats.linear_fit [| 2.0; 2.0 |] [| 1.0; 5.0 |]))

let test_histogram () =
  let h = Stats.histogram ~buckets:2 [| 0.0; 1.0; 2.0; 3.0 |] in
  Alcotest.(check int) "buckets" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "counts sum" 4 total;
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check int) "low bucket" 2 c0;
  Alcotest.(check int) "high bucket" 2 c1

let test_histogram_constant () =
  let h = Stats.histogram ~buckets:3 [| 7.0; 7.0 |] in
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "counts sum" 2 total

let test_empty_raises () =
  Alcotest.check_raises "mean" (Invalid_argument "Stats.mean: empty sample")
    (fun () -> ignore (Stats.mean [||]))

let test_of_ints () =
  Alcotest.(check (array (float 0.0))) "of_ints" [| 1.0; 2.0 |]
    (Stats.of_ints [| 1; 2 |])

let tests =
  [
    Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile preserves input" `Quick
      test_percentile_unsorted_input_untouched;
    Alcotest.test_case "percentile of a sorted sample" `Quick
      test_percentile_sorted;
    Alcotest.test_case "linear fit" `Quick test_linear_fit;
    Alcotest.test_case "linear fit (negative slope)" `Quick test_linear_fit_noisy;
    Alcotest.test_case "linear fit errors" `Quick test_linear_fit_errors;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "histogram constant" `Quick test_histogram_constant;
    Alcotest.test_case "empty raises" `Quick test_empty_raises;
    Alcotest.test_case "of_ints" `Quick test_of_ints;
  ]
