(* Tests for wip_stats: histogram percentiles. *)

module Histogram = Wip_stats.Histogram

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check (float 0.0)) "p99" 0.0 (Histogram.percentile h 99.0);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Histogram.mean h)

let test_histogram_single () =
  let h = Histogram.create () in
  Histogram.add h 42.0;
  Alcotest.(check int) "count" 1 (Histogram.count h);
  Alcotest.(check (float 0.001)) "mean" 42.0 (Histogram.mean h);
  Alcotest.(check (float 0.001)) "max" 42.0 (Histogram.max_value h);
  let p = Histogram.percentile h 50.0 in
  Alcotest.(check bool) "p50 near 42" true (p >= 40.0 && p <= 44.7)

let test_histogram_percentiles_uniform () =
  let h = Histogram.create () in
  for i = 1 to 10_000 do
    Histogram.add h (float_of_int i)
  done;
  let check_pct p expected =
    let v = Histogram.percentile h p in
    let err = Float.abs (v -. expected) /. expected in
    if err > 0.08 then
      Alcotest.failf "p%.0f = %.1f, expected ~%.1f (err %.3f)" p v expected err
  in
  check_pct 50.0 5000.0;
  check_pct 90.0 9000.0;
  check_pct 99.0 9900.0;
  check_pct 99.9 9990.0

let test_histogram_percentile_bounded_by_max () =
  let h = Histogram.create () in
  Histogram.add h 10.0;
  Histogram.add h 1000.0;
  Alcotest.(check bool) "p999 <= max" true
    (Histogram.percentile h 99.9 <= Histogram.max_value h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add a (float_of_int i)
  done;
  for i = 101 to 200 do
    Histogram.add b (float_of_int i)
  done;
  Histogram.merge a b;
  Alcotest.(check int) "merged count" 200 (Histogram.count a);
  Alcotest.(check (float 0.001)) "merged max" 200.0 (Histogram.max_value a);
  Alcotest.(check (float 0.001)) "merged min" 1.0 (Histogram.min_value a);
  let p50 = Histogram.percentile a 50.0 in
  Alcotest.(check bool) "p50 near 100" true (p50 > 85.0 && p50 < 115.0)

let test_histogram_reset () =
  let h = Histogram.create () in
  Histogram.add h 5.0;
  Histogram.reset h;
  Alcotest.(check int) "count" 0 (Histogram.count h)

let test_histogram_negative_clamped () =
  let h = Histogram.create () in
  Histogram.add h (-5.0);
  Alcotest.(check int) "counted" 1 (Histogram.count h);
  Alcotest.(check bool) "clamped" true (Histogram.min_value h >= 0.0)

(* Regression: bucket 0 used to claim the range [1, 2), so sub-1.0 samples
   interpolated to percentile values above the observed maximum. *)
let test_histogram_sub_unit_samples () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 0.1; 0.2; 0.3; 0.4; 0.5 ];
  let mx = Histogram.max_value h and mn = Histogram.min_value h in
  List.iter
    (fun p ->
      let v = Histogram.percentile h p in
      if v > mx +. 1e-9 then
        Alcotest.failf "p%.1f = %f exceeds observed max %f" p v mx;
      if v < mn -. 1e-9 then
        Alcotest.failf "p%.1f = %f below observed min %f" p v mn)
    [ 1.0; 50.0; 90.0; 99.0; 99.9 ]

let qcheck_histogram_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone" ~count:50
    QCheck.(small_list (float_bound_exclusive 100000.0))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      let p50 = Histogram.percentile h 50.0 in
      let p90 = Histogram.percentile h 90.0 in
      let p99 = Histogram.percentile h 99.0 in
      p50 <= p90 +. 1e-9 && p90 <= p99 +. 1e-9)

let suite =
  [
    Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram single" `Quick test_histogram_single;
    Alcotest.test_case "histogram percentiles" `Quick
      test_histogram_percentiles_uniform;
    Alcotest.test_case "percentile <= max" `Quick
      test_histogram_percentile_bounded_by_max;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram reset" `Quick test_histogram_reset;
    Alcotest.test_case "negative clamped" `Quick test_histogram_negative_clamped;
    Alcotest.test_case "sub-unit samples stay within min/max" `Quick
      test_histogram_sub_unit_samples;
    QCheck_alcotest.to_alcotest qcheck_histogram_percentile_monotone;
  ]
