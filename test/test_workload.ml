(* Tests for wip_workload: key codec, distribution shapes, YCSB mixes. *)

module Key_codec = Wip_workload.Key_codec
module Distribution = Wip_workload.Distribution
module Ycsb = Wip_workload.Ycsb

let test_key_codec_roundtrip () =
  List.iter
    (fun v ->
      let k = Key_codec.encode v in
      Alcotest.(check int) "width" Key_codec.key_bytes (String.length k);
      Alcotest.(check bool) "roundtrip" true (Int64.equal v (Key_codec.decode k)))
    [ 0L; 1L; 999L; 123456789L; 999_999_999_999L ]

let test_key_codec_order () =
  (* Byte order must equal numeric order. *)
  let rng = Wip_util.Rng.create ~seed:2L in
  for _ = 1 to 1000 do
    let a = Wip_util.Rng.int64 rng 1_000_000_000L in
    let b = Wip_util.Rng.int64 rng 1_000_000_000L in
    let bytewise = compare (String.compare (Key_codec.encode a) (Key_codec.encode b)) 0 in
    let numeric = compare (Int64.compare a b) 0 in
    if bytewise <> numeric then Alcotest.fail "order mismatch"
  done

let test_key_codec_fraction () =
  Alcotest.(check (float 0.001)) "middle" 0.5
    (Key_codec.fraction_of_space (Key_codec.encode 500L) ~space:1000L)

let space = 100_000L

let sample_fracs shape n seed =
  let g = Distribution.make shape ~space ~seed in
  List.init n (fun _ -> Int64.to_float (Distribution.next g) /. Int64.to_float space)

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let test_uniform_bounds_and_mean () =
  let fracs = sample_fracs Distribution.Uniform 20_000 1L in
  List.iter (fun f -> if f < 0.0 || f >= 1.0 then Alcotest.fail "out of range") fracs;
  let m = mean fracs in
  Alcotest.(check bool) "mean near 0.5" true (m > 0.45 && m < 0.55)

let test_exponential_concentrates_low () =
  let fracs = sample_fracs (Distribution.Exponential { rate = 10.0 }) 20_000 2L in
  let low = List.length (List.filter (fun f -> f < 0.2) fracs) in
  (* P(x < 0.2) = 1 - e^-2 ≈ 0.86 *)
  Alcotest.(check bool) "mass at low keys" true (low > 16_000)

let test_reversed_exponential_concentrates_high () =
  let fracs =
    sample_fracs (Distribution.Reversed_exponential { rate = 10.0 }) 20_000 3L
  in
  let high = List.length (List.filter (fun f -> f > 0.8) fracs) in
  Alcotest.(check bool) "mass at high keys" true (high > 16_000)

let test_normal_concentrates_middle () =
  let fracs =
    sample_fracs
      (Distribution.Normal { mean_frac = 0.5; stddev_frac = 0.125 })
      20_000 4L
  in
  let mid = List.length (List.filter (fun f -> f > 0.25 && f < 0.75) fracs) in
  (* +-2 sigma ≈ 95% *)
  Alcotest.(check bool) "mass in middle" true (mid > 18_000)

let test_zipfian_skew () =
  let g =
    Distribution.make
      (Distribution.Zipfian { theta = 0.99; scrambled = false })
      ~space ~seed:5L
  in
  let n = 20_000 in
  let top100 = ref 0 in
  for _ = 1 to n do
    if Int64.compare (Distribution.next g) 100L < 0 then incr top100
  done;
  (* Unscrambled zipf(0.99): P(rank < 100 of 100 000) ≈ 0.41 — orders of
     magnitude above the uniform 0.1%. *)
  Alcotest.(check bool) "zipf skew" true (!top100 > n * 30 / 100)

let test_zipfian_scrambled_spreads () =
  let g =
    Distribution.make
      (Distribution.Zipfian { theta = 0.99; scrambled = true })
      ~space ~seed:6L
  in
  let n = 20_000 in
  let low_half = ref 0 in
  for _ = 1 to n do
    if Int64.compare (Distribution.next g) 50_000L < 0 then incr low_half
  done;
  (* Scrambling spreads hot ranks across the space: roughly half below. *)
  Alcotest.(check bool) "scrambled spread" true
    (!low_half > n * 35 / 100 && !low_half < n * 65 / 100)

let test_sequential () =
  let g = Distribution.make Distribution.Sequential ~space ~seed:7L in
  Alcotest.(check bool) "0" true (Int64.equal 0L (Distribution.next g));
  Alcotest.(check bool) "1" true (Int64.equal 1L (Distribution.next g));
  Alcotest.(check bool) "2" true (Int64.equal 2L (Distribution.next g))

let test_latest_tracks_bound () =
  let g = Distribution.make (Distribution.Latest { theta = 0.99 }) ~space ~seed:8L in
  Distribution.set_bound g 1000L;
  let n = 5000 in
  let recent = ref 0 in
  for _ = 1 to n do
    let v = Distribution.next g in
    if Int64.compare v 1000L >= 0 then Alcotest.fail "beyond bound";
    if Int64.compare v 900L >= 0 then incr recent
  done;
  (* "Latest" skews toward the most recent records: the top 10% of the key
     range draws far more than its uniform 10% share. *)
  Alcotest.(check bool) "skew toward newest" true (!recent > n * 35 / 100)

let test_determinism () =
  let a = sample_fracs Distribution.Uniform 100 42L in
  let b = sample_fracs Distribution.Uniform 100 42L in
  Alcotest.(check bool) "same seed same stream" true (a = b)

(* YCSB *)

let count_ops workload n =
  let t = Ycsb.create workload ~record_count:10_000 ~seed:1L () in
  let reads = ref 0 and updates = ref 0 and inserts = ref 0 and scans = ref 0 and rmws = ref 0 in
  for _ = 1 to n do
    match Ycsb.next t with
    | Ycsb.Read _ -> incr reads
    | Ycsb.Update _ -> incr updates
    | Ycsb.Insert _ -> incr inserts
    | Ycsb.Scan _ -> incr scans
    | Ycsb.Read_modify_write _ -> incr rmws
  done;
  (!reads, !updates, !inserts, !scans, !rmws)

let near x target tolerance = abs (x - target) <= tolerance

let test_ycsb_load_all_inserts () =
  let _, _, inserts, _, _ = count_ops Ycsb.Load 1000 in
  Alcotest.(check int) "all inserts" 1000 inserts

let test_ycsb_a_mix () =
  let reads, updates, _, _, _ = count_ops Ycsb.A 10_000 in
  Alcotest.(check bool) "50/50" true (near reads 5000 400 && near updates 5000 400)

let test_ycsb_b_mix () =
  let reads, updates, _, _, _ = count_ops Ycsb.B 10_000 in
  Alcotest.(check bool) "95/5" true (near reads 9500 300 && near updates 500 300)

let test_ycsb_c_all_reads () =
  let reads, _, _, _, _ = count_ops Ycsb.C 1000 in
  Alcotest.(check int) "100% read" 1000 reads

let test_ycsb_d_mix () =
  let reads, _, inserts, _, _ = count_ops Ycsb.D 10_000 in
  Alcotest.(check bool) "95/5 read/insert" true
    (near reads 9500 300 && near inserts 500 300)

let test_ycsb_e_mix () =
  let _, _, inserts, scans, _ = count_ops Ycsb.E 10_000 in
  Alcotest.(check bool) "95/5 scan/insert" true
    (near scans 9500 300 && near inserts 500 300)

let test_ycsb_f_mix () =
  let reads, _, _, _, rmws = count_ops Ycsb.F 10_000 in
  Alcotest.(check bool) "50/50 read/rmw" true
    (near reads 5000 400 && near rmws 5000 400)

let test_ycsb_insert_keys_are_fresh () =
  let t = Ycsb.create Ycsb.D ~record_count:100 ~seed:2L () in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 1000 do
    match Ycsb.next t with
    | Ycsb.Insert (k, _) ->
      if Hashtbl.mem seen k then Alcotest.fail "duplicate insert key";
      Hashtbl.replace seen k ();
      if Int64.compare (Key_codec.decode k) 100L < 0 then
        Alcotest.fail "insert collides with preload"
    | _ -> ()
  done

let test_ycsb_scan_lengths () =
  let t = Ycsb.create Ycsb.E ~record_count:1000 ~seed:3L () in
  for _ = 1 to 1000 do
    match Ycsb.next t with
    | Ycsb.Scan (_, n) ->
      if n < 1 || n > 100 then Alcotest.failf "scan length %d out of [1,100]" n
    | _ -> ()
  done

let test_ycsb_value_deterministic () =
  let t = Ycsb.create Ycsb.C ~record_count:100 ~value_size:64 ~seed:4L () in
  let v1 = Ycsb.value_for t "somekey" in
  let v2 = Ycsb.value_for t "somekey" in
  Alcotest.(check string) "deterministic" v1 v2;
  Alcotest.(check int) "size" 64 (String.length v1)

let suite =
  [
    Alcotest.test_case "key codec roundtrip" `Quick test_key_codec_roundtrip;
    Alcotest.test_case "key codec order" `Quick test_key_codec_order;
    Alcotest.test_case "key codec fraction" `Quick test_key_codec_fraction;
    Alcotest.test_case "uniform" `Quick test_uniform_bounds_and_mean;
    Alcotest.test_case "exponential" `Quick test_exponential_concentrates_low;
    Alcotest.test_case "reversed exponential" `Quick
      test_reversed_exponential_concentrates_high;
    Alcotest.test_case "normal" `Quick test_normal_concentrates_middle;
    Alcotest.test_case "zipfian skew" `Quick test_zipfian_skew;
    Alcotest.test_case "zipfian scrambled" `Quick test_zipfian_scrambled_spreads;
    Alcotest.test_case "sequential" `Quick test_sequential;
    Alcotest.test_case "latest" `Quick test_latest_tracks_bound;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "ycsb load" `Quick test_ycsb_load_all_inserts;
    Alcotest.test_case "ycsb A" `Quick test_ycsb_a_mix;
    Alcotest.test_case "ycsb B" `Quick test_ycsb_b_mix;
    Alcotest.test_case "ycsb C" `Quick test_ycsb_c_all_reads;
    Alcotest.test_case "ycsb D" `Quick test_ycsb_d_mix;
    Alcotest.test_case "ycsb E" `Quick test_ycsb_e_mix;
    Alcotest.test_case "ycsb F" `Quick test_ycsb_f_mix;
    Alcotest.test_case "ycsb fresh inserts" `Quick test_ycsb_insert_keys_are_fresh;
    Alcotest.test_case "ycsb scan lengths" `Quick test_ycsb_scan_lengths;
    Alcotest.test_case "ycsb values" `Quick test_ycsb_value_deterministic;
  ]
