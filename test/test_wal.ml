(* Tests for wip_wal: batched logging, recovery, torn-tail tolerance, and
   Figure-5 tail reclamation. *)

module Ikey = Wip_util.Ikey
module Env = Wip_storage.Env
module Wal = Wip_wal.Wal

let batch items = List.map (fun (k, v) -> (Ikey.Value, k, v)) items

let test_append_recover_roundtrip () =
  let env = Env.in_memory () in
  let w = Wal.create env () in
  Wal.append_batch w ~first_seq:1L (batch [ ("a", "1"); ("b", "2") ]);
  Wal.append_batch w ~first_seq:3L [ (Ikey.Deletion, "a", "") ];
  Wal.sync w;
  let replayed = ref [] in
  let _w2 =
    Wal.recover env ~replay:(fun r -> replayed := r :: !replayed) ()
  in
  let replayed = List.rev !replayed in
  Alcotest.(check int) "record count" 3 (List.length replayed);
  (match replayed with
  | [ r1; r2; r3 ] ->
    Alcotest.(check string) "k1" "a" r1.Wal.key;
    Alcotest.(check string) "v1" "1" r1.Wal.value;
    Alcotest.(check bool) "seq1" true (Int64.equal 1L r1.Wal.seq);
    Alcotest.(check bool) "seq2" true (Int64.equal 2L r2.Wal.seq);
    Alcotest.(check bool) "r3 deletion" true (r3.Wal.kind = Ikey.Deletion);
    Alcotest.(check bool) "seq3" true (Int64.equal 3L r3.Wal.seq)
  | _ -> Alcotest.fail "bad replay")

let test_recover_continues_sequence () =
  let env = Env.in_memory () in
  let w = Wal.create env () in
  Wal.append_batch w ~first_seq:1L (batch [ ("x", "1") ]);
  let w2 = Wal.recover env ~replay:(fun _ -> ()) () in
  Wal.append_batch w2 ~first_seq:2L (batch [ ("y", "2") ]);
  let count = ref 0 in
  let _w3 = Wal.recover env ~replay:(fun _ -> incr count) () in
  Alcotest.(check int) "both epochs replayed" 2 !count;
  Alcotest.(check bool) "max seq" true (Int64.equal 2L (Wal.max_seq_logged w2))

let test_torn_tail_discarded () =
  let env = Env.in_memory () in
  let w = Wal.create env () in
  Wal.append_batch w ~first_seq:1L (batch [ ("good", "v") ]);
  (* Simulate a torn write: append garbage half-record to the segment. *)
  let seg = List.find (fun f -> Filename.check_suffix f ".log") (Env.list_files env) in
  let r = Env.open_file env seg in
  let contents = Env.read_all r ~category:Wip_storage.Io_stats.Wal in
  Env.close_reader r;
  let w' = Env.create_file env seg in
  Env.append w' ~category:Wip_storage.Io_stats.Wal
    (contents ^ "\x01\x02\x03\x04\x05\x06\x07\x08garbage");
  Env.close_writer w';
  let replayed = ref [] in
  let _ = Wal.recover env ~replay:(fun r -> replayed := r :: !replayed) () in
  Alcotest.(check int) "only intact record" 1 (List.length !replayed)

let test_corrupt_record_stops_replay () =
  let env = Env.in_memory () in
  let w = Wal.create env () in
  Wal.append_batch w ~first_seq:1L (batch [ ("a", "1") ]);
  Wal.append_batch w ~first_seq:2L (batch [ ("b", "2") ]);
  let seg = List.find (fun f -> Filename.check_suffix f ".log") (Env.list_files env) in
  let r = Env.open_file env seg in
  let contents = Env.read_all r ~category:Wip_storage.Io_stats.Wal in
  Env.close_reader r;
  (* Flip a byte inside the FIRST record's payload: replay must stop before
     it and deliver nothing. *)
  let b = Bytes.of_string contents in
  Bytes.set b 12 (Char.chr (Char.code (Bytes.get b 12) lxor 0xFF));
  let w' = Env.create_file env seg in
  Env.append w' ~category:Wip_storage.Io_stats.Wal (Bytes.to_string b);
  Env.close_writer w';
  let count = ref 0 in
  let _ = Wal.recover env ~replay:(fun _ -> incr count) () in
  Alcotest.(check int) "replay stops at corruption" 0 !count

let test_segment_rolling () =
  let env = Env.in_memory () in
  let w = Wal.create env ~segment_bytes:256 () in
  for i = 1 to 50 do
    Wal.append_batch w ~first_seq:(Int64.of_int i)
      (batch [ (Printf.sprintf "key-%03d" i, String.make 20 'v') ])
  done;
  Alcotest.(check bool) "multiple segments" true (Wal.segment_count w > 1);
  let count = ref 0 in
  let _ = Wal.recover env ~segment_bytes:256 ~replay:(fun _ -> incr count) () in
  Alcotest.(check int) "all records across segments" 50 !count

let test_reclaim_tail () =
  let env = Env.in_memory () in
  let w = Wal.create env ~segment_bytes:256 () in
  for i = 1 to 50 do
    Wal.append_batch w ~first_seq:(Int64.of_int i)
      (batch [ (Printf.sprintf "key-%03d" i, String.make 20 'v') ])
  done;
  let before = Wal.total_bytes w in
  let segs_before = Wal.segment_count w in
  (* Everything below sequence 40 persisted: old segments must go. *)
  let freed = Wal.reclaim w ~persisted_below:40L in
  Alcotest.(check bool) "freed bytes" true (freed > 0);
  Alcotest.(check bool) "fewer segments" true (Wal.segment_count w < segs_before);
  Alcotest.(check bool) "smaller" true (Wal.total_bytes w < before);
  (* Records >= 40 must survive recovery. *)
  let survivors = ref [] in
  let _ =
    Wal.recover env ~segment_bytes:256 ~replay:(fun r -> survivors := r.Wal.seq :: !survivors) ()
  in
  Alcotest.(check bool) "all survivors >= some tail bound" true
    (List.for_all (fun s -> Int64.compare s 0L > 0) !survivors);
  Alcotest.(check bool) "seq 40..50 retained" true
    (List.for_all
       (fun i -> List.mem (Int64.of_int i) !survivors)
       [ 40; 41; 42; 43; 44; 45; 46; 47; 48; 49; 50 ])

let test_reclaim_respects_min_unpersisted () =
  (* Figure 5's interleaving: a segment containing any record >= the bound
     must be kept even if it also holds reclaimable garbage. *)
  let env = Env.in_memory () in
  let w = Wal.create env ~segment_bytes:128 () in
  Wal.append_batch w ~first_seq:1L (batch [ ("a", String.make 100 'x') ]);
  Wal.append_batch w ~first_seq:2L (batch [ ("b", String.make 100 'x') ]);
  Wal.append_batch w ~first_seq:3L (batch [ ("c", String.make 100 'x') ]);
  let _ = Wal.reclaim w ~persisted_below:2L in
  let survivors = ref [] in
  let _ =
    Wal.recover env ~segment_bytes:128 ~replay:(fun r -> survivors := r.Wal.seq :: !survivors) ()
  in
  Alcotest.(check bool) "2 retained" true (List.mem 2L !survivors);
  Alcotest.(check bool) "3 retained" true (List.mem 3L !survivors);
  (* Everything persisted, and the roll after the newest record left the
     current segment empty: that record's segment still stays, since a
     restarted store takes its sequence number from it. *)
  let env = Env.in_memory () in
  let w = Wal.create env ~segment_bytes:128 () in
  Wal.append_batch w ~first_seq:1L (batch [ ("a", String.make 100 'x') ]);
  Wal.append_batch w ~first_seq:2L (batch [ ("b", String.make 100 'x') ]);
  let _ = Wal.reclaim w ~persisted_below:3L in
  let w = Wal.recover env ~segment_bytes:128 ~replay:ignore () in
  Alcotest.(check int64) "newest seq survives reclaim" 2L (Wal.max_seq_logged w)

let test_empty_batch_ignored () =
  let env = Env.in_memory () in
  let w = Wal.create env () in
  Wal.append_batch w ~first_seq:1L [];
  Alcotest.(check int) "no bytes" 0 (Wal.total_bytes w)

let qcheck_wal_roundtrip =
  QCheck.Test.make ~name:"wal roundtrips arbitrary batches" ~count:50
    QCheck.(small_list (small_list (pair small_string small_string)))
    (fun batches ->
      let env = Env.in_memory () in
      let w = Wal.create env () in
      let seq = ref 1L in
      let written = ref [] in
      List.iter
        (fun b ->
          let items = batch b in
          Wal.append_batch w ~first_seq:!seq items;
          List.iter (fun (_, k, v) -> written := (k, v) :: !written) items;
          seq := Int64.add !seq (Int64.of_int (List.length items)))
        batches;
      let replayed = ref [] in
      let _ =
        Wal.recover env ~replay:(fun r -> replayed := (r.Wal.key, r.Wal.value) :: !replayed) ()
      in
      !replayed = !written)

let suite =
  [
    Alcotest.test_case "append/recover" `Quick test_append_recover_roundtrip;
    Alcotest.test_case "recover continues" `Quick test_recover_continues_sequence;
    Alcotest.test_case "torn tail" `Quick test_torn_tail_discarded;
    Alcotest.test_case "corrupt record" `Quick test_corrupt_record_stops_replay;
    Alcotest.test_case "segment rolling" `Quick test_segment_rolling;
    Alcotest.test_case "reclaim tail" `Quick test_reclaim_tail;
    Alcotest.test_case "reclaim keeps live tail" `Quick
      test_reclaim_respects_min_unpersisted;
    Alcotest.test_case "empty batch" `Quick test_empty_batch_ignored;
    QCheck_alcotest.to_alcotest qcheck_wal_roundtrip;
  ]
