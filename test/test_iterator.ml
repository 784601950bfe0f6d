(* Tests for WipDB's streaming iterator (iter_range). *)

module Config = Wipdb.Config
module Store = Wipdb.Store

let small_config =
  {
    Config.default with
    Config.memtable_items = 64;
    memtable_bytes = 8 * 1024;
    t_sublevels = 4;
    min_count = 2;
    max_count = 8;
    name = "iter";
  }

let key i = Printf.sprintf "%08d" i

let test_iterator_matches_scan () =
  let db = Store.create small_config in
  for i = 0 to 4999 do
    Store.put db ~key:(key (i * 3 mod 5000)) ~value:("v" ^ string_of_int i)
  done;
  Store.delete db ~key:(key 42);
  let lo = key 0 and hi = key 2000 in
  let via_scan = Store.scan db ~lo ~hi () in
  let via_iter = List.of_seq (Store.iter_range db ~lo ~hi ()) in
  Alcotest.(check bool) "identical" true (via_scan = via_iter)

let test_iterator_is_lazy () =
  (* Consuming only the first few entries of a huge range must not read the
     whole store: compare Read_path bytes for a 5-entry prefix against a
     full drain. *)
  let env = Wip_storage.Env.in_memory () in
  let db = Store.create ~env small_config in
  for i = 0 to 9999 do
    Store.put db ~key:(key i) ~value:(String.make 50 'v')
  done;
  Store.flush db;
  Store.maintenance db ();
  let stats = Wip_storage.Env.stats env in
  let read_bytes () =
    Wip_storage.Io_stats.read_by stats Wip_storage.Io_stats.Read_path
  in
  let before = read_bytes () in
  let short = Store.iter_range db ~lo:"" ~hi:"\255" () |> Seq.take 5 |> List.of_seq in
  let after_short = read_bytes () in
  Alcotest.(check int) "five entries" 5 (List.length short);
  let full = Store.iter_range db ~lo:"" ~hi:"\255" () |> List.of_seq in
  let after_full = read_bytes () in
  Alcotest.(check int) "full drain" 10_000 (List.length full);
  Alcotest.(check bool)
    (Printf.sprintf "prefix I/O (%d) far below full I/O (%d)"
       (after_short - before) (after_full - after_short))
    true
    ((after_short - before) * 5 < after_full - after_short)

let test_iterator_snapshot_pinned () =
  let db = Store.create small_config in
  Store.put db ~key:"a" ~value:"1";
  Store.put db ~key:"b" ~value:"2";
  let snap = Store.snapshot db in
  let seq = Store.iter_range db ~snapshot:snap ~lo:"" ~hi:"\255" () in
  (* Mutate after creating the sequence but before consuming it: the
     memtable buffer was captured at creation, so the view stays pinned. *)
  Store.put db ~key:"a" ~value:"CHANGED";
  Store.put db ~key:"c" ~value:"3";
  let got = List.of_seq seq in
  Alcotest.(check (list (pair string string)))
    "snapshot view"
    [ ("a", "1"); ("b", "2") ]
    got

let test_iterator_empty_range () =
  let db = Store.create small_config in
  Store.put db ~key:"m" ~value:"v";
  Alcotest.(check int) "empty" 0
    (Seq.length (Store.iter_range db ~lo:"x" ~hi:"z" ()));
  Alcotest.(check int) "inverted" 0
    (Seq.length (Store.iter_range db ~lo:"z" ~hi:"a" ()))

let test_iterator_sorted_unique () =
  let db = Store.create small_config in
  let rng = Wip_util.Rng.create ~seed:404L in
  for i = 0 to 7999 do
    Store.put db ~key:(key (Wip_util.Rng.int rng 2000)) ~value:(string_of_int i)
  done;
  let rec check last seq =
    match seq () with
    | Seq.Nil -> ()
    | Seq.Cons ((k, _), rest) ->
      (match last with
      | Some prev when String.compare prev k >= 0 ->
        Alcotest.failf "out of order or duplicate: %s after %s" k prev
      | _ -> ());
      check (Some k) rest
  in
  check None (Store.iter_range db ~lo:"" ~hi:"\255" ())

let suite =
  [
    Alcotest.test_case "matches scan" `Quick test_iterator_matches_scan;
    Alcotest.test_case "lazy block fetches" `Quick test_iterator_is_lazy;
    Alcotest.test_case "snapshot pinned" `Quick test_iterator_snapshot_pinned;
    Alcotest.test_case "empty range" `Quick test_iterator_empty_range;
    Alcotest.test_case "sorted unique" `Quick test_iterator_sorted_unique;
  ]

let test_iterator_after_recovery () =
  let env = Wip_storage.Env.in_memory () in
  let db = Store.create ~env small_config in
  for i = 0 to 2999 do
    Store.put db ~key:(key i) ~value:("v" ^ string_of_int i)
  done;
  Store.checkpoint db;
  let db2 = Store.recover ~env small_config in
  let got = List.of_seq (Store.iter_range db2 ~lo:(key 100) ~hi:(key 110) ()) in
  Alcotest.(check int) "ten entries" 10 (List.length got);
  List.iteri
    (fun off (k, v) ->
      Alcotest.(check string) "key" (key (100 + off)) k;
      Alcotest.(check string) "value" ("v" ^ string_of_int (100 + off)) v)
    got

let test_iterator_with_block_cache () =
  (* Scans keep what they read, on probation: a second drain of a store
     that fits the cache is served from it, and the point-get block —
     protected — survives both drains. *)
  let env = Wip_storage.Env.in_memory () in
  let cfg = { small_config with Config.block_cache_bytes = 8 * 1024 * 1024 } in
  let db = Store.create ~env cfg in
  for i = 0 to 4999 do
    Store.put db ~key:(key i) ~value:"payload"
  done;
  Store.flush db;
  Store.maintenance db ();
  let stats = Wip_storage.Env.stats env in
  let read () = Wip_storage.Io_stats.read_by stats Wip_storage.Io_stats.Read_path in
  (* Warm one hot key; the repeat get is served entirely from the cache. *)
  ignore (Store.get db (key 123));
  let warmed = read () in
  Alcotest.(check (option string)) "hot get" (Some "payload")
    (Store.get db (key 123));
  Alcotest.(check int) "hot get fully cached" warmed (read ());
  let first = List.of_seq (Store.iter_range db ~lo:"" ~hi:"\255" ()) in
  Alcotest.(check int) "complete" 5000 (List.length first);
  let after_first = read () in
  Alcotest.(check bool) "drain read the device" true (after_first > warmed);
  let second = List.of_seq (Store.iter_range db ~lo:"" ~hi:"\255" ()) in
  Alcotest.(check int) "complete again" 5000 (List.length second);
  Alcotest.(check int) "second drain served by the cache" after_first (read ());
  (* ...and it evicted nothing: the hot block still serves from cache. *)
  let before_hot = read () in
  Alcotest.(check (option string)) "hot get after scans" (Some "payload")
    (Store.get db (key 123));
  Alcotest.(check int) "hot block survived the scans" before_hot (read ())

let suite =
  suite
  @ [
      Alcotest.test_case "iterator after recovery" `Quick
        test_iterator_after_recovery;
      Alcotest.test_case "iterator with cache" `Quick
        test_iterator_with_block_cache;
    ]
