(* Tests for the WipDB core: correctness against a model, bucket splitting,
   WA bound, recovery, snapshots, WAL threshold, adaptive memtables and
   read-aware compaction scheduling. *)

module Config = Wipdb.Config
module Store = Wipdb.Store
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Memtable = Wip_memtable.Memtable

module Model = Map.Make (String)

let small_config =
  {
    Config.default with
    Config.memtable_items = 64;
    memtable_bytes = 8 * 1024;
    t_sublevels = 4;
    min_count = 2;
    max_count = 8;
    wal_size_threshold = 1 lsl 30;
    bucket_merge_bytes = 0;
  }

let key i = Printf.sprintf "%016d" i

let test_config_validation () =
  (match Config.validate Config.default with
  | Ok () -> ()
  | Error e -> Alcotest.failf "default invalid: %s" e);
  (match Config.validate { Config.default with Config.l_max = 0 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "l_max 0 accepted");
  (match Config.validate { Config.default with Config.split_fanout = 1 } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "fanout 1 accepted");
  match Store.create { Config.default with Config.l_max = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "create accepted bad config"

let test_wa_bound_formula () =
  Alcotest.(check (float 0.01)) "paper default bound" 4.142857
    (Config.wa_upper_bound Config.default)

let test_put_get_delete () =
  let db = Store.create small_config in
  Store.put db ~key:"alpha" ~value:"1";
  Store.put db ~key:"beta" ~value:"2";
  Alcotest.(check (option string)) "alpha" (Some "1") (Store.get db "alpha");
  Store.put db ~key:"alpha" ~value:"updated";
  Alcotest.(check (option string)) "updated" (Some "updated") (Store.get db "alpha");
  Store.delete db ~key:"alpha";
  Alcotest.(check (option string)) "deleted" None (Store.get db "alpha");
  Alcotest.(check (option string)) "beta intact" (Some "2") (Store.get db "beta")

let test_deletion_survives_flush_and_compaction () =
  let db = Store.create small_config in
  Store.put db ~key:"k" ~value:"v";
  Store.flush db;
  Store.maintenance db ();
  Store.delete db ~key:"k";
  Store.flush db;
  Store.maintenance db ();
  Alcotest.(check (option string)) "deleted after compaction" None (Store.get db "k")

let load db n =
  for i = 0 to n - 1 do
    Store.put db ~key:(key (i * 7919 mod n)) ~value:("v" ^ string_of_int i)
  done

let test_split_preserves_data () =
  let db = Store.create small_config in
  let n = 40_000 in
  load db n;
  Alcotest.(check bool)
    (Printf.sprintf "splits happened (%d)" (Store.split_count db))
    true
    (Store.split_count db >= 1);
  Alcotest.(check bool) "bucket count grew" true (Store.bucket_count db > 1);
  for i = 0 to n - 1 do
    if Store.get db (key i) = None then Alcotest.failf "lost key %d after split" i
  done

let test_bucket_boundaries_sorted_and_cover () =
  let db = Store.create small_config in
  load db 40_000;
  let infos = Store.bucket_infos db in
  (match infos with
  | first :: _ ->
    Alcotest.(check string) "first bucket covers space bottom" "" first.Store.lo
  | [] -> Alcotest.fail "no buckets");
  let rec sorted = function
    | (a : Store.bucket_info) :: (b : Store.bucket_info) :: rest ->
      String.compare a.Store.lo b.Store.lo < 0 && sorted (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "strictly sorted boundaries" true (sorted infos)

let test_wa_bound_holds () =
  let db = Store.create small_config in
  load db 60_000;
  let wa = Io_stats.write_amplification (Store.io_stats db) in
  (* The paper's bound is on logical data movement; the on-disk format adds
     block/index/bloom framing (~15% on 20-byte items) plus manifest traffic,
     so assert the bound with that overhead allowance. *)
  let bound = Config.wa_upper_bound small_config *. 1.35 in
  Alcotest.(check bool)
    (Printf.sprintf "WA %.2f <= %.2f" wa bound)
    true (wa <= bound)

let test_sublevel_caps () =
  let db = Store.create small_config in
  load db 30_000;
  List.iter
    (fun (info : Store.bucket_info) ->
      List.iteri
        (fun level count ->
          (* Every level is bounded by max_count: inner levels compact
             beyond it, the last level splits beyond it. *)
          if count > small_config.Config.max_count then
            Alcotest.failf "level %d has %d sublevels > max_count" level count)
        info.Store.sublevels_per_level)
    (Store.bucket_infos db)

let test_scan_correctness () =
  let db = Store.create small_config in
  for i = 0 to 999 do
    Store.put db ~key:(key i) ~value:("v" ^ string_of_int i)
  done;
  Store.delete db ~key:(key 500);
  let r = Store.scan db ~lo:(key 495) ~hi:(key 505) () in
  Alcotest.(check int) "9 live keys" 9 (List.length r);
  Alcotest.(check bool) "deleted key skipped" true (not (List.mem_assoc (key 500) r));
  let all = Store.scan db ~lo:"" ~hi:"\255" () in
  Alcotest.(check int) "full scan" 999 (List.length all);
  let limited = Store.scan db ~lo:"" ~hi:"\255" ~limit:7 () in
  Alcotest.(check int) "limit" 7 (List.length limited)

let test_scan_across_bucket_boundaries () =
  let db = Store.create small_config in
  let n = 40_000 in
  load db n;
  Alcotest.(check bool) "several buckets" true (Store.bucket_count db >= 4);
  let r = Store.scan db ~lo:(key 17_000) ~hi:(key 17_200) () in
  Alcotest.(check int) "contiguous range across buckets" 200 (List.length r);
  List.iteri
    (fun off (k, _) ->
      Alcotest.(check string) "ordered" (key (17_000 + off)) k)
    r

let test_snapshot_isolation () =
  let db = Store.create small_config in
  Store.put db ~key:"k" ~value:"v1";
  let snap = Store.snapshot db in
  Store.put db ~key:"k" ~value:"v2";
  Store.put db ~key:"new" ~value:"n";
  Alcotest.(check (option string)) "snapshot sees v1" (Some "v1")
    (Store.get_at db "k" ~snapshot:snap);
  Alcotest.(check (option string)) "snapshot misses new key" None
    (Store.get_at db "new" ~snapshot:snap);
  Alcotest.(check (option string)) "live sees v2" (Some "v2") (Store.get db "k");
  let r = Store.scan_at db ~lo:"" ~hi:"\255" ~snapshot:snap () in
  Alcotest.(check (list (pair string string))) "snapshot scan" [ ("k", "v1") ] r

let test_model_random_ops () =
  let db = Store.create small_config in
  let model = ref Model.empty in
  let rng = Wip_util.Rng.create ~seed:31L in
  for i = 0 to 9999 do
    let k = key (Wip_util.Rng.int rng 600) in
    if Wip_util.Rng.int rng 6 = 0 then begin
      Store.delete db ~key:k;
      model := Model.remove k !model
    end
    else begin
      let v = "v" ^ string_of_int i in
      Store.put db ~key:k ~value:v;
      model := Model.add k v !model
    end
  done;
  for i = 0 to 599 do
    let k = key i in
    Alcotest.(check (option string))
      (Printf.sprintf "key %d" i)
      (Model.find_opt k !model) (Store.get db k)
  done;
  let scanned = Store.scan db ~lo:"" ~hi:"\255" () in
  Alcotest.(check int) "scan matches model" (Model.cardinal !model)
    (List.length scanned)

let test_recovery_roundtrip () =
  let env = Env.in_memory () in
  let db = Store.create ~env small_config in
  let n = 20_000 in
  load db n;
  Store.delete db ~key:(key 7);
  Store.checkpoint db;
  (* "Crash": drop the handle, recover from the same device. *)
  let db2 = Store.recover ~env small_config in
  Alcotest.(check (option string)) "deleted stays deleted" None (Store.get db2 (key 7));
  for i = 0 to n - 1 do
    if i <> 7 && Store.get db2 (key i) = None then
      Alcotest.failf "lost key %d in recovery" i
  done;
  Alcotest.(check int) "bucket directory recovered" (Store.bucket_count db)
    (Store.bucket_count db2);
  (* Writes continue with fresh sequence numbers. *)
  Store.put db2 ~key:"post-crash" ~value:"yes";
  Alcotest.(check (option string)) "post-crash write" (Some "yes")
    (Store.get db2 "post-crash")

let test_recovery_of_unflushed_writes () =
  let env = Env.in_memory () in
  let db = Store.create ~env small_config in
  (* Fewer writes than a memtable: nothing reaches a LevelTable. *)
  Store.put db ~key:"only-in-wal" ~value:"survives";
  let db2 = Store.recover ~env small_config in
  Alcotest.(check (option string)) "replayed from wal" (Some "survives")
    (Store.get db2 "only-in-wal")

let test_recover_on_empty_env_is_create () =
  let env = Env.in_memory () in
  let db = Store.recover ~env small_config in
  Store.put db ~key:"a" ~value:"b";
  Alcotest.(check (option string)) "works" (Some "b") (Store.get db "a")

let test_wal_reclamation_bounds_log () =
  (* Segments must be smaller than the threshold or whole-segment
     reclamation can never shrink the log below it. *)
  let cfg =
    {
      small_config with
      Config.wal_size_threshold = 64 * 1024;
      wal_segment_bytes = 8 * 1024;
    }
  in
  let db = Store.create cfg in
  for i = 0 to 49_999 do
    Store.put db ~key:(key (i mod 50_000)) ~value:(String.make 40 'v')
  done;
  (* The tail-flush policy must keep the log near its threshold. *)
  Alcotest.(check bool)
    (Printf.sprintf "wal %d <= 3x threshold" (Store.wal_bytes db))
    true
    (Store.wal_bytes db <= 3 * cfg.Config.wal_size_threshold)

let test_adaptive_memtable_switches () =
  let cfg =
    { small_config with Config.range_query_switch_threshold = 4; adaptive_memtable = true }
  in
  let db = Store.create cfg in
  for i = 0 to 60 do
    Store.put db ~key:(key i) ~value:"v"
  done;
  (* Hammer the bucket with range queries, then force a flush cycle. *)
  for _ = 1 to 10 do
    ignore (Store.scan db ~lo:(key 0) ~hi:(key 50) ())
  done;
  Store.flush db;
  let structures =
    List.map (fun (i : Store.bucket_info) -> i.Store.memtable_structure)
      (Store.bucket_infos db)
  in
  Alcotest.(check bool) "switched to sorted" true
    (List.mem Memtable.Sorted structures);
  (* With no further range traffic the next flush switches back. *)
  for i = 0 to 200 do
    Store.put db ~key:(key i) ~value:"v2"
  done;
  Store.flush db;
  let structures =
    List.map (fun (i : Store.bucket_info) -> i.Store.memtable_structure)
      (Store.bucket_infos db)
  in
  Alcotest.(check bool) "reverted to hash" true
    (List.for_all (fun s -> s = Memtable.Hash) structures)

let test_read_aware_scheduling_prioritizes_hot_bucket () =
  (* Two buckets, both with compaction-eligible level-0 sublevels; the one
     served read traffic must be compacted first under a tight budget. *)
  let cfg =
    {
      small_config with
      Config.initial_buckets = 2;
      initial_key_space = 1_000_000_000L;
      min_count = 2;
      max_count = 50;
      t_sublevels = 50;
      read_weight = 10.0;
      (* No background allowance: eligible compactions run only through the
         explicit maintenance calls this test makes. *)
      compaction_budget_per_batch = 0;
    }
  in
  let db = Store.create cfg in
  (* Key 1 lands in bucket 0; key 900M in bucket 1. *)
  let lo_key i = key i and hi_key i = Printf.sprintf "%016d" (900_000_000 + i) in
  for round = 0 to 3 do
    for i = 0 to 70 do
      Store.put db ~key:(lo_key ((round * 100) + i)) ~value:"v";
      Store.put db ~key:(hi_key ((round * 100) + i)) ~value:"v"
    done;
    Store.flush db
  done;
  (* Reads only on the high bucket. *)
  for i = 0 to 70 do
    ignore (Store.get db (hi_key i))
  done;
  let sublevels_of idx =
    List.nth (Store.bucket_infos db) idx |> fun (i : Store.bucket_info) ->
    List.nth i.Store.sublevels_per_level 0
  in
  let lo_before = sublevels_of 0 and hi_before = sublevels_of 1 in
  Alcotest.(check bool) "both eligible" true (lo_before >= 2 && hi_before >= 2);
  (* One compaction's worth of budget. *)
  Store.maintenance db ~budget_bytes:1 ();
  let lo_after = sublevels_of 0 and hi_after = sublevels_of 1 in
  Alcotest.(check bool) "hot bucket compacted first" true
    (hi_after < hi_before && lo_after = lo_before)

let test_drc_ignores_reads () =
  let cfg =
    {
      small_config with
      Config.initial_buckets = 2;
      min_count = 2;
      max_count = 50;
      t_sublevels = 50;
      read_weight = 0.0;
      compaction_budget_per_batch = 0;
    }
  in
  let db = Store.create cfg in
  let lo_key i = key i and hi_key i = Printf.sprintf "%016d" (900_000_000 + i) in
  (* Give the LOW bucket more sublevels, the HIGH bucket the read traffic. *)
  for round = 0 to 5 do
    for i = 0 to 70 do
      Store.put db ~key:(lo_key ((round * 100) + i)) ~value:"v"
    done;
    Store.flush db
  done;
  for round = 0 to 2 do
    for i = 0 to 70 do
      Store.put db ~key:(hi_key ((round * 100) + i)) ~value:"v"
    done;
    Store.flush db
  done;
  for i = 0 to 70 do
    ignore (Store.get db (hi_key i))
  done;
  let sublevels_of idx =
    List.nth (Store.bucket_infos db) idx |> fun (i : Store.bucket_info) ->
    List.nth i.Store.sublevels_per_level 0
  in
  let lo_before = sublevels_of 0 in
  Store.maintenance db ~budget_bytes:1 ();
  (* With read_weight 0, priority is driven by sublevel count: the LOW
     bucket (more sublevels) compacts first despite zero reads. *)
  Alcotest.(check bool) "sublevel count wins" true (sublevels_of 0 < lo_before)

let test_bucket_merge () =
  let cfg =
    { small_config with Config.initial_buckets = 8; bucket_merge_bytes = 1 lsl 20 }
  in
  let db = Store.create cfg in
  for i = 0 to 99 do
    Store.put db ~key:(key i) ~value:"v"
  done;
  Store.flush db;
  Store.maintenance db ();
  (* Eight nearly-empty buckets collapse toward initial_buckets. *)
  Alcotest.(check bool)
    (Printf.sprintf "buckets reduced or kept (%d)" (Store.bucket_count db))
    true
    (Store.bucket_count db <= 8);
  for i = 0 to 99 do
    if Store.get db (key i) = None then Alcotest.failf "merge lost key %d" i
  done

(* A split moves the retired bucket's MemTable items to the new buckets in
   key order. Each batch here adds a small item, then a bigger one that
   sorts first and takes the table past its byte capacity: moved in key
   order, the small item reaches a full table and must still be kept. *)
let test_split_keeps_memtable_items () =
  let db = Store.create small_config in
  let big = String.make (small_config.Config.memtable_bytes + 1) 'x' in
  let n = 400 in
  for i = 0 to n - 1 do
    let k = key (i * 1000) in
    Store.write_batch db
      [ (Wip_util.Ikey.Value, k ^ "b", "small"); (Wip_util.Ikey.Value, k ^ "a", big) ]
  done;
  Alcotest.(check bool) "buckets split" true (Store.split_count db > 0);
  for i = 0 to n - 1 do
    let k = key (i * 1000) ^ "b" in
    if Store.get db k = None then Alcotest.failf "split lost %s" k
  done

let test_write_batch_atomic_visibility () =
  let db = Store.create small_config in
  Store.write_batch db
    [
      (Wip_util.Ikey.Value, "a", "1");
      (Wip_util.Ikey.Value, "b", "2");
      (Wip_util.Ikey.Deletion, "a", "");
    ];
  Alcotest.(check (option string)) "later op in batch wins" None (Store.get db "a");
  Alcotest.(check (option string)) "b" (Some "2") (Store.get db "b")

let test_empty_value_and_binary_keys () =
  let db = Store.create small_config in
  Store.put db ~key:"empty" ~value:"";
  Alcotest.(check (option string)) "empty value stored" (Some "") (Store.get db "empty");
  let bin_key = "\x00\x01\xff\xfe" in
  Store.put db ~key:bin_key ~value:"bin";
  Store.flush db;
  Store.maintenance db ();
  Alcotest.(check (option string)) "binary key" (Some "bin") (Store.get db bin_key)

let qcheck_model =
  QCheck.Test.make ~name:"wipdb agrees with Map model" ~count:15
    QCheck.(small_list (pair (int_bound 100) (option (int_bound 1000))))
    (fun ops ->
      let db = Store.create small_config in
      let model = ref Model.empty in
      List.iter
        (fun (k, v) ->
          let k = key k in
          match v with
          | Some v ->
            let v = string_of_int v in
            Store.put db ~key:k ~value:v;
            model := Model.add k v !model
          | None ->
            Store.delete db ~key:k;
            model := Model.remove k !model)
        ops;
      Store.flush db;
      Store.maintenance db ();
      Model.for_all (fun k v -> Store.get db k = Some v) !model
      && List.for_all
           (fun (k, _) -> Store.get db (key k) = Model.find_opt (key k) !model)
           ops)

let qcheck_recovery_equivalence =
  QCheck.Test.make ~name:"recovery preserves every live key" ~count:10
    QCheck.(small_list (pair (int_bound 60) (option (int_bound 100))))
    (fun ops ->
      let env = Env.in_memory () in
      let db = Store.create ~env small_config in
      let model = ref Model.empty in
      List.iter
        (fun (k, v) ->
          let k = key k in
          match v with
          | Some v ->
            let v = string_of_int v in
            Store.put db ~key:k ~value:v;
            model := Model.add k v !model
          | None ->
            Store.delete db ~key:k;
            model := Model.remove k !model)
        ops;
      let db2 = Store.recover ~env small_config in
      Model.for_all (fun k v -> Store.get db2 k = Some v) !model)

let suite =
  [
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "WA bound formula" `Quick test_wa_bound_formula;
    Alcotest.test_case "put/get/delete" `Quick test_put_get_delete;
    Alcotest.test_case "deletion survives compaction" `Quick
      test_deletion_survives_flush_and_compaction;
    Alcotest.test_case "split preserves data" `Slow test_split_preserves_data;
    Alcotest.test_case "bucket boundaries" `Slow
      test_bucket_boundaries_sorted_and_cover;
    Alcotest.test_case "WA bound holds" `Slow test_wa_bound_holds;
    Alcotest.test_case "sublevel caps" `Slow test_sublevel_caps;
    Alcotest.test_case "scan correctness" `Quick test_scan_correctness;
    Alcotest.test_case "scan across buckets" `Slow
      test_scan_across_bucket_boundaries;
    Alcotest.test_case "snapshot isolation" `Quick test_snapshot_isolation;
    Alcotest.test_case "model random ops" `Slow test_model_random_ops;
    Alcotest.test_case "recovery roundtrip" `Slow test_recovery_roundtrip;
    Alcotest.test_case "recovery of unflushed writes" `Quick
      test_recovery_of_unflushed_writes;
    Alcotest.test_case "recover on empty env" `Quick
      test_recover_on_empty_env_is_create;
    Alcotest.test_case "wal stays bounded" `Slow test_wal_reclamation_bounds_log;
    Alcotest.test_case "adaptive memtable" `Quick test_adaptive_memtable_switches;
    Alcotest.test_case "read-aware scheduling" `Quick
      test_read_aware_scheduling_prioritizes_hot_bucket;
    Alcotest.test_case "DRC ignores reads" `Quick test_drc_ignores_reads;
    Alcotest.test_case "bucket merge" `Quick test_bucket_merge;
    Alcotest.test_case "split keeps memtable items" `Quick
      test_split_keeps_memtable_items;
    Alcotest.test_case "write batch" `Quick test_write_batch_atomic_visibility;
    Alcotest.test_case "edge values/keys" `Quick test_empty_value_and_binary_keys;
    QCheck_alcotest.to_alcotest qcheck_model;
    QCheck_alcotest.to_alcotest qcheck_recovery_equivalence;
  ]

(* Edge cases on the store surface. *)

let test_empty_store_reads () =
  let db = Store.create small_config in
  Alcotest.(check (option string)) "get on empty" None (Store.get db "k");
  Alcotest.(check int) "scan on empty" 0
    (List.length (Store.scan db ~lo:"" ~hi:"\255" ()));
  Store.flush db (* flushing nothing must be a no-op *);
  Store.maintenance db ();
  Alcotest.(check int) "no files created" 0 (List.length (Store.file_sizes db))

let test_initial_bucket_routing () =
  (* With pre-partitioned buckets, keys at and around every boundary must
     route consistently for writes and reads. *)
  let cfg =
    { small_config with Config.initial_buckets = 8; initial_key_space = 800L }
  in
  let db = Store.create cfg in
  for i = 0 to 799 do
    Store.put db ~key:(Printf.sprintf "%016d" i) ~value:(string_of_int i)
  done;
  for i = 0 to 799 do
    Alcotest.(check (option string))
      (Printf.sprintf "key %d" i)
      (Some (string_of_int i))
      (Store.get db (Printf.sprintf "%016d" i))
  done;
  (* Keys outside the numeric space still route (first/last bucket). *)
  Store.put db ~key:"" ~value:"below-all";
  Store.put db ~key:"\255\255" ~value:"above-all";
  Alcotest.(check (option string)) "min key" (Some "below-all") (Store.get db "");
  Alcotest.(check (option string)) "max key" (Some "above-all")
    (Store.get db "\255\255")

let test_overwrite_heavy_single_key () =
  let db = Store.create small_config in
  for i = 1 to 5000 do
    Store.put db ~key:"hot" ~value:(string_of_int i)
  done;
  Alcotest.(check (option string)) "last version" (Some "5000") (Store.get db "hot");
  Store.flush db;
  Store.maintenance db ();
  Alcotest.(check (option string)) "after compaction" (Some "5000")
    (Store.get db "hot");
  let r = Store.scan db ~lo:"" ~hi:"\255" () in
  Alcotest.(check int) "one live key" 1 (List.length r)

let test_delete_nonexistent_key () =
  let db = Store.create small_config in
  Store.delete db ~key:"ghost";
  Alcotest.(check (option string)) "still absent" None (Store.get db "ghost");
  Store.flush db;
  Store.maintenance db ();
  Alcotest.(check (option string)) "absent after compaction" None
    (Store.get db "ghost")

let suite =
  suite
  @ [
      Alcotest.test_case "empty store" `Quick test_empty_store_reads;
      Alcotest.test_case "initial bucket routing" `Quick
        test_initial_bucket_routing;
      Alcotest.test_case "overwrite-heavy key" `Quick
        test_overwrite_heavy_single_key;
      Alcotest.test_case "delete nonexistent" `Quick test_delete_nonexistent_key;
    ]
