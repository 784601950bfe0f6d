(* Tests for wip_lsm: the LevelDB/RocksDB-like leveled baseline. *)

module Leveled = Wip_lsm.Leveled
module Table = Wip_sstable.Table
module Io_stats = Wip_storage.Io_stats

module Model = Map.Make (String)

let small_config =
  {
    Leveled.memtable_bytes = 2 * 1024;
    sstable_bytes = 1024;
    l0_compaction_trigger = 4;
    level1_bytes = 8 * 1024;
    level_multiplier = 10;
    max_levels = 7;
    bits_per_key = 10;
    sorted_view = true;
    ph_index = true;
    name = "LevelDB-test";
  }

let key i = Printf.sprintf "%08d" i

let test_put_get () =
  let db = Leveled.create small_config in
  Leveled.put db ~key:"a" ~value:"1";
  Leveled.put db ~key:"b" ~value:"2";
  Alcotest.(check (option string)) "a" (Some "1") (Leveled.get db "a");
  Alcotest.(check (option string)) "b" (Some "2") (Leveled.get db "b");
  Alcotest.(check (option string)) "missing" None (Leveled.get db "c")

let test_overwrite () =
  let db = Leveled.create small_config in
  Leveled.put db ~key:"k" ~value:"old";
  Leveled.put db ~key:"k" ~value:"new";
  Alcotest.(check (option string)) "latest" (Some "new") (Leveled.get db "k")

let test_delete () =
  let db = Leveled.create small_config in
  Leveled.put db ~key:"k" ~value:"v";
  Leveled.delete db ~key:"k";
  Alcotest.(check (option string)) "deleted" None (Leveled.get db "k");
  (* Deletion survives flush + compaction. *)
  Leveled.flush db;
  Leveled.maintenance db ();
  Alcotest.(check (option string)) "still deleted" None (Leveled.get db "k")

let test_persistence_through_compaction () =
  let db = Leveled.create small_config in
  let n = 3000 in
  for i = 0 to n - 1 do
    Leveled.put db ~key:(key i) ~value:("v" ^ string_of_int i)
  done;
  Leveled.flush db;
  Leveled.maintenance db ();
  Alcotest.(check bool) "multiple levels formed" true (Leveled.level_count db >= 2);
  for i = 0 to n - 1 do
    match Leveled.get db (key i) with
    | Some v when String.equal v ("v" ^ string_of_int i) -> ()
    | _ -> Alcotest.failf "lost key %d" i
  done

let test_leveled_invariant_disjoint () =
  let db = Leveled.create small_config in
  for i = 0 to 4999 do
    Leveled.put db ~key:(key (i * 7919 mod 5000)) ~value:"v"
  done;
  Leveled.flush db;
  Leveled.maintenance db ();
  (* Levels >= 1: files sorted by smallest and non-overlapping. *)
  for level = 1 to 6 do
    let files = Leveled.files_at_level db level in
    let rec check = function
      | (a : Table.meta) :: (b : Table.meta) :: rest ->
        if String.compare a.Table.largest b.Table.smallest >= 0 then
          Alcotest.failf "overlap at level %d: %s >= %s" level a.Table.largest
            b.Table.smallest;
        check (b :: rest)
      | _ -> ()
    in
    check files
  done

let test_scan () =
  let db = Leveled.create small_config in
  for i = 0 to 999 do
    Leveled.put db ~key:(key i) ~value:("v" ^ string_of_int i)
  done;
  Leveled.delete db ~key:(key 500);
  let r = Leveled.scan db ~lo:(key 495) ~hi:(key 505) () in
  Alcotest.(check int) "9 live keys in range" 9 (List.length r);
  Alcotest.(check bool) "500 skipped" true (not (List.mem_assoc (key 500) r));
  let limited = Leveled.scan db ~lo:(key 0) ~hi:(key 999) ~limit:10 () in
  Alcotest.(check int) "limit" 10 (List.length limited)

let test_model_random_ops () =
  let db = Leveled.create small_config in
  let model = ref Model.empty in
  let rng = Wip_util.Rng.create ~seed:13L in
  for i = 0 to 4999 do
    let k = key (Wip_util.Rng.int rng 500) in
    if Wip_util.Rng.int rng 5 = 0 then begin
      Leveled.delete db ~key:k;
      model := Model.remove k !model
    end
    else begin
      let v = "v" ^ string_of_int i in
      Leveled.put db ~key:k ~value:v;
      model := Model.add k v !model
    end
  done;
  for i = 0 to 499 do
    let k = key i in
    Alcotest.(check (option string))
      (Printf.sprintf "key %d" i)
      (Model.find_opt k !model) (Leveled.get db k)
  done;
  (* Full scan equals the model. *)
  let scanned = Leveled.scan db ~lo:"" ~hi:"\255" () in
  Alcotest.(check int) "scan size" (Model.cardinal !model) (List.length scanned);
  List.iter
    (fun (k, v) ->
      match Model.find_opt k !model with
      | Some v' when String.equal v v' -> ()
      | _ -> Alcotest.failf "scan mismatch at %s" k)
    scanned

let test_wa_grows_with_depth () =
  (* The leveled design rewrites target-level data: its WA must exceed
     WipDB's l_max-ish bound on a store deep enough to have 3+ levels. *)
  let db = Leveled.create small_config in
  for i = 0 to 19_999 do
    Leveled.put db ~key:(key (i * 7919 mod 20_000)) ~value:(String.make 64 'v')
  done;
  Leveled.flush db;
  Leveled.maintenance db ();
  let wa = Io_stats.write_amplification (Leveled.io_stats db) in
  Alcotest.(check bool)
    (Printf.sprintf "leveled WA %.2f > 4.5" wa)
    true (wa > 4.5)

let test_guard_positions () =
  let db = Leveled.create small_config in
  for i = 0 to 4999 do
    Leveled.put db ~key:(Printf.sprintf "%016d" (i * 200_000 mod 1_000_000_000))
      ~value:"v"
  done;
  Leveled.flush db;
  Leveled.maintenance db ();
  let guards = Leveled.guard_positions db ~level:1 ~every:500 ~space:1_000_000_000L in
  List.iter
    (fun f -> if f < 0.0 || f > 1.0 then Alcotest.failf "guard frac %f" f)
    guards;
  (* Guards must be non-decreasing along the level. *)
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (mono guards)

let test_configs () =
  let l = Leveled.leveldb_config ~scale:2 in
  let r = Leveled.rocksdb_config ~scale:2 in
  let rb = Leveled.rocksdb_bigmem_config ~scale:2 in
  Alcotest.(check bool) "bigmem larger" true (rb.Leveled.memtable_bytes > r.Leveled.memtable_bytes);
  Alcotest.(check bool) "names differ" true (l.Leveled.name <> r.Leveled.name)

let qcheck_model =
  QCheck.Test.make ~name:"leveled store agrees with Map model" ~count:15
    QCheck.(small_list (pair (int_bound 100) (option (int_bound 1000))))
    (fun ops ->
      let db = Leveled.create small_config in
      let model = ref Model.empty in
      List.iter
        (fun (k, v) ->
          let k = key k in
          match v with
          | Some v ->
            let v = string_of_int v in
            Leveled.put db ~key:k ~value:v;
            model := Model.add k v !model
          | None ->
            Leveled.delete db ~key:k;
            model := Model.remove k !model)
        ops;
      Leveled.flush db;
      Leveled.maintenance db ();
      Model.for_all (fun k v -> Leveled.get db k = Some v) !model
      && List.for_all
           (fun (k, _) -> Leveled.get db (key k) = Model.find_opt (key k) !model)
           ops)

let suite =
  [
    Alcotest.test_case "put/get" `Quick test_put_get;
    Alcotest.test_case "overwrite" `Quick test_overwrite;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "compaction persistence" `Quick
      test_persistence_through_compaction;
    Alcotest.test_case "disjoint levels" `Quick test_leveled_invariant_disjoint;
    Alcotest.test_case "scan" `Quick test_scan;
    Alcotest.test_case "model random ops" `Quick test_model_random_ops;
    Alcotest.test_case "WA grows with depth" `Slow test_wa_grows_with_depth;
    Alcotest.test_case "guard positions" `Quick test_guard_positions;
    Alcotest.test_case "config presets" `Quick test_configs;
    QCheck_alcotest.to_alcotest qcheck_model;
  ]

let test_recovery_roundtrip () =
  let env = Wip_storage.Env.in_memory () in
  let db = Leveled.create ~env small_config in
  for i = 0 to 4999 do
    Leveled.put db ~key:(key (i * 7 mod 5000)) ~value:("v" ^ string_of_int i)
  done;
  Leveled.delete db ~key:(key 3);
  let db2 = Leveled.recover ~env small_config in
  Alcotest.(check (option string)) "deletion recovered" None (Leveled.get db2 (key 3));
  for i = 0 to 4999 do
    if i <> 3 && Leveled.get db2 (key i) = None then
      Alcotest.failf "recovery lost key %d" i
  done;
  (* The recovered structure keeps the leveled invariant and accepts writes. *)
  Leveled.put db2 ~key:"post" ~value:"crash";
  Alcotest.(check (option string)) "writes continue" (Some "crash")
    (Leveled.get db2 "post")

let test_recovery_of_unflushed_writes () =
  let env = Wip_storage.Env.in_memory () in
  let db = Leveled.create ~env small_config in
  Leveled.put db ~key:"wal-only" ~value:"survives";
  let db2 = Leveled.recover ~env small_config in
  Alcotest.(check (option string)) "wal replay" (Some "survives")
    (Leveled.get db2 "wal-only")

let test_recover_fresh_env () =
  let db = Leveled.recover small_config in
  Leveled.put db ~key:"a" ~value:"b";
  Alcotest.(check (option string)) "acts as create" (Some "b") (Leveled.get db "a")

let suite =
  suite
  @ [
      Alcotest.test_case "recovery roundtrip" `Quick test_recovery_roundtrip;
      Alcotest.test_case "recovery of unflushed" `Quick
        test_recovery_of_unflushed_writes;
      Alcotest.test_case "recover fresh env" `Quick test_recover_fresh_env;
    ]
