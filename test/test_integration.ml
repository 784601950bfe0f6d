(* Cross-library integration tests:
   - all four engines given one operation stream agree on every read;
   - WipDB end-to-end on the POSIX backend, across process-like reopen;
   - deterministic reproducibility of a whole store build;
   - engine behaviour under interleaved scans, writes and deletions. *)

module Store_intf = Wip_kv.Store_intf
module Env = Wip_storage.Env

module Model = Map.Make (String)

let key i = Printf.sprintf "%010d" i

let make_engines () =
  let wip =
    Wipdb.Store.create
      {
        Wipdb.Config.default with
        Wipdb.Config.memtable_items = 64;
        memtable_bytes = 8 * 1024;
        t_sublevels = 4;
        min_count = 2;
        max_count = 8;
        name = "iwip";
      }
  in
  let lvl =
    Wip_lsm.Leveled.create
      {
        (Wip_lsm.Leveled.leveldb_config ~scale:1) with
        Wip_lsm.Leveled.memtable_bytes = 2 * 1024;
        sstable_bytes = 1024;
        level1_bytes = 8 * 1024;
        name = "ilvl";
      }
  in
  let flsm =
    Wip_lsm.Flsm.create
      {
        (Wip_lsm.Flsm.default_config ~scale:1) with
        Wip_lsm.Flsm.memtable_bytes = 2 * 1024;
        top_level_bits = 6;
        name = "iflsm";
      }
  in
  [
    Store_intf.Store ((module Wipdb.Store), wip);
    Store_intf.Store ((module Wip_lsm.Leveled), lvl);
    Store_intf.Store ((module Wip_lsm.Flsm), flsm);
  ]

let test_engines_agree () =
  let stores = make_engines () in
  let model = ref Model.empty in
  let rng = Wip_util.Rng.create ~seed:0x1A7L in
  for i = 0 to 5999 do
    let k = key (Wip_util.Rng.int rng 500) in
    if Wip_util.Rng.int rng 5 = 0 then begin
      List.iter (fun s -> Store_intf.delete s ~key:k) stores;
      model := Model.remove k !model
    end
    else begin
      let v = "v" ^ string_of_int i in
      List.iter (fun s -> Store_intf.put s ~key:k ~value:v) stores;
      model := Model.add k v !model
    end
  done;
  List.iter
    (fun s ->
      Store_intf.flush s;
      Store_intf.maintenance s ())
    stores;
  (* Every engine must agree with the model on every key... *)
  for i = 0 to 499 do
    let k = key i in
    let expected = Model.find_opt k !model in
    List.iter
      (fun s ->
        if Store_intf.get s k <> expected then
          Alcotest.failf "engine %s disagrees on %s" (Store_intf.store_name s) k)
      stores
  done;
  (* ...and on range scans. *)
  let expected_range =
    Model.bindings !model
    |> List.filter (fun (k, _) -> k >= key 100 && k < key 200)
  in
  List.iter
    (fun s ->
      let got = Store_intf.scan s ~lo:(key 100) ~hi:(key 200) () in
      if got <> expected_range then
        Alcotest.failf "engine %s scan disagrees (%d vs %d entries)"
          (Store_intf.store_name s) (List.length got)
          (List.length expected_range))
    stores

let test_wipdb_on_posix () =
  let root = Filename.temp_file "wipdb-it" "" in
  Sys.remove root;
  let cfg =
    {
      Wipdb.Config.default with
      Wipdb.Config.memtable_items = 128;
      name = "posixdb";
    }
  in
  let env = Env.posix ~root in
  let db = Wipdb.Store.create ~env cfg in
  for i = 0 to 1999 do
    Wipdb.Store.put db ~key:(key i) ~value:("v" ^ string_of_int i)
  done;
  Wipdb.Store.checkpoint db;
  (* Reopen through a brand-new Env over the same directory — the
     process-restart situation. *)
  let env2 = Env.posix ~root in
  let db2 = Wipdb.Store.recover ~env:env2 cfg in
  for i = 0 to 1999 do
    match Wipdb.Store.get db2 (key i) with
    | Some v when v = "v" ^ string_of_int i -> ()
    | _ -> Alcotest.failf "posix recovery lost key %d" i
  done;
  let r = Wipdb.Store.scan db2 ~lo:(key 10) ~hi:(key 20) () in
  Alcotest.(check int) "scan after reopen" 10 (List.length r);
  (* Cleanup. *)
  List.iter (fun f -> Env.delete env2 f) (Env.list_files env2);
  Unix.rmdir root

let build_store seed =
  let env = Env.in_memory () in
  let db =
    Wipdb.Store.create ~env
      {
        Wipdb.Config.default with
        Wipdb.Config.memtable_items = 64;
        memtable_bytes = 8 * 1024;
        t_sublevels = 4;
        min_count = 2;
        max_count = 8;
      }
  in
  let rng = Wip_util.Rng.create ~seed in
  for i = 0 to 9999 do
    Wipdb.Store.put db
      ~key:(key (Wip_util.Rng.int rng 5000))
      ~value:("v" ^ string_of_int i)
  done;
  (env, db)

let test_deterministic_builds () =
  let env1, db1 = build_store 42L in
  let env2, db2 = build_store 42L in
  Alcotest.(check int) "same bucket count" (Wipdb.Store.bucket_count db1)
    (Wipdb.Store.bucket_count db2);
  Alcotest.(check int) "same compactions" (Wipdb.Store.compaction_count db1)
    (Wipdb.Store.compaction_count db2);
  Alcotest.(check int) "same device bytes"
    (Wip_storage.Io_stats.bytes_written (Env.stats env1))
    (Wip_storage.Io_stats.bytes_written (Env.stats env2));
  Alcotest.(check (list string)) "identical file listing"
    (Env.list_files env1) (Env.list_files env2)

let test_scan_during_heavy_churn () =
  (* Scans taken between write bursts must always reflect a consistent
     point-in-time state: never a duplicate key, never unsorted. *)
  let _, db = build_store 7L in
  let rng = Wip_util.Rng.create ~seed:70L in
  for burst = 0 to 19 do
    for _ = 0 to 199 do
      Wipdb.Store.put db
        ~key:(key (Wip_util.Rng.int rng 5000))
        ~value:(string_of_int burst)
    done;
    let r = Wipdb.Store.scan db ~lo:"" ~hi:"\255" () in
    let rec check = function
      | (a, _) :: ((b, _) :: _ as rest) ->
        if String.compare a b >= 0 then
          Alcotest.failf "scan unsorted or duplicate: %s then %s" a b;
        check rest
      | _ -> ()
    in
    check r
  done

let test_large_values () =
  let db =
    Wipdb.Store.create
      { Wipdb.Config.default with Wipdb.Config.memtable_bytes = 64 * 1024 }
  in
  let big = String.make 100_000 'x' in
  Wipdb.Store.put db ~key:"big" ~value:big;
  Wipdb.Store.flush db;
  (match Wipdb.Store.get db "big" with
  | Some v -> Alcotest.(check int) "length preserved" 100_000 (String.length v)
  | None -> Alcotest.fail "big value lost");
  Alcotest.(check bool) "content" true (Wipdb.Store.get db "big" = Some big)

let test_many_sequential_reopens () =
  let env = Env.in_memory () in
  let cfg =
    { Wipdb.Config.default with Wipdb.Config.memtable_items = 32; name = "re" }
  in
  let db = ref (Wipdb.Store.create ~env cfg) in
  for epoch = 0 to 4 do
    for i = 0 to 99 do
      Wipdb.Store.put !db
        ~key:(key ((epoch * 100) + i))
        ~value:(Printf.sprintf "e%d" epoch)
    done;
    Wipdb.Store.checkpoint !db;
    db := Wipdb.Store.recover ~env cfg
  done;
  for i = 0 to 499 do
    if Wipdb.Store.get !db (key i) = None then
      Alcotest.failf "key %d lost across reopens" i
  done

let suite =
  [
    Alcotest.test_case "engines agree" `Slow test_engines_agree;
    Alcotest.test_case "wipdb on posix" `Quick test_wipdb_on_posix;
    Alcotest.test_case "deterministic builds" `Quick test_deterministic_builds;
    Alcotest.test_case "scan during churn" `Quick test_scan_during_heavy_churn;
    Alcotest.test_case "large values" `Quick test_large_values;
    Alcotest.test_case "repeated reopens" `Quick test_many_sequential_reopens;
  ]
