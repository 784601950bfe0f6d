(* Cross-library integration tests:
   - all four engines given one operation stream agree on every read;
   - WipDB end-to-end on the POSIX backend, across process-like reopen;
   - deterministic reproducibility of a whole store build;
   - engine behaviour under interleaved scans, writes and deletions. *)

module Store_intf = Wip_kv.Store_intf
module Env = Wip_storage.Env

module Model = Map.Make (String)

let key i = Printf.sprintf "%010d" i

(* WipDB small enough that buckets split under the run's 500 keys and
   merge back once deletions shrink them. *)
let wip_config =
  {
    Wipdb.Config.default with
    Wipdb.Config.memtable_items = 64;
    memtable_bytes = 8 * 1024;
    t_sublevels = 4;
    min_count = 2;
    max_count = 8;
    split_fanout = 4;
    bucket_capacity_bytes = 6 * 1024;
    bucket_merge_bytes = 4 * 1024;
    name = "iwip";
  }

let lvl_config =
  {
    (Wip_lsm.Leveled.leveldb_config ~scale:1) with
    Wip_lsm.Leveled.memtable_bytes = 2 * 1024;
    sstable_bytes = 1024;
    level1_bytes = 8 * 1024;
    name = "ilvl";
  }

let flsm_config =
  {
    (Wip_lsm.Flsm.default_config ~scale:1) with
    Wip_lsm.Flsm.memtable_bytes = 2 * 1024;
    top_level_bits = 6;
    name = "iflsm";
  }

(* The three engines on their own Envs, created fresh or recovered; the
   WipDB handle also comes back for its split and bucket counters. *)
let open_engines ~fresh (wip_env, lvl_env, flsm_env) =
  let wip =
    (if fresh then Wipdb.Store.create else Wipdb.Store.recover)
      ~env:wip_env wip_config
  in
  let lvl =
    (if fresh then Wip_lsm.Leveled.create else Wip_lsm.Leveled.recover)
      ~env:lvl_env lvl_config
  in
  let flsm =
    (if fresh then Wip_lsm.Flsm.create else Wip_lsm.Flsm.recover)
      ~env:flsm_env flsm_config
  in
  ( wip,
    [
      Store_intf.Store ((module Wipdb.Store), wip);
      Store_intf.Store ((module Wip_lsm.Leveled), lvl);
      Store_intf.Store ((module Wip_lsm.Flsm), flsm);
    ] )

(* Every engine's reads equal the model's: each key, and scans over a
   narrow range, the whole space and a limited prefix. [get]/[scan] read
   at the current state or at a pinned snapshot. *)
let check_reads ~what ~get ~scan stores model =
  List.iter
    (fun s ->
      let fail fmt =
        Alcotest.failf ("%s: engine %s " ^^ fmt) what (Store_intf.store_name s)
      in
      for i = 0 to 499 do
        let k = key i in
        if get s k <> Model.find_opt k model then fail "disagrees on %s" k
      done;
      List.iter
        (fun (lo, hi, limit) ->
          let expected =
            Model.bindings model
            |> List.filter (fun (k, _) -> k >= lo && k < hi)
            |> List.filteri (fun i _ ->
                   match limit with Some l -> i < l | None -> true)
          in
          let got = scan s ~lo ~hi ?limit () in
          if got <> expected then
            fail "scan [%s, %s) disagrees (%d vs %d entries)" lo hi
              (List.length got) (List.length expected))
        [ (key 100, key 200, None); ("", "~", None); (key 250, "~", Some 17) ])
    stores

let current_reads =
  ( (fun s k -> Store_intf.get s k),
    fun s ~lo ~hi ?limit () -> Store_intf.scan s ~lo ~hi ?limit () )

(* The differential check of the engine core: one seeded stream of puts,
   deletes and write batches drives WipDB, Leveled and Flsm. Midway a
   snapshot is pinned on each and read back after later writes, flushes
   and maintenance; at the end each engine is recovered on its own Env.
   Every read must equal the model's. *)
let test_engines_agree () =
  let splits = ref 0 and merges = ref 0 in
  List.iter
    (fun seed ->
      let envs = (Env.in_memory (), Env.in_memory (), Env.in_memory ()) in
      let wip, stores = open_engines ~fresh:true envs in
      let model = ref Model.empty in
      let rng = Wip_util.Rng.create ~seed in
      let pick () = key (Wip_util.Rng.int rng 500) in
      let buckets = ref (Wipdb.Store.bucket_count wip) in
      let pinned = ref None in
      for i = 0 to 5999 do
        (match Wip_util.Rng.int rng 10 with
        | 0 | 1 ->
          let k = pick () in
          List.iter (fun s -> Store_intf.delete s ~key:k) stores;
          model := Model.remove k !model
        | 2 ->
          let items =
            List.init
              (1 + Wip_util.Rng.int rng 8)
              (fun j ->
                let k = pick () in
                if Wip_util.Rng.int rng 4 = 0 then (Wip_util.Ikey.Deletion, k, "")
                else (Wip_util.Ikey.Value, k, Printf.sprintf "b%d.%d" i j))
          in
          List.iter (fun s -> Store_intf.write_batch s items) stores;
          List.iter
            (fun (kind, k, v) ->
              model :=
                match kind with
                | Wip_util.Ikey.Value -> Model.add k v !model
                | Wip_util.Ikey.Deletion -> Model.remove k !model)
            items
        | _ ->
          let k = pick () and v = "v" ^ string_of_int i in
          List.iter (fun s -> Store_intf.put s ~key:k ~value:v) stores;
          model := Model.add k v !model);
        let n = Wipdb.Store.bucket_count wip in
        if n < !buckets then incr merges;
        buckets := n;
        if i = 2000 then
          pinned := Some (List.map Store_intf.snapshot stores, !model);
        if i = 3000 || i = 4500 then
          List.iter
            (fun s ->
              Store_intf.flush s;
              Store_intf.maintenance s ())
            stores;
        if i = 5000 then
          Option.iter
            (fun (snaps, at) ->
              let snap_of s =
                List.assq s (List.combine stores snaps)
              in
              check_reads ~what:"pinned snapshot"
                ~get:(fun s k -> Store_intf.get_at s k ~snapshot:(snap_of s))
                ~scan:(fun s ~lo ~hi ?limit () ->
                  Store_intf.scan_at s ~lo ~hi ?limit ~snapshot:(snap_of s) ())
                stores at;
              List.iter Store_intf.release snaps)
            !pinned
      done;
      splits := !splits + Wipdb.Store.split_count wip;
      let get, scan = current_reads in
      check_reads ~what:"before recovery" ~get ~scan stores !model;
      let _, recovered = open_engines ~fresh:false envs in
      check_reads ~what:"after recovery" ~get ~scan recovered !model)
    [ 0x1A7L; 0x2B8L; 0x3C9L ];
  Alcotest.(check bool) "WipDB buckets split" true (!splits > 0);
  Alcotest.(check bool) "WipDB buckets merged" true (!merges > 0)

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
