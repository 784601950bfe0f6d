(* Tests for the LRU block cache and its integration with table readers and
   the WipDB read path. *)

module Block_cache = Wip_storage.Block_cache
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats

let test_basic_hit_miss () =
  let c = Block_cache.create ~capacity_bytes:1024 in
  Alcotest.(check (option string)) "cold" None (Block_cache.find c ~file:"f" ~offset:0);
  Block_cache.add c ~file:"f" ~offset:0 "block-a";
  Alcotest.(check (option string)) "hit" (Some "block-a")
    (Block_cache.find c ~file:"f" ~offset:0);
  Alcotest.(check int) "hits" 1 (Block_cache.hits c);
  Alcotest.(check int) "misses" 1 (Block_cache.misses c)

let test_lru_eviction_order () =
  let c = Block_cache.create ~capacity_bytes:30 in
  Block_cache.add c ~file:"f" ~offset:0 (String.make 10 'a');
  Block_cache.add c ~file:"f" ~offset:1 (String.make 10 'b');
  Block_cache.add c ~file:"f" ~offset:2 (String.make 10 'c');
  (* Touch offset 0 so it is most recent; adding a fourth evicts offset 1. *)
  ignore (Block_cache.find c ~file:"f" ~offset:0);
  Block_cache.add c ~file:"f" ~offset:3 (String.make 10 'd');
  Alcotest.(check bool) "0 survives" true
    (Block_cache.find c ~file:"f" ~offset:0 <> None);
  Alcotest.(check bool) "1 evicted" true
    (Block_cache.find c ~file:"f" ~offset:1 = None);
  Alcotest.(check bool) "2 survives" true
    (Block_cache.find c ~file:"f" ~offset:2 <> None);
  Alcotest.(check bool) "capacity respected" true (Block_cache.used_bytes c <= 30)

let test_oversized_value_not_cached () =
  let c = Block_cache.create ~capacity_bytes:8 in
  Block_cache.add c ~file:"f" ~offset:0 "way-too-large-for-this-cache";
  Alcotest.(check int) "nothing stored" 0 (Block_cache.entry_count c)

let test_replace_same_key () =
  let c = Block_cache.create ~capacity_bytes:100 in
  Block_cache.add c ~file:"f" ~offset:0 "old";
  Block_cache.add c ~file:"f" ~offset:0 "newer";
  Alcotest.(check (option string)) "replaced" (Some "newer")
    (Block_cache.find c ~file:"f" ~offset:0);
  Alcotest.(check int) "one entry" 1 (Block_cache.entry_count c);
  Alcotest.(check int) "bytes tracked" 5 (Block_cache.used_bytes c)

let test_evict_file () =
  let c = Block_cache.create ~capacity_bytes:100 in
  Block_cache.add c ~file:"dead" ~offset:0 "x";
  Block_cache.add c ~file:"dead" ~offset:1 "y";
  Block_cache.add c ~file:"live" ~offset:0 "z";
  Block_cache.evict_file c "dead";
  Alcotest.(check int) "only live remains" 1 (Block_cache.entry_count c);
  Alcotest.(check bool) "live still cached" true
    (Block_cache.find c ~file:"live" ~offset:0 <> None)

let build_table env cache n =
  let b =
    Wip_sstable.Table.Builder.create env ~name:"t" ~category:Io_stats.Flush
      ~expected_keys:n ()
  in
  for i = 0 to n - 1 do
    Wip_sstable.Table.Builder.add b
      (Wip_util.Ikey.make (Printf.sprintf "%06d" i) ~seq:(Int64.of_int (i + 1)))
      "value"
  done;
  let _ = Wip_sstable.Table.Builder.finish b in
  Wip_sstable.Table.Reader.open_ ?cache env ~name:"t"

let test_reader_uses_cache () =
  let env = Env.in_memory () in
  let cache = Block_cache.create ~capacity_bytes:(1 lsl 20) in
  let r = build_table env (Some cache) 2000 in
  let stats = Env.stats env in
  let read_key k =
    ignore
      (Wip_sstable.Table.Reader.get r ~category:Io_stats.Read_path
         (Printf.sprintf "%06d" k) ~snapshot:Int64.max_int)
  in
  read_key 500;
  let after_first = Io_stats.read_by stats Io_stats.Read_path in
  (* One sealed block came off the device; the cache is charged its
     payload, not its 4-byte CRC trailer. *)
  Alcotest.(check int) "cache charged payload bytes" (after_first - 4)
    (Block_cache.used_bytes cache);
  (* Same block again: no further device reads. *)
  read_key 500;
  read_key 501;
  Alcotest.(check int) "no extra device I/O on warm block" after_first
    (Io_stats.read_by stats Io_stats.Read_path);
  Alcotest.(check bool) "cache recorded hits" true (Block_cache.hits cache >= 2)

let test_wipdb_cache_cuts_read_io () =
  let run cache_bytes =
    let env = Env.in_memory () in
    let cfg =
      {
        Wipdb.Config.default with
        Wipdb.Config.memtable_items = 256;
        block_cache_bytes = cache_bytes;
        name = "cachedb";
      }
    in
    let db = Wipdb.Store.create ~env cfg in
    for i = 0 to 4999 do
      Wipdb.Store.put db ~key:(Printf.sprintf "%08d" i) ~value:"payload"
    done;
    Wipdb.Store.flush db;
    Wipdb.Store.maintenance db ();
    let stats = Env.stats env in
    let before = Io_stats.read_by stats Io_stats.Read_path in
    (* A hot working set read repeatedly. *)
    for _ = 1 to 10 do
      for i = 0 to 99 do
        ignore (Wipdb.Store.get db (Printf.sprintf "%08d" i))
      done
    done;
    Io_stats.read_by stats Io_stats.Read_path - before
  in
  let cold = run 0 in
  let warm = run (4 * 1024 * 1024) in
  Alcotest.(check bool)
    (Printf.sprintf "cached I/O (%d) well below uncached (%d)" warm cold)
    true
    (warm * 4 < cold)

let suite =
  [
    Alcotest.test_case "hit/miss" `Quick test_basic_hit_miss;
    Alcotest.test_case "lru order" `Quick test_lru_eviction_order;
    Alcotest.test_case "oversized" `Quick test_oversized_value_not_cached;
    Alcotest.test_case "replace" `Quick test_replace_same_key;
    Alcotest.test_case "evict file" `Quick test_evict_file;
    Alcotest.test_case "reader integration" `Quick test_reader_uses_cache;
    Alcotest.test_case "wipdb read I/O" `Quick test_wipdb_cache_cuts_read_io;
  ]
