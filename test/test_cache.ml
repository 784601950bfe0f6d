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

(* ------------------------------------------------------------------ *)
(* Admission classes *)

(* Reference LRU: (key, charge) most recent first, evicting from the back
   until the charges fit. *)
module Lru_model = struct
  type t = {
    capacity : int;
    mutable entries : ((string * int) * int) list;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create capacity =
    { capacity; entries = []; hits = 0; misses = 0; evictions = 0 }

  let used m = List.fold_left (fun acc (_, c) -> acc + c) 0 m.entries

  let find m k =
    match List.assoc_opt k m.entries with
    | Some c ->
      m.hits <- m.hits + 1;
      m.entries <- (k, c) :: List.remove_assoc k m.entries;
      true
    | None ->
      m.misses <- m.misses + 1;
      false

  let add m k c =
    if c <= m.capacity then begin
      m.entries <- (k, c) :: List.remove_assoc k m.entries;
      while used m > m.capacity do
        m.entries <- List.rev (List.tl (List.rev m.entries));
        m.evictions <- m.evictions + 1
      done
    end

  let evict_file m file =
    m.entries <- List.filter (fun ((f, _), _) -> f <> file) m.entries
end

let files = [| "a"; "b"; "c" |]

(* Ops: (0, key, _) find, (1, key, charge) add, (2, key, _) drop key's file;
   key = file * 8 + offset. Charges up to 120 against a capacity of 100, so
   some inserts are rejected outright. *)
let lru_trace =
  QCheck.(
    list_of_size Gen.(1 -- 200)
      (triple (int_bound 2) (int_bound 23) (int_range 1 120)))

let qcheck_get_only_is_lru =
  QCheck.Test.make ~name:"get-only traces are exactly LRU" ~count:300
    lru_trace (fun ops ->
      let c = Block_cache.create ~capacity_bytes:100 in
      let m = Lru_model.create 100 in
      List.iter
        (fun (op, key, charge) ->
          let file = files.(key / 8) and offset = key mod 8 in
          match op with
          | 0 ->
            let hit = Block_cache.find c ~file ~offset <> None in
            if hit <> Lru_model.find m (file, offset) then
              QCheck.Test.fail_reportf "find %s/%d disagrees" file offset
          | 1 ->
            Block_cache.add c ~file ~offset ~charge (String.make 4 'x');
            Lru_model.add m (file, offset) charge
          | _ ->
            Block_cache.evict_file c file;
            Lru_model.evict_file m file)
        ops;
      let cc = Block_cache.counters c in
      (* Same residents (probed without reordering) means the same
         evictions, given the same inserts. *)
      let resident =
        List.init 24 (fun key ->
            Block_cache.find ~admit:Block_cache.Bypass c ~file:files.(key / 8)
              ~offset:(key mod 8)
            <> None)
      and modelled =
        List.init 24 (fun key ->
            List.mem_assoc (files.(key / 8), key mod 8) m.Lru_model.entries)
      in
      cc.Block_cache.c_hits = m.Lru_model.hits
      && cc.Block_cache.c_misses = m.Lru_model.misses
      && cc.Block_cache.c_used_bytes = Lru_model.used m
      && cc.Block_cache.c_entries = List.length m.Lru_model.entries
      && resident = modelled)

(* What a table reader does on a block fetch: probe, and on a miss insert
   under the same class. *)
let read c ~admit ~file offset =
  match Block_cache.find ~admit c ~file ~offset with
  | Some _ -> ()
  | None -> Block_cache.add ~admit c ~file ~offset (String.make 10 'b')

let cached c ~file offset =
  Block_cache.find ~admit:Block_cache.Bypass c ~file ~offset <> None

let long_scan c ~file =
  (* 10-byte blocks over 4x a 1000-byte capacity. *)
  for offset = 0 to 399 do
    read c ~admit:Block_cache.Scan ~file offset
  done

let test_scan_keeps_point_working_set () =
  let c = Block_cache.create ~capacity_bytes:1000 in
  for offset = 0 to 49 do
    read c ~admit:Block_cache.Point ~file:"hot" offset
  done;
  long_scan c ~file:"cold";
  for offset = 0 to 49 do
    if not (cached c ~file:"hot" offset) then
      Alcotest.failf "point block %d evicted by a scan" offset
  done;
  Alcotest.(check bool) "the scan cached its tail" true
    (cached c ~file:"cold" 399);
  Alcotest.(check bool) "capacity respected" true
    (Block_cache.used_bytes c <= 1000)

let test_twice_scanned_block_survives () =
  let c = Block_cache.create ~capacity_bytes:1000 in
  read c ~admit:Block_cache.Scan ~file:"t" 7;
  read c ~admit:Block_cache.Scan ~file:"t" 8;
  (* A second scan reads block 7 only: its hit promotes it. *)
  read c ~admit:Block_cache.Scan ~file:"t" 7;
  long_scan c ~file:"long";
  Alcotest.(check bool) "block read by two scans survives" true
    (cached c ~file:"t" 7);
  Alcotest.(check bool) "block read by one scan does not" false
    (cached c ~file:"t" 8)

let test_bypass_never_inserts () =
  let c = Block_cache.create ~capacity_bytes:1000 in
  for offset = 0 to 9 do
    read c ~admit:Block_cache.Bypass ~file:"f" offset
  done;
  Alcotest.(check int) "nothing cached" 0 (Block_cache.entry_count c);
  Alcotest.(check int) "misses counted as bypasses" 10 (Block_cache.bypasses c);
  (* A sorted-view build replays every run of the bucket; it must leave
     only the blocks the triggering scan returned in the cache, so a get
     elsewhere in the bucket still goes to the device. *)
  let env = Env.in_memory () in
  let cfg =
    {
      Wipdb.Config.default with
      Wipdb.Config.memtable_items = 4096;
      memtable_bytes = 40 * 1024;
      initial_buckets = 1;
      t_sublevels = 64;
      min_count = 64;
      max_count = 128;
      block_cache_bytes = 4 * 1024 * 1024;
      name = "bypassdb";
    }
  in
  let db = Wipdb.Store.create ~env cfg in
  let key i = Printf.sprintf "%08d" i in
  for i = 0 to 4999 do
    Wipdb.Store.put db ~key:(key (i * 7919 mod 5000)) ~value:(String.make 64 'v')
  done;
  Wipdb.Store.flush db;
  let stats = Env.stats env in
  Alcotest.(check int) "one short scan" 1
    (List.length (Wipdb.Store.scan db ~lo:(key 0) ~hi:"\255" ~limit:1 ()));
  Alcotest.(check int) "the scan built the view" 1
    (Io_stats.view_rebuild_count stats);
  let before = Io_stats.read_by stats Io_stats.Read_path in
  Alcotest.(check (option string)) "far get" (Some (String.make 64 'v'))
    (Wipdb.Store.get db (key 4321));
  Alcotest.(check bool) "the view build cached nothing" true
    (Io_stats.read_by stats Io_stats.Read_path > before)

let suite =
  [
    Alcotest.test_case "hit/miss" `Quick test_basic_hit_miss;
    Alcotest.test_case "lru order" `Quick test_lru_eviction_order;
    Alcotest.test_case "oversized" `Quick test_oversized_value_not_cached;
    Alcotest.test_case "replace" `Quick test_replace_same_key;
    Alcotest.test_case "evict file" `Quick test_evict_file;
    Alcotest.test_case "reader integration" `Quick test_reader_uses_cache;
    Alcotest.test_case "wipdb read I/O" `Quick test_wipdb_cache_cuts_read_io;
    QCheck_alcotest.to_alcotest qcheck_get_only_is_lru;
    Alcotest.test_case "scan keeps point working set" `Quick
      test_scan_keeps_point_working_set;
    Alcotest.test_case "twice-scanned block survives" `Quick
      test_twice_scanned_block_survives;
    Alcotest.test_case "bypass never inserts" `Quick test_bypass_never_inserts;
  ]
