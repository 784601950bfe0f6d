(* Regression tests for the allocation-free cursor read path: a cache-hot
   point get must cost at most one data-block fetch, zero full-block
   decodes and zero device bytes; compaction-style streams must not disturb
   the cache; the bloom/FP and cache counters must account every probe. *)

module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Block_cache = Wip_storage.Block_cache
module Block = Wip_sstable.Block
module Table = Wip_sstable.Table
module Ikey = Wip_util.Ikey

let key i = Printf.sprintf "%06d" i

(* Enough keys for several data blocks (4 KiB default block size). *)
let build_table ?cache env n =
  let b =
    Table.Builder.create env ~name:"t" ~category:Io_stats.Flush
      ~expected_keys:n ()
  in
  for i = 0 to n - 1 do
    Table.Builder.add b
      (Ikey.make (key i) ~seq:(Int64.of_int (i + 1)))
      (Printf.sprintf "value-%06d" i)
  done;
  let _ = Table.Builder.finish b in
  Table.Reader.open_ ?cache env ~name:"t"

(* The headline regression: once the block is cached, a point get performs
   exactly one block fetch (served by the cache), decodes no block wholesale
   and moves zero device bytes. *)
let test_hot_get_block_budget () =
  let env = Env.in_memory () in
  let cache = Block_cache.create ~capacity_bytes:(1 lsl 20) in
  let r = build_table ~cache env 2000 in
  let stats = Env.stats env in
  let get k =
    Table.Reader.get r ~category:Io_stats.Read_path (key k)
      ~snapshot:Int64.max_int
  in
  (* Warm the block holding key 700. *)
  Alcotest.(check bool) "warm get found" true (get 700 <> None);
  let fetches0 = Io_stats.block_fetch_count stats in
  let decodes0 = Atomic.get Block.decode_count in
  let device0 = Io_stats.read_by stats Io_stats.Read_path in
  (match get 700 with
  | Some (Ikey.Value, v, seq) ->
    Alcotest.(check string) "value" "value-000700" v;
    Alcotest.(check int64) "seq" 701L seq
  | _ -> Alcotest.fail "hot get lost the key");
  Alcotest.(check bool) "at most one block fetch" true
    (Io_stats.block_fetch_count stats - fetches0 <= 1);
  Alcotest.(check int) "zero full-block decodes" decodes0
    (Atomic.get Block.decode_count);
  Alcotest.(check int) "zero device bytes" device0
    (Io_stats.read_by stats Io_stats.Read_path)

(* Opening a table charges its self-description reads (footer, index,
   filter) to Table_meta, not Manifest. *)
let test_open_charged_to_table_meta () =
  let env = Env.in_memory () in
  let r = build_table env 500 in
  let stats = Env.stats env in
  Alcotest.(check bool) "Table_meta read traffic" true
    (Io_stats.read_by stats Io_stats.Table_meta > 0);
  Alcotest.(check int) "no Manifest reads" 0
    (Io_stats.read_by stats Io_stats.Manifest);
  Table.Reader.close r

(* A Bypass pass over the whole table (the compaction/split/view-build
   reader mode) must leave the cache untouched and count as bypass traffic;
   a scan pass populates it. *)
let test_stream_scan_resistance () =
  let env = Env.in_memory () in
  let cache = Block_cache.create ~capacity_bytes:(1 lsl 20) in
  let r = build_table ~cache env 2000 in
  let drain s = Seq.iter (fun _ -> ()) s in
  drain (Table.Reader.stream r ~category:(Io_stats.Compaction_read 0)
           ~admit:Block_cache.Bypass ());
  Alcotest.(check int) "cold pass caches nothing" 0
    (Block_cache.entry_count cache);
  Alcotest.(check bool) "misses counted as bypasses" true
    (Block_cache.bypasses cache > 0);
  Alcotest.(check int) "not as misses" 0 (Block_cache.misses cache);
  drain
    (Table.Reader.stream r ~category:Io_stats.Read_path
       ~admit:Block_cache.Scan ());
  Alcotest.(check bool) "filling pass populates" true
    (Block_cache.entry_count cache > 0);
  (* With every block now resident, another non-filling pass is pure
     cache hits: no device I/O. *)
  let stats = Env.stats env in
  let device0 = Io_stats.read_by stats (Io_stats.Compaction_read 0) in
  drain (Table.Reader.stream r ~category:(Io_stats.Compaction_read 0)
           ~admit:Block_cache.Bypass ());
  Alcotest.(check int) "warm non-filling pass reads no device bytes" device0
    (Io_stats.read_by stats (Io_stats.Compaction_read 0))

(* Bypass hits must not promote the entry in the LRU order. *)
let test_bypass_does_not_promote () =
  let c = Block_cache.create ~capacity_bytes:30 in
  Block_cache.add c ~file:"f" ~offset:0 (String.make 10 'a');
  Block_cache.add c ~file:"f" ~offset:1 (String.make 10 'b');
  Block_cache.add c ~file:"f" ~offset:2 (String.make 10 'c');
  (* A promoting find would rescue offset 0 from the next eviction. *)
  Alcotest.(check bool) "no-fill hit" true
    (Block_cache.find ~admit:Block_cache.Bypass c ~file:"f" ~offset:0 <> None);
  Block_cache.add c ~file:"f" ~offset:3 (String.make 10 'd');
  Alcotest.(check bool) "oldest still evicted" true
    (Block_cache.find ~admit:Block_cache.Bypass c ~file:"f" ~offset:0 = None);
  Alcotest.(check int) "hits counted" 1 (Block_cache.hits c);
  Alcotest.(check int) "probe misses are bypasses" 1 (Block_cache.bypasses c);
  Alcotest.(check int) "not misses" 0 (Block_cache.misses c)

(* Values larger than the whole capacity are rejected loudly, not dropped
   silently. *)
let test_oversized_add_counts_rejection () =
  let c = Block_cache.create ~capacity_bytes:8 in
  Block_cache.add c ~file:"f" ~offset:0 "way-too-large-for-this-cache";
  Alcotest.(check int) "nothing stored" 0 (Block_cache.entry_count c);
  Alcotest.(check int) "rejection counted" 1 (Block_cache.rejections c);
  Block_cache.add c ~file:"f" ~offset:1 "tiny";
  Alcotest.(check int) "normal add unaffected" 1 (Block_cache.rejections c);
  Alcotest.(check int) "tiny stored" 1 (Block_cache.entry_count c)

(* Every bloom consultation is accounted: an absent-key get is either ruled
   out by the filter (negative) or becomes a measured false positive; a
   present-key get is a maybe that is not an FP. *)
let test_bloom_accounting () =
  let env = Env.in_memory () in
  let r = build_table env 1000 in
  let stats = Env.stats env in
  let absent = 500 in
  let probes0 = Io_stats.bloom_probe_count stats in
  for i = 0 to absent - 1 do
    let missing = Printf.sprintf "zz-not-there-%04d" i in
    Alcotest.(check bool) "absent key misses" true
      (Table.Reader.get r ~category:Io_stats.Read_path missing
         ~snapshot:Int64.max_int
      = None)
  done;
  Alcotest.(check int) "every get probes once" absent
    (Io_stats.bloom_probe_count stats - probes0);
  Alcotest.(check int) "each probe is a negative or a measured FP" absent
    (Io_stats.bloom_negative_count stats
    + Io_stats.bloom_false_positive_count stats);
  let fp = Io_stats.bloom_false_positive_count stats in
  let maybes =
    Io_stats.bloom_probe_count stats - Io_stats.bloom_negative_count stats
  in
  Alcotest.(check (float 1e-9)) "fp_rate = fp / maybes"
    (if maybes = 0 then 0.0 else float_of_int fp /. float_of_int maybes)
    (Io_stats.bloom_fp_rate stats);
  (* Present keys: maybe-answers that are not false positives. *)
  let fp0 = Io_stats.bloom_false_positive_count stats in
  for i = 0 to 99 do
    Alcotest.(check bool) "present key found" true
      (Table.Reader.get r ~category:Io_stats.Read_path (key (i * 7))
         ~snapshot:Int64.max_int
      <> None)
  done;
  Alcotest.(check int) "hits are not FPs" fp0
    (Io_stats.bloom_false_positive_count stats)

(* The full-store hot path composes the same way: a repeated Wipdb get on a
   flushed key decodes no blocks wholesale. *)
let test_store_hot_get_no_decode () =
  let env = Env.in_memory () in
  let cfg =
    {
      Wipdb.Config.default with
      Wipdb.Config.memtable_items = 128;
      block_cache_bytes = 1 lsl 20;
      name = "rp";
    }
  in
  let db = Wipdb.Store.create ~env cfg in
  for i = 0 to 999 do
    Wipdb.Store.put db ~key:(key i) ~value:"payload"
  done;
  Wipdb.Store.flush db;
  Alcotest.(check (option string)) "warm" (Some "payload")
    (Wipdb.Store.get db (key 123));
  let decodes0 = Atomic.get Block.decode_count in
  for _ = 1 to 50 do
    Alcotest.(check (option string)) "hot" (Some "payload")
      (Wipdb.Store.get db (key 123))
  done;
  Alcotest.(check int) "no full-block decodes on store gets" decodes0
    (Atomic.get Block.decode_count)

let suite =
  [
    Alcotest.test_case "hot get block budget" `Quick test_hot_get_block_budget;
    Alcotest.test_case "table_meta accounting" `Quick
      test_open_charged_to_table_meta;
    Alcotest.test_case "scan resistance" `Quick test_stream_scan_resistance;
    Alcotest.test_case "no-fill LRU" `Quick test_bypass_does_not_promote;
    Alcotest.test_case "rejections" `Quick test_oversized_add_counts_rejection;
    Alcotest.test_case "bloom accounting" `Quick test_bloom_accounting;
    Alcotest.test_case "store hot get" `Quick test_store_hot_get_no_decode;
  ]
