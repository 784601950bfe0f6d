(* Read-path microbenchmark: the cost of serving data already on "disk".

   Two layers:

   1. Table layer — the cursor read path itself: point-get ops/s against a
      cache-warm and a cache-less reader (with allocation and restart-probe
      counts per get, perfect-hash index on vs off), full-table scan
      throughput, and k-way merge-compact throughput.

   2. Engine layer — all three engines (WipDB, the leveled baseline, the
      fragmented baseline) loaded so that 4+ overlapping runs exist, then
      measured with the read accelerators (sorted view + ph index) on vs
      off in the same process: scan ns/entry, point-get ns/op and restart
      probes/op, view rebuild cost, and index block footprint.

   3. Short scans — seeded zipfian scans of 1–100 entries over a cached
      WipDB store, reporting the device read-path bytes each scan costs
      and the bytes it allocates per returned row: exact counts on the
      in-memory Env, which move only when the block cache keeps (or drops)
      what scans read, or when the range reader copies more than the rows
      it returns.

   Everything lands in BENCH_readpath.json; tools/readpath_gate compares
   the machine-independent fields (probes/op, on/off speedups, short-scan
   bytes and allocation) against the committed baseline. *)

open Harness
module Table = Wip_sstable.Table
module Block = Wip_sstable.Block
module Merge = Wip_sstable.Merge
module Block_cache = Wip_storage.Block_cache
module Ikey = Wip_util.Ikey

let key i = Printf.sprintf "%012d" i

let value = String.make 100 'v'

let build_table env ~name ~keys ~stride ~offset =
  let b =
    Table.Builder.create env ~name ~category:Io_stats.Flush
      ~expected_keys:keys ()
  in
  for i = 0 to keys - 1 do
    Table.Builder.add_encoded b
      ~key:(Ikey.encode_seek (key ((i * stride) + offset)) ~seq:(Int64.of_int (i + 1)))
      ~value
  done;
  ignore (Table.Builder.finish b)

(* [f] many times; returns (ops/s, allocated bytes per op, restart probes
   per op — Block.Cursor.seek key comparisons, which the ph path never
   performs). *)
let timed ~ops f =
  (* Settle major-GC debt from the previous phase so its mark/sweep slices
     don't bill this one. *)
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let p0 = Atomic.get Block.seek_probe_count in
  let t0 = Unix.gettimeofday () in
  for i = 0 to ops - 1 do
    f i
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let alloc = (Gc.allocated_bytes () -. a0) /. float_of_int ops in
  let probes =
    float_of_int (Atomic.get Block.seek_probe_count - p0) /. float_of_int ops
  in
  (float_of_int ops /. dt, alloc, probes)

let point_gets ~ops ~keys reader =
  (* Uniform pseudo-random present keys; the multiplier is coprime to any
     power-of-ten key count so the sequence cycles the whole table. *)
  timed ~ops (fun i ->
      let k = key (i * 7919 mod keys) in
      if Table.Reader.get reader ~category:Io_stats.Read_path k
           ~snapshot:Int64.max_int
         = None
      then failwith ("lost key " ^ k))

(* A filling pass: point admission, so the blocks land as a get's would. *)
let scan_pass ~category reader =
  let n = ref 0 in
  let t0 = Unix.gettimeofday () in
  let c = Table.Reader.Cursor.create reader ~category ~admit:Block_cache.Point () in
  while Table.Reader.Cursor.next c do
    (* Each entry leaves as a fresh (key, value), as a caller keeps it. *)
    let b = Table.Reader.Cursor.block c in
    ignore (Sys.opaque_identity (Block.Cursor.key b, Block.Cursor.value b));
    incr n
  done;
  (float_of_int !n /. (Unix.gettimeofday () -. t0), !n)

(* ------------------------------------------------------------------ *)
(* Engine layer: accelerators on vs off over a multi-run store *)

module Store_intf = Wip_kv.Store_intf

type arm_metrics = {
  a_runs : int;
  a_scan_ns : float; (* ns per scanned entry, full-range scan *)
  a_get_ns : float; (* ns per point get *)
  a_get_probes : float; (* restart probes per point get *)
  a_view_rebuilds : int;
  a_view_rebuild_ns : int;
  a_ph_bytes : int; (* index block bytes across live tables *)
}

let engine_key_count = 20_000

let engine_value = String.make 64 'e'

let ekey i = Printf.sprintf "%010d" i

(* WipDB names tables .lvt, the baselines .sst. *)
let table_files st =
  Env.list_files (Store_intf.env st)
  |> List.filter (fun f ->
         Filename.check_suffix f ".sst" || Filename.check_suffix f ".lvt")

let ph_bytes_of st =
  let env = Store_intf.env st in
  List.fold_left
    (fun acc f ->
      let r = Table.Reader.open_ env ~name:f in
      let b = Table.Reader.ph_bytes r in
      Table.Reader.close r;
      acc + b)
    0 (table_files st)

let measure_arm st =
  (* Load in a stride order so every flushed run spans the key space — the
     maximal-overlap shape the view is built for. *)
  for i = 0 to engine_key_count - 1 do
    Store_intf.put st ~key:(ekey (i * 7919 mod engine_key_count)) ~value:engine_value
  done;
  Store_intf.flush st;
  let runs = List.length (table_files st) in
  (* Warmup scan: builds the sorted view on accelerated arms so the timed
     passes measure the steady state (the build itself is reported via
     view_rebuild_ns). *)
  let warm = List.length (Store_intf.scan st ~lo:"" ~hi:"\255" ()) in
  if warm <> engine_key_count then
    failwith (Printf.sprintf "scan returned %d of %d keys" warm engine_key_count);
  let reps = 12 in
  Gc.full_major ();
  (* Median of per-rep times: a single scan is a few ms, so one stray
     major-GC slice would otherwise swing the whole measurement. *)
  let times =
    Array.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Store_intf.scan st ~lo:"" ~hi:"\255" ());
        Unix.gettimeofday () -. t0)
  in
  Array.sort Float.compare times;
  let scan_ns = times.(reps / 2) *. 1e9 /. float_of_int engine_key_count in
  let get_ops = 3000 in
  Gc.full_major ();
  let p0 = Atomic.get Block.seek_probe_count in
  let g0 = Unix.gettimeofday () in
  for i = 0 to get_ops - 1 do
    match Store_intf.get st (ekey (i * 4241 mod engine_key_count)) with
    | Some _ -> ()
    | None -> failwith "lost key"
  done;
  let get_ns = (Unix.gettimeofday () -. g0) *. 1e9 /. float_of_int get_ops in
  let get_probes =
    float_of_int (Atomic.get Block.seek_probe_count - p0)
    /. float_of_int get_ops
  in
  let stats = Io_stats.snapshot (Store_intf.io_stats st) in
  {
    a_runs = runs;
    a_scan_ns = scan_ns;
    a_get_ns = get_ns;
    a_get_probes = get_probes;
    a_view_rebuilds = Io_stats.view_rebuild_count stats;
    a_view_rebuild_ns = Io_stats.view_rebuild_ns stats;
    a_ph_bytes = ph_bytes_of st;
  }

(* Compaction-suppressing configs: runs accumulate at level 0 so the scan
   path faces a genuine 4+-way overlapping merge. *)

let wipdb_arm ~accel =
  let cfg =
    {
      Wipdb.Config.default with
      Wipdb.Config.memtable_items = 4096;
      memtable_bytes = 40 * 1024;
      initial_buckets = 1;
      t_sublevels = 64;
      min_count = 64;
      max_count = 128;
      sorted_view = accel;
      ph_index = accel;
      name = (if accel then "wip-on" else "wip-off");
    }
  in
  Store_intf.Store ((module Wipdb.Store), Wipdb.Store.create cfg)

let leveled_arm ~accel =
  let cfg =
    {
      (Wip_lsm.Leveled.leveldb_config ~scale:1) with
      Wip_lsm.Leveled.memtable_bytes = 40 * 1024;
      l0_compaction_trigger = 999;
      sorted_view = accel;
      ph_index = accel;
      name = (if accel then "lvl-on" else "lvl-off");
    }
  in
  Store_intf.Store ((module Wip_lsm.Leveled), Wip_lsm.Leveled.create cfg)

let flsm_arm ~accel =
  let cfg =
    {
      (Wip_lsm.Flsm.default_config ~scale:1) with
      Wip_lsm.Flsm.memtable_bytes = 40 * 1024;
      max_files_per_guard = 999;
      sorted_view = accel;
      ph_index = accel;
      name = (if accel then "flsm-on" else "flsm-off");
    }
  in
  Store_intf.Store ((module Wip_lsm.Flsm), Wip_lsm.Flsm.create cfg)

let engine_json name (on, off) =
  Printf.sprintf
    {|    "%s": {
      "runs": %d,
      "scan_ns_per_entry_on": %.1f,
      "scan_ns_per_entry_off": %.1f,
      "scan_speedup": %.3f,
      "get_ns_per_op_on": %.1f,
      "get_ns_per_op_off": %.1f,
      "get_probes_per_op_on": %.2f,
      "get_probes_per_op_off": %.2f,
      "view_rebuilds": %d,
      "view_rebuild_ns": %d,
      "ph_index_bytes": %d
    }|}
    name on.a_runs on.a_scan_ns off.a_scan_ns
    (off.a_scan_ns /. on.a_scan_ns)
    on.a_get_ns off.a_get_ns on.a_get_probes off.a_get_probes
    on.a_view_rebuilds on.a_view_rebuild_ns on.a_ph_bytes

let run_engines () =
  (* Shed the table-layer phase's heap before engine timing. *)
  Gc.compact ();
  section
    (Printf.sprintf
       "readpath: engine scans + gets, accelerators on vs off (%d keys, \
        compaction suppressed)"
       engine_key_count);
  row "%-10s %5s %16s %16s %9s %14s %14s" "engine" "runs" "scan ns/entry"
    "(off)" "speedup" "get probes/op" "(off)";
  let measure name mk =
    let on = measure_arm (mk ~accel:true) in
    let off = measure_arm (mk ~accel:false) in
    row "%-10s %5d %16.1f %16.1f %8.2fx %14.2f %14.2f" name on.a_runs
      on.a_scan_ns off.a_scan_ns
      (off.a_scan_ns /. on.a_scan_ns)
      on.a_get_probes off.a_get_probes;
    (name, (on, off))
  in
  [
    measure "WipDB" wipdb_arm;
    measure "LevelDB" leveled_arm;
    measure "PebblesDB" flsm_arm;
  ]

(* ------------------------------------------------------------------ *)
(* Short scans over a cached store *)

let short_scan_keys = 20_000

let short_scan_count = 4_000

(* Device read-path bytes per scan and allocated bytes per returned row,
   after as many warm-up scans (which also build the buckets' sorted
   views). Single-threaded on the in-memory Env, so both counts are exact
   and repeat. *)
let short_scans () =
  let env = Env.in_memory () in
  let cfg =
    {
      Wipdb.Config.default with
      Wipdb.Config.name = "short-scan";
      memtable_bytes = 64 * 1024;
      memtable_items = 640;
      block_cache_bytes = 1024 * 1024;
    }
  in
  let st = Wipdb.Store.create ~env cfg in
  let stride = 1_000_000_000 / short_scan_keys in
  for i = 0 to short_scan_keys - 1 do
    Wipdb.Store.put st ~key:(ekey (i * 7919 mod short_scan_keys * stride))
      ~value
  done;
  Wipdb.Store.flush st;
  Wipdb.Store.maintenance st ();
  let zipf =
    Wip_workload.Distribution.make
      (Wip_workload.Distribution.Zipfian { theta = 0.99; scrambled = true })
      ~space:(Int64.of_int short_scan_keys) ~seed:17L
  in
  let rng = Wip_util.Rng.create ~seed:23L in
  let scan () =
    let start = Int64.to_int (Wip_workload.Distribution.next zipf) in
    let limit = 1 + Wip_util.Rng.int rng 100 in
    let got =
      Wipdb.Store.scan st ~lo:(ekey (start * stride)) ~hi:"\255" ~limit ()
    in
    let n = List.length got in
    if n <> min limit (short_scan_keys - start) then
      failwith "short scan returned the wrong number of entries";
    n
  in
  for _ = 1 to short_scan_count do
    ignore (scan ())
  done;
  let stats = Env.stats env in
  let before = Io_stats.read_by stats Io_stats.Read_path in
  let alloc0 = Gc.allocated_bytes () in
  let rows = ref 0 in
  for _ = 1 to short_scan_count do
    rows := !rows + scan ()
  done;
  let alloc = Gc.allocated_bytes () -. alloc0 in
  ( float_of_int (Io_stats.read_by stats Io_stats.Read_path - before)
    /. float_of_int short_scan_count,
    alloc /. float_of_int (max 1 !rows) )

let run ~ops () =
  let keys = max 10_000 ops in
  section
    (Printf.sprintf "readpath: cursor read path (%d keys, %d ops/measure)"
       keys ops);
  let env = Env.in_memory () in
  build_table env ~name:"rp" ~keys ~stride:1 ~offset:0;
  let cache = Block_cache.create ~capacity_bytes:(64 * 1024 * 1024) in
  let warm = Table.Reader.open_ ~cache env ~name:"rp" in
  let cold = Table.Reader.open_ env ~name:"rp" in
  let cold_nph = Table.Reader.open_ env ~name:"rp" ~ph:false in

  (* Hot: every block resident after one filling pass. *)
  ignore (scan_pass ~category:Io_stats.Read_path warm);
  let hot_ops, hot_alloc, hot_probes = point_gets ~ops ~keys warm in
  (* Cold: no cache at all — every get re-reads its block. The default
     reader serves gets through the perfect-hash index; the ~ph:false
     reader is the restart-binary-search fallback path. *)
  (* Throwaway pass: the process's first cold phase pays a one-time
     major-heap ramp for block-sized allocations; don't bill it to
     whichever reader happens to run first. *)
  ignore (point_gets ~ops ~keys cold_nph);
  let cold_ops, cold_alloc, cold_probes = point_gets ~ops ~keys cold in
  let nph_ops, _, nph_probes = point_gets ~ops ~keys cold_nph in
  row "%-28s %14.0f ops/s %10.0f B/op %8.2f probes/op"
    "point get (cache-hot)" hot_ops hot_alloc hot_probes;
  row "%-28s %14.0f ops/s %10.0f B/op %8.2f probes/op"
    "point get (no cache, ph)" cold_ops cold_alloc cold_probes;
  row "%-28s %14.0f ops/s %21s %8.2f probes/op"
    "point get (no cache, no ph)" nph_ops "" nph_probes;

  let scan_ops, scanned = scan_pass ~category:Io_stats.Read_path warm in
  row "%-28s %14.0f entries/s  (%d entries)" "scan (stream, warm)" scan_ops
    scanned;

  (* Merge-compact: 4 interleaved runs, compacted the way a real compaction
     consumes them — cache-bypassing run cursors in one heap, version GC on
     the key bytes. First the merge alone, then the same merge written out
     through a table builder. *)
  let fan = 4 in
  let per = keys / fan in
  for j = 0 to fan - 1 do
    build_table env
      ~name:(Printf.sprintf "run-%d" j)
      ~keys:per ~stride:fan ~offset:j
  done;
  let runs =
    List.init fan (fun j ->
        Table.Reader.open_ ~cache env ~name:(Printf.sprintf "run-%d" j))
  in
  let compaction () =
    Merge.compact ~drop_tombstones:true ~snapshot_floor:Int64.max_int
      (List.map
         (fun r ->
           Merge.run
             (Table.Reader.Cursor.create r ~category:(Io_stats.Compaction_read 0)
                ~admit:Block_cache.Bypass ()))
         runs)
  in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let a0 = Gc.allocated_bytes () in
  let merged = ref 0 in
  let m = compaction () in
  while Merge.next m do
    incr merged
  done;
  let merge_dt = Unix.gettimeofday () -. t0 in
  let merge_ops = float_of_int !merged /. merge_dt in
  let merge_alloc = (Gc.allocated_bytes () -. a0) /. float_of_int !merged in
  row "%-28s %14.0f entries/s %10.0f B/entry  (%d-way, %d entries)"
    "merge-compact" merge_ops merge_alloc fan !merged;
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let out =
    Table.Builder.create env ~name:"compact-out" ~category:(Io_stats.Compaction 1)
      ~expected_keys:keys ()
  in
  let m = compaction () in
  while Merge.next m do
    Merge.add_to out m
  done;
  let written = (Table.Builder.finish out).Table.entry_count in
  let write_alloc = (Gc.allocated_bytes () -. a0) /. float_of_int written in
  row "%-28s %14d entries %10.0f B/entry" "merge-compact, written"
    written write_alloc;

  (* Report from one atomic snapshot: the individual getters each take the
     stats lock separately, so reading them piecemeal around live traffic
     can produce a torn set (an FP count from a later instant than its
     probe count, say). *)
  let stats = Io_stats.snapshot (Env.stats env) in
  let fp_rate = Io_stats.bloom_fp_rate stats in
  row "%-28s %14.4f  (%d probes, %d FPs)" "bloom FP rate" fp_rate
    (Io_stats.bloom_probe_count stats)
    (Io_stats.bloom_false_positive_count stats);
  row "%-28s %14d probes %8d false hits %4d fallbacks" "ph index"
    (Io_stats.ph_probe_count stats)
    (Io_stats.ph_false_hit_count stats)
    (Io_stats.ph_fallback_count stats);
  let cc = Block_cache.counters cache in
  row "%-28s %14d hits %10d misses %6d bypasses" "block cache"
    cc.Block_cache.c_hits cc.Block_cache.c_misses cc.Block_cache.c_bypasses;

  let engines = run_engines () in

  section
    (Printf.sprintf "readpath: %d zipfian scans of 1-100 entries, %d keys"
       short_scan_count short_scan_keys);
  let short_scan_bytes, short_scan_alloc = short_scans () in
  row "%-28s %14.1f device bytes/scan %8.1f alloc B/row"
    "short scan (WipDB, cached)" short_scan_bytes short_scan_alloc;

  (* Machine-readable trail for cross-PR comparison. *)
  let json = "BENCH_readpath.json" in
  let oc = open_out json in
  Printf.fprintf oc
    {|{
  "bench": "readpath",
  "keys": %d,
  "ops": %d,
  "point_get_hot_ops_per_sec": %.0f,
  "point_get_hot_alloc_bytes_per_op": %.1f,
  "point_get_hot_probes_per_op": %.2f,
  "point_get_cold_ops_per_sec": %.0f,
  "point_get_cold_alloc_bytes_per_op": %.1f,
  "point_get_cold_probes_per_op": %.2f,
  "point_get_cold_noph_ops_per_sec": %.0f,
  "point_get_cold_noph_probes_per_op": %.2f,
  "scan_entries_per_sec": %.0f,
  "merge_compact_entries_per_sec": %.0f,
  "merge_compact_alloc_bytes_per_entry": %.1f,
  "compact_write_alloc_bytes_per_entry": %.1f,
  "bloom_fp_rate": %.6f,
  "ph_probes": %d,
  "ph_false_hits": %d,
  "ph_fallbacks": %d,
  "block_fetches": %d,
  "cache_hits": %d,
  "cache_misses": %d,
  "short_scan_read_path_bytes_per_scan": %.1f,
  "short_scan_alloc_bytes_per_row": %.1f,
  "engines": {
%s
  }
}
|}
    keys ops hot_ops hot_alloc hot_probes cold_ops cold_alloc cold_probes
    nph_ops nph_probes scan_ops merge_ops merge_alloc write_alloc fp_rate
    (Io_stats.ph_probe_count stats)
    (Io_stats.ph_false_hit_count stats)
    (Io_stats.ph_fallback_count stats)
    (Io_stats.block_fetch_count stats)
    cc.Block_cache.c_hits cc.Block_cache.c_misses short_scan_bytes
    short_scan_alloc
    (String.concat ",\n"
       (List.map (fun (name, arms) -> engine_json name arms) engines));
  close_out oc;
  row "wrote %s" json;
  List.iter Table.Reader.close runs;
  Table.Reader.close warm;
  Table.Reader.close cold;
  Table.Reader.close cold_nph
