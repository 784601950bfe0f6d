(* Unit tests for the deterministic fault-injection device (Fault_env):
   crash images with synced-prefix semantics, torn writes, transient I/O
   faults, bit-flip corruption, and the fault/sync counters. *)

module Env = Wip_storage.Env
module Fault_env = Wip_storage.Fault_env
module Io_stats = Wip_storage.Io_stats

let cat = Io_stats.Manifest

let read_file env name =
  let r = Env.open_file env name in
  let c = Env.read_all r ~category:cat in
  Env.close_reader r;
  c

let test_crash_drops_unsynced_tail () =
  let fenv = Fault_env.create () in
  let env = Fault_env.env fenv in
  let w = Env.create_file env "a" in
  Env.append w ~category:cat "hello" (* op 1 *);
  Env.sync w (* op 2 *);
  Env.append w ~category:cat "world" (* op 3 *);
  Fault_env.crash_at fenv ~op:4 ();
  (match Env.sync w with
  | () -> Alcotest.fail "scheduled crash did not fire"
  | exception Fault_env.Crashed -> ());
  let image = Fault_env.image fenv in
  Alcotest.(check string) "only the synced prefix survives" "hello"
    (read_file image "a");
  (* The live (pre-crash) state still holds everything. *)
  Alcotest.(check int) "buffered size" 10 (Fault_env.file_size fenv "a")

let test_torn_append () =
  let fenv = Fault_env.create () in
  let env = Fault_env.env fenv in
  let w = Env.create_file env "a" in
  Env.append w ~category:cat "base";
  Env.sync w;
  Fault_env.crash_at fenv ~op:3 ~torn:2 ();
  (match Env.append w ~category:cat "XYZW" with
  | () -> Alcotest.fail "scheduled crash did not fire"
  | exception Fault_env.Crashed -> ());
  Alcotest.(check string) "two torn bytes beyond the synced prefix" "baseXY"
    (read_file (Fault_env.image fenv) "a")

let test_crash_image_spans_files () =
  let fenv = Fault_env.create () in
  let env = Fault_env.env fenv in
  let wa = Env.create_file env "a" in
  Env.append wa ~category:cat "aaaa" (* 1 *);
  Env.sync wa (* 2 *);
  let wb = Env.create_file env "b" in
  Env.append wb ~category:cat "bb" (* 3 *);
  Fault_env.crash_at fenv ~op:4 ();
  (match Env.append wb ~category:cat "cc" with
  | () -> Alcotest.fail "scheduled crash did not fire"
  | exception Fault_env.Crashed -> ());
  let image = Fault_env.image fenv in
  Alcotest.(check string) "synced file intact" "aaaa" (read_file image "a");
  Alcotest.(check string) "unsynced file empty" "" (read_file image "b")

let test_write_fault_is_transient () =
  let fenv = Fault_env.create () in
  let env = Fault_env.env fenv in
  let w = Env.create_file env "a" in
  Fault_env.fail_write_at fenv ~op:1 ();
  (match Env.append w ~category:cat "x" with
  | () -> Alcotest.fail "scheduled fault did not fire"
  | exception Env.Io_fault { op = "append"; file = "a"; retryable = true } ->
    ());
  (* The failed op had no effect; retrying is legal and succeeds. *)
  Env.append w ~category:cat "x";
  Env.sync w;
  Alcotest.(check int) "exactly one byte landed" 1 (Fault_env.file_size fenv "a");
  Alcotest.(check int) "fault counted" 1
    Io_stats.(count (Env.stats env) faults)

let test_read_fault_is_transient () =
  let fenv = Fault_env.create () in
  let env = Fault_env.env fenv in
  let w = Env.create_file env "a" in
  Env.append w ~category:cat "hello";
  Env.sync w;
  Env.close_writer w;
  Fault_env.fail_read_at fenv ~op:1;
  let r = Env.open_file env "a" in
  (match Env.read r ~category:cat ~pos:0 ~len:5 with
  | _ -> Alcotest.fail "scheduled read fault did not fire"
  | exception Env.Io_fault { op = "read"; file = "a"; retryable = false } ->
    ());
  Alcotest.(check string) "retry succeeds" "hello"
    (Env.read r ~category:cat ~pos:0 ~len:5);
  Env.close_reader r

let test_flip_bit () =
  let fenv = Fault_env.create () in
  let env = Fault_env.env fenv in
  let w = Env.create_file env "a" in
  Env.append w ~category:cat "A" (* 0x41 *);
  Env.sync w;
  Fault_env.flip_bit fenv ~file:"a" ~bit:1;
  Alcotest.(check string) "bit 1 flipped: 0x41 -> 0x43" "C" (read_file env "a");
  Alcotest.(check int) "corruption counted as a fault" 1
    (Io_stats.(count (Env.stats env) faults));
  (match Fault_env.flip_bit fenv ~file:"a" ~bit:800 with
  | () -> Alcotest.fail "out-of-range flip accepted"
  | exception Invalid_argument _ -> ())

let test_durable_and_snapshot_images () =
  let fenv = Fault_env.create () in
  let env = Fault_env.env fenv in
  let w = Env.create_file env "a" in
  Env.append w ~category:cat "hello";
  Env.sync w;
  Env.append w ~category:cat "tail";
  Alcotest.(check string) "durable image cuts the unsynced tail" "hello"
    (read_file (Fault_env.durable_image fenv) "a");
  Alcotest.(check string) "snapshot keeps buffered bytes" "hellotail"
    (read_file (Fault_env.snapshot_env fenv) "a");
  Alcotest.(check string) "snapshot with truncation" "hellota"
    (read_file (Fault_env.snapshot_env ~truncate:("a", 7) fenv) "a");
  (* Truncating a file that does not exist is silently ignored. *)
  Alcotest.(check string) "missing truncate target ignored" "hellotail"
    (read_file (Fault_env.snapshot_env ~truncate:("nope", 3) fenv) "a")

let test_deletes_are_durable () =
  let fenv = Fault_env.create () in
  let env = Fault_env.env fenv in
  let w = Env.create_file env "a" in
  Env.append w ~category:cat "x";
  Env.sync w;
  Env.delete env "a";
  Alcotest.(check bool) "deleted from the durable view too" false
    (Env.exists (Fault_env.durable_image fenv) "a")

(* ------------------------------------------------------------------ *)
(* Read faults through the cursor read path: a device read failing under a
   Block.Cursor-backed point get must surface as the typed Io_fault — and
   must not poison the block cache with a partial block. *)

module Block_cache = Wip_storage.Block_cache
module Table = Wip_sstable.Table
module Ikey = Wip_util.Ikey

let build_table env ~cache n =
  let b =
    Table.Builder.create env ~name:"t" ~category:Io_stats.Flush
      ~expected_keys:n ()
  in
  for i = 0 to n - 1 do
    Table.Builder.add b
      (Ikey.make (Printf.sprintf "%06d" i) ~seq:(Int64.of_int (i + 1)))
      (Printf.sprintf "value-%06d" i)
  done;
  ignore (Table.Builder.finish b);
  Table.Reader.open_ ~cache env ~name:"t"

let test_read_fault_under_cursor () =
  let fenv = Fault_env.create () in
  let env = Fault_env.env fenv in
  let cache = Block_cache.create ~capacity_bytes:(1 lsl 20) in
  (* Enough keys for several data blocks; opening the reader performs its
     footer/index/filter reads, so the next read op is the data-block fetch
     the get needs. *)
  let r = build_table env ~cache 2000 in
  let entries0 = Block_cache.entry_count cache in
  Fault_env.fail_read_at fenv ~op:(Fault_env.read_ops fenv + 1);
  let get () =
    Table.Reader.get r ~category:Io_stats.Read_path "000700"
      ~snapshot:Int64.max_int
  in
  (match get () with
  | _ -> Alcotest.fail "scheduled read fault did not fire"
  | exception Env.Io_fault { op = "read"; file = "t"; retryable = false } ->
    ());
  (* No cache poisoning: the failed fetch left nothing behind. *)
  Alcotest.(check int) "no partial block cached" entries0
    (Block_cache.entry_count cache);
  (* The fault was transient at the device level: the same seek now
     succeeds and only then does the block enter the cache. *)
  (match get () with
  | Some (Ikey.Value, v, seq) ->
    Alcotest.(check string) "value after reread" "value-000700" v;
    Alcotest.(check int64) "seq after reread" 701L seq
  | _ -> Alcotest.fail "key lost after a transient read fault");
  Alcotest.(check bool) "block cached after the successful fetch" true
    (Block_cache.entry_count cache > entries0);
  Table.Reader.close r

(* The same fault surfacing through the full store read path: the store
   stays Healthy (read faults do not degrade — only durable-write faults
   do) and the retried get serves the value. *)
let test_read_fault_through_store () =
  let fenv = Fault_env.create () in
  let env = Fault_env.env fenv in
  let cfg =
    {
      Wipdb.Config.default with
      Wipdb.Config.name = "rf";
      memtable_items = 4;
      block_cache_bytes = 1 lsl 20;
    }
  in
  let db = Wipdb.Store.create ~env cfg in
  for i = 0 to 15 do
    Wipdb.Store.put db
      ~key:(Printf.sprintf "k%03d" i)
      ~value:(Printf.sprintf "v%03d" i)
  done;
  Wipdb.Store.flush db;
  Fault_env.fail_read_at fenv ~op:(Fault_env.read_ops fenv + 1);
  (match Wipdb.Store.get db "k007" with
  | _ -> Alcotest.fail "scheduled read fault did not fire"
  | exception Env.Io_fault { op = "read"; retryable = false; _ } -> ());
  (match Wipdb.Store.health db with
  | Wip_kv.Store_intf.Healthy -> ()
  | Wip_kv.Store_intf.Degraded { reason } ->
    Alcotest.failf "read fault degraded the store: %s" reason);
  Alcotest.(check (option string)) "reread serves the value" (Some "v007")
    (Wipdb.Store.get db "k007")

let test_sync_counter () =
  let env = Env.in_memory () in
  let w = Env.create_file env "a" in
  Env.sync w;
  Env.sync w;
  Alcotest.(check int) "sync_count" 2 (Io_stats.(count (Env.stats env) syncs));
  Io_stats.reset (Env.stats env);
  Alcotest.(check int) "reset clears syncs" 0
    (Io_stats.(count (Env.stats env) syncs))

let suite =
  [
    Alcotest.test_case "crash drops unsynced tail" `Quick
      test_crash_drops_unsynced_tail;
    Alcotest.test_case "torn append" `Quick test_torn_append;
    Alcotest.test_case "crash image spans files" `Quick
      test_crash_image_spans_files;
    Alcotest.test_case "write fault is transient" `Quick
      test_write_fault_is_transient;
    Alcotest.test_case "read fault is transient" `Quick
      test_read_fault_is_transient;
    Alcotest.test_case "flip bit" `Quick test_flip_bit;
    Alcotest.test_case "durable and snapshot images" `Quick
      test_durable_and_snapshot_images;
    Alcotest.test_case "deletes are durable" `Quick test_deletes_are_durable;
    Alcotest.test_case "read fault under cursor" `Quick
      test_read_fault_under_cursor;
    Alcotest.test_case "read fault through store" `Quick
      test_read_fault_through_store;
    Alcotest.test_case "sync counter" `Quick test_sync_counter;
  ]
