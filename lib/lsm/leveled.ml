module Ikey = Wip_util.Ikey
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Table = Wip_sstable.Table
module Merge_iter = Wip_sstable.Merge_iter
module Sorted_view = Wip_sstable.Sorted_view
module Range_reader = Wip_sstable.Range_reader
module Skiplist = Wip_memtable.Skiplist
module Wal = Wip_wal.Wal
module Manifest = Wip_manifest.Manifest
module Table_set = Wip_kv.Table_set

type config = {
  memtable_bytes : int;
  sstable_bytes : int;
  l0_compaction_trigger : int;
  level1_bytes : int;
  level_multiplier : int;
  max_levels : int;
  bits_per_key : int;
  sorted_view : bool;
  sorted_view_min_runs : int;
  ph_index : bool;
  name : string;
}

let leveldb_config ~scale =
  {
    memtable_bytes = 64 * 1024 * scale;
    sstable_bytes = 32 * 1024 * scale;
    l0_compaction_trigger = 4;
    level1_bytes = 256 * 1024 * scale;
    level_multiplier = 10;
    max_levels = 7;
    bits_per_key = 10;
    sorted_view = true;
    sorted_view_min_runs = 2;
    ph_index = true;
    name = "LevelDB";
  }

let rocksdb_config ~scale =
  (* RocksDB-flavoured tuning: larger target files and level-1 budget. *)
  {
    (leveldb_config ~scale) with
    sstable_bytes = 64 * 1024 * scale;
    level1_bytes = 384 * 1024 * scale;
    name = "RocksDB";
  }

let rocksdb_bigmem_config ~scale =
  {
    (rocksdb_config ~scale) with
    memtable_bytes = 64 * 1024 * scale * 25;
    name = "RocksDB-bigmem";
  }

type t = {
  cfg : config;
  ts : Table_set.t;
  mutable mem : Skiplist.t; (* guarded_by: caller *)
  mutable levels : Table.meta list array; (* guarded_by: caller *)
  (* L0: newest first (flush order); L1+: sorted by smallest key, disjoint. *)
  mutable seq : int64; (* guarded_by: caller *)
  mutable compact_pointer : string array; (* round-robin cursor per level; guarded_by: caller *)
  mutable compactions : int; (* guarded_by: caller *)
  mutable view : (Sorted_view.t * Table.meta array) option; (* guarded_by: caller *)
      (* Store-wide sorted view over the whole table set; None when absent
         or invalidated. Scans build it lazily; compaction drops it. *)
}

let make ~reopen env cfg =
  {
    cfg;
    ts =
      Table_set.create ~reopen env ~name:cfg.name ~suffix:".sst"
        ~bits_per_key:cfg.bits_per_key ~ph_index:cfg.ph_index
        ~sorted_view:cfg.sorted_view
        ~sorted_view_min_runs:cfg.sorted_view_min_runs ();
    mem = Skiplist.create ();
    levels = Array.make cfg.max_levels [];
    seq = 0L;
    compact_pointer = Array.make cfg.max_levels "";
    compactions = 0;
    view = None;
  }

let create ?env cfg =
  make ~reopen:false (match env with Some e -> e | None -> Env.in_memory ()) cfg

let config t = t.cfg

let name t = t.cfg.name

let env t = Table_set.env t.ts

let io_stats t = Table_set.stats t.ts

let oldest_snapshot_seq t = Table_set.oldest_snapshot_seq t.ts

let live_snapshot_count t = Table_set.live_snapshot_count t.ts

let zombie_table_files t = Table_set.zombie_table_files t.ts

let zombie_bytes t = Table_set.zombie_bytes t.ts

let snapshot t = Table_set.snapshot t.ts ~seq:t.seq

let level_capacity t level =
  (* Level 0 is triggered by file count, not bytes. *)
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  t.cfg.level1_bytes * pow t.cfg.level_multiplier (level - 1)

let level_bytes t level =
  List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.size) 0 t.levels.(level)

(* ------------------------------------------------------------------ *)
(* Sorted view (REMIX-style; see Sorted_view and DESIGN.md). One view over
   the whole table set — this baseline has a single key space, so "the run
   set" is every live table. Building or extending the view bypasses the
   block cache; a walk reads under the scan admission class. *)

let invalidate_view t = t.view <- None

let all_tables t = Array.to_list t.levels |> List.concat

let store_view t =
  if Option.is_none t.view then t.view <- Table_set.build_view t.ts (all_tables t);
  t.view

(* ------------------------------------------------------------------ *)
(* Writing *)

let flush_mem t =
  if Skiplist.count t.mem > 0 then begin
    (* A memtable fills mid-batch, so this flush may persist part of a batch
       whose WAL record is still buffered; sync the log first so a crash
       after the flush replays the whole batch instead of applying half. *)
    Wal.sync (Table_set.wal t.ts);
    List.iter
      (fun meta ->
        t.levels.(0) <- meta :: t.levels.(0);
        t.view <- Table_set.extend_view t.ts t.view meta;
        Table_set.log_add t.ts ~bucket:0 ~level:0 meta)
      (Table_set.write_runs t.ts ~category:Io_stats.Flush
         ~expected_keys:(Skiplist.count t.mem)
         (Skiplist.to_sorted_seq t.mem
         |> Seq.map (fun (ik, v) -> (Ikey.encode ik, v))));
    Table_set.log_watermark t.ts ~seq:t.seq;
    (* The flushed table's manifest edit must be durable before the WAL
       records it replaces are reclaimed. *)
    Table_set.sync_manifest t.ts;
    t.mem <- Skiplist.create ();
    ignore
      (Wal.reclaim (Table_set.wal t.ts) ~persisted_below:(Int64.add t.seq 1L))
  end

(* Build one or more target-size output tables from a compacted (encoded)
   entry sequence. [expected_keys] sizes each output's bloom filter; callers
   derive it from the inputs' entry counts and byte sizes instead of a
   guessed constant. *)
let write_outputs t ~category ~expected_keys entries =
  let last_key = ref None in
  Table_set.write_runs t.ts ~category ~expected_keys entries
    ~cut:(fun ~size key ->
      (* Split lazily, and never between two versions of one user key: with
         a version-GC floor several versions of a key can flow through one
         compaction, and the L1+ point-read probes exactly one table per
         level — all of a key's versions must land in it. *)
      let prev = !last_key in
      last_key := Some key;
      match prev with
      | Some prev ->
        size >= t.cfg.sstable_bytes && not (Ikey.encoded_same_user prev key)
      | None -> false)

(* Insert [metas] into sorted level list (levels >= 1 stay sorted by
   smallest key). *)
let sorted_level metas =
  List.sort
    (fun (a : Table.meta) (b : Table.meta) ->
      String.compare a.Table.smallest b.Table.smallest)
    metas

let overlapping_files level ~lo ~hi =
  List.partition (fun m -> Table.overlaps m ~lo ~hi) level

(* Compact level -> level+1. For L0, all L0 files participate (their ranges
   overlap); for deeper levels one file is chosen round-robin. *)
let compact_level t level =
  t.compactions <- t.compactions + 1;
  let target = level + 1 in
  let sources =
    if level = 0 then t.levels.(0)
    else begin
      match t.levels.(level) with
      | [] -> []
      | files ->
        let cursor = t.compact_pointer.(level) in
        let next =
          try List.find (fun (m : Table.meta) -> String.compare m.Table.smallest cursor > 0) files
          with Not_found -> List.hd files
        in
        t.compact_pointer.(level) <- next.Table.smallest;
        [ next ]
    end
  in
  if sources = [] then ()
  else begin
    let lo =
      List.fold_left
        (fun acc (m : Table.meta) -> min acc m.Table.smallest)
        (List.hd sources).Table.smallest sources
    and hi =
      List.fold_left
        (fun acc (m : Table.meta) -> max acc m.Table.largest)
        (List.hd sources).Table.largest sources
    in
    let overlapping, untouched = overlapping_files t.levels.(target) ~lo ~hi in
    let inputs = sources @ overlapping in
    let read_cat m =
      if List.memq m sources then Io_stats.Compaction_read level
      else Io_stats.Compaction_read target
    in
    let seqs =
      List.map (fun m -> Table_set.stream t.ts ~category:(read_cat m) m) inputs
    in
    (* Tombstones can be dropped when the output level is the deepest level
       holding data for this key range. The range must cover every INPUT:
       overlapping target-level files can extend beyond the sources' [lo,
       hi], and their entries flow through this compaction too — judging
       them by the narrower sources range once dropped a tombstone whose
       older versions sat deeper, resurrecting a deleted key. *)
    let input_lo =
      List.fold_left
        (fun acc (m : Table.meta) -> min acc m.Table.smallest)
        lo inputs
    and input_hi =
      List.fold_left
        (fun acc (m : Table.meta) -> max acc m.Table.largest)
        hi inputs
    in
    let deeper_has_data =
      let rec check l =
        if l >= t.cfg.max_levels then false
        else if
          fst (overlapping_files t.levels.(l) ~lo:input_lo ~hi:input_hi) <> []
        then true
        else check (l + 1)
      in
      check (target + 1)
    in
    let entries =
      Merge_iter.compact ~dedup_user_keys:true
        ~drop_tombstones:(not deeper_has_data)
        ~snapshot_floor:(oldest_snapshot_seq t) seqs
    in
    (* Size each output's bloom from the inputs' observed entry density:
       expected keys per output ≈ target bytes / average entry size. *)
    let total_count =
      List.fold_left
        (fun acc (m : Table.meta) -> acc + m.Table.entry_count)
        0 inputs
    and total_bytes =
      List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.size) 0 inputs
    in
    let expected_keys =
      max 64 (t.cfg.sstable_bytes * total_count / max 1 total_bytes)
    in
    let outputs =
      write_outputs t ~category:(Io_stats.Compaction target) ~expected_keys
        entries
    in
    (* Install: remove inputs, add outputs to target. *)
    if level = 0 then t.levels.(0) <- []
    else
      t.levels.(level) <-
        List.filter (fun m -> not (List.memq m sources)) t.levels.(level);
    t.levels.(target) <- sorted_level (untouched @ outputs);
    invalidate_view t;
    List.iter (Table_set.log_add t.ts ~bucket:0 ~level:target) outputs;
    List.iter
      (fun m ->
        let level = if List.memq m sources then level else target in
        Table_set.log_remove t.ts ~bucket:0 ~level m)
      inputs;
    Table_set.log_watermark t.ts ~seq:t.seq;
    (* Removes durable before the input files vanish, or recovery would
       replay a manifest referencing deleted files. *)
    Table_set.sync_manifest t.ts;
    List.iter (Table_set.retire t.ts) inputs
  end

(* LevelDB-style scores; >= 1.0 means the level needs compaction. *)
let compaction_score t level =
  if level = 0 then
    float_of_int (List.length t.levels.(0))
    /. float_of_int t.cfg.l0_compaction_trigger
  else
    float_of_int (level_bytes t level) /. float_of_int (level_capacity t level)

let pick_compaction t =
  let best = ref None in
  for level = 0 to t.cfg.max_levels - 2 do
    let score = compaction_score t level in
    if score >= 1.0 then
      match !best with
      | Some (_, s) when s >= score -> ()
      | _ -> best := Some (level, score)
  done;
  !best

(* Advisory estimate for the compaction pool (may be read without external
   synchronization): input bytes of every level whose score crossed 1.0. *)
let maintenance_pending t =
  let pending = ref 0 in
  for level = 0 to t.cfg.max_levels - 2 do
    if compaction_score t level >= 1.0 then
      pending := !pending + max 1 (level_bytes t level)
  done;
  !pending

let maintenance t ?budget_bytes () =
  let budget = ref (match budget_bytes with Some b -> b | None -> max_int) in
  let rec loop () =
    if !budget > 0 then
      match pick_compaction t with
      | Some (level, _score) ->
        let before = Io_stats.bytes_written (io_stats t) in
        compact_level t level;
        let after = Io_stats.bytes_written (io_stats t) in
        budget := !budget - (after - before);
        loop ()
      | None -> ()
  in
  loop ()

let recover ?env cfg =
  let env = match env with Some e -> e | None -> Env.in_memory () in
  if not (Table_set.exists env ~name:cfg.name) then create ~env cfg
  else begin
    let t = make ~reopen:true env cfg in
    t.seq <-
      Table_set.replay_manifest t.ts (function
        | Manifest.Add_table
            { level; name; size; entry_count; smallest; largest; _ } ->
          let meta = { Table.name; size; entry_count; smallest; largest } in
          t.levels.(level) <- meta :: t.levels.(level)
        | Manifest.Remove_table { level; name; _ } ->
          t.levels.(level) <- Table_set.without ~file:name t.levels.(level)
        | Manifest.Add_bucket _ | Manifest.Remove_bucket _
        | Manifest.Watermark _ ->
          ());
    for level = 1 to cfg.max_levels - 1 do
      t.levels.(level) <- sorted_level t.levels.(level)
    done;
    t.seq <-
      Table_set.recover_wal t.ts ~seq:t.seq ~live:(fun () -> all_tables t)
        (fun (r : Wal.record) ->
          Skiplist.add t.mem
            (Ikey.make ~kind:r.Wal.kind r.Wal.key ~seq:r.Wal.seq)
            r.Wal.value);
    t
  end

let apply t kind key value =
  let seq = Int64.add t.seq 1L in
  t.seq <- seq;
  Skiplist.add t.mem (Ikey.make ~kind key ~seq) value;
  Io_stats.record_write (io_stats t) Io_stats.User_write
    (String.length key + String.length value);
  if Skiplist.byte_size t.mem >= t.cfg.memtable_bytes then begin
    flush_mem t;
    maintenance t ()
  end

let write_batches t batches =
  Wal.append_batches (Table_set.wal t.ts) ~first_seq:(Int64.add t.seq 1L)
    batches;
  List.iter (List.iter (fun (kind, key, value) -> apply t kind key value)) batches

let try_write_batches t batches =
  Table_set.try_write_batches t.ts (write_batches t) batches

let try_write_batch t items = try_write_batches t [ items ]

let write_batch t items = Table_set.ok_or_raise (try_write_batch t items)

let put t ~key ~value = write_batch t [ (Ikey.Value, key, value) ]

let delete t ~key = write_batch t [ (Ikey.Deletion, key, "") ]

(* ------------------------------------------------------------------ *)
(* Reading *)

let get_seq t key ~snapshot =
  match Skiplist.find t.mem key ~snapshot with
  | Some (Ikey.Value, v) -> Some v
  | Some (Ikey.Deletion, _) -> None
  | None ->
    (* One encoded seek target serves every table probe on the way down. *)
    let target = Ikey.encode_seek key ~seq:snapshot in
    let check_meta (m : Table.meta) =
      if not (Table.overlaps m ~lo:key ~hi:key) then None
      else
        Table.Reader.get_encoded (Table_set.reader_of t.ts m)
          ~category:Io_stats.Read_path target
    in
    let rec check_l0 = function
      | [] -> check_levels 1
      | m :: rest -> (
        match check_meta m with
        | Some (Ikey.Value, v, _) -> Some v
        | Some (Ikey.Deletion, _, _) -> None
        | None -> check_l0 rest)
    and check_levels level =
      if level >= t.cfg.max_levels then None
      else
        (* Non-overlapping: at most one candidate file. *)
        let candidate =
          List.find_opt (fun m -> Table.overlaps m ~lo:key ~hi:key) t.levels.(level)
        in
        match candidate with
        | Some m -> (
          match check_meta m with
          | Some (Ikey.Value, v, _) -> Some v
          | Some (Ikey.Deletion, _, _) -> None
          | None -> check_levels (level + 1))
        | None -> check_levels (level + 1)
    in
    check_l0 t.levels.(0)

(* One source — a single key space — for the shared range reader. *)
let scan_seq t ~lo ~hi ?limit ~snapshot () =
  let mem =
    Skiplist.to_sorted_seq ~lo t.mem
    |> Seq.map (fun (ik, v) -> (Ikey.encode ik, v))
  in
  Range_reader.to_list
    (Range_reader.create ~hi ~snapshot ?limit
       (Seq.return
          (Range_reader.source ~reader:(Table_set.reader_of t.ts) ~lo ~hi ~mem
             (store_view t)
             (fun () -> all_tables t))))

(* A corrupt table leaves its level, with the manifest edit. *)
let drop_quarantined t file =
  let found = ref false in
  Array.iteri
    (fun level tables ->
      if not !found then
        match Table_set.take ~file tables with
        | Some (meta, rest) ->
          found := true;
          t.levels.(level) <- rest;
          Table_set.log_remove t.ts ~bucket:0 ~level meta;
          invalidate_view t
        | None -> ())
    t.levels;
  !found

let get t key =
  Table_set.with_quarantine t.ts ~drop:(drop_quarantined t) (fun () ->
      get_seq t key ~snapshot:t.seq)

let get_at t key ~snapshot =
  Table_set.with_quarantine t.ts ~drop:(drop_quarantined t) (fun () ->
      get_seq t key ~snapshot:snapshot.Wip_kv.Store_intf.snap_seq)

let scan t ~lo ~hi ?limit () =
  Table_set.with_quarantine t.ts ~drop:(drop_quarantined t) (fun () ->
      scan_seq t ~lo ~hi ?limit ~snapshot:t.seq ())

let scan_at t ~lo ~hi ?limit ~snapshot () =
  Table_set.with_quarantine t.ts ~drop:(drop_quarantined t) (fun () ->
      scan_seq t ~lo ~hi ?limit
        ~snapshot:snapshot.Wip_kv.Store_intf.snap_seq ())

(* ------------------------------------------------------------------ *)
(* Durability and failure model *)

let flush t = Table_set.guard_durable t.ts (fun () -> flush_mem t)

let maintenance t ?budget_bytes () =
  Table_set.guard_durable t.ts (fun () -> maintenance t ?budget_bytes ())

let checkpoint t = Table_set.checkpoint t.ts ~seq:t.seq

let log_sync t = Table_set.log_sync t.ts

let health t = Table_set.health t.ts

let probe t = Table_set.probe t.ts ~seq:t.seq

let quarantined_tables t = Table_set.quarantined t.ts

let file_sizes t = List.map (fun (m : Table.meta) -> m.Table.size) (all_tables t)

let live_table_files t =
  List.map (fun (m : Table.meta) -> m.Table.name) (all_tables t)

let level_count t =
  let rec deepest l = if l < 0 then 0 else if t.levels.(l) <> [] then l + 1 else deepest (l - 1) in
  deepest (t.cfg.max_levels - 1)

let files_at_level t level = t.levels.(level)

let compaction_count t = t.compactions

(* Figure 2: hypothetical guard positions. Walk the level's files in key
   order; a guard sits at every [every]-th key. Within a file, interpolate
   numerically between its smallest and largest key (keys are fixed-width
   decimal so this is accurate for the plot's purpose). *)
let guard_positions t ~level ~every ~space =
  let files =
    if level = 0 then sorted_level t.levels.(0) else t.levels.(level)
  in
  let positions = ref [] in
  let carried = ref 0 in
  List.iter
    (fun (m : Table.meta) ->
      if m.Table.entry_count > 0 then begin
        let lo = Key_frac.of_key m.Table.smallest ~space in
        let hi = Key_frac.of_key m.Table.largest ~space in
        let count = m.Table.entry_count in
        let first_guard = every - !carried in
        let rec emit ordinal =
          if ordinal <= count then begin
            let frac =
              lo +. ((hi -. lo) *. float_of_int ordinal /. float_of_int count)
            in
            positions := frac :: !positions;
            emit (ordinal + every)
          end
          else carried := count - (ordinal - every)
        in
        if first_guard <= count then emit first_guard
        else carried := !carried + count
      end)
    files;
  List.rev !positions
