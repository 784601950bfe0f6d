module Ikey = Wip_util.Ikey
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Table = Wip_sstable.Table
module Merge_iter = Wip_sstable.Merge_iter
module Sorted_view = Wip_sstable.Sorted_view
module Range_reader = Wip_sstable.Range_reader
module Skiplist = Wip_memtable.Skiplist
module Block_cache = Wip_storage.Block_cache
module Wal = Wip_wal.Wal
module Manifest = Wip_manifest.Manifest

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
  env : Env.t;
  wal : Wal.t;
  manifest : Manifest.t;
  mutable mem : Skiplist.t; (* guarded_by: caller *)
  mutable levels : Table.meta list array; (* guarded_by: caller *)
  (* L0: newest first (flush order); L1+: sorted by smallest key, disjoint. *)
  readers : (string, Table.Reader.t) Hashtbl.t;
  mutable next_file : int; (* guarded_by: caller *)
  mutable seq : int64; (* guarded_by: caller *)
  mutable compact_pointer : string array; (* round-robin cursor per level; guarded_by: caller *)
  mutable compactions : int; (* guarded_by: caller *)
  mutable next_snap_id : int; (* guarded_by: caller *)
  live_snaps : (int, int64) Hashtbl.t; (* snapshot id -> pinned seq *)
  mutable view : (Sorted_view.t * Table.meta array) option; (* guarded_by: caller *)
      (* Store-wide sorted view over the whole table set; None when absent
         or invalidated. Scans build it lazily; compaction drops it. *)
}

let manifest_name cfg = cfg.name ^ "-manifest"

let create ?env cfg =
  let env = match env with Some e -> e | None -> Env.in_memory () in
  {
    cfg;
    env;
    wal = Wal.create env ~prefix:(cfg.name ^ "-wal") ();
    manifest = Manifest.create env ~name:(manifest_name cfg);
    mem = Skiplist.create ();
    levels = Array.make cfg.max_levels [];
    readers = Hashtbl.create 64;
    next_file = 1;
    seq = 0L;
    compact_pointer = Array.make cfg.max_levels "";
    compactions = 0;
    next_snap_id = 0;
    live_snaps = Hashtbl.create 8;
    view = None;
  }

let config t = t.cfg

let name t = t.cfg.name

let env t = t.env

let io_stats t = Env.stats t.env

let fresh_table_name t =
  let n = t.next_file in
  t.next_file <- n + 1;
  Printf.sprintf "%s-%06d.sst" t.cfg.name n

let reader_of t (meta : Table.meta) =
  match Hashtbl.find_opt t.readers meta.Table.name with
  | Some r -> r
  | None ->
    let r = Table.Reader.open_ t.env ~name:meta.Table.name in
    Hashtbl.replace t.readers meta.Table.name r;
    r

let drop_table t (meta : Table.meta) =
  (match Hashtbl.find_opt t.readers meta.Table.name with
  | Some r ->
    Table.Reader.close r;
    Hashtbl.remove t.readers meta.Table.name
  | None -> ());
  Env.delete t.env meta.Table.name

(* Pinned snapshots. This baseline's reads are eager (no lazy streams
   escape a call), so pinning only needs the version-GC floor: while a
   snapshot is live, compaction keeps every version a pinned seq can see
   ([oldest_snapshot_seq] feeds [Merge_iter.compact ~snapshot_floor]). *)

let oldest_snapshot_seq t =
  Hashtbl.fold
    (fun _ s acc -> if Int64.compare s acc < 0 then s else acc)
    t.live_snaps Int64.max_int

let live_snapshot_count t = Hashtbl.length t.live_snaps

let snapshot t =
  let id = t.next_snap_id in
  t.next_snap_id <- id + 1;
  Hashtbl.replace t.live_snaps id t.seq;
  {
    Wip_kv.Store_intf.snap_seq = t.seq;
    snap_id = id;
    snap_release = (fun () -> Hashtbl.remove t.live_snaps id);
  }

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

(* A whole-table pass (view build, compaction): bypasses the block cache. *)
let table_seq t ~category meta =
  Table.Reader.stream (reader_of t meta) ~category ~admit:Block_cache.Bypass
    ()

let all_tables t = Array.to_list t.levels |> List.concat

let store_view t =
  if Option.is_none t.view then
    t.view <-
      Sorted_view.build ~enabled:t.cfg.sorted_view
        ~min_runs:t.cfg.sorted_view_min_runs ~stats:(io_stats t)
        ~stream:(table_seq t ~category:Io_stats.Read_path)
        (all_tables t);
  t.view

(* Flush site: extend an existing view with the new L0 run instead of
   dropping it. *)
let view_note_flush t meta =
  t.view <-
    Sorted_view.extend ~enabled:t.cfg.sorted_view ~stats:(io_stats t)
      ~stream:(table_seq t ~category:Io_stats.Read_path)
      t.view meta

(* ------------------------------------------------------------------ *)
(* Writing *)

let flush_mem t =
  if Skiplist.count t.mem > 0 then begin
    let name = fresh_table_name t in
    let builder =
      Table.Builder.create t.env ~name ~category:Io_stats.Flush
        ~bits_per_key:t.cfg.bits_per_key ~ph_index:t.cfg.ph_index
        ~expected_keys:(Skiplist.count t.mem) ()
    in
    Seq.iter (fun (ik, v) -> Table.Builder.add builder ik v)
      (Skiplist.to_sorted_seq t.mem);
    let meta = Table.Builder.finish builder in
    t.levels.(0) <- meta :: t.levels.(0);
    view_note_flush t meta;
    Manifest.append t.manifest
      (Manifest.Add_table
         {
           bucket = 0;
           level = 0;
           name = meta.Table.name;
           size = meta.Table.size;
           entry_count = meta.Table.entry_count;
           smallest = meta.Table.smallest;
           largest = meta.Table.largest;
         });
    Manifest.append t.manifest
      (Manifest.Watermark { seq = t.seq; next_file = t.next_file });
    (* The flushed table's manifest edit must be durable before the WAL
       records it replaces are reclaimed. *)
    Manifest.sync t.manifest;
    t.mem <- Skiplist.create ();
    ignore (Wal.reclaim t.wal ~persisted_below:(Int64.add t.seq 1L))
  end

(* Build one or more target-size output tables from a compacted (encoded)
   entry sequence. [expected_keys] sizes each output's bloom filter; callers
   derive it from the inputs' entry counts and byte sizes instead of a
   guessed constant. *)
let write_outputs t ~category ~expected_keys entries =
  let outputs = ref [] in
  let builder = ref None in
  let start_builder () =
    let name = fresh_table_name t in
    let b =
      Table.Builder.create t.env ~name ~category
        ~bits_per_key:t.cfg.bits_per_key ~ph_index:t.cfg.ph_index
        ~expected_keys ()
    in
    builder := Some b;
    b
  in
  let finish_builder () =
    match !builder with
    | Some b ->
      if Table.Builder.entry_count b > 0 then
        outputs := Table.Builder.finish b :: !outputs
      else Table.Builder.abandon b;
      builder := None
    | None -> ()
  in
  let last_key = ref None in
  Seq.iter
    (fun (key, value) ->
      (* Split lazily, and never between two versions of one user key: with
         a version-GC floor several versions of a key can flow through one
         compaction, and the L1+ point-read probes exactly one table per
         level — all of a key's versions must land in it. *)
      (match (!builder, !last_key) with
      | Some b, Some prev
        when Table.Builder.estimated_size b >= t.cfg.sstable_bytes
             && not (Ikey.encoded_same_user prev key) ->
        finish_builder ()
      | _ -> ());
      last_key := Some key;
      let b = match !builder with Some b -> b | None -> start_builder () in
      Table.Builder.add_encoded b ~key ~value)
    entries;
  finish_builder ();
  List.rev !outputs

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
    let seqs = List.map (fun m -> table_seq t ~category:(read_cat m) m) inputs in
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
    List.iter
      (fun (m : Table.meta) ->
        Manifest.append t.manifest
          (Manifest.Add_table
             {
               bucket = 0;
               level = target;
               name = m.Table.name;
               size = m.Table.size;
               entry_count = m.Table.entry_count;
               smallest = m.Table.smallest;
               largest = m.Table.largest;
             }))
      outputs;
    List.iter
      (fun (m : Table.meta) ->
        let from_level = if List.memq m sources then level else target in
        Manifest.append t.manifest
          (Manifest.Remove_table { bucket = 0; level = from_level; name = m.Table.name }))
      inputs;
    Manifest.append t.manifest
      (Manifest.Watermark { seq = t.seq; next_file = t.next_file });
    (* Removes durable before the input files vanish, or recovery would
       replay a manifest referencing deleted files. *)
    Manifest.sync t.manifest;
    List.iter (drop_table t) inputs
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
  if not (Manifest.exists env ~name:(manifest_name cfg)) then create ~env cfg
  else begin
    let t =
      {
        cfg;
        env;
        (* Replaced below once the real WAL is recovered. *)
        wal = Wal.create env ~prefix:(cfg.name ^ "-tmpwal") ();
        manifest = Manifest.reopen env ~name:(manifest_name cfg);
        mem = Skiplist.create ();
        levels = Array.make cfg.max_levels [];
        readers = Hashtbl.create 64;
        next_file = 1;
        seq = 0L;
        compact_pointer = Array.make cfg.max_levels "";
        compactions = 0;
        next_snap_id = 0;
        live_snaps = Hashtbl.create 8;
        view = None;
      }
    in
    Manifest.replay env ~name:(manifest_name cfg) (fun edit ->
        match edit with
        | Manifest.Add_table { level; name; size; entry_count; smallest; largest; _ } ->
          let meta = { Table.name; size; entry_count; smallest; largest } in
          t.levels.(level) <- meta :: t.levels.(level)
        | Manifest.Remove_table { level; name; _ } ->
          t.levels.(level) <-
            List.filter
              (fun (m : Table.meta) -> not (String.equal m.Table.name name))
              t.levels.(level)
        | Manifest.Watermark { seq; next_file } ->
          t.seq <- seq;
          t.next_file <- max t.next_file next_file
        | Manifest.Add_bucket _ | Manifest.Remove_bucket _ -> ());
    for level = 1 to cfg.max_levels - 1 do
      t.levels.(level) <- sorted_level t.levels.(level)
    done;
    let wal =
      Wal.recover env ~prefix:(cfg.name ^ "-wal")
        ~replay:(fun (r : Wal.record) ->
          if Int64.compare r.Wal.seq t.seq > 0 then t.seq <- r.Wal.seq;
          Skiplist.add t.mem
            (Ikey.make ~kind:r.Wal.kind r.Wal.key ~seq:r.Wal.seq)
            r.Wal.value)
        ()
    in
    Env.delete env (cfg.name ^ "-tmpwal-000000.log");
    let t = { t with wal } in
    if Int64.compare (Wal.max_seq_logged wal) t.seq > 0 then
      t.seq <- Wal.max_seq_logged wal;
    (* Garbage-collect table files no manifest edit survived for — debris
       of a flush or compaction interrupted before its edits were synced. *)
    let live = Hashtbl.create 64 in
    Array.iter
      (List.iter (fun (m : Table.meta) -> Hashtbl.replace live m.Table.name ()))
      t.levels;
    let prefix = cfg.name ^ "-" in
    let plen = String.length prefix in
    List.iter
      (fun f ->
        if
          String.length f > plen
          && String.equal (String.sub f 0 plen) prefix
          && Filename.check_suffix f ".sst"
          && not (Hashtbl.mem live f)
        then Env.delete env f)
      (Env.list_files env);
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

let write_batch t items =
  if items <> [] then begin
    Wal.append_batch t.wal ~first_seq:(Int64.add t.seq 1L) items;
    List.iter (fun (kind, key, value) -> apply t kind key value) items
  end

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
        Table.Reader.get_encoded (reader_of t m) ~category:Io_stats.Read_path
          target
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

let get t key = get_seq t key ~snapshot:t.seq

let get_at t key ~snapshot =
  get_seq t key ~snapshot:snapshot.Wip_kv.Store_intf.snap_seq

(* One source — a single key space — for the shared range reader. *)
let scan_seq t ~lo ~hi ?limit ~snapshot () =
  let mem =
    Skiplist.to_sorted_seq ~lo t.mem
    |> Seq.map (fun (ik, v) -> (Ikey.encode ik, v))
  in
  Range_reader.to_list
    (Range_reader.create ~hi ~snapshot ?limit
       (Seq.return
          (Range_reader.source ~reader:(reader_of t) ~lo ~hi ~mem (store_view t)
             (fun () -> all_tables t))))

let scan t ~lo ~hi ?limit () = scan_seq t ~lo ~hi ?limit ~snapshot:t.seq ()

let scan_at t ~lo ~hi ?limit ~snapshot () =
  scan_seq t ~lo ~hi ?limit ~snapshot:snapshot.Wip_kv.Store_intf.snap_seq ()

let flush t = flush_mem t

let file_sizes t =
  Array.to_list t.levels
  |> List.concat_map (List.map (fun (m : Table.meta) -> m.Table.size))

let live_table_files t =
  Array.to_list t.levels
  |> List.concat_map (List.map (fun (m : Table.meta) -> m.Table.name))

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

(* Resilience interface: this baseline has no admission control or degraded
   state — it exists for I/O-pattern comparison, not fault drills. Writes
   are always admitted and faults propagate raw. *)
let try_write_batch t items =
  write_batch t items;
  Ok ()

let write_batches t batches =
  if List.exists (fun items -> items <> []) batches then begin
    Wal.append_batches t.wal ~first_seq:(Int64.add t.seq 1L) batches;
    List.iter
      (fun items ->
        List.iter (fun (kind, key, value) -> apply t kind key value) items)
      batches
  end

let try_write_batches t batches =
  write_batches t batches;
  Ok ()

let log_sync t = Wal.sync t.wal

let health _ = Wip_kv.Store_intf.Healthy

let probe _ = Wip_kv.Store_intf.Healthy
