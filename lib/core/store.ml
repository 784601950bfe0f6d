module Ikey = Wip_util.Ikey
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Table = Wip_sstable.Table
module Merge_iter = Wip_sstable.Merge_iter
module Sorted_view = Wip_sstable.Sorted_view
module Range_reader = Wip_sstable.Range_reader
module Memtable = Wip_memtable.Memtable
module Block_cache = Wip_storage.Block_cache
module Wal = Wip_wal.Wal
module Manifest = Wip_manifest.Manifest
module Intf = Wip_kv.Store_intf

(* Engine state is externally serialized (guard: caller): the concurrent
   front holds the owning shard lock across every Store_intf call, and
   single-threaded embedders need no lock at all. The annotations below
   document that contract for the lock-discipline checker. *)
type bucket = {
  id : int;
  lo : string;
  mutable memtable : Memtable.t; (* guarded_by: caller *)
  levels : Table.meta list array; (* newest first within each level *)
  read_counts : int array; (* per level, since last compaction of it *)
  mutable range_queries : int; (* since last flush; drives adaptivity; guarded_by: caller *)
  mutable next_structure : Memtable.structure; (* guarded_by: caller *)
  (* REMIX-style sorted view over this bucket's current run set, with the
     exact run array it was built against (the view names runs by index).
     Built lazily by the first scan that finds enough runs, extended
     incrementally at flush, dropped at every other run-set mutation
     (compaction, split, merge, collapse, quarantine). A walk in flight
     under a pinned snapshot keeps reading its captured runs through the
     zombie registry even after the field here is invalidated. *)
  mutable view : (Sorted_view.t * Table.meta array) option; (* guarded_by: caller *)
}

(* A table retired by compaction/split/merge while snapshots were live: the
   file, its reader and its cached blocks stay usable until every snapshot
   that could still be streaming it releases. [z_pinners] holds the ids of
   the snapshots that were live at retirement time. *)
type zombie = {
  z_meta : Table.meta;
  mutable z_pinners : int list; (* guarded_by: caller *)
}

type t = {
  cfg : Config.t;
  env : Env.t;
  wal : Wal.t;
  manifest : Manifest.t;
  mutable buckets : bucket array; (* sorted by lo; guarded_by: caller *)
  readers : (string, Table.Reader.t) Hashtbl.t;
  mutable next_file : int; (* guarded_by: caller *)
  mutable next_bucket_id : int; (* guarded_by: caller *)
  mutable seq : int64; (* guarded_by: caller *)
  mutable splits : int; (* guarded_by: caller *)
  mutable compactions : int; (* guarded_by: caller *)
  mutable io_credit : int; (* guarded_by: caller *)
      (* accumulated background-compaction allowance (bytes); see
         Config.compaction_budget_per_batch *)
  mutable health : Intf.health; (* guarded_by: caller *)
  mutable quarantined : (string * string) list; (* guarded_by: caller *)
      (* (file, detail) of tables renamed aside after corruption *)
  cache : Wip_storage.Block_cache.t option;
  mutable next_snap_id : int; (* guarded_by: caller *)
  live_snaps : (int, int64) Hashtbl.t; (* snapshot id -> pinned seq *)
  zombies : (string, zombie) Hashtbl.t; (* retired-but-pinned, by file *)
}

let config t = t.cfg

let name t = t.cfg.Config.name

let env t = t.env

let io_stats t = Env.stats t.env

let sequence t = t.seq

let split_count t = t.splits

let compaction_count t = t.compactions

let bucket_count t = Array.length t.buckets

let wal_bytes t = Wal.total_bytes t.wal

(* ------------------------------------------------------------------ *)
(* Construction *)

let fresh_memtable t structure =
  Memtable.create ~structure ~capacity_items:t.cfg.Config.memtable_items
    ~capacity_bytes:t.cfg.Config.memtable_bytes

let make_bucket t ~id ~lo ~structure =
  {
    id;
    lo;
    memtable = fresh_memtable t structure;
    levels = Array.make t.cfg.Config.l_max [];
    read_counts = Array.make t.cfg.Config.l_max 0;
    range_queries = 0;
    next_structure = structure;
    view = None;
  }

let manifest_name cfg = cfg.Config.name ^ "-manifest"

(* Initial bucket boundaries: evenly spaced over the numeric key space
   (a single bucket when initial_buckets = 1, the paper's cold start).
   Also used by recovery when the manifest replays to zero buckets — a
   crash before the very first manifest sync leaves a store that must
   bootstrap itself again. *)
let bootstrap_buckets t =
  let cfg = t.cfg in
  let los =
    Config.shard_boundaries cfg ~shards:cfg.Config.initial_buckets
    |> Array.of_list
  in
  let buckets =
    Array.map
      (fun lo ->
        let id = t.next_bucket_id in
        t.next_bucket_id <- id + 1;
        Manifest.append t.manifest (Manifest.Add_bucket { id; lo });
        make_bucket t ~id ~lo ~structure:cfg.Config.memtable_structure)
      los
  in
  t.buckets <- buckets

let create ?env:env_opt cfg =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Wipdb.create: " ^ msg));
  let env = match env_opt with Some e -> e | None -> Env.in_memory () in
  let manifest = Manifest.create env ~name:(manifest_name cfg) in
  let t =
    {
      cfg;
      env;
      wal = Wal.create env ~prefix:(cfg.Config.name ^ "-wal")
              ~segment_bytes:cfg.Config.wal_segment_bytes ();
      manifest;
      buckets = [||];
      readers = Hashtbl.create 256;
      next_file = 1;
      next_bucket_id = 0;
      seq = 0L;
      splits = 0;
      compactions = 0;
      io_credit = 0;
      health = Intf.Healthy;
      quarantined = [];
      cache =
        (if cfg.Config.block_cache_bytes > 0 then
           Some
             (Wip_storage.Block_cache.create
                ~capacity_bytes:cfg.Config.block_cache_bytes)
         else None);
      next_snap_id = 0;
      live_snaps = Hashtbl.create 8;
      zombies = Hashtbl.create 8;
    }
  in
  bootstrap_buckets t;
  Manifest.sync manifest;
  t

(* ------------------------------------------------------------------ *)
(* Bucket directory *)

(* Index of the rightmost bucket in [arr] whose lower bound <= key. *)
let bucket_index arr key =
  let rec bs lo hi =
    (* invariant: arr.(lo).lo <= key; arr.(hi).lo > key or hi = n *)
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare arr.(mid).lo key <= 0 then bs mid hi else bs lo mid
  in
  bs 0 (Array.length arr)

let bucket_for t key = t.buckets.(bucket_index t.buckets key)

(* ------------------------------------------------------------------ *)
(* Table plumbing *)

let fresh_table_name t =
  let n = t.next_file in
  t.next_file <- n + 1;
  Printf.sprintf "%s-%06d.lvt" t.cfg.Config.name n

let reader_of t (meta : Table.meta) =
  match Hashtbl.find_opt t.readers meta.Table.name with
  | Some r -> r
  | None ->
    let r = Table.Reader.open_ ?cache:t.cache t.env ~name:meta.Table.name in
    Hashtbl.replace t.readers meta.Table.name r;
    r

let reclaim_table t name =
  (match Hashtbl.find_opt t.readers name with
  | Some r ->
    Table.Reader.close r;
    Hashtbl.remove t.readers name
  | None -> ());
  (match t.cache with
  | Some cache -> Wip_storage.Block_cache.evict_file cache name
  | None -> ());
  Env.delete t.env name

(* Retire a table the bucket directory no longer references. With no live
   snapshot the file is reclaimed immediately; otherwise it becomes a
   zombie pinned by every currently-live snapshot — a pinned snapshot may
   still be lazily streaming its blocks (the store.ml drain-before-write
   hazard this fixes), so the reader stays open and the file stays on the
   Env until the last pinner releases. *)
let drop_table t (meta : Table.meta) =
  if Hashtbl.length t.live_snaps = 0 then reclaim_table t meta.Table.name
  else begin
    let pinners = Hashtbl.fold (fun id _ acc -> id :: acc) t.live_snaps [] in
    Hashtbl.replace t.zombies meta.Table.name
      { z_meta = meta; z_pinners = pinners }
  end

(* ------------------------------------------------------------------ *)
(* Pinned snapshots (§III-D sequence-number rule, end to end).

   A snapshot pins a seq. Reads at that seq stay exact for the handle's
   lifetime because (a) version GC floors at the oldest live snapshot
   ([oldest_snapshot_seq] feeds every Merge_iter.compact site as
   [snapshot_floor], so the newest version at-or-below the floor and every
   version above it survive), and (b) tables retired while a snapshot is
   live stay readable as zombies until their last pinner releases. *)

let oldest_snapshot_seq t =
  Hashtbl.fold
    (fun _ s acc -> if Int64.compare s acc < 0 then s else acc)
    t.live_snaps Int64.max_int

let live_snapshot_count t = Hashtbl.length t.live_snaps

let zombie_table_files t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.zombies []

let zombie_bytes t =
  Hashtbl.fold (fun _ z acc -> acc + z.z_meta.Table.size) t.zombies 0

let release_snapshot_id t id =
  if Hashtbl.mem t.live_snaps id then begin
    Hashtbl.remove t.live_snaps id;
    let dead =
      Hashtbl.fold
        (fun name z acc ->
          z.z_pinners <- List.filter (fun p -> p <> id) z.z_pinners;
          if z.z_pinners = [] then name :: acc else acc)
        t.zombies []
    in
    List.iter
      (fun name ->
        Hashtbl.remove t.zombies name;
        reclaim_table t name)
      dead
  end

let snapshot t =
  let id = t.next_snap_id in
  t.next_snap_id <- id + 1;
  Hashtbl.replace t.live_snaps id t.seq;
  {
    Intf.snap_seq = t.seq;
    snap_id = id;
    snap_release = (fun () -> release_snapshot_id t id);
  }

let log_add_table t bucket level (meta : Table.meta) =
  Manifest.append t.manifest
    (Manifest.Add_table
       {
         bucket = bucket.id;
         level;
         name = meta.Table.name;
         size = meta.Table.size;
         entry_count = meta.Table.entry_count;
         smallest = meta.Table.smallest;
         largest = meta.Table.largest;
       })

let log_remove_table t bucket level (meta : Table.meta) =
  Manifest.append t.manifest
    (Manifest.Remove_table { bucket = bucket.id; level; name = meta.Table.name })

(* Encoded-entry stream over one whole table, for compaction, split and
   view build: a sequential pass bypasses the block cache, so it can
   neither evict the read working set nor fill the cache with blocks no
   read asked for. *)
let table_seq t ~category meta =
  Table.Reader.stream (reader_of t meta) ~category ~admit:Block_cache.Bypass
    ()

(* ------------------------------------------------------------------ *)
(* Sorted views (REMIX-style; see Sorted_view and DESIGN.md), one per
   bucket, built at the first scan that finds enough runs and extended at
   flush. Building or extending a view replays whole runs and bypasses the
   block cache; a walk reads only the blocks its scan returns, under the
   scan admission class. *)

let invalidate_view bucket = bucket.view <- None

let bucket_tables bucket = Array.to_list bucket.levels |> List.concat

let bucket_view t bucket =
  if Option.is_none bucket.view then
    bucket.view <-
      Sorted_view.build ~enabled:t.cfg.Config.sorted_view
        ~min_runs:t.cfg.Config.sorted_view_min_runs ~stats:(io_stats t)
        ~stream:(table_seq t ~category:Io_stats.Read_path)
        (bucket_tables bucket);
  bucket.view

let view_note_flush t bucket meta =
  bucket.view <-
    Sorted_view.extend ~enabled:t.cfg.Config.sorted_view ~stats:(io_stats t)
      ~stream:(table_seq t ~category:Io_stats.Read_path)
      bucket.view meta

(* ------------------------------------------------------------------ *)
(* Flush (minor compaction): MemTable -> one level-0 LevelTable *)

let wal_reclaim t =
  (* Deleting a WAL segment discards the only other copy of the records the
     manifest's latest edits account for — those edits must hit the device
     first, or a crash after the delete loses acknowledged data. *)
  Manifest.sync t.manifest;
  (* Figure 5: the reclamation bound is the smallest unpersisted sequence
     number across all MemTables, or just past the newest write when every
     MemTable is empty. *)
  let bound =
    Array.fold_left
      (fun acc b ->
        match Memtable.min_seq b.memtable with
        | Some s -> Int64.min acc s
        | None -> acc)
      (Int64.add t.seq 1L) t.buckets
  in
  ignore (Wal.reclaim t.wal ~persisted_below:bound)

let flush_bucket t bucket =
  if not (Memtable.is_empty bucket.memtable) then begin
    (* A batch can span buckets, so this flush may persist part of a batch
       whose WAL record is still buffered; sync the log first so a crash
       after the flush replays the whole batch instead of applying half. *)
    Wal.sync t.wal;
    let builder =
      Table.Builder.create t.env ~name:(fresh_table_name t)
        ~category:Io_stats.Flush ~bits_per_key:t.cfg.Config.bits_per_key
        ~ph_index:t.cfg.Config.ph_index
        ~expected_keys:(Memtable.count bucket.memtable) ()
    in
    Seq.iter
      (fun (key, value) -> Table.Builder.add_encoded builder ~key ~value)
      (Memtable.entries bucket.memtable);
    let meta = Table.Builder.finish builder in
    bucket.levels.(0) <- meta :: bucket.levels.(0);
    view_note_flush t bucket meta;
    log_add_table t bucket 0 meta;
    (* Adaptive MemTable structure (§III-D): heavy range-query traffic since
       the last flush switches the next table to the sorted structure; quiet
       buckets switch back to the hash structure. *)
    if t.cfg.Config.adaptive_memtable then
      bucket.next_structure <-
        (if bucket.range_queries >= t.cfg.Config.range_query_switch_threshold
         then Memtable.Sorted
         else t.cfg.Config.memtable_structure);
    bucket.range_queries <- 0;
    bucket.memtable <- fresh_memtable t bucket.next_structure;
    wal_reclaim t
  end

(* ------------------------------------------------------------------ *)
(* Compaction: merge ALL sublevels of level i into ONE sublevel of i+1.
   Nothing in level i+1 is rewritten — write amplification 1 per level. *)

let compact_level t bucket level =
  let inputs = bucket.levels.(level) in
  if inputs <> [] && level + 1 < t.cfg.Config.l_max then begin
    t.compactions <- t.compactions + 1;
    let seqs =
      List.map
        (fun m ->
          table_seq t ~category:(Io_stats.Compaction_read level) m)
        inputs
    in
    let entries =
      Merge_iter.compact ~dedup_user_keys:true ~drop_tombstones:false
        ~snapshot_floor:(oldest_snapshot_seq t) seqs
    in
    let expected =
      List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.entry_count) 0 inputs
    in
    let builder =
      Table.Builder.create t.env ~name:(fresh_table_name t)
        ~category:(Io_stats.Compaction (level + 1))
        ~bits_per_key:t.cfg.Config.bits_per_key
        ~ph_index:t.cfg.Config.ph_index ~expected_keys:(max 64 expected) ()
    in
    Seq.iter
      (fun (key, value) -> Table.Builder.add_encoded builder ~key ~value)
      entries;
    if Table.Builder.entry_count builder > 0 then begin
      let meta = Table.Builder.finish builder in
      bucket.levels.(level + 1) <- meta :: bucket.levels.(level + 1);
      log_add_table t bucket (level + 1) meta
    end
    else Table.Builder.abandon builder;
    List.iter (fun m -> log_remove_table t bucket level m) inputs;
    bucket.levels.(level) <- [];
    bucket.read_counts.(level) <- 0;
    invalidate_view bucket;
    (* The removes must be durable before the inputs vanish, or recovery
       would replay a manifest referencing deleted files. *)
    Manifest.sync t.manifest;
    List.iter (drop_table t) inputs
  end

(* ------------------------------------------------------------------ *)
(* Bucket split (§III-E) *)

(* Sample-sort splitter selection: every sublevel contributes N-1 evenly
   spaced keys (sampled from its in-memory index, which holds one key per
   data block); the sorted union is then itself evenly split N ways. *)
let choose_splitters t bucket =
  let n = t.cfg.Config.split_fanout in
  let per_table (meta : Table.meta) =
    if meta.Table.entry_count = 0 then []
    else begin
      let reader = reader_of t meta in
      let sample = ref [] in
      (* Evenly spaced block boundaries approximate key ordinals. *)
      let keys =
        Table.Reader.stream reader ~category:Io_stats.Split
          ~admit:Block_cache.Bypass ()
        |> Seq.map fst
      in
      (* Taking every (count/n)-th key exactly would re-read the table; the
         index-based approximation below uses the table's smallest/largest
         and a handful of sampled keys. For fidelity we sample from the real
         iterator but cap the work: stride through entries. Only the few
         sampled keys get unescaped. *)
      let stride = max 1 (meta.Table.entry_count / n) in
      let i = ref 0 in
      Seq.iter
        (fun k ->
          if !i mod stride = stride - 1 && List.length !sample < n - 1 then
            sample := Ikey.user_key_of_encoded k :: !sample;
          incr i)
        keys;
      !sample
    end
  in
  let all =
    Array.to_list bucket.levels
    |> List.concat_map (fun tables -> List.concat_map per_table tables)
    |> List.sort_uniq String.compare
  in
  let m = List.length all in
  if m = 0 then []
  else begin
    let arr = Array.of_list all in
    let splitters = ref [] in
    for i = 1 to n - 1 do
      let idx = min (m - 1) (i * m / n) in
      splitters := arr.(idx) :: !splitters
    done;
    List.sort_uniq String.compare !splitters
    |> List.filter (fun s -> String.compare s bucket.lo > 0)
  end

let split_bucket t bucket =
  let splitters = choose_splitters t bucket in
  if splitters <> [] then begin
    t.splits <- t.splits + 1;
    let boundaries = bucket.lo :: splitters in
    (* Full compaction of the whole bucket into one sorted stream; tombstones
       die here because the stream is the entire history of the range. *)
    let seqs =
      Array.to_list bucket.levels
      |> List.concat_map
           (List.map (fun m ->
                table_seq t ~category:Io_stats.Split m))
    in
    let entries =
      Merge_iter.compact ~dedup_user_keys:true ~drop_tombstones:true
        ~snapshot_floor:(oldest_snapshot_seq t) seqs
    in
    (* Cut the stream at each splitter: one output table per new bucket.
       Splitters are pre-encoded once so the per-entry comparison runs on
       raw bytes. *)
    let remaining =
      ref (List.map (fun s -> Ikey.encode_user s) (List.tl boundaries))
    in
    let outputs = ref [] in
    let builder = ref None in
    let total_entries =
      Array.fold_left
        (fun acc tables ->
          List.fold_left
            (fun acc (m : Table.meta) -> acc + m.Table.entry_count)
            acc tables)
        0 bucket.levels
    in
    let finish () =
      match !builder with
      | Some b ->
        if Table.Builder.entry_count b > 0 then
          outputs := Table.Builder.finish b :: !outputs
        else Table.Builder.abandon b;
        builder := None
      | None -> ()
    in
    Seq.iter
      (fun (key, value) ->
        (* Advance past any splitters <= this key. *)
        let advanced = ref false in
        while
          match !remaining with
          | s :: _ when Ikey.compare_encoded_user s key <= 0 -> true
          | _ -> false
        do
          remaining := List.tl !remaining;
          advanced := true
        done;
        if !advanced then finish ();
        let b =
          match !builder with
          | Some b -> b
          | None ->
            let b' =
              Table.Builder.create t.env ~name:(fresh_table_name t)
                ~category:Io_stats.Split
                ~bits_per_key:t.cfg.Config.bits_per_key
                ~ph_index:t.cfg.Config.ph_index
                ~expected_keys:(max 64 (total_entries / List.length boundaries))
                ()
            in
            builder := Some b';
            b'
        in
        Table.Builder.add_encoded b ~key ~value)
      entries;
    finish ();
    let outputs = List.rev !outputs in
    (* Build the new buckets; each takes the output table whose range falls
       in its boundaries as its last level, and inherits the old MemTable's
       items that belong to it. *)
    let new_buckets =
      List.map
        (fun lo ->
          let id = t.next_bucket_id in
          t.next_bucket_id <- id + 1;
          Manifest.append t.manifest (Manifest.Add_bucket { id; lo });
          make_bucket t ~id ~lo ~structure:bucket.next_structure)
        boundaries
    in
    let arr = Array.of_list new_buckets in
    let last = Array.length arr - 1 in
    let new_bucket_for key =
      let rec find i =
        if i = last then arr.(i)
        else if String.compare arr.(i + 1).lo key <= 0 then find (i + 1)
        else arr.(i)
      in
      find 0
    in
    List.iter
      (fun (meta : Table.meta) ->
        if meta.Table.entry_count > 0 then begin
          let b = new_bucket_for meta.Table.smallest in
          let lvl = t.cfg.Config.l_max - 1 in
          b.levels.(lvl) <- meta :: b.levels.(lvl);
          log_add_table t b lvl meta
        end)
      outputs;
    Seq.iter
      (fun (k, v) ->
        let ik = Ikey.decode k in
        let b = new_bucket_for ik.Ikey.user_key in
        (* Capacity cannot be exceeded: the old table held all of these. *)
        ignore (Memtable.try_add b.memtable ik v))
      (Memtable.entries bucket.memtable);
    (* Retire the old bucket. Log every edit of the split first, make them
       durable, and only then delete the retired files — recovery either
       sees the whole split or none of it, never a manifest pointing at
       missing tables. *)
    Array.iteri
      (fun level tables ->
        List.iter (fun m -> log_remove_table t bucket level m) tables)
      bucket.levels;
    Manifest.append t.manifest (Manifest.Remove_bucket { id = bucket.id });
    let others =
      Array.to_list t.buckets |> List.filter (fun b -> b.id <> bucket.id)
    in
    let all =
      List.sort (fun a b -> String.compare a.lo b.lo) (others @ new_buckets)
    in
    t.buckets <- Array.of_list all;
    Manifest.append t.manifest
      (Manifest.Watermark { seq = t.seq; next_file = t.next_file });
    Manifest.sync t.manifest;
    Array.iter (fun tables -> List.iter (drop_table t) tables) bucket.levels
  end

(* ------------------------------------------------------------------ *)
(* Bucket merge: adjacent tiny buckets collapse into one (§III-E). *)

let bucket_bytes bucket =
  Array.fold_left
    (fun acc tables ->
      List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.size) acc tables)
    0 bucket.levels

let merge_buckets t left right =
  (* Full-compact both buckets into one table placed at the merged bucket's
     last level; MemTable items are re-added. *)
  let seqs =
    List.concat_map
      (fun b ->
        Array.to_list b.levels
        |> List.concat_map
             (List.map (fun m ->
                  table_seq t ~category:Io_stats.Split m)))
      [ left; right ]
  in
  let entries =
    Merge_iter.compact ~dedup_user_keys:true ~drop_tombstones:true
      ~snapshot_floor:(oldest_snapshot_seq t) seqs
  in
  let expected =
    List.fold_left
      (fun acc b ->
        Array.fold_left
          (fun acc tables ->
            List.fold_left
              (fun acc (m : Table.meta) -> acc + m.Table.entry_count)
              acc tables)
          acc b.levels)
      0
      [ left; right ]
  in
  let id = t.next_bucket_id in
  t.next_bucket_id <- id + 1;
  Manifest.append t.manifest (Manifest.Add_bucket { id; lo = left.lo });
  let merged = make_bucket t ~id ~lo:left.lo ~structure:left.next_structure in
  let builder =
    Table.Builder.create t.env ~name:(fresh_table_name t)
      ~category:Io_stats.Split ~bits_per_key:t.cfg.Config.bits_per_key
      ~ph_index:t.cfg.Config.ph_index ~expected_keys:(max 64 expected) ()
  in
  Seq.iter
    (fun (key, value) -> Table.Builder.add_encoded builder ~key ~value)
    entries;
  if Table.Builder.entry_count builder > 0 then begin
    let meta = Table.Builder.finish builder in
    let lvl = t.cfg.Config.l_max - 1 in
    merged.levels.(lvl) <- [ meta ];
    log_add_table t merged lvl meta
  end
  else Table.Builder.abandon builder;
  List.iter
    (fun b ->
      Seq.iter
        (fun (k, v) -> ignore (Memtable.try_add merged.memtable (Ikey.decode k) v))
        (Memtable.entries b.memtable);
      Array.iteri
        (fun level tables ->
          List.iter (fun m -> log_remove_table t b level m) tables)
        b.levels;
      Manifest.append t.manifest (Manifest.Remove_bucket { id = b.id }))
    [ left; right ];
  (* Edits durable before the retired files are deleted. *)
  Manifest.sync t.manifest;
  List.iter
    (fun b ->
      Array.iter (fun tables -> List.iter (drop_table t) tables) b.levels)
    [ left; right ];
  let others =
    Array.to_list t.buckets
    |> List.filter (fun b -> b.id <> left.id && b.id <> right.id)
  in
  t.buckets <-
    Array.of_list
      (List.sort (fun a b -> String.compare a.lo b.lo) (merged :: others))

(* ------------------------------------------------------------------ *)
(* Read-aware compaction scheduling (§III-G) *)

type job = { j_bucket : bucket; j_level : int; j_priority : float }

let eligible_jobs t =
  let cfg = t.cfg in
  let jobs = ref [] in
  Array.iter
    (fun b ->
      for level = 0 to cfg.Config.l_max - 2 do
        let subs = List.length b.levels.(level) in
        if subs >= cfg.Config.min_count then
          jobs := (b, level, subs, b.read_counts.(level)) :: !jobs
      done)
    t.buckets;
  let jobs = !jobs in
  if jobs = [] then []
  else begin
    let n = float_of_int (List.length jobs) in
    let avg_sub =
      List.fold_left (fun acc (_, _, s, _) -> acc +. float_of_int s) 0.0 jobs /. n
    in
    let avg_read =
      List.fold_left (fun acc (_, _, _, r) -> acc +. float_of_int r) 0.0 jobs /. n
    in
    List.map
      (fun (b, level, subs, reads) ->
        let rela_sub =
          if avg_sub > 0.0 then float_of_int subs /. avg_sub else 0.0
        in
        let rela_read =
          if avg_read > 0.0 then float_of_int reads /. avg_read else 0.0
        in
        {
          j_bucket = b;
          j_level = level;
          j_priority = (cfg.Config.read_weight *. rela_read) +. rela_sub;
        })
      jobs
    |> List.sort (fun a b -> Float.compare b.j_priority a.j_priority)
  end

(* A bucket splits when its device footprint reaches capacity (the paper's
   "each level consists of T full sublevels"), or — regardless of size —
   when the last level hits max_count sublevels, since the last level has
   nowhere left to compact to. *)
let needs_split t bucket =
  bucket_bytes bucket >= Config.effective_bucket_capacity t.cfg
  || List.length bucket.levels.(t.cfg.Config.l_max - 1) >= t.cfg.Config.max_count

(* Collapse the last level's sublevels into one — the escape valve for a
   bucket that must shed sublevels but cannot split (e.g. it holds a single
   hot key, so sample-sort finds no splitter). Tombstones die here: the
   last level is the deepest data, so a tombstone can only shadow versions
   inside this very merge. *)
let collapse_last_level t bucket =
  let level = t.cfg.Config.l_max - 1 in
  let inputs = bucket.levels.(level) in
  if List.length inputs > 1 then begin
    t.compactions <- t.compactions + 1;
    let seqs =
      List.map
        (fun m ->
          table_seq t ~category:(Io_stats.Compaction_read level) m)
        inputs
    in
    let entries =
      Merge_iter.compact ~dedup_user_keys:true ~drop_tombstones:true
        ~snapshot_floor:(oldest_snapshot_seq t) seqs
    in
    let expected =
      List.fold_left
        (fun acc (m : Table.meta) -> acc + m.Table.entry_count)
        0 inputs
    in
    let builder =
      Table.Builder.create t.env ~name:(fresh_table_name t)
        ~category:(Io_stats.Compaction level)
        ~bits_per_key:t.cfg.Config.bits_per_key
        ~ph_index:t.cfg.Config.ph_index ~expected_keys:(max 64 expected) ()
    in
    Seq.iter
      (fun (key, value) -> Table.Builder.add_encoded builder ~key ~value)
      entries;
    if Table.Builder.entry_count builder > 0 then begin
      let meta = Table.Builder.finish builder in
      bucket.levels.(level) <- [ meta ];
      log_add_table t bucket level meta
    end
    else begin
      Table.Builder.abandon builder;
      bucket.levels.(level) <- []
    end;
    List.iter (fun m -> log_remove_table t bucket level m) inputs;
    bucket.read_counts.(level) <- 0;
    invalidate_view bucket;
    Manifest.sync t.manifest;
    List.iter (drop_table t) inputs
  end

(* Advisory pending-work estimate for the compaction pool's shard scheduler
   (Store_intf contract: read without the shard lock, so this must tolerate
   concurrent mutation and write nothing). Counts the bytes a split would
   rewrite plus the input bytes of every compaction-eligible level. *)
let maintenance_pending t =
  let pending = ref 0 in
  Array.iter
    (fun b ->
      if needs_split t b then pending := !pending + bucket_bytes b;
      for level = 0 to t.cfg.Config.l_max - 2 do
        let subs = b.levels.(level) in
        if List.length subs >= t.cfg.Config.min_count then
          pending :=
            !pending
            + List.fold_left
                (fun acc (m : Table.meta) -> acc + m.Table.size)
                0 subs
      done)
    t.buckets;
  !pending

let mandatory_work t =
  (* Splits and over-limit levels run regardless of budget. *)
  let progress = ref false in
  Array.iter
    (fun b ->
      if needs_split t b then begin
        let splits_before = t.splits in
        split_bucket t b;
        if t.splits > splits_before then progress := true
        else if
          List.length b.levels.(t.cfg.Config.l_max - 1)
          >= t.cfg.Config.max_count
        then begin
          collapse_last_level t b;
          progress := true
        end
        (* else: over byte capacity but unsplittable and within sublevel
           limits — nothing to do until the key population diversifies. *)
      end)
    (Array.copy t.buckets);
  Array.iter
    (fun b ->
      for level = 0 to t.cfg.Config.l_max - 2 do
        if List.length b.levels.(level) >= t.cfg.Config.max_count then begin
          compact_level t b level;
          progress := true
        end
      done)
    t.buckets;
  !progress

let maintenance t ?budget_bytes () =
  let budget = ref (match budget_bytes with Some b -> b | None -> max_int) in
  let rec loop () =
    while mandatory_work t do
      ()
    done;
    if !budget > 0 then begin
      match eligible_jobs t with
      | [] -> ()
      | job :: _ ->
        let before = Io_stats.bytes_written (io_stats t) in
        compact_level t job.j_bucket job.j_level;
        let after = Io_stats.bytes_written (io_stats t) in
        budget := !budget - (after - before);
        loop ()
    end
  in
  loop ();
  (* Opportunistic merge of adjacent tiny buckets. *)
  let n = Array.length t.buckets in
  if n >= 2 then begin
    let rec find i =
      if i + 1 >= Array.length t.buckets then ()
      else begin
        let a = t.buckets.(i) and b = t.buckets.(i + 1) in
        if
          bucket_bytes a + bucket_bytes b <= t.cfg.Config.bucket_merge_bytes
          && Memtable.count a.memtable + Memtable.count b.memtable
             < t.cfg.Config.memtable_items
          && Array.length t.buckets > t.cfg.Config.initial_buckets
        then merge_buckets t a b
        else find (i + 1)
      end
    in
    find 0
  end

(* ------------------------------------------------------------------ *)
(* Writes *)

let apply t kind key value =
  let seq = Int64.add t.seq 1L in
  t.seq <- seq;
  Io_stats.record_write (io_stats t) Io_stats.User_write
    (String.length key + String.length value);
  let ikey = Ikey.make ~kind key ~seq in
  let bucket = bucket_for t key in
  if not (Memtable.try_add bucket.memtable ikey value) then begin
    flush_bucket t bucket;
    (* A fresh table always has room for one item. *)
    let ok = Memtable.try_add bucket.memtable ikey value in
    assert ok
  end

let enforce_wal_threshold t =
  (* §III-F: when the log exceeds its threshold, flush the MemTable holding
     the oldest unpersisted item so the tail can advance. *)
  let guard = ref 0 in
  while
    Wal.total_bytes t.wal > t.cfg.Config.wal_size_threshold && !guard < 1024
  do
    incr guard;
    let oldest = ref None in
    Array.iter
      (fun b ->
        match Memtable.min_seq b.memtable with
        | Some s -> (
          match !oldest with
          | Some (s', _) when Int64.compare s' s <= 0 -> ()
          | _ -> oldest := Some (s, b))
        | None -> ())
      t.buckets;
    match !oldest with
    | Some (_, b) -> flush_bucket t b
    | None ->
      wal_reclaim t;
      guard := 1024
  done

(* The raw write path, before admission control and degraded-state guards
   (both live in the "Resilient write path" section below). Accepts several
   logical batches as one commit unit — a single WAL append carrying one
   record per batch (the group-commit primitive) — the common single-batch
   case being the one-element list. *)
let write_batches_inner t batches =
  let total =
    List.fold_left (fun acc items -> acc + List.length items) 0 batches
  in
  if total > 0 then begin
    Wal.append_batches t.wal ~first_seq:(Int64.add t.seq 1L) batches;
    List.iter
      (fun items ->
        List.iter (fun (kind, key, value) -> apply t kind key value) items)
      batches;
    enforce_wal_threshold t;
    (* Splits and over-limit compactions always run; eligible compactions
       draw on an allowance that accrues per batch, modeling the background
       bandwidth compaction threads would share with the foreground. An
       unconfigured budget (max_int) means eager compaction. *)
    if t.cfg.Config.compaction_budget_per_batch = max_int then maintenance t ()
    else begin
      t.io_credit <-
        min
          (t.io_credit + t.cfg.Config.compaction_budget_per_batch)
          (256 * 1024 * 1024);
      while mandatory_work t do () done;
      let rec drain () =
        if t.io_credit > 0 then
          match eligible_jobs t with
          | [] -> ()
          | job :: _ ->
            let before = Io_stats.bytes_written (io_stats t) in
            compact_level t job.j_bucket job.j_level;
            let after = Io_stats.bytes_written (io_stats t) in
            t.io_credit <- t.io_credit - (after - before);
            drain ()
      in
      drain ()
    end
  end

let flush t = Array.iter (fun b -> flush_bucket t b) t.buckets

(* ------------------------------------------------------------------ *)
(* Reads *)

let get_at_seq t key ~snapshot =
  let bucket = bucket_for t key in
  match Memtable.find bucket.memtable key ~snapshot with
  | Some (Ikey.Value, v) -> Some v
  | Some (Ikey.Deletion, _) -> None
  | None ->
    (* One seek target serves every sublevel probe: the bloom hashes its
       escaped-user prefix and the cursor seeks its full bytes, so the per-get
       allocation is this one string (plus the returned value). *)
    let target = Ikey.encode_seek key ~seq:snapshot in
    let rec levels level =
      if level >= t.cfg.Config.l_max then None
      else begin
        let rec sublevels = function
          | [] -> levels (level + 1)
          | (m : Table.meta) :: rest ->
            if not (Table.overlaps m ~lo:key ~hi:key) then sublevels rest
            else begin
              let reader = reader_of t m in
              if not (Table.Reader.may_contain_encoded reader target) then
                sublevels rest
              else begin
                (* A real sublevel access: §III-G read accounting. *)
                bucket.read_counts.(level) <- bucket.read_counts.(level) + 1;
                match
                  Table.Reader.get_encoded reader
                    ~category:Io_stats.Read_path ~filter_checked:true target
                with
                | Some (Ikey.Value, v, _) -> Some v
                | Some (Ikey.Deletion, _, _) -> None
                | None -> sublevels rest
              end
            end
        in
        sublevels bucket.levels.(level)
      end
    in
    levels 0

(* Newest committed version's seq for [key] — across the owning bucket's
   MemTable and every level — or None when the key was never written.
   Transaction commit validation compares this against the transaction's
   snapshot seq; it is robust to version GC because the newest version of a
   key always survives compaction. *)
let newest_seq t key =
  let bucket = bucket_for t key in
  match Memtable.find_with_seq bucket.memtable key ~snapshot:Ikey.max_seq with
  | Some (_, _, seq) -> Some seq
  | None ->
    let target = Ikey.encode_seek key ~seq:Ikey.max_seq in
    let rec levels level =
      if level >= t.cfg.Config.l_max then None
      else begin
        let rec sublevels = function
          | [] -> levels (level + 1)
          | (m : Table.meta) :: rest ->
            if not (Table.overlaps m ~lo:key ~hi:key) then sublevels rest
            else begin
              let reader = reader_of t m in
              if not (Table.Reader.may_contain_encoded reader target) then
                sublevels rest
              else
                match
                  Table.Reader.get_encoded reader
                    ~category:Io_stats.Read_path ~filter_checked:true target
                with
                | Some (_, _, seq) -> Some seq
                | None -> sublevels rest
            end
        in
        sublevels bucket.levels.(level)
      end
    in
    levels 0

(* [get]/[scan]/[get_at]/[scan_at] are defined in the resilience section
   below, wrapping the [_seq] versions with corruption quarantine. *)

(* The range reader over the buckets from [lo]'s owner up to [hi]. Bucket
   key ranges are disjoint (the bucket-sort invariant), so the buckets are
   its sources in order, each reached lazily — table handles, the sorted
   MemTable buffer of §III-D and the view are captured then — and a read
   that stops early never touches later buckets' data blocks. A caller that must
   interleave the stream with writes pins a {!snapshot} first: tables
   retired by a concurrent compaction then stay readable (on every Env,
   POSIX included) until the snapshot releases. *)
let range_reader t ~lo ~hi ?limit ~snapshot () =
  let buckets = t.buckets in
  (* The last bucket's upper bound is unbounded — no sentinel string, so
     arbitrarily large user keys (e.g. 17+ bytes of 0xff) stay in scope. *)
  let rec sources i () =
    if i >= Array.length buckets || String.compare buckets.(i).lo hi >= 0
    then Seq.Nil
    else begin
      let b = buckets.(i) in
      b.range_queries <- b.range_queries + 1;
      (* Sorted view first: one selector-driven walk replaces the heap
         merge of the whole run set. Falls back to the heap when the flag
         is off, the bucket has too few (or too many) runs, or the view
         was just invalidated. *)
      let source =
        Range_reader.source ~reader:(reader_of t) ~lo ~hi
          ~mem:(Memtable.entries ~lo b.memtable) (bucket_view t b)
          (fun () -> bucket_tables b)
      in
      Seq.Cons (source, sources (i + 1))
    end
  in
  Range_reader.create ~hi ~snapshot ?limit
    (sources (bucket_index buckets lo))

let iter_range t ?snapshot ~lo ~hi () =
  let snapshot =
    match snapshot with Some s -> s.Intf.snap_seq | None -> t.seq
  in
  Range_reader.to_seq (range_reader t ~lo ~hi ~snapshot ())

let scan_at_seq t ~lo ~hi ?limit ~snapshot () =
  Range_reader.to_list (range_reader t ~lo ~hi ?limit ~snapshot ())

(* ------------------------------------------------------------------ *)
(* Recovery *)

(* Delete table files that no live bucket references — debris of an
   interrupted flush/compaction/split whose manifest edit never became
   durable. Only files carrying this store's name prefix and the table
   suffix are touched, so co-tenant stores on the same Env are safe. *)
let gc_orphans t =
  let live = Hashtbl.create 64 in
  Array.iter
    (fun b ->
      Array.iter
        (List.iter (fun (m : Table.meta) -> Hashtbl.replace live m.Table.name ()))
        b.levels)
    t.buckets;
  let prefix = t.cfg.Config.name ^ "-" in
  let plen = String.length prefix in
  List.iter
    (fun f ->
      if
        String.length f > plen
        && String.equal (String.sub f 0 plen) prefix
        && Filename.check_suffix f ".lvt"
        && not (Hashtbl.mem live f)
      then Env.delete t.env f)
    (Env.list_files t.env)

let recover ?env:env_opt cfg =
  let env = match env_opt with Some e -> e | None -> Env.in_memory () in
  if not (Manifest.exists env ~name:(manifest_name cfg)) then create ~env cfg
  else begin
    (* Rebuild the bucket directory from manifest edits. *)
    let buckets : (int, bucket) Hashtbl.t = Hashtbl.create 64 in
    let max_bucket_id = ref (-1) in
    let watermark_seq = ref 0L in
    let watermark_file = ref 1 in
    let stub_t = ref None in
    (* We need a [t] to create memtables; construct it first with empty
       directory, then fill. *)
    let t =
      {
        cfg;
        env;
        (* Placeholder log, replaced below once the real WAL is recovered;
           its distinct prefix keeps it out of future recoveries and its
           single empty segment is deleted before returning. *)
        wal = Wal.create env ~prefix:(cfg.Config.name ^ "-tmpwal") ();
        manifest = Manifest.reopen env ~name:(manifest_name cfg);
        buckets = [||];
        readers = Hashtbl.create 256;
        next_file = 1;
        next_bucket_id = 0;
        seq = 0L;
        splits = 0;
        compactions = 0;
        io_credit = 0;
        health = Intf.Healthy;
        quarantined = [];
        cache =
          (if cfg.Config.block_cache_bytes > 0 then
             Some
               (Wip_storage.Block_cache.create
                  ~capacity_bytes:cfg.Config.block_cache_bytes)
           else None);
        next_snap_id = 0;
        live_snaps = Hashtbl.create 8;
        zombies = Hashtbl.create 8;
      }
    in
    stub_t := Some t;
    Manifest.replay env ~name:(manifest_name cfg) (fun edit ->
        match edit with
        | Manifest.Add_bucket { id; lo } ->
          if id > !max_bucket_id then max_bucket_id := id;
          Hashtbl.replace buckets id
            (make_bucket t ~id ~lo ~structure:cfg.Config.memtable_structure)
        | Manifest.Remove_bucket { id } -> Hashtbl.remove buckets id
        | Manifest.Add_table { bucket; level; name; size; entry_count; smallest; largest } -> (
          match Hashtbl.find_opt buckets bucket with
          | Some b ->
            let meta =
              { Table.name; size; entry_count; smallest; largest }
            in
            b.levels.(level) <- meta :: b.levels.(level)
          | None -> ())
        | Manifest.Remove_table { bucket; level; name } -> (
          match Hashtbl.find_opt buckets bucket with
          | Some b ->
            b.levels.(level) <-
              List.filter
                (fun (m : Table.meta) -> not (String.equal m.Table.name name))
                b.levels.(level)
          | None -> ())
        | Manifest.Watermark { seq; next_file } ->
          watermark_seq := seq;
          watermark_file := next_file);
    let bucket_list =
      Hashtbl.fold (fun _ b acc -> b :: acc) buckets []
      |> List.sort (fun a b -> String.compare a.lo b.lo)
    in
    t.buckets <- Array.of_list bucket_list;
    t.next_bucket_id <- !max_bucket_id + 1;
    (* A crash before the very first manifest sync replays to zero buckets;
       bootstrap again so the WAL replay below has somewhere to land. *)
    if Array.length t.buckets = 0 then bootstrap_buckets t;
    (* next_file: beyond both the watermark and any live table file. *)
    let max_file_no =
      Array.fold_left
        (fun acc b ->
          Array.fold_left
            (fun acc tables ->
              List.fold_left
                (fun acc (m : Table.meta) ->
                  (* "<name>-NNNNNN.lvt" *)
                  let base = Filename.chop_suffix m.Table.name ".lvt" in
                  let prefix_len = String.length cfg.Config.name + 1 in
                  match
                    int_of_string_opt
                      (String.sub base prefix_len (String.length base - prefix_len))
                  with
                  | Some n -> max acc n
                  | None -> acc)
                acc tables)
            acc b.levels)
        !watermark_file t.buckets
    in
    t.next_file <- max_file_no + 1;
    t.seq <- !watermark_seq;
    (* Replay the WAL into MemTables; duplicates of already-persisted items
       carry their original (smaller or equal) sequence numbers, so reads
       stay correct and the next flush simply rewrites them. *)
    let wal =
      Wal.recover env ~prefix:(cfg.Config.name ^ "-wal")
        ~segment_bytes:cfg.Config.wal_segment_bytes
        ~replay:(fun (r : Wal.record) ->
          if Int64.compare r.Wal.seq t.seq > 0 then t.seq <- r.Wal.seq;
          let ikey = Ikey.make ~kind:r.Wal.kind r.Wal.key ~seq:r.Wal.seq in
          let bucket = bucket_for t r.Wal.key in
          if not (Memtable.try_add bucket.memtable ikey r.Wal.value) then begin
            flush_bucket t bucket;
            ignore (Memtable.try_add bucket.memtable ikey r.Wal.value)
          end)
        ()
    in
    Env.delete env (cfg.Config.name ^ "-tmpwal-000000.log");
    let t = { t with wal } in
    if Int64.compare (Wal.max_seq_logged wal) t.seq > 0 then
      t.seq <- Wal.max_seq_logged wal;
    gc_orphans t;
    t
  end

let checkpoint t =
  Wal.sync t.wal;
  Manifest.append t.manifest
    (Manifest.Watermark { seq = t.seq; next_file = t.next_file });
  Manifest.sync t.manifest

(* ------------------------------------------------------------------ *)
(* Resilient write path: admission control, degraded state, quarantine.

   Layering: the Env underneath already retries transient faults when
   wrapped by [Env.with_retry], so any [Io_fault] that reaches this layer
   has exhausted its retry budget (or carries [retryable = false]). The
   store then stops accepting mutations — reads keep working — until a
   recovery probe's durable round-trip succeeds. Exceptions are classified
   through [Env.io_fault_detail] / [Env.corruption_detail] rather than
   matched: lint rule R6 reserves [Io_fault] handlers for [lib/storage]
   and [Wip_util.Retry]. *)

let health t = t.health

let quarantined_tables t = t.quarantined

let degrade t ~reason =
  match t.health with
  | Intf.Degraded _ -> ()
  | Intf.Healthy ->
    t.health <- Intf.Degraded { reason };
    Io_stats.record_degraded_transition (io_stats t)

(* Memtable bytes plus estimated compaction debt: the quantity the
   watermarks gate on, and the quantity [bench/stall.ml] asserts stays
   bounded when admission control is on. *)
let write_pressure t =
  Array.fold_left (fun acc b -> acc + Memtable.byte_size b.memtable) 0
    t.buckets
  + maintenance_pending t

(* Write admission. This engine runs all maintenance on the writing thread
   — there is no background pool at this layer — so a stall is not a sleep
   but a debt payment: the stalled writer flushes and compacts until the
   pressure drops below the stop watermark or the deadline passes. The
   slowdown band pays one bounded slice and admits; the sharded front end
   layers real (pool-drained) waits on top of this. *)
let admit t =
  if not t.cfg.Config.admission_control then Ok ()
  else begin
    let slowdown = t.cfg.Config.slowdown_watermark_bytes in
    let stop = t.cfg.Config.stop_watermark_bytes in
    if write_pressure t < slowdown then Ok ()
    else begin
      let started = Unix.gettimeofday () in
      let deadline = started +. t.cfg.Config.stall_deadline_s in
      let pay_slice () =
        if maintenance_pending t > 0 then
          maintenance t ~budget_bytes:t.cfg.Config.memtable_bytes ()
        else begin
          (* All pressure is MemTable bytes: flush the fullest one. *)
          let fullest = ref None in
          Array.iter
            (fun b ->
              let sz = Memtable.byte_size b.memtable in
              if sz > 0 then
                match !fullest with
                | Some (sz', _) when sz' >= sz -> ()
                | _ -> fullest := Some (sz, b))
            t.buckets;
          match !fullest with Some (_, b) -> flush_bucket t b | None -> ()
        end
      in
      let result =
        if write_pressure t < stop then begin
          pay_slice ();
          Ok ()
        end
        else begin
          let rec stall_loop () =
            let p = write_pressure t in
            if p < stop then Ok ()
            else if Unix.gettimeofday () >= deadline then
              Error (Intf.Backpressure { shard = 0; debt_bytes = p })
            else begin
              pay_slice ();
              (* When nothing can make progress (nothing flushable or
                 compactable) the loop must not spin hot; the deadline
                 still bounds it. *)
              if write_pressure t >= p then Unix.sleepf 0.0002;
              stall_loop ()
            end
          in
          stall_loop ()
        end
      in
      Io_stats.record_stall (io_stats t)
        ~ns:(int_of_float ((Unix.gettimeofday () -. started) *. 1e9));
      result
    end
  end

let try_write_batches t batches =
  match t.health with
  | Intf.Degraded { reason } -> Error (Intf.Store_degraded { reason })
  | Intf.Healthy -> (
    if List.for_all (fun items -> items = []) batches then Ok ()
    else
      try
        match admit t with
        | Error _ as e -> e
        | Ok () ->
          write_batches_inner t batches;
          Ok ()
      with e -> (
        match Env.io_fault_detail e with
        | Some reason ->
          degrade t ~reason;
          Error (Intf.Store_degraded { reason })
        | None -> raise e))

let try_write_batch t items = try_write_batches t [ items ]

let write_batch t items =
  match try_write_batch t items with
  | Ok () -> ()
  | Error e -> raise (Intf.Rejected e)

let put t ~key ~value = write_batch t [ (Ikey.Value, key, value) ]

let delete t ~key = write_batch t [ (Ikey.Deletion, key, "") ]

(* Maintenance entry points get the same degraded-state discipline as
   writes: a fault that survives the env's retries flips the store
   read-only and surfaces typed. (Internal callers — admission, WAL
   enforcement — use the unguarded versions above; the guard at the public
   boundary sees their faults when they propagate.) *)
let guard_durable t f =
  match t.health with
  | Intf.Degraded { reason } -> raise (Intf.Rejected (Intf.Store_degraded { reason }))
  | Intf.Healthy -> (
    try f ()
    with e -> (
      match Env.io_fault_detail e with
      | Some reason ->
        degrade t ~reason;
        raise (Intf.Rejected (Intf.Store_degraded { reason }))
      | None -> raise e))

let flush t = guard_durable t (fun () -> flush t)

(* WAL-only durability barrier: the group-commit leader calls this once per
   batch window after [try_write_batches]. A durable failure here must not
   let the caller ack, hence the raising guard. *)
let log_sync t = guard_durable t (fun () -> Wal.sync t.wal)

let maintenance t ?budget_bytes () =
  guard_durable t (fun () -> maintenance t ?budget_bytes ())

let probe t =
  match t.health with
  | Intf.Healthy -> Intf.Healthy
  | Intf.Degraded _ -> (
    (* One genuine durable round-trip through the same path writes use: a
       checkpoint watermark appended and synced. Success proves the device
       accepts writes again. *)
    match checkpoint t with
    | () ->
      t.health <- Intf.Healthy;
      t.health
    | exception e -> (
      match Env.io_fault_detail e with
      | Some reason ->
        t.health <- Intf.Degraded { reason };
        t.health
      | None -> raise e))

(* Quarantine: a table whose bytes fail validation is dropped from its
   level (manifest edit included, so recovery agrees), its reader and
   cached blocks discarded, and the file renamed aside with a
   ".quarantined" suffix — outside the ".lvt" namespace, so neither
   [gc_orphans] nor recovery will touch the evidence. Serving continues
   from the remaining runs. Returns [true] when a table was found and
   removed, guaranteeing the caller's retry makes progress. *)
let quarantine t ~file ~detail =
  let found = ref false in
  Array.iter
    (fun b ->
      Array.iteri
        (fun level tables ->
          if
            (not !found)
            && List.exists
                 (fun (m : Table.meta) -> String.equal m.Table.name file)
                 tables
          then begin
            found := true;
            let meta =
              List.find
                (fun (m : Table.meta) -> String.equal m.Table.name file)
                tables
            in
            b.levels.(level) <-
              List.filter
                (fun (m : Table.meta) ->
                  not (String.equal m.Table.name file))
                tables;
            log_remove_table t b level meta;
            invalidate_view b;
            Manifest.sync t.manifest;
            (match Hashtbl.find_opt t.readers file with
            | Some r ->
              Table.Reader.close r;
              Hashtbl.remove t.readers file
            | None -> ());
            (match t.cache with
            | Some cache -> Wip_storage.Block_cache.evict_file cache file
            | None -> ());
            (try Env.rename t.env ~src:file ~dst:(file ^ ".quarantined")
             with Not_found -> ());
            t.quarantined <- (file, detail) :: t.quarantined
          end)
        b.levels)
    t.buckets;
  !found

let rec get t key =
  try get_at_seq t key ~snapshot:t.seq
  with e -> (
    match Env.corruption_detail e with
    | Some (file, detail) when quarantine t ~file ~detail -> get t key
    | _ -> raise e)

let rec scan t ~lo ~hi ?limit () =
  try scan_at_seq t ~lo ~hi ?limit ~snapshot:t.seq ()
  with e -> (
    match Env.corruption_detail e with
    | Some (file, detail) when quarantine t ~file ~detail ->
      scan t ~lo ~hi ?limit ()
    | _ -> raise e)

let rec get_at t key ~snapshot =
  try get_at_seq t key ~snapshot:snapshot.Intf.snap_seq
  with e -> (
    match Env.corruption_detail e with
    | Some (file, detail) when quarantine t ~file ~detail ->
      get_at t key ~snapshot
    | _ -> raise e)

let rec scan_at t ~lo ~hi ?limit ~snapshot () =
  try scan_at_seq t ~lo ~hi ?limit ~snapshot:snapshot.Intf.snap_seq ()
  with e -> (
    match Env.corruption_detail e with
    | Some (file, detail) when quarantine t ~file ~detail ->
      scan_at t ~lo ~hi ?limit ~snapshot ()
    | _ -> raise e)

(* ------------------------------------------------------------------ *)
(* Snapshot-isolation transactions.

   [txn_begin] pins a snapshot; reads are served from the transaction's own
   write buffer first and otherwise at the pinned seq (recording the key in
   the read set). Nothing touches the store until [txn_commit], which
   first-committer-wins validates: if any key in the read or write set has a
   committed version newer than the snapshot, the commit fails with
   {!Intf.Txn_conflict}; otherwise the buffered writes apply atomically
   through the normal admission-controlled batch path (so a commit can still
   fail with [Backpressure] or [Store_degraded]). The engine is
   single-writer under its shard lock, so validate-then-apply is atomic. *)

type txn = {
  txn_store : t;
  txn_snap : Intf.snapshot;
  txn_writes : (string, Ikey.kind * string) Hashtbl.t;
  txn_reads : (string, unit) Hashtbl.t;
  mutable txn_open : bool; (* guarded_by: caller *)
}

let txn_begin t =
  {
    txn_store = t;
    txn_snap = snapshot t;
    txn_writes = Hashtbl.create 16;
    txn_reads = Hashtbl.create 16;
    txn_open = true;
  }

let txn_snapshot txn = txn.txn_snap

let require_open txn op =
  if not txn.txn_open then
    invalid_arg (Printf.sprintf "Store.%s: transaction already closed" op)

let txn_get txn key =
  require_open txn "txn_get";
  match Hashtbl.find_opt txn.txn_writes key with
  | Some (Ikey.Value, v) -> Some v
  | Some (Ikey.Deletion, _) -> None
  | None ->
    Hashtbl.replace txn.txn_reads key ();
    get_at txn.txn_store key ~snapshot:txn.txn_snap

let txn_put txn ~key ~value =
  require_open txn "txn_put";
  Hashtbl.replace txn.txn_writes key (Ikey.Value, value)

let txn_delete txn ~key =
  require_open txn "txn_delete";
  Hashtbl.replace txn.txn_writes key (Ikey.Deletion, "")

let txn_close txn =
  if txn.txn_open then begin
    txn.txn_open <- false;
    Intf.release txn.txn_snap
  end

let txn_abort txn = txn_close txn

let txn_commit txn =
  require_open txn "txn_commit";
  let t = txn.txn_store in
  let base = txn.txn_snap.Intf.snap_seq in
  let conflicting key acc =
    match acc with
    | Some _ -> acc
    | None -> (
      match newest_seq t key with
      | Some s when Int64.compare s base > 0 -> Some key
      | _ -> None)
  in
  let conflict =
    Hashtbl.fold (fun key _ acc -> conflicting key acc) txn.txn_writes None
  in
  let conflict =
    Hashtbl.fold (fun key _ acc -> conflicting key acc) txn.txn_reads conflict
  in
  let result =
    match conflict with
    | Some key -> Error (Intf.Txn_conflict { key })
    | None ->
      let items =
        Hashtbl.fold
          (fun key (kind, value) acc -> (kind, key, value) :: acc)
          txn.txn_writes []
      in
      if items = [] then Ok () else try_write_batch t items
  in
  txn_close txn;
  result

(* ------------------------------------------------------------------ *)
(* Introspection *)

type bucket_info = {
  lo : string;
  memtable_items : int;
  memtable_structure : Memtable.structure;
  sublevels_per_level : int list;
  bytes : int;
}

let bucket_boundaries t =
  Array.to_list t.buckets |> List.map (fun (b : bucket) -> b.lo)

let bucket_infos t =
  Array.to_list t.buckets
  |> List.map (fun (b : bucket) ->
         {
           lo = b.lo;
           memtable_items = Memtable.count b.memtable;
           memtable_structure = Memtable.structure b.memtable;
           sublevels_per_level =
             Array.to_list (Array.map List.length b.levels);
           bytes = bucket_bytes b;
         })

let file_sizes t =
  Array.to_list t.buckets
  |> List.concat_map (fun b ->
         Array.to_list b.levels
         |> List.concat_map (List.map (fun (m : Table.meta) -> m.Table.size)))

let live_table_files t =
  Array.to_list t.buckets
  |> List.concat_map (fun b ->
         Array.to_list b.levels
         |> List.concat_map (List.map (fun (m : Table.meta) -> m.Table.name)))

let memtable_probes t =
  Array.fold_left (fun acc b -> acc + Memtable.probes b.memtable) 0 t.buckets
