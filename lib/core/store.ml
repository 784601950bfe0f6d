module Ikey = Wip_util.Ikey
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Table = Wip_sstable.Table
module Merge = Wip_sstable.Merge
module Sorted_view = Wip_sstable.Sorted_view
module Range_reader = Wip_sstable.Range_reader
module Memtable = Wip_memtable.Memtable
module Wal = Wip_wal.Wal
module Manifest = Wip_manifest.Manifest
module Intf = Wip_kv.Store_intf
module Table_set = Wip_kv.Table_set

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

type t = {
  cfg : Config.t;
  ts : Table_set.t;
  mutable buckets : bucket array; (* sorted by lo; guarded_by: caller *)
  mutable next_bucket_id : int; (* guarded_by: caller *)
  mutable seq : int64; (* guarded_by: caller *)
  mutable splits : int; (* guarded_by: caller *)
  mutable compactions : int; (* guarded_by: caller *)
  mutable io_credit : int; (* guarded_by: caller *)
      (* accumulated background-compaction allowance (bytes); see
         Config.compaction_budget_per_batch *)
}

type config = Config.t

let config t = t.cfg

let name t = t.cfg.Config.name

let env t = Table_set.env t.ts

let io_stats t = Table_set.stats t.ts

let sequence t = t.seq

let split_count t = t.splits

let compaction_count t = t.compactions

let bucket_count t = Array.length t.buckets

let wal_bytes t = Wal.total_bytes (Table_set.wal t.ts)

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

(* A new, empty bucket with a fresh id, logged. *)
let new_bucket t ~lo ~structure =
  let id = t.next_bucket_id in
  t.next_bucket_id <- id + 1;
  Table_set.log t.ts (Manifest.Add_bucket { id; lo });
  make_bucket t ~id ~lo ~structure

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
  t.buckets <-
    Array.map
      (fun lo -> new_bucket t ~lo ~structure:cfg.Config.memtable_structure)
      los

let make ~reopen env cfg =
  {
    cfg;
    ts =
      Table_set.create ~reopen env ~name:cfg.Config.name ~suffix:".lvt"
        ~wal_segment_bytes:cfg.Config.wal_segment_bytes
        ~cache_bytes:cfg.Config.block_cache_bytes
        ~bits_per_key:cfg.Config.bits_per_key ~ph_index:cfg.Config.ph_index
        ~sorted_view:cfg.Config.sorted_view ();
    buckets = [||];
    next_bucket_id = 0;
    seq = 0L;
    splits = 0;
    compactions = 0;
    io_credit = 0;
  }

let create ?env:env_opt cfg =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Wipdb.create: " ^ msg));
  let env = match env_opt with Some e -> e | None -> Env.in_memory () in
  let t = make ~reopen:false env cfg in
  bootstrap_buckets t;
  Table_set.sync_manifest t.ts;
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

(* Snapshots pin seqs in the table set (§III-D sequence-number rule, end
   to end): every Table_set.compaction below floors version GC at
   [oldest_snapshot_seq], and retired tables stay readable as zombies. *)

let oldest_snapshot_seq t = Table_set.oldest_snapshot_seq t.ts

let live_snapshot_count t = Table_set.live_snapshot_count t.ts

let zombie_table_files t = Table_set.zombie_table_files t.ts

let zombie_bytes t = Table_set.zombie_bytes t.ts

let snapshot t = Table_set.snapshot t.ts ~seq:t.seq

(* ------------------------------------------------------------------ *)
(* Sorted views (REMIX-style; see Sorted_view and DESIGN.md), one per
   bucket, built at the first scan that finds enough runs and extended at
   flush. Building or extending a view replays whole runs and bypasses the
   block cache; a walk reads only the blocks its scan returns, under the
   scan admission class. *)

let invalidate_view bucket = bucket.view <- None

let bucket_tables bucket = Array.to_list bucket.levels |> List.concat

let entry_count tables =
  List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.entry_count) 0 tables

let bucket_view t bucket =
  if Option.is_none bucket.view then
    bucket.view <- Table_set.build_view t.ts (bucket_tables bucket);
  bucket.view

(* ------------------------------------------------------------------ *)
(* Flush (minor compaction): MemTable -> one level-0 LevelTable *)

let wal_reclaim t =
  (* Deleting a WAL segment discards the only other copy of the records the
     manifest's latest edits account for — those edits must hit the device
     first, or a crash after the delete loses acknowledged data. *)
  Table_set.sync_manifest t.ts;
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
  ignore (Wal.reclaim (Table_set.wal t.ts) ~persisted_below:bound)

let flush_bucket t bucket =
  if not (Memtable.is_empty bucket.memtable) then begin
    (* A batch can span buckets, so this flush may persist part of a batch
       whose WAL record is still buffered; sync the log first so a crash
       after the flush replays the whole batch instead of applying half. *)
    Wal.sync (Table_set.wal t.ts);
    List.iter
      (fun meta ->
        bucket.levels.(0) <- meta :: bucket.levels.(0);
        bucket.view <- Table_set.extend_view t.ts bucket.view meta;
        Table_set.log_add t.ts ~bucket:bucket.id ~level:0 meta)
      (Table_set.write_runs t.ts ~category:Io_stats.Flush
         ~expected_keys:(Memtable.count bucket.memtable)
         (Merge.single (Merge.mem (Memtable.entries bucket.memtable))));
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

(* Merge every sublevel of [level] into one table at level [into]: the next
   level, or [level] itself when the last level collapses. Tombstones die
   only in a collapse: the last level is the deepest data, so a tombstone
   there can only shadow versions inside this very merge. *)
let merge_level t bucket level ~into =
  let inputs = bucket.levels.(level) in
  t.compactions <- t.compactions + 1;
  let entries =
    Table_set.compaction t.ts
      ~category:(fun _ -> Io_stats.Compaction_read level)
      ~drop_tombstones:(into = level) inputs
  in
  let outputs =
    Table_set.write_runs t.ts ~category:(Io_stats.Compaction into)
      ~expected_keys:(max 64 (entry_count inputs)) entries
  in
  bucket.levels.(level) <- [];
  bucket.levels.(into) <- outputs @ bucket.levels.(into);
  List.iter (Table_set.log_add t.ts ~bucket:bucket.id ~level:into) outputs;
  List.iter (Table_set.log_remove t.ts ~bucket:bucket.id ~level) inputs;
  bucket.read_counts.(level) <- 0;
  invalidate_view bucket;
  (* The removes must be durable before the inputs vanish, or recovery
     would replay a manifest referencing deleted files. *)
  Table_set.sync_manifest t.ts;
  List.iter (Table_set.retire t.ts) inputs

let compact_level t bucket level =
  if bucket.levels.(level) <> [] && level + 1 < t.cfg.Config.l_max then
    merge_level t bucket level ~into:(level + 1)

(* ------------------------------------------------------------------ *)
(* Bucket split (§III-E) *)

(* The whole history of a key range as one stream, for a split or merge:
   tombstones die here because nothing older exists. *)
let merge_all t tables =
  Table_set.compaction t.ts ~category:(fun _ -> Io_stats.Split)
    ~drop_tombstones:true tables

(* Log the retirement of [b]: every table, then the bucket itself. *)
let log_retire_bucket t b =
  Array.iteri
    (fun level tables ->
      List.iter (Table_set.log_remove t.ts ~bucket:b.id ~level) tables)
    b.levels;
  Table_set.log t.ts (Manifest.Remove_bucket { id = b.id })

(* Sample-sort splitter selection: every sublevel contributes N-1 keys, one
   every (entry_count / N)-th entry of a full pass over its cursor; the
   sorted union is then itself evenly split N ways. Only the sampled keys
   become strings. *)
let choose_splitters t bucket =
  let n = t.cfg.Config.split_fanout in
  let per_table (meta : Table.meta) =
    let stride = max 1 (meta.Table.entry_count / n) in
    let rec sample c i acc taken =
      if not (Table.Reader.Cursor.next c) then acc
      else if i mod stride = stride - 1 && taken < n - 1 then
        let b = Table.Reader.Cursor.block c in
        let key =
          Ikey.user_key_of_encoded_bytes (Wip_sstable.Block.Cursor.key_bytes b)
            ~len:(Wip_sstable.Block.Cursor.key_length b)
        in
        sample c (i + 1) (key :: acc) (taken + 1)
      else sample c (i + 1) acc taken
    in
    if meta.Table.entry_count = 0 then []
    else sample (Table_set.cursor t.ts ~category:Io_stats.Split meta) 0 [] 0
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
    let tables = bucket_tables bucket in
    let entries = merge_all t tables in
    (* Cut the stream at each splitter: one output table per new bucket.
       Splitters are pre-encoded once so the per-entry comparison runs on
       raw bytes. *)
    let remaining =
      ref (List.map (fun s -> Ikey.encode_user s) (List.tl boundaries))
    in
    let outputs =
      Table_set.write_runs t.ts ~category:Io_stats.Split
        ~expected_keys:(max 64 (entry_count tables / List.length boundaries))
        entries ~cut:(fun ~size:_ key ~len ->
          (* Advance past any splitters <= this key. *)
          let advanced = ref false in
          while
            match !remaining with
            | s :: _ when Ikey.compare_encoded_user_bytes s key ~len <= 0 -> true
            | _ -> false
          do
            remaining := List.tl !remaining;
            advanced := true
          done;
          !advanced)
    in
    (* Build the new buckets; each takes the output table whose range falls
       in its boundaries as its last level, and inherits the old MemTable's
       items that belong to it. *)
    let new_buckets =
      List.map
        (fun lo -> new_bucket t ~lo ~structure:bucket.next_structure)
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
          Table_set.log_add t.ts ~bucket:b.id ~level:lvl meta
        end)
      outputs;
    Seq.iter
      (fun (k, v) ->
        let ik = Ikey.decode k in
        let b = new_bucket_for ik.Ikey.user_key in
        b.memtable <- Memtable.adopt b.memtable ik v)
      (Memtable.entries bucket.memtable);
    (* Retire the old bucket. Log every edit of the split first, make them
       durable, and only then delete the retired files — recovery either
       sees the whole split or none of it, never a manifest pointing at
       missing tables. *)
    log_retire_bucket t bucket;
    let others =
      Array.to_list t.buckets |> List.filter (fun b -> b.id <> bucket.id)
    in
    let all =
      List.sort (fun a b -> String.compare a.lo b.lo) (others @ new_buckets)
    in
    t.buckets <- Array.of_list all;
    Table_set.log_watermark t.ts ~seq:t.seq;
    Table_set.sync_manifest t.ts;
    List.iter (Table_set.retire t.ts) tables
  end

(* ------------------------------------------------------------------ *)
(* Bucket merge: adjacent tiny buckets collapse into one (§III-E). *)

let bucket_bytes bucket =
  List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.size) 0
    (bucket_tables bucket)

let merge_buckets t left right =
  (* Full-compact both buckets into one table placed at the merged bucket's
     last level; MemTable items are re-added. *)
  let tables = bucket_tables left @ bucket_tables right in
  let entries = merge_all t tables in
  let merged = new_bucket t ~lo:left.lo ~structure:left.next_structure in
  let lvl = t.cfg.Config.l_max - 1 in
  merged.levels.(lvl) <-
    Table_set.write_runs t.ts ~category:Io_stats.Split
      ~expected_keys:(max 64 (entry_count tables)) entries;
  List.iter (Table_set.log_add t.ts ~bucket:merged.id ~level:lvl) merged.levels.(lvl);
  List.iter
    (fun b ->
      Seq.iter
        (fun (k, v) ->
          merged.memtable <- Memtable.adopt merged.memtable (Ikey.decode k) v)
        (Memtable.entries b.memtable);
      log_retire_bucket t b)
    [ left; right ];
  (* Edits durable before the retired files are deleted. *)
  Table_set.sync_manifest t.ts;
  List.iter (Table_set.retire t.ts) tables;
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
   hot key, so sample-sort finds no splitter). *)
let collapse_last_level t bucket =
  let level = t.cfg.Config.l_max - 1 in
  if List.length bucket.levels.(level) > 1 then
    merge_level t bucket level ~into:level

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
    Wal.total_bytes (Table_set.wal t.ts) > t.cfg.Config.wal_size_threshold && !guard < 1024
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
    Wal.append_batches (Table_set.wal t.ts) ~first_seq:(Int64.add t.seq 1L) batches;
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

(* The newest version of [key] visible at [snapshot] as (kind, value, seq):
   the owning bucket's MemTable, then each level's sublevels newest first.
   With [count_reads], every table that passes the bloom is a real sublevel
   access, charged to the §III-G read accounting. *)
let find_version t key ~snapshot ~count_reads =
  let bucket = bucket_for t key in
  match Memtable.find_with_seq bucket.memtable key ~snapshot with
  | Some _ as hit -> hit
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
              let reader = Table_set.reader_of t.ts m in
              if not (Table.Reader.may_contain_encoded reader target) then
                sublevels rest
              else begin
                if count_reads then
                  bucket.read_counts.(level) <- bucket.read_counts.(level) + 1;
                match
                  Table.Reader.get_encoded reader
                    ~category:Io_stats.Read_path ~filter_checked:true target
                with
                | Some _ as hit -> hit
                | None -> sublevels rest
              end
            end
        in
        sublevels bucket.levels.(level)
      end
    in
    levels 0

let get_at_seq t key ~snapshot =
  match find_version t key ~snapshot ~count_reads:true with
  | Some (Ikey.Value, v, _) -> Some v
  | Some (Ikey.Deletion, _, _) | None -> None

(* Newest committed version's seq for [key], or None when the key was never
   written. Transaction commit validation compares this against the
   transaction's snapshot seq; it is robust to version GC because the newest
   version of a key always survives compaction. *)
let newest_seq t key =
  Option.map
    (fun (_, _, seq) -> seq)
    (find_version t key ~snapshot:Ikey.max_seq ~count_reads:false)

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
        Range_reader.source ~reader:(Table_set.reader_of t.ts) ~lo ~hi
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

let all_tables t =
  Array.to_list t.buckets |> List.concat_map bucket_tables

let recover ?env:env_opt cfg =
  let env = match env_opt with Some e -> e | None -> Env.in_memory () in
  if not (Table_set.exists env ~name:cfg.Config.name) then create ~env cfg
  else begin
    let t = make ~reopen:true env cfg in
    (* Rebuild the bucket directory from manifest edits. *)
    let buckets : (int, bucket) Hashtbl.t = Hashtbl.create 64 in
    let max_bucket_id = ref (-1) in
    let in_bucket id f = Option.iter f (Hashtbl.find_opt buckets id) in
    t.seq <-
      Table_set.replay_manifest t.ts (function
        | Manifest.Add_bucket { id; lo } ->
          if id > !max_bucket_id then max_bucket_id := id;
          Hashtbl.replace buckets id
            (make_bucket t ~id ~lo ~structure:cfg.Config.memtable_structure)
        | Manifest.Remove_bucket { id } -> Hashtbl.remove buckets id
        | Manifest.Add_table
            { bucket; level; name; size; entry_count; smallest; largest } ->
          in_bucket bucket (fun b ->
              let meta = { Table.name; size; entry_count; smallest; largest } in
              b.levels.(level) <- meta :: b.levels.(level))
        | Manifest.Remove_table { bucket; level; name } ->
          in_bucket bucket (fun b ->
              b.levels.(level) <-
                List.filter
                  (fun (m : Table.meta) -> not (String.equal m.Table.name name))
                  b.levels.(level))
        | Manifest.Watermark _ -> ());
    t.buckets <-
      Hashtbl.fold (fun _ b acc -> b :: acc) buckets []
      |> List.sort (fun a b -> String.compare a.lo b.lo)
      |> Array.of_list;
    t.next_bucket_id <- !max_bucket_id + 1;
    (* A crash before the very first manifest sync replays to zero buckets;
       bootstrap again so the WAL replay below has somewhere to land. *)
    if Array.length t.buckets = 0 then bootstrap_buckets t;
    (* Replay the WAL into MemTables; duplicates of already-persisted items
       carry their original (smaller or equal) sequence numbers, so reads
       stay correct and the next flush simply rewrites them. *)
    t.seq <-
      Table_set.recover_wal t.ts ~seq:t.seq ~live:(fun () -> all_tables t)
        (fun (r : Wal.record) ->
          let ikey = Ikey.make ~kind:r.Wal.kind r.Wal.key ~seq:r.Wal.seq in
          let bucket = bucket_for t r.Wal.key in
          if not (Memtable.try_add bucket.memtable ikey r.Wal.value) then begin
            flush_bucket t bucket;
            ignore (Memtable.try_add bucket.memtable ikey r.Wal.value)
          end);
    t
  end

let checkpoint t = Table_set.checkpoint t.ts ~seq:t.seq

(* ------------------------------------------------------------------ *)
(* Resilient write path: admission control here; degraded state and
   quarantine in the table set. *)

let health t = Table_set.health t.ts

let quarantined_tables t = Table_set.quarantined t.ts

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
      let ns = int_of_float ((Unix.gettimeofday () -. started) *. 1e9) in
      Io_stats.(add_many (io_stats t) [ (stalls, 1); (stall_time, ns) ]);
      result
    end
  end

let try_write_batches t batches =
  Table_set.try_write_batches t.ts
    ~admit:(fun () -> admit t)
    (write_batches_inner t) batches

let try_write_batch t items = try_write_batches t [ items ]

let write_batch t items = Table_set.ok_or_raise (try_write_batch t items)

let put t ~key ~value = write_batch t [ (Ikey.Value, key, value) ]

let delete t ~key = write_batch t [ (Ikey.Deletion, key, "") ]

(* Maintenance entry points get the same degraded-state discipline as
   writes. (Internal callers — admission, WAL enforcement — use the
   unguarded versions above; the guard at the public boundary sees their
   faults when they propagate.) *)
let flush t = Table_set.guard_durable t.ts (fun () -> flush t)

(* WAL-only durability barrier: the group-commit leader calls this once per
   batch window after [try_write_batches]. A durable failure here must not
   let the caller ack, hence the raising guard. *)
let log_sync t = Table_set.log_sync t.ts

let maintenance t ?budget_bytes () =
  Table_set.guard_durable t.ts (fun () -> maintenance t ?budget_bytes ())

let probe t = Table_set.probe t.ts ~seq:t.seq

(* Quarantine drops a corrupt table from its level, with the manifest edit,
   so recovery agrees; serving continues from the remaining runs. *)
let drop_quarantined t file =
  let found = ref false in
  Array.iter
    (fun b ->
      Array.iteri
        (fun level tables ->
          if not !found then
            match Table_set.take ~file tables with
            | Some (meta, rest) ->
              found := true;
              b.levels.(level) <- rest;
              Table_set.log_remove t.ts ~bucket:b.id ~level meta;
              invalidate_view b
            | None -> ())
        b.levels)
    t.buckets;
  !found

let get t key =
  Table_set.with_quarantine t.ts ~drop:(drop_quarantined t) (fun () ->
      get_at_seq t key ~snapshot:t.seq)

let scan t ~lo ~hi ?limit () =
  Table_set.with_quarantine t.ts ~drop:(drop_quarantined t) (fun () ->
      scan_at_seq t ~lo ~hi ?limit ~snapshot:t.seq ())

let get_at t key ~snapshot =
  Table_set.with_quarantine t.ts ~drop:(drop_quarantined t) (fun () ->
      get_at_seq t key ~snapshot:snapshot.Intf.snap_seq)

let scan_at t ~lo ~hi ?limit ~snapshot () =
  Table_set.with_quarantine t.ts ~drop:(drop_quarantined t) (fun () ->
      scan_at_seq t ~lo ~hi ?limit ~snapshot:snapshot.Intf.snap_seq ())

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

let file_sizes t = List.map (fun (m : Table.meta) -> m.Table.size) (all_tables t)

let live_table_files t =
  List.map (fun (m : Table.meta) -> m.Table.name) (all_tables t)

let memtable_probes t =
  Array.fold_left (fun acc b -> acc + Memtable.probes b.memtable) 0 t.buckets
