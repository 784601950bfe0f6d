module Ikey = Wip_util.Ikey
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Table = Wip_sstable.Table
module Memtable = Wip_memtable.Memtable
module Wal = Wip_wal.Wal
module Manifest = Wip_manifest.Manifest
module Intf = Wip_kv.Store_intf
module Table_set = Wip_kv.Table_set
module Core = Wip_lsm.Lsm_engine

(* WipDB as a policy over the partitioned core: a partition is a bucket,
   and below L0 a bucket keeps a miniature tiered LSM-tree. *)

(* Levels 1 .. l_max - 1 of a bucket, sublevels newest first; index 0
   stays empty (the core holds L0). *)
type layout = {
  levels : Table.meta list array;
  mutable next_structure : Memtable.structure; (* guarded_by: caller *)
}

type state = {
  mutable splits : int; (* guarded_by: caller *)
  mutable io_credit : int; (* guarded_by: caller *)
      (* accumulated background-compaction allowance (bytes); see
         Config.compaction_budget_per_batch *)
}

type store = (Config.t, state, layout) Core.engine

type bucket = layout Core.part

let sublevels (b : bucket) level =
  if level = 0 then b.Core.l0 else b.Core.layout.levels.(level)

let set_sublevels (b : bucket) level tables =
  if level = 0 then b.Core.l0 <- tables
  else b.Core.layout.levels.(level) <- tables

let bucket_tables (b : bucket) =
  b.Core.l0 @ List.concat (Array.to_list b.Core.layout.levels)

let entry_count tables =
  List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.entry_count) 0 tables

let bucket_bytes b =
  List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.size) 0
    (bucket_tables b)

let fresh_memtable (cfg : Config.t) structure =
  Memtable.create ~structure ~capacity_items:cfg.Config.memtable_items
    ~capacity_bytes:cfg.Config.memtable_bytes

(* A new, empty bucket (with a fresh id unless given one); the caller logs
   [Add_bucket]. *)
let new_bucket ?id (t : store) ~lo ~structure =
  Core.new_part ?id t ~lo
    ~mem:(fresh_memtable t.Core.cfg structure)
    ~layout:
      {
        levels = Array.make t.Core.cfg.Config.l_max [];
        next_structure = structure;
      }

let add_bucket_edit (b : bucket) =
  Manifest.Add_bucket { id = b.Core.id; lo = b.Core.lo }

(* The retirement of [b]: every table, then the bucket itself. *)
let retire_edits (b : bucket) =
  List.concat
    (List.init (Array.length b.Core.layout.levels) (fun level ->
         List.map
           (Table_set.remove_edit ~bucket:b.Core.id ~level)
           (sublevels b level)))
  @ [ Manifest.Remove_bucket { id = b.Core.id } ]

(* ------------------------------------------------------------------ *)
(* Flush, with the adaptive MemTable structure (§III-D): heavy range-query
   traffic since the last flush switches the next table to the sorted
   structure; quiet buckets switch back to the hash structure. *)

let next_memtable (t : store) (b : bucket) =
  let cfg = t.Core.cfg in
  if cfg.Config.adaptive_memtable then
    b.Core.layout.next_structure <-
      (if b.Core.range_queries >= cfg.Config.range_query_switch_threshold then
         Memtable.Sorted
       else cfg.Config.memtable_structure);
  fresh_memtable cfg b.Core.layout.next_structure

let flush t b = Core.flush t b ~next:(next_memtable t) ~watermark:false

(* ------------------------------------------------------------------ *)
(* Compaction: merge ALL sublevels of level i into ONE sublevel of i+1.
   Nothing in level i+1 is rewritten — write amplification 1 per level. *)

(* Merge every sublevel of [level] into one table at level [into]: the next
   level, or [level] itself when the last level collapses. Tombstones die
   only in a collapse: the last level is the deepest data, so a tombstone
   there can only shadow versions inside this very merge. *)
let merge_level (t : store) b level ~into =
  let ts = t.Core.ts in
  let inputs = sublevels b level in
  b.Core.view <- None;
  let entries =
    Table_set.compaction ts
      ~category:(fun _ -> Io_stats.Compaction_read level)
      ~drop_tombstones:(into = level) inputs
  in
  let outputs =
    Table_set.write_runs ts ~category:(Io_stats.Compaction into)
      ~expected_keys:(max 64 (entry_count inputs)) entries
  in
  set_sublevels b level [];
  set_sublevels b into (outputs @ sublevels b into);
  b.Core.read_counts.(level) <- 0;
  t.Core.compactions <- t.Core.compactions + 1;
  Core.install ts ~retired:inputs
    (List.map (Table_set.add_edit ~bucket:b.Core.id ~level:into) outputs
    @ List.map (Table_set.remove_edit ~bucket:b.Core.id ~level) inputs)

let last_level (t : store) = t.Core.cfg.Config.l_max - 1

let compact_level t b level =
  if sublevels b level <> [] && level < last_level t then
    merge_level t b level ~into:(level + 1)

(* Collapse the last level's sublevels into one — the escape valve for a
   bucket that must shed sublevels but cannot split (e.g. it holds a single
   hot key, so sample-sort finds no splitter). *)
let collapse_last_level t b =
  let level = last_level t in
  if List.length (sublevels b level) > 1 then merge_level t b level ~into:level

(* ------------------------------------------------------------------ *)
(* Bucket split and merge (§III-E): changes to the partition set. *)

(* The whole history of a key range as one stream, for a split or merge:
   tombstones die here because nothing older exists. *)
let merge_all (t : store) tables =
  Table_set.compaction t.Core.ts ~category:(fun _ -> Io_stats.Split)
    ~drop_tombstones:true tables

(* Sample-sort splitter selection: every sublevel contributes N-1 keys, one
   every (entry_count / N)-th entry of a full pass over its cursor; the
   sorted union is then itself evenly split N ways. Only the sampled keys
   become strings. *)
let choose_splitters (t : store) b =
  let n = t.Core.cfg.Config.split_fanout in
  let per_table (meta : Table.meta) =
    let stride = max 1 (meta.Table.entry_count / n) in
    let rec sample c i acc taken =
      if not (Table.Reader.Cursor.next c) then acc
      else if i mod stride = stride - 1 && taken < n - 1 then
        let blk = Table.Reader.Cursor.block c in
        let key =
          Ikey.user_key_of_encoded_bytes
            (Wip_sstable.Block.Cursor.key_bytes blk)
            ~len:(Wip_sstable.Block.Cursor.key_length blk)
        in
        sample c (i + 1) (key :: acc) (taken + 1)
      else sample c (i + 1) acc taken
    in
    if meta.Table.entry_count = 0 then []
    else sample (Table_set.cursor t.Core.ts ~category:Io_stats.Split meta) 0 [] 0
  in
  let all =
    List.concat_map per_table (bucket_tables b) |> List.sort_uniq String.compare
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
    |> List.filter (fun s -> String.compare s b.Core.lo > 0)
  end

let split_bucket (t : store) b =
  let splitters = choose_splitters t b in
  if splitters <> [] then begin
    t.Core.state.splits <- t.Core.state.splits + 1;
    let boundaries = b.Core.lo :: splitters in
    let tables = bucket_tables b in
    let entries = merge_all t tables in
    (* Cut the stream at each splitter: one output table per new bucket.
       Splitters are pre-encoded once so the per-entry comparison runs on
       raw bytes. *)
    let remaining =
      ref (List.map (fun s -> Ikey.encode_user s) (List.tl boundaries))
    in
    let outputs =
      Table_set.write_runs t.Core.ts ~category:Io_stats.Split
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
    (* The new buckets: each takes the output table whose range falls in
       its boundaries as its last level, and inherits the old MemTable's
       items that belong to it. *)
    let fresh =
      List.map
        (fun lo -> new_bucket t ~lo ~structure:b.Core.layout.next_structure)
        boundaries
    in
    let arr = Array.of_list fresh in
    let bucket_for key = arr.(Core.part_index arr key) in
    let lvl = last_level t in
    let placed =
      List.map
        (fun (meta : Table.meta) ->
          let nb = bucket_for meta.Table.smallest in
          set_sublevels nb lvl (meta :: sublevels nb lvl);
          Table_set.add_edit ~bucket:nb.Core.id ~level:lvl meta)
        outputs
    in
    Seq.iter
      (fun (k, v) ->
        let ik = Ikey.decode k in
        let nb = bucket_for ik.Ikey.user_key in
        nb.Core.mem <- Memtable.adopt nb.Core.mem ik v)
      (Memtable.entries b.Core.mem);
    Core.replace_parts t ~old:[ b ] ~fresh;
    Core.install t.Core.ts ~watermark:t.Core.seq ~retired:tables
      (List.map add_bucket_edit fresh @ placed @ retire_edits b)
  end

(* Adjacent tiny buckets collapse into one: both full-compacted into one
   table at the merged bucket's last level; MemTable items are re-added. *)
let merge_buckets (t : store) left right =
  let tables = bucket_tables left @ bucket_tables right in
  let entries = merge_all t tables in
  let merged =
    new_bucket t ~lo:left.Core.lo ~structure:left.Core.layout.next_structure
  in
  let lvl = last_level t in
  let outputs =
    Table_set.write_runs t.Core.ts ~category:Io_stats.Split
      ~expected_keys:(max 64 (entry_count tables)) entries
  in
  set_sublevels merged lvl outputs;
  List.iter
    (fun (b : bucket) ->
      Seq.iter
        (fun (k, v) ->
          merged.Core.mem <- Memtable.adopt merged.Core.mem (Ikey.decode k) v)
        (Memtable.entries b.Core.mem))
    [ left; right ];
  Core.replace_parts t ~old:[ left; right ] ~fresh:[ merged ];
  Core.install t.Core.ts ~retired:tables
    ((add_bucket_edit merged
     :: List.map (Table_set.add_edit ~bucket:merged.Core.id ~level:lvl) outputs)
    @ retire_edits left @ retire_edits right)

(* ------------------------------------------------------------------ *)
(* Read-aware compaction scheduling (§III-G) *)

type job = { j_bucket : bucket; j_level : int; j_priority : float }

let eligible_jobs (t : store) =
  let cfg = t.Core.cfg in
  let jobs = ref [] in
  Array.iter
    (fun (b : bucket) ->
      for level = 0 to cfg.Config.l_max - 2 do
        let subs = List.length (sublevels b level) in
        if subs >= cfg.Config.min_count then
          jobs := (b, level, subs, b.Core.read_counts.(level)) :: !jobs
      done)
    t.Core.parts;
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
let needs_split (t : store) b =
  bucket_bytes b >= Config.effective_bucket_capacity t.Core.cfg
  || List.length (sublevels b (last_level t)) >= t.Core.cfg.Config.max_count

(* Advisory pending-work estimate for the compaction pool's shard scheduler
   (Store_intf contract: read without the shard lock, so this must tolerate
   concurrent mutation and write nothing). Counts the bytes a split would
   rewrite plus the input bytes of every compaction-eligible level. *)
let pending (t : store) =
  let pending = ref 0 in
  Array.iter
    (fun b ->
      if needs_split t b then pending := !pending + bucket_bytes b;
      for level = 0 to t.Core.cfg.Config.l_max - 2 do
        let subs = sublevels b level in
        if List.length subs >= t.Core.cfg.Config.min_count then
          pending :=
            !pending
            + List.fold_left
                (fun acc (m : Table.meta) -> acc + m.Table.size)
                0 subs
      done)
    t.Core.parts;
  !pending

let mandatory_work (t : store) =
  (* Splits and over-limit levels run regardless of budget. *)
  let max_count = t.Core.cfg.Config.max_count in
  let progress = ref false in
  Array.iter
    (fun b ->
      if needs_split t b then begin
        let splits_before = t.Core.state.splits in
        split_bucket t b;
        if t.Core.state.splits > splits_before then progress := true
        else if List.length (sublevels b (last_level t)) >= max_count then begin
          collapse_last_level t b;
          progress := true
        end
        (* else: over byte capacity but unsplittable and within sublevel
           limits — nothing to do until the key population diversifies. *)
      end)
    (Array.copy t.Core.parts);
  Array.iter
    (fun b ->
      for level = 0 to t.Core.cfg.Config.l_max - 2 do
        if List.length (sublevels b level) >= max_count then begin
          compact_level t b level;
          progress := true
        end
      done)
    t.Core.parts;
  !progress

(* Run the highest-priority eligible compaction, if any: its device
   bytes. *)
let compact_next (t : store) =
  match eligible_jobs t with
  | [] -> None
  | job :: _ ->
    let stats = Table_set.stats t.Core.ts in
    let before = Io_stats.bytes_written stats in
    compact_level t job.j_bucket job.j_level;
    Some (Io_stats.bytes_written stats - before)

let maintenance (t : store) ~budget =
  let rec loop budget =
    while mandatory_work t do
      ()
    done;
    if budget > 0 then
      Option.iter (fun bytes -> loop (budget - bytes)) (compact_next t)
  in
  loop budget;
  (* Opportunistic merge of adjacent tiny buckets. *)
  let rec find i =
    let parts = t.Core.parts in
    if i + 1 < Array.length parts then begin
      let a = parts.(i) and b = parts.(i + 1) in
      if
        bucket_bytes a + bucket_bytes b <= t.Core.cfg.Config.bucket_merge_bytes
        && Memtable.count a.Core.mem + Memtable.count b.Core.mem
           < t.Core.cfg.Config.memtable_items
        && Array.length parts > t.Core.cfg.Config.initial_buckets
      then merge_buckets t a b
      else find (i + 1)
    end
  in
  find 0

(* Memtable bytes plus estimated compaction debt: the quantity the
   watermarks gate on, and the quantity [bench/stall.ml] asserts stays
   bounded when admission control is on. *)
let write_pressure (t : store) =
  Array.fold_left
    (fun acc b -> acc + Memtable.byte_size b.Core.mem)
    0 t.Core.parts
  + pending t

(* ------------------------------------------------------------------ *)
(* The policy the core runs: setup and recovery, the write path's
   decisions and admission. *)

module Policy = struct
  type config = Config.t

  type nonrec state = state

  type nonrec layout = layout

  type t = store

  let name (cfg : config) = cfg.Config.name

  let levels (cfg : config) = cfg.Config.l_max

  let open_tables (cfg : config) ~reopen env =
    Table_set.create ~reopen env ~name:cfg.Config.name ~suffix:".lvt"
      ~wal_segment_bytes:cfg.Config.wal_segment_bytes
      ~cache_bytes:cfg.Config.block_cache_bytes
      ~bits_per_key:cfg.Config.bits_per_key ~ph_index:cfg.Config.ph_index
      ~sorted_view:cfg.Config.sorted_view ()

  let state _ = { splits = 0; io_credit = 0 }

  let init _ = ()

  (* Initial bucket boundaries: evenly spaced over the numeric key space (a
     single bucket when initial_buckets = 1, the paper's cold start). Also
     used by recovery when the manifest replays to zero buckets. *)
  let bootstrap (t : store) =
    let cfg = t.Core.cfg in
    let fresh =
      List.map
        (fun lo -> new_bucket t ~lo ~structure:cfg.Config.memtable_structure)
        (Config.shard_boundaries cfg ~shards:cfg.Config.initial_buckets)
    in
    t.Core.parts <- Array.of_list fresh;
    Core.install t.Core.ts (List.map add_bucket_edit fresh)

  let in_bucket (t : store) id f =
    Option.iter f (Array.find_opt (fun (b : bucket) -> b.Core.id = id) t.Core.parts)

  (* Manifest replay rebuilds the bucket directory (the core sorts it
     afterwards). *)
  let replay (t : store) = function
    | Manifest.Add_bucket { id; lo } ->
      let b =
        new_bucket ~id t ~lo ~structure:t.Core.cfg.Config.memtable_structure
      in
      t.Core.parts <- Array.append t.Core.parts [| b |]
    | Manifest.Remove_bucket { id } ->
      t.Core.parts <-
        Array.of_list
          (List.filter
             (fun (b : bucket) -> b.Core.id <> id)
             (Array.to_list t.Core.parts))
    | Manifest.Add_table
        { bucket; level; name; size; entry_count; smallest; largest } ->
      in_bucket t bucket (fun b ->
          let meta = { Table.name; size; entry_count; smallest; largest } in
          set_sublevels b level (meta :: sublevels b level))
    | Manifest.Remove_table { bucket; level; name } ->
      in_bucket t bucket (fun b ->
          set_sublevels b level
            (Table_set.without ~file:name (sublevels b level)))
    | Manifest.Watermark _ -> ()

  let tables lay = List.concat (Array.to_list lay.levels)

  (* Sublevels overlap: every one is a candidate. *)
  let candidates lay ~level _ = lay.levels.(level)

  let take (b : bucket) ~file =
    Option.map
      (fun (level, meta) -> Table_set.remove_edit ~bucket:b.Core.id ~level meta)
      (Core.take_below_l0 b.Core.layout.levels ~file)

  let observe_key _ _ = ()

  (* A fresh table always has room for one item. *)
  let add (t : store) b ikey value =
    if not (Memtable.try_add b.Core.mem ikey value) then begin
      flush t b;
      let ok = Memtable.try_add b.Core.mem ikey value in
      assert ok
    end

  (* §III-F: when the log exceeds its threshold, flush the MemTable holding
     the oldest unpersisted item so the tail can advance. *)
  let enforce_wal_threshold (t : store) =
    let threshold = t.Core.cfg.Config.wal_size_threshold in
    let guard = ref 0 in
    while Wal.total_bytes (Table_set.wal t.Core.ts) > threshold && !guard < 1024 do
      incr guard;
      let oldest = ref None in
      Array.iter
        (fun b ->
          match Memtable.min_seq b.Core.mem with
          | Some s -> (
            match !oldest with
            | Some (s', _) when Int64.compare s' s <= 0 -> ()
            | _ -> oldest := Some (s, b))
          | None -> ())
        t.Core.parts;
      match !oldest with
      | Some (_, b) -> flush t b
      | None ->
        Table_set.sync_manifest t.Core.ts;
        Core.reclaim_wal t;
        guard := 1024
    done

  (* After each commit unit: splits and over-limit compactions always run;
     eligible compactions draw on an allowance that accrues per batch,
     modeling the background bandwidth compaction threads would share with
     the foreground. An unconfigured budget (max_int) means eager
     compaction. *)
  let committed (t : store) =
    enforce_wal_threshold t;
    let per_batch = t.Core.cfg.Config.compaction_budget_per_batch in
    if per_batch = max_int then maintenance t ~budget:max_int
    else begin
      let st = t.Core.state in
      st.io_credit <- min (st.io_credit + per_batch) (256 * 1024 * 1024);
      while mandatory_work t do
        ()
      done;
      let rec drain () =
        if st.io_credit > 0 then
          Option.iter
            (fun bytes ->
              st.io_credit <- st.io_credit - bytes;
              drain ())
            (compact_next t)
      in
      drain ()
    end

  (* Write admission. This engine runs all maintenance on the writing thread
     — there is no background pool at this layer — so a stall is not a sleep
     but a debt payment: the stalled writer flushes and compacts until the
     pressure drops below the stop watermark or the deadline passes. The
     slowdown band pays one bounded slice and admits; the sharded front end
     layers real (pool-drained) waits on top of this. *)
  let admit (t : store) =
    let cfg = t.Core.cfg in
    if not cfg.Config.admission_control then Ok ()
    else begin
      let stop = cfg.Config.stop_watermark_bytes in
      if write_pressure t < cfg.Config.slowdown_watermark_bytes then Ok ()
      else begin
        let started = Unix.gettimeofday () in
        let deadline = started +. cfg.Config.stall_deadline_s in
        let pay_slice () =
          if pending t > 0 then maintenance t ~budget:cfg.Config.memtable_bytes
          else begin
            (* All pressure is MemTable bytes: flush the fullest one. *)
            let fullest = ref None in
            Array.iter
              (fun b ->
                let sz = Memtable.byte_size b.Core.mem in
                if sz > 0 then
                  match !fullest with
                  | Some (sz', _) when sz' >= sz -> ()
                  | _ -> fullest := Some (sz, b))
              t.Core.parts;
            match !fullest with Some (_, b) -> flush t b | None -> ()
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
        Io_stats.(
          add_many (Table_set.stats t.Core.ts) [ (stalls, 1); (stall_time, ns) ]);
        result
      end
    end

  let flush = flush

  let maintenance = maintenance

  let pending = pending

  let finish_replay _ = ()
end

include Core.Make (Policy)

type config = Config.t

let validated cfg =
  match Config.validate cfg with
  | Ok () -> cfg
  | Error msg -> invalid_arg ("Wipdb.create: " ^ msg)

let create ?env cfg = create ?env (validated cfg)

let recover ?env cfg = recover ?env (validated cfg)

let split_count (t : store) = t.Core.state.splits

let bucket_count (t : store) = Array.length t.Core.parts

(* ------------------------------------------------------------------ *)
(* Introspection *)

type bucket_info = {
  lo : string;
  memtable_items : int;
  memtable_structure : Memtable.structure;
  sublevels_per_level : int list;
  bytes : int;
}

let bucket_infos (t : store) =
  Array.to_list t.Core.parts
  |> List.map (fun (b : bucket) ->
         {
           lo = b.Core.lo;
           memtable_items = Memtable.count b.Core.mem;
           memtable_structure = Memtable.structure b.Core.mem;
           sublevels_per_level =
             List.init (Array.length b.Core.layout.levels) (fun level ->
                 List.length (sublevels b level));
           bytes = bucket_bytes b;
         })
