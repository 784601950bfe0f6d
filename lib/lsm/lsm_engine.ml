(* The partitioned engine core all three engines run on (paper §II, §III).

   WipDB and the leveled (LevelDB/RocksDB-like) and fragmented
   (PebblesDB-like) baselines differ only in how they organize and compact
   their tables, so one core owns everything else. A store is an ordered
   array of partitions, each a key range with its own memtable, its
   newest-first level-0 runs, the policy's layout below L0, a sorted view
   and read counts. WipDB's buckets are partitions; a baseline is one
   partition with lower bound "".

   The core owns, once for every engine: the flush (WAL sync first, the
   memtable written as L0 runs, view extension, manifest, WAL reclaim),
   the install of a structural change (its edit list logged in order,
   synced, inputs retired), the write path up to the memtable, the point
   read down the levels, the range reader over the partitions, the
   quarantine drop and the recovery skeleton. A [POLICY] supplies the
   layout below L0 and every decision: when a memtable flushes, what runs
   after a commit, maintenance, admission, and how manifest edits replay.
   [Single] turns a baseline's layout into such a policy. *)

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
type 'layout part = {
  id : int; (* the manifest's bucket id *)
  lo : string; (* inclusive lower key bound *)
  mutable mem : Memtable.t; (* guarded_by: caller *)
  mutable l0 : Table.meta list; (* newest first; guarded_by: caller *)
  layout : 'layout; (* the tables below L0 *)
  read_counts : int array; (* per level: tables that passed the bloom *)
  mutable range_queries : int; (* since the last flush; guarded_by: caller *)
  (* REMIX-style sorted view over the partition's run set, with the exact
     run array it was built against (the view names runs by index). Built
     lazily by the first scan that finds enough runs, extended at flush,
     dropped at every other run-set change. A walk in flight under a
     pinned snapshot keeps reading its captured runs through the zombie
     registry even after the field here is dropped. *)
  mutable view : (Sorted_view.t * Table.meta array) option; (* guarded_by: caller *)
}

type ('config, 'state, 'layout) engine = {
  cfg : 'config;
  state : 'state; (* the policy's store-wide state *)
  ts : Table_set.t;
  levels : int; (* per partition: L0 and the levels below it *)
  mutable parts : 'layout part array; (* sorted by lo; guarded_by: caller *)
  mutable next_id : int; (* guarded_by: caller *)
  mutable seq : int64; (* guarded_by: caller *)
  mutable compactions : int; (* guarded_by: caller *)
}

(* A new partition, by default with the next free id; the caller logs it.
   Ids are never reused: the next free one stays past every id seen. *)
let new_part ?id t ~lo ~mem ~layout =
  let id = Option.value id ~default:t.next_id in
  t.next_id <- max t.next_id (id + 1);
  {
    id;
    lo;
    mem;
    l0 = [];
    layout;
    read_counts = Array.make t.levels 0;
    range_queries = 0;
    view = None;
  }

(* Index of the rightmost partition in [parts] whose lower bound <= key. *)
let part_index parts key =
  let rec bs lo hi =
    (* invariant: parts.(lo).lo <= key; parts.(hi).lo > key or hi = n *)
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare parts.(mid).lo key <= 0 then bs mid hi else bs lo mid
  in
  bs 0 (Array.length parts)

let part_for t key = t.parts.(part_index t.parts key)

(* Replace the partitions [old] by [fresh], keeping the set sorted. *)
let replace_parts t ~old ~fresh =
  t.parts <-
    Array.of_list
      (List.sort
         (fun a b -> String.compare a.lo b.lo)
         (fresh
         @ List.filter
             (fun p -> not (List.exists (fun o -> o.id = p.id) old))
             (Array.to_list t.parts)))

(* A structural change: log its edits in order (and a watermark at
   [watermark]), make them durable, and only then retire the tables it
   dropped — recovery sees the whole change or none of it, never a
   manifest naming deleted files. *)
let install ts ?watermark ?(retired = []) edits =
  List.iter (Table_set.log ts) edits;
  Option.iter (fun seq -> Table_set.log_watermark ts ~seq) watermark;
  Table_set.sync_manifest ts;
  List.iter (Table_set.retire ts) retired

(* Figure 5: WAL records below the smallest unpersisted sequence number
   across all memtables, or just past the newest write when every memtable
   is empty, are reclaimed. Callers make the manifest durable first:
   deleting a segment discards the only other copy of what its latest
   edits account for. *)
let reclaim_wal t =
  let bound =
    Array.fold_left
      (fun acc p ->
        match Memtable.min_seq p.mem with
        | Some s -> Int64.min acc s
        | None -> acc)
      (Int64.add t.seq 1L) t.parts
  in
  ignore (Wal.reclaim (Table_set.wal t.ts) ~persisted_below:bound)

(* Flush (minor compaction): the memtable becomes L0 runs and [next part]
   replaces it, with a watermark when the policy logs one per flush. *)
let flush t part ~next ~watermark =
  if not (Memtable.is_empty part.mem) then begin
    (* A batch can span partitions and a memtable fills mid-batch, so this
       flush may persist part of a batch whose WAL record is still
       buffered; sync the log first so a crash after the flush replays the
       whole batch instead of applying half. *)
    Wal.sync (Table_set.wal t.ts);
    let runs =
      Table_set.write_runs t.ts ~category:Io_stats.Flush
        ~expected_keys:(Memtable.count part.mem)
        (Merge.create [ Merge.mem (Memtable.entries part.mem) ])
    in
    List.iter
      (fun meta ->
        part.l0 <- meta :: part.l0;
        part.view <- Table_set.extend_view t.ts part.view meta)
      runs;
    part.mem <- next part;
    part.range_queries <- 0;
    install t.ts
      ?watermark:(if watermark then Some t.seq else None)
      (List.map (Table_set.add_edit ~bucket:part.id ~level:0) runs);
    reclaim_wal t
  end

(* Remove the table named [file] from level 1 or deeper of [levels], with
   its level. *)
let take_below_l0 levels ~file =
  let rec find level =
    if level >= Array.length levels then None
    else
      match Table_set.take ~file levels.(level) with
      | Some (meta, rest) ->
        levels.(level) <- rest;
        Some (level, meta)
      | None -> find (level + 1)
  in
  find 1

module type POLICY = sig
  type config

  (* Store-wide policy state. *)
  type state

  (* One partition's tables below L0. Mutable; the caller serializes
     every access, as it does the core's. *)
  type layout

  type t = (config, state, layout) engine

  val name : config -> string

  (* L0 plus the levels below it, per partition. *)
  val levels : config -> int

  val open_tables : config -> reopen:bool -> Env.t -> Table_set.t

  val state : config -> state

  (* Any partitions that exist before the manifest replays; none are
     logged. *)
  val init : t -> unit

  (* Give a store without partitions, fresh or replayed to none, its
     first ones, logged. *)
  val bootstrap : t -> unit

  (* Every table below L0, shallowest level first. *)
  val tables : layout -> Table.meta list

  (* The tables at [level] >= 1 a point read probes for a key, newest
     first; the read stops at the first that holds a version. *)
  val candidates : layout -> level:int -> string -> Table.meta list

  (* Remove the table named [file] from below L0; its removal edit. *)
  val take : layout part -> file:string -> Manifest.edit option

  (* Sees every written key, live and in WAL replay. *)
  val observe_key : layout -> string -> unit

  (* Put an item into the partition's memtable, flushing when the policy's
     trigger says so. *)
  val add : t -> layout part -> Ikey.t -> string -> unit

  (* After a commit unit's items are all in memtables. *)
  val committed : t -> unit

  (* Engine-level write admission. *)
  val admit : t -> (unit, Intf.write_error) result

  val flush : t -> layout part -> unit

  (* Background work, spending at most about [budget] device bytes
     ([max_int]: to quiescence). *)
  val maintenance : t -> budget:int -> unit

  (* [maintenance_pending]: must tolerate concurrent mutation and write
     nothing. *)
  val pending : t -> int

  (* One manifest edit, in log order. *)
  val replay : t -> Manifest.edit -> unit

  (* Once the manifest and the WAL are replayed: finish, and log, any
     change a torn manifest tail cut short. *)
  val finish_replay : t -> unit
end

module Make (P : POLICY) = struct
  type t = P.t

  let make ~reopen env cfg =
    let t =
      {
        cfg;
        state = P.state cfg;
        ts = P.open_tables cfg ~reopen env;
        levels = P.levels cfg;
        parts = [||];
        next_id = 0;
        seq = 0L;
        compactions = 0;
      }
    in
    P.init t;
    t

  let create ?env cfg =
    let env = match env with Some e -> e | None -> Env.in_memory () in
    let t = make ~reopen:false env cfg in
    if Array.length t.parts = 0 then P.bootstrap t;
    t

  let config t = t.cfg

  let name t = P.name t.cfg

  let env t = Table_set.env t.ts

  let io_stats t = Table_set.stats t.ts

  let sequence t = t.seq

  let compaction_count t = t.compactions

  let wal_bytes t = Wal.total_bytes (Table_set.wal t.ts)

  let memtable_probes t =
    Array.fold_left (fun acc p -> acc + Memtable.probes p.mem) 0 t.parts

  let oldest_snapshot_seq t = Table_set.oldest_snapshot_seq t.ts

  let live_snapshot_count t = Table_set.live_snapshot_count t.ts

  let zombie_table_files t = Table_set.zombie_table_files t.ts

  let zombie_bytes t = Table_set.zombie_bytes t.ts

  let snapshot t = Table_set.snapshot t.ts ~seq:t.seq

  (* A partition's run set, L0 first. *)
  let part_tables p = p.l0 @ P.tables p.layout

  let all_tables t = Array.to_list t.parts |> List.concat_map part_tables

  let file_sizes t =
    List.map (fun (m : Table.meta) -> m.Table.size) (all_tables t)

  let live_table_files t =
    List.map (fun (m : Table.meta) -> m.Table.name) (all_tables t)

  let maintenance_pending t = P.pending t

  (* ---------------------------------------------------------------- *)
  (* Writing *)

  let apply t kind key value =
    let seq = Int64.add t.seq 1L in
    t.seq <- seq;
    Io_stats.record_write (io_stats t) Io_stats.User_write
      (String.length key + String.length value);
    let part = part_for t key in
    P.observe_key part.layout key;
    P.add t part (Ikey.make ~kind key ~seq) value

  (* Several logical batches as one commit unit: a single WAL append
     carrying one record per batch (the group-commit primitive), then
     every item applied. *)
  let write_batches t batches =
    Wal.append_batches (Table_set.wal t.ts) ~first_seq:(Int64.add t.seq 1L)
      batches;
    List.iter
      (List.iter (fun (kind, key, value) -> apply t kind key value))
      batches;
    P.committed t

  let try_write_batches t batches =
    Table_set.try_write_batches t.ts
      ~admit:(fun () -> P.admit t)
      (write_batches t) batches

  let try_write_batch t items = try_write_batches t [ items ]

  let write_batch t items = Table_set.ok_or_raise (try_write_batch t items)

  let put t ~key ~value = write_batch t [ (Ikey.Value, key, value) ]

  let delete t ~key = write_batch t [ (Ikey.Deletion, key, "") ]

  (* ---------------------------------------------------------------- *)
  (* Reading *)

  (* The newest version of [key] visible at [snapshot]: the owning
     partition's memtable, then each level's candidates newest first.
     Every table that passes the bloom is a real access, charged to the
     level's read count (§III-G). One seek target serves every probe: the
     bloom hashes its escaped-user prefix and the cursor seeks its full
     bytes, so the per-get allocation is this one string (plus the
     returned value). *)
  let get_seq t key ~snapshot =
    let part = part_for t key in
    let found =
      match Memtable.find_with_seq part.mem key ~snapshot with
      | Some _ as hit -> hit
      | None ->
        let target = Ikey.encode_seek key ~seq:snapshot in
        let rec probe level = function
          | [] -> None
          | (m : Table.meta) :: rest ->
            if not (Table.overlaps m ~lo:key ~hi:key) then probe level rest
            else begin
              let reader = Table_set.reader_of t.ts m in
              if not (Table.Reader.may_contain_encoded reader target) then
                probe level rest
              else begin
                part.read_counts.(level) <- part.read_counts.(level) + 1;
                match
                  Table.Reader.get_encoded reader ~category:Io_stats.Read_path
                    ~filter_checked:true target
                with
                | Some _ as hit -> hit
                | None -> probe level rest
              end
            end
        in
        let rec descend level =
          if level >= t.levels then None
          else
            let tables =
              if level = 0 then part.l0
              else P.candidates part.layout ~level key
            in
            match probe level tables with
            | Some _ as hit -> hit
            | None -> descend (level + 1)
        in
        descend 0
    in
    match found with
    | Some (Ikey.Value, v, _) -> Some v
    | Some (Ikey.Deletion, _, _) | None -> None

  let part_view t p =
    if Option.is_none p.view then
      p.view <- Table_set.build_view t.ts (part_tables p);
    p.view

  (* The range reader over the partitions from [lo]'s owner up to [hi].
     Partition key ranges are disjoint, so the partitions are its sources
     in order, each reached lazily — table handles, the memtable's sorted
     buffer (§III-D) and the view are captured then — and a read that
     stops early never touches later partitions' data blocks. A caller
     that must interleave the stream with writes pins a {!snapshot}
     first: tables retired by a concurrent compaction then stay readable
     (on every Env, POSIX included) until the snapshot releases. *)
  let range_reader t ~lo ~hi ?limit ~snapshot () =
    let parts = t.parts in
    (* The last partition's upper bound is unbounded — no sentinel
       string, so arbitrarily large user keys stay in scope. *)
    let rec sources i () =
      if i >= Array.length parts || String.compare parts.(i).lo hi >= 0 then
        Seq.Nil
      else begin
        let p = parts.(i) in
        p.range_queries <- p.range_queries + 1;
        (* Sorted view first: one selector-driven walk replaces the heap
           merge of the whole run set. Falls back to the heap when the
           flag is off, the partition has too few (or too many) runs, or
           the view was just dropped. *)
        let source =
          Range_reader.source ~reader:(Table_set.reader_of t.ts) ~lo ~hi
            ~mem:(Memtable.entries ~lo p.mem) (part_view t p)
            (fun () -> part_tables p)
        in
        Seq.Cons (source, sources (i + 1))
      end
    in
    Range_reader.create ~hi ~snapshot ?limit (sources (part_index parts lo))

  let iter_range t ?snapshot ~lo ~hi () =
    let snapshot =
      match snapshot with Some s -> s.Intf.snap_seq | None -> t.seq
    in
    Range_reader.to_seq (range_reader t ~lo ~hi ~snapshot ())

  let scan_seq t ~lo ~hi ?limit ~snapshot () =
    Range_reader.to_list (range_reader t ~lo ~hi ?limit ~snapshot ())

  (* A corrupt table leaves its partition, with the manifest edit, so
     recovery agrees; serving continues from the remaining runs. *)
  let drop_quarantined t file =
    let rec drop i =
      if i >= Array.length t.parts then false
      else begin
        let p = t.parts.(i) in
        let removed =
          match Table_set.take ~file p.l0 with
          | Some (meta, rest) ->
            p.l0 <- rest;
            Some (Table_set.remove_edit ~bucket:p.id ~level:0 meta)
          | None -> P.take p ~file
        in
        match removed with
        | Some edit ->
          Table_set.log t.ts edit;
          p.view <- None;
          true
        | None -> drop (i + 1)
      end
    in
    drop 0

  let reading t f = Table_set.with_quarantine t.ts ~drop:(drop_quarantined t) f

  let get t key = reading t (fun () -> get_seq t key ~snapshot:t.seq)

  let get_at t key ~snapshot =
    reading t (fun () -> get_seq t key ~snapshot:snapshot.Intf.snap_seq)

  let scan t ~lo ~hi ?limit () =
    reading t (fun () -> scan_seq t ~lo ~hi ?limit ~snapshot:t.seq ())

  let scan_at t ~lo ~hi ?limit ~snapshot () =
    reading t (fun () ->
        scan_seq t ~lo ~hi ?limit ~snapshot:snapshot.Intf.snap_seq ())

  (* ---------------------------------------------------------------- *)
  (* Recovery *)

  let recover ?env cfg =
    let env = match env with Some e -> e | None -> Env.in_memory () in
    if not (Table_set.exists env ~name:(P.name cfg)) then create ~env cfg
    else begin
      let t = make ~reopen:true env cfg in
      t.seq <- Table_set.replay_manifest t.ts (P.replay t);
      t.parts <-
        Array.of_list
          (List.sort
             (fun a b -> String.compare a.lo b.lo)
             (Array.to_list t.parts));
      (* A crash before the very first manifest sync replays to no
         partitions; bootstrap again so the WAL replay has somewhere to
         land. *)
      if Array.length t.parts = 0 then P.bootstrap t;
      (* Duplicates of already-persisted items carry their original
         sequence numbers, so reads stay correct and the next flush
         simply rewrites them. *)
      t.seq <-
        Table_set.recover_wal t.ts ~seq:t.seq ~live:(fun () -> all_tables t)
          (fun (r : Wal.record) ->
            let part = part_for t r.Wal.key in
            P.observe_key part.layout r.Wal.key;
            let ikey = Ikey.make ~kind:r.Wal.kind r.Wal.key ~seq:r.Wal.seq in
            if not (Memtable.try_add part.mem ikey r.Wal.value) then begin
              P.flush t part;
              ignore (Memtable.try_add part.mem ikey r.Wal.value)
            end);
      P.finish_replay t;
      t
    end

  (* ---------------------------------------------------------------- *)
  (* Durability and failure model. Maintenance entry points get the same
     degraded-state discipline as writes; the policy's internal callers
     use the unguarded versions, and the guard at the public boundary
     sees their faults when they propagate. *)

  let flush t =
    Table_set.guard_durable t.ts (fun () -> Array.iter (P.flush t) t.parts)

  let maintenance t ?(budget_bytes = max_int) () =
    Table_set.guard_durable t.ts (fun () -> P.maintenance t ~budget:budget_bytes)

  let checkpoint t = Table_set.checkpoint t.ts ~seq:t.seq

  (* WAL-only durability barrier: the group-commit leader calls this once
     per batch window after [try_write_batches]. *)
  let log_sync t = Table_set.log_sync t.ts

  let health t = Table_set.health t.ts

  let probe t = Table_set.probe t.ts ~seq:t.seq

  let quarantined_tables t = Table_set.quarantined t.ts
end

(* ------------------------------------------------------------------ *)
(* The baselines: one partition, lower bound "", that no manifest edit
   names, behind a skiplist memtable flushed once it reaches
   [memtable_bytes]. Every flush and compaction logs a watermark, and
   maintenance runs eagerly after each flush. A [LAYOUT] supplies the
   tables below L0 and every compaction decision about them. *)

(* What a baseline's config sets for the core. *)
type settings = {
  name : string;
  memtable_bytes : int;
  max_levels : int; (* L0 plus the layout's levels 1 .. max_levels - 1 *)
  bits_per_key : int;
  ph_index : bool;
  sorted_view : bool;
}

module type LAYOUT = sig
  type config

  type layout

  (* One compaction [pick] chose. *)
  type job

  val settings : config -> settings

  val create : config -> layout

  (* The manifest [bucket] field of a table at [level]. *)
  val bucket : level:int -> int

  val tables : layout -> Table.meta list

  val candidates : layout -> level:int -> string -> Table.meta list

  val observe_key : layout -> string -> unit

  (* The compaction to run next, if any is due. *)
  val pick : layout -> l0:Table.meta list -> job option

  val pending : layout -> l0:Table.meta list -> int

  (* Run [job]: merge its inputs, write the outputs and place them, and
     take the inputs out of the layout below L0. A job reading L0 takes
     all of [l0]. Returns the outputs' edits, in log order, and the inputs
     with their levels; the core logs their removal and retires them. *)
  val compact :
    Table_set.t -> layout -> l0:Table.meta list -> job ->
    Manifest.edit list * (int * Table.meta) list

  (* Remove the table named [file] from below L0, with its level. *)
  val take : layout -> file:string -> (int * Table.meta) option

  (* One manifest edit that does not name L0, in log order. *)
  val replay : layout -> Manifest.edit -> unit

  val finish_replay : Table_set.t -> layout -> unit
end

module Single (L : LAYOUT) = struct
  type config = L.config

  type state = settings

  type layout = L.layout

  type t = (config, state, layout) engine

  let name cfg = (L.settings cfg).name

  let levels cfg = (L.settings cfg).max_levels

  let open_tables cfg ~reopen env =
    let s = L.settings cfg in
    Table_set.create ~reopen env ~name:s.name ~suffix:".sst"
      ~bits_per_key:s.bits_per_key ~ph_index:s.ph_index
      ~sorted_view:s.sorted_view ()

  let state = L.settings

  (* The memtable never refuses an item: the flush trigger is its size. *)
  let memtable () =
    Memtable.create ~structure:Memtable.Sorted ~capacity_items:max_int
      ~capacity_bytes:max_int

  let init t =
    t.parts <-
      [| new_part t ~lo:"" ~mem:(memtable ()) ~layout:(L.create t.cfg) |]

  let bootstrap _ = ()

  let tables = L.tables

  let candidates = L.candidates

  let take p ~file =
    Option.map
      (fun (level, meta) ->
        Table_set.remove_edit ~bucket:(L.bucket ~level) ~level meta)
      (L.take p.layout ~file)

  let observe_key = L.observe_key

  let flush t p = flush t p ~next:(fun _ -> memtable ()) ~watermark:true

  let compact t p job =
    (* Dropped before the job: a guard commit may retire tables mid-job. *)
    p.view <- None;
    let added, inputs = L.compact t.ts p.layout ~l0:p.l0 job in
    if inputs <> [] then begin
      t.compactions <- t.compactions + 1;
      if List.exists (fun (level, _) -> level = 0) inputs then p.l0 <- [];
      install t.ts ~watermark:t.seq ~retired:(List.map snd inputs)
        (added
        @ List.map
            (fun (level, m) ->
              Table_set.remove_edit ~bucket:(L.bucket ~level) ~level m)
            inputs)
    end

  let maintenance t ~budget =
    let p = t.parts.(0) in
    let budget = ref budget in
    let rec loop () =
      if !budget > 0 then
        match L.pick p.layout ~l0:p.l0 with
        | Some job ->
          let stats = Table_set.stats t.ts in
          let before = Io_stats.bytes_written stats in
          compact t p job;
          budget := !budget - (Io_stats.bytes_written stats - before);
          loop ()
        | None -> ()
    in
    loop ()

  let add t p ikey value =
    ignore (Memtable.try_add p.mem ikey value);
    if Memtable.byte_size p.mem >= t.state.memtable_bytes then begin
      flush t p;
      maintenance t ~budget:max_int
    end

  let committed _ = ()

  let admit _ = Ok ()

  let pending t =
    let p = t.parts.(0) in
    L.pending p.layout ~l0:p.l0

  let replay t edit =
    let p = t.parts.(0) in
    match edit with
    | Manifest.Add_table
        { level = 0; name; size; entry_count; smallest; largest; _ } ->
      p.l0 <- { Table.name; size; entry_count; smallest; largest } :: p.l0
    | Manifest.Remove_table { level = 0; name; _ } ->
      p.l0 <- Table_set.without ~file:name p.l0
    | edit -> L.replay p.layout edit

  let finish_replay t = L.finish_replay t.ts t.parts.(0).layout
end
