(* The single-memtable engine both baselines run on (paper §II).

   The leveled (LevelDB/RocksDB-like) and fragmented (PebblesDB-like)
   baselines differ only in how they organize and compact the tables below
   level 0, so one engine owns everything else: one skiplist memtable
   behind the WAL, flushes into a newest-first L0, the budgeted maintenance
   loop, the point read down the levels and the range scan, the compaction
   install (manifest edits, watermark, sync, retirement), quarantine of
   corrupt tables and the recovery skeleton. A [POLICY] supplies the layout
   below L0 and every decision about it. Leveled and Flsm seal the result
   behind their own interfaces. *)

module Ikey = Wip_util.Ikey
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Table = Wip_sstable.Table
module Merge = Wip_sstable.Merge
module Sorted_view = Wip_sstable.Sorted_view
module Range_reader = Wip_sstable.Range_reader
module Skiplist = Wip_memtable.Skiplist
module Wal = Wip_wal.Wal
module Manifest = Wip_manifest.Manifest
module Table_set = Wip_kv.Table_set

(* What the engine reads from a policy's config record. *)
type settings = {
  name : string;
  memtable_bytes : int;
  max_levels : int; (* L0 plus the policy's levels 1 .. max_levels - 1 *)
  bits_per_key : int;
  ph_index : bool;
  sorted_view : bool;
  sorted_view_min_runs : int;
}

module type POLICY = sig
  type config

  (* The tables below L0. Mutable; the caller serializes every access,
     as it does the engine's. *)
  type layout

  (* One compaction [pick] chose. *)
  type job

  val settings : config -> settings

  val create : config -> layout

  (* The manifest [bucket] field of a table at [level]. *)
  val bucket : level:int -> int

  (* Every table below L0, shallowest level first. *)
  val tables : layout -> Table.meta list

  (* The tables at [level] >= 1 a point read probes for a key, newest
     first; the read stops at the first that holds a version. *)
  val candidates : layout -> level:int -> string -> Table.meta list

  (* Sees every written key, live and in WAL replay. *)
  val observe_key : layout -> string -> unit

  (* The compaction to run next, if any is due. *)
  val pick : layout -> l0:Table.meta list -> job option

  (* [maintenance_pending]: must tolerate concurrent mutation and write
     nothing. *)
  val pending : layout -> l0:Table.meta list -> int

  (* Run [job]: merge its inputs, write the outputs, log their Add_tables
     and place them, and take the inputs out of the layout below L0. A job
     reading L0 takes all of [l0]. Returns the inputs with their levels;
     the engine logs their removal and retires them. *)
  val compact :
    Table_set.t -> layout -> l0:Table.meta list -> job -> (int * Table.meta) list

  (* Remove the table named [file] from below L0, with its level. *)
  val take : layout -> file:string -> (int * Table.meta) option

  (* One manifest edit that does not name L0, in log order. *)
  val replay : layout -> Manifest.edit -> unit

  (* Once the manifest and the WAL are replayed: finish, and log, any
     layout change a torn manifest tail cut short. *)
  val finish_replay : Table_set.t -> layout -> unit
end

module Make (P : POLICY) = struct
  type t = {
    cfg : P.config;
    s : settings;
    ts : Table_set.t;
    mutable mem : Skiplist.t; (* guarded_by: caller *)
    mutable l0 : Table.meta list; (* newest first; guarded_by: caller *)
    layout : P.layout;
    mutable seq : int64; (* guarded_by: caller *)
    mutable compactions : int; (* guarded_by: caller *)
    mutable view : (Sorted_view.t * Table.meta array) option; (* guarded_by: caller *)
        (* Store-wide sorted view over every live table; None when absent
           or invalidated. Scans build it lazily; compaction drops it. *)
  }

  let make ~reopen env cfg =
    let s = P.settings cfg in
    {
      cfg;
      s;
      ts =
        Table_set.create ~reopen env ~name:s.name ~suffix:".sst"
          ~bits_per_key:s.bits_per_key ~ph_index:s.ph_index
          ~sorted_view:s.sorted_view
          ~sorted_view_min_runs:s.sorted_view_min_runs ();
      mem = Skiplist.create ();
      l0 = [];
      layout = P.create cfg;
      seq = 0L;
      compactions = 0;
      view = None;
    }

  let create ?env cfg =
    make ~reopen:false (match env with Some e -> e | None -> Env.in_memory ()) cfg

  let config t = t.cfg

  let l0 t = t.l0

  let layout t = t.layout

  let name t = t.s.name

  let env t = Table_set.env t.ts

  let io_stats t = Table_set.stats t.ts

  let oldest_snapshot_seq t = Table_set.oldest_snapshot_seq t.ts

  let live_snapshot_count t = Table_set.live_snapshot_count t.ts

  let zombie_table_files t = Table_set.zombie_table_files t.ts

  let zombie_bytes t = Table_set.zombie_bytes t.ts

  let snapshot t = Table_set.snapshot t.ts ~seq:t.seq

  let compaction_count t = t.compactions

  (* The store has a single key space, so "the run set" of the sorted view
     (REMIX-style; see Sorted_view and DESIGN.md) is every live table:
     partitions below L0 do not change the merge. *)
  let all_tables t = t.l0 @ P.tables t.layout

  let store_view t =
    if Option.is_none t.view then
      t.view <- Table_set.build_view t.ts (all_tables t);
    t.view

  let file_sizes t =
    List.map (fun (m : Table.meta) -> m.Table.size) (all_tables t)

  let live_table_files t =
    List.map (fun (m : Table.meta) -> m.Table.name) (all_tables t)

  (* ---------------------------------------------------------------- *)
  (* Flush and compaction *)

  let flush_mem t =
    if Skiplist.count t.mem > 0 then begin
      (* A memtable fills mid-batch, so this flush may persist part of a
         batch whose WAL record is still buffered; sync the log first so a
         crash after the flush replays the whole batch instead of applying
         half. *)
      Wal.sync (Table_set.wal t.ts);
      List.iter
        (fun meta ->
          t.l0 <- meta :: t.l0;
          t.view <- Table_set.extend_view t.ts t.view meta;
          Table_set.log_add t.ts ~bucket:(P.bucket ~level:0) ~level:0 meta)
        (Table_set.write_runs t.ts ~category:Io_stats.Flush
           ~expected_keys:(Skiplist.count t.mem)
           (Merge.single
              (Merge.mem
                 (Skiplist.to_sorted_seq t.mem
                 |> Seq.map (fun (ik, v) -> (Ikey.encode ik, v))))));
      Table_set.log_watermark t.ts ~seq:t.seq;
      (* The flushed table's manifest edit must be durable before the WAL
         records it replaces are reclaimed. *)
      Table_set.sync_manifest t.ts;
      t.mem <- Skiplist.create ();
      ignore
        (Wal.reclaim (Table_set.wal t.ts) ~persisted_below:(Int64.add t.seq 1L))
    end

  let compact t job =
    (* Dropped before the job: a guard commit may retire tables mid-job. *)
    t.view <- None;
    let inputs = P.compact t.ts t.layout ~l0:t.l0 job in
    if inputs <> [] then begin
      t.compactions <- t.compactions + 1;
      if List.exists (fun (level, _) -> level = 0) inputs then t.l0 <- [];
      List.iter
        (fun (level, m) ->
          Table_set.log_remove t.ts ~bucket:(P.bucket ~level) ~level m)
        inputs;
      Table_set.log_watermark t.ts ~seq:t.seq;
      (* Removes durable before the input files vanish, or recovery would
         replay a manifest referencing deleted files. *)
      Table_set.sync_manifest t.ts;
      List.iter (fun (_, m) -> Table_set.retire t.ts m) inputs
    end

  let maintenance_pending t = P.pending t.layout ~l0:t.l0

  let maintenance t ?budget_bytes () =
    let budget = ref (match budget_bytes with Some b -> b | None -> max_int) in
    let rec loop () =
      if !budget > 0 then
        match P.pick t.layout ~l0:t.l0 with
        | Some job ->
          let before = Io_stats.bytes_written (io_stats t) in
          compact t job;
          budget := !budget - (Io_stats.bytes_written (io_stats t) - before);
          loop ()
        | None -> ()
    in
    loop ()

  (* ---------------------------------------------------------------- *)
  (* Writing *)

  let apply t kind key value =
    let seq = Int64.add t.seq 1L in
    t.seq <- seq;
    P.observe_key t.layout key;
    Skiplist.add t.mem (Ikey.make ~kind key ~seq) value;
    Io_stats.record_write (io_stats t) Io_stats.User_write
      (String.length key + String.length value);
    if Skiplist.byte_size t.mem >= t.s.memtable_bytes then begin
      flush_mem t;
      maintenance t ()
    end

  let write_batches t batches =
    Wal.append_batches (Table_set.wal t.ts) ~first_seq:(Int64.add t.seq 1L)
      batches;
    List.iter
      (List.iter (fun (kind, key, value) -> apply t kind key value))
      batches

  let try_write_batches t batches =
    Table_set.try_write_batches t.ts (write_batches t) batches

  let try_write_batch t items = try_write_batches t [ items ]

  let write_batch t items = Table_set.ok_or_raise (try_write_batch t items)

  let put t ~key ~value = write_batch t [ (Ikey.Value, key, value) ]

  let delete t ~key = write_batch t [ (Ikey.Deletion, key, "") ]

  (* ---------------------------------------------------------------- *)
  (* Reading *)

  let get_seq t key ~snapshot =
    match Skiplist.find t.mem key ~snapshot with
    | Some (Ikey.Value, v) -> Some v
    | Some (Ikey.Deletion, _) -> None
    | None ->
      (* One encoded seek target serves every table probe on the way down;
         [Some found] ends the descent. *)
      let target = Ikey.encode_seek key ~seq:snapshot in
      let rec probe = function
        | [] -> None
        | (m : Table.meta) :: rest -> (
          if not (Table.overlaps m ~lo:key ~hi:key) then probe rest
          else
            match
              Table.Reader.get_encoded (Table_set.reader_of t.ts m)
                ~category:Io_stats.Read_path target
            with
            | Some (Ikey.Value, v, _) -> Some (Some v)
            | Some (Ikey.Deletion, _, _) -> Some None
            | None -> probe rest)
      in
      let rec descend level =
        if level >= t.s.max_levels then None
        else
          match probe (P.candidates t.layout ~level key) with
          | Some found -> found
          | None -> descend (level + 1)
      in
      (match probe t.l0 with Some found -> found | None -> descend 1)

  (* One source — a single key space — for the shared range reader. *)
  let scan_seq t ~lo ~hi ?limit ~snapshot () =
    let mem =
      Skiplist.to_sorted_seq ~lo t.mem
      |> Seq.map (fun (ik, v) -> (Ikey.encode ik, v))
    in
    Range_reader.to_list
      (Range_reader.create ~hi ~snapshot ?limit
         (Seq.return
            (Range_reader.source ~reader:(Table_set.reader_of t.ts) ~lo ~hi
               ~mem (store_view t)
               (fun () -> all_tables t))))

  (* A corrupt table leaves its level, with the manifest edit. *)
  let drop_quarantined t file =
    let dropped =
      match Table_set.take ~file t.l0 with
      | Some (meta, rest) ->
        t.l0 <- rest;
        Some (0, meta)
      | None -> P.take t.layout ~file
    in
    match dropped with
    | Some (level, meta) ->
      Table_set.log_remove t.ts ~bucket:(P.bucket ~level) ~level meta;
      t.view <- None;
      true
    | None -> false

  let reading t f = Table_set.with_quarantine t.ts ~drop:(drop_quarantined t) f

  let get t key = reading t (fun () -> get_seq t key ~snapshot:t.seq)

  let get_at t key ~snapshot =
    reading t (fun () ->
        get_seq t key ~snapshot:snapshot.Wip_kv.Store_intf.snap_seq)

  let scan t ~lo ~hi ?limit () =
    reading t (fun () -> scan_seq t ~lo ~hi ?limit ~snapshot:t.seq ())

  let scan_at t ~lo ~hi ?limit ~snapshot () =
    reading t (fun () ->
        scan_seq t ~lo ~hi ?limit
          ~snapshot:snapshot.Wip_kv.Store_intf.snap_seq ())

  (* ---------------------------------------------------------------- *)
  (* Recovery *)

  let recover ?env cfg =
    let env = match env with Some e -> e | None -> Env.in_memory () in
    let s = P.settings cfg in
    if not (Table_set.exists env ~name:s.name) then create ~env cfg
    else begin
      let t = make ~reopen:true env cfg in
      t.seq <-
        Table_set.replay_manifest t.ts (function
          | Manifest.Add_table
              { level = 0; name; size; entry_count; smallest; largest; _ } ->
            t.l0 <- { Table.name; size; entry_count; smallest; largest } :: t.l0
          | Manifest.Remove_table { level = 0; name; _ } ->
            t.l0 <- Table_set.without ~file:name t.l0
          | edit -> P.replay t.layout edit);
      t.seq <-
        Table_set.recover_wal t.ts ~seq:t.seq ~live:(fun () -> all_tables t)
          (fun (r : Wal.record) ->
            P.observe_key t.layout r.Wal.key;
            Skiplist.add t.mem
              (Ikey.make ~kind:r.Wal.kind r.Wal.key ~seq:r.Wal.seq)
              r.Wal.value);
      P.finish_replay t.ts t.layout;
      t
    end

  (* ---------------------------------------------------------------- *)
  (* Durability and failure model *)

  let flush t = Table_set.guard_durable t.ts (fun () -> flush_mem t)

  let maintenance t ?budget_bytes () =
    Table_set.guard_durable t.ts (fun () -> maintenance t ?budget_bytes ())

  let checkpoint t = Table_set.checkpoint t.ts ~seq:t.seq

  let log_sync t = Table_set.log_sync t.ts

  let health t = Table_set.health t.ts

  let probe t = Table_set.probe t.ts ~seq:t.seq

  let quarantined_tables t = Table_set.quarantined t.ts
end
