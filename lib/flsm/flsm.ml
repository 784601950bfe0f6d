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

type config = {
  memtable_bytes : int;
  max_files_per_guard : int;
  top_level_bits : int;
  bits_decrement : int;
  max_levels : int;
  bits_per_key : int;
  sorted_view : bool;
  sorted_view_min_runs : int;
  ph_index : bool;
  name : string;
}

let default_config ~scale =
  {
    memtable_bytes = 64 * 1024 * scale;
    max_files_per_guard = 4;
    (* Scaled-down analogue of PebblesDB's top_level_bits: at our store
       sizes, requiring ~14 trailing zero bits at level 1 yields a guard
       population comparable in proportion to the paper's setup. *)
    top_level_bits = 14;
    bits_decrement = 2;
    max_levels = 5;
    bits_per_key = 10;
    sorted_view = true;
    sorted_view_min_runs = 2;
    ph_index = true;
    name = "PebblesDB";
  }

(* A guard span: fragments between [guard] (inclusive lower bound) and the
   next guard. The span before the first guard has guard = "". *)
type span = {
  guard : string;
  mutable fragments : Table.meta list; (* newest first; guarded_by: caller *)
}

type level = {
  mutable spans : span list; (* sorted by guard; guarded_by: caller *)
}

type t = {
  cfg : config;
  ts : Table_set.t;
  mutable mem : Skiplist.t; (* guarded_by: caller *)
  mutable l0 : Table.meta list; (* newest first; guarded_by: caller *)
  levels : level array; (* index 1..max_levels-1 used *)
  mutable seq : int64; (* guarded_by: caller *)
  mutable compactions : int; (* guarded_by: caller *)
  (* Guards observed from inserted keys but not yet committed to a level. *)
  pending_guards : (int, string list) Hashtbl.t;
  mutable view : (Sorted_view.t * Table.meta array) option; (* guarded_by: caller *)
      (* Store-wide sorted view over every live fragment; None when absent
         or invalidated. Scans build it lazily; compaction and guard-commit
         fragment splits drop it. *)
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
    l0 = [];
    levels =
      Array.init cfg.max_levels (fun _ ->
          { spans = [ { guard = ""; fragments = [] } ] });
    seq = 0L;
    compactions = 0;
    pending_guards = Hashtbl.create 8;
    view = None;
  }

let create ?env cfg =
  make ~reopen:false (match env with Some e -> e | None -> Env.in_memory ()) cfg

let name t = t.cfg.name

let env t = Table_set.env t.ts

let io_stats t = Table_set.stats t.ts

let oldest_snapshot_seq t = Table_set.oldest_snapshot_seq t.ts

let live_snapshot_count t = Table_set.live_snapshot_count t.ts

let zombie_table_files t = Table_set.zombie_table_files t.ts

let zombie_bytes t = Table_set.zombie_bytes t.ts

let snapshot t = Table_set.snapshot t.ts ~seq:t.seq

(* Manifest edits: the [bucket] field carries the level a fragment lives in
   (0 = the unguarded L0); guards are logged as [Add_bucket { id = level;
   lo = guard }]. Replay re-places every fragment into the span containing
   its smallest key — sound because live operation physically splits (and
   re-logs) any fragment that would straddle a new guard. *)
let log_add_fragment t ~level m = Table_set.log_add t.ts ~bucket:level ~level m

let log_remove_fragment t ~level m =
  Table_set.log_remove t.ts ~bucket:level ~level m

(* ------------------------------------------------------------------ *)
(* Sorted view (REMIX-style; see Sorted_view and DESIGN.md). One view over
   every live fragment — guards partition the key space but do not change
   the merge: a frozen merge of all fragments replays any range. Building
   or extending the view bypasses the block cache; a walk reads under the
   scan admission class. *)

let invalidate_view t = t.view <- None

let all_tables t =
  t.l0
  @ List.concat_map
      (fun lvl -> List.concat_map (fun s -> s.fragments) lvl.spans)
      (Array.to_list t.levels)

let store_view t =
  if Option.is_none t.view then t.view <- Table_set.build_view t.ts (all_tables t);
  t.view

(* ------------------------------------------------------------------ *)
(* Guard selection *)

let trailing_zeros h =
  if Int64.equal h 0L then 64
  else begin
    let rec loop h n =
      if Int64.logand h 1L = 1L then n
      else loop (Int64.shift_right_logical h 1) (n + 1)
    in
    loop h 0
  end

let guard_bits cfg level = max 1 (cfg.top_level_bits - (cfg.bits_decrement * (level - 1)))

(* Record key as a pending guard for every level whose requirement it
   meets. Invariant: meeting level i's requirement implies meeting every
   deeper level's (bits decrease with depth). *)
let observe_key t key =
  let z = trailing_zeros (Wip_util.Hashing.hash64 ~seed:0x9172L key) in
  let rec note level =
    if level < t.cfg.max_levels then
      if z >= guard_bits t.cfg level then begin
        let existing =
          Option.value ~default:[] (Hashtbl.find_opt t.pending_guards level)
        in
        Hashtbl.replace t.pending_guards level (key :: existing);
        note (level + 1)
      end
      else note (level + 1)
  in
  note 1

(* The span of [lvl] holding [key]: the last whose guard is <= key (the
   first span's guard is "", so there always is one). *)
let span_for lvl key =
  let rec pick best = function
    | span :: rest when String.compare span.guard key <= 0 -> pick span rest
    | _ -> best
  in
  match lvl.spans with first :: rest -> pick first rest | [] -> assert false

(* Commit pending guards for [level]: split any span whose fragments cross
   the new guard. Fragment splitting rewrites data in place — charged as
   Split I/O (the PebblesDB cost the paper calls out). *)
let split_fragment t (meta : Table.meta) ~at =
  let at_enc = Ikey.encode_user at in
  let build keep =
    Table_set.write_runs t.ts ~category:Io_stats.Split
      ~expected_keys:(max 64 meta.Table.entry_count)
      ~keep:(fun key ~len -> keep (Ikey.compare_encoded_user_bytes at_enc key ~len))
      (Merge.single
         (Merge.run (Table_set.cursor t.ts ~category:Io_stats.Split meta)))
  in
  (* The caller deletes [meta] once the manifest edits replacing it are
     durable. *)
  let left = build (fun c -> c > 0) in
  let right = build (fun c -> c <= 0) in
  (left, right)

let commit_guards t level =
  match Hashtbl.find_opt t.pending_guards level with
  | None | Some [] -> ()
  | Some keys ->
    Hashtbl.remove t.pending_guards level;
    let lvl = t.levels.(level) in
    let existing = List.map (fun s -> s.guard) lvl.spans in
    let fresh =
      List.sort_uniq String.compare keys
      |> List.filter (fun k -> not (List.mem k existing))
    in
    let split_inputs = ref [] in
    List.iter
      (fun g ->
        Table_set.log t.ts (Manifest.Add_bucket { id = level; lo = g });
        (* Find the span that contains g: the last span with guard <= g. *)
        let rec place before = function
          | [] -> List.rev before
          | span :: rest ->
            let next_guard =
              match rest with s :: _ -> Some s.guard | [] -> None
            in
            let contains =
              String.compare span.guard g <= 0
              && (match next_guard with
                 | Some ng -> String.compare g ng < 0
                 | None -> true)
            in
            if not contains then place (span :: before) rest
            else begin
              (* Split fragments that straddle g. *)
              let left_frags = ref [] and right_frags = ref [] in
              List.iter
                (fun (m : Table.meta) ->
                  if String.compare m.Table.largest g < 0 then
                    left_frags := m :: !left_frags
                  else if String.compare m.Table.smallest g >= 0 then
                    right_frags := m :: !right_frags
                  else begin
                    let l, r = split_fragment t m ~at:g in
                    split_inputs := m :: !split_inputs;
                    log_remove_fragment t ~level m;
                    List.iter
                      (fun m ->
                        left_frags := m :: !left_frags;
                        log_add_fragment t ~level m)
                      l;
                    List.iter
                      (fun m ->
                        right_frags := m :: !right_frags;
                        log_add_fragment t ~level m)
                      r
                  end)
                span.fragments;
              let left_span = { guard = span.guard; fragments = List.rev !left_frags } in
              let right_span = { guard = g; fragments = List.rev !right_frags } in
              List.rev_append before (left_span :: right_span :: rest)
            end
        in
        lvl.spans <- place [] lvl.spans)
      fresh;
    if !split_inputs <> [] then begin
      invalidate_view t;
      (* The split halves' edits must be durable before the straddling
         fragment they replace is deleted. *)
      Table_set.sync_manifest t.ts;
      List.iter (Table_set.retire t.ts) !split_inputs
    end

(* ------------------------------------------------------------------ *)
(* Flush and compaction *)

let flush_mem t =
  if Skiplist.count t.mem > 0 then begin
    (* A memtable fills mid-batch, so this flush may persist part of a batch
       whose WAL record is still buffered; sync the log first so a crash
       after the flush replays the whole batch instead of applying half. *)
    Wal.sync (Table_set.wal t.ts);
    List.iter
      (fun meta ->
        t.l0 <- meta :: t.l0;
        t.view <- Table_set.extend_view t.ts t.view meta;
        log_add_fragment t ~level:0 meta)
      (Table_set.write_runs t.ts ~category:Io_stats.Flush
         ~expected_keys:(max 64 (Skiplist.count t.mem))
         (Merge.single
            (Merge.mem
               (Skiplist.to_sorted_seq t.mem
               |> Seq.map (fun (ik, v) -> (Ikey.encode ik, v))))));
    Table_set.log_watermark t.ts ~seq:t.seq;
    (* The flushed fragment's manifest edit must be durable before the WAL
       records it replaces are reclaimed. *)
    Table_set.sync_manifest t.ts;
    t.mem <- Skiplist.create ();
    ignore
      (Wal.reclaim (Table_set.wal t.ts) ~persisted_below:(Int64.add t.seq 1L))
  end

(* Partition a compaction merge by the guards of [level], appending one
   fragment per span. *)
let emit_into_level t ~category level entries ~expected =
  commit_guards t level;
  let lvl = t.levels.(level) in
  (* Guards encoded once; the per-entry span test then runs on raw bytes. *)
  let guard_enc =
    Array.of_list (List.map (fun s -> Ikey.encode_user s.guard) lvl.spans)
  in
  let n = Array.length guard_enc in
  let current = ref 0 in
  (* A fragment ends where the key enters a later span: the largest span
     index whose guard <= key. Linear advance suffices because entries
     arrive in key order. *)
  let cut ~size:_ key ~len =
    let rec advance i =
      if i + 1 < n && Ikey.compare_encoded_user_bytes guard_enc.(i + 1) key ~len <= 0
      then advance (i + 1)
      else i
    in
    let target = advance !current in
    target <> !current
    && begin
         current := target;
         true
       end
  in
  List.iter
    (fun (meta : Table.meta) ->
      let span = span_for lvl meta.Table.smallest in
      span.fragments <- meta :: span.fragments;
      log_add_fragment t ~level meta)
    (Table_set.write_runs t.ts ~category ~expected_keys:(max 64 expected) ~cut
       entries)

let deepest_nonempty t =
  let rec check l =
    if l <= 0 then 0
    else if List.exists (fun s -> s.fragments <> []) t.levels.(l).spans then l
    else check (l - 1)
  in
  check (t.cfg.max_levels - 1)

(* Merge [inputs] — L0, or one guard span of [level] — into [level + 1],
   cut by its guards; [clear] empties the place they came from. *)
let compact t level inputs ~clear =
  t.compactions <- t.compactions + 1;
  let entries =
    Table_set.compaction t.ts
      ~category:(fun _ -> Io_stats.Compaction_read level)
      ~drop_tombstones:(deepest_nonempty t <= level) inputs
  in
  let expected =
    List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.entry_count) 0 inputs
  in
  emit_into_level t ~category:(Io_stats.Compaction (level + 1)) (level + 1)
    entries ~expected;
  clear ();
  invalidate_view t;
  List.iter (log_remove_fragment t ~level) inputs;
  Table_set.log_watermark t.ts ~seq:t.seq;
  (* Removes durable before the input files vanish. *)
  Table_set.sync_manifest t.ts;
  List.iter (Table_set.retire t.ts) inputs

let compact_l0 t =
  if t.l0 <> [] then compact t 0 t.l0 ~clear:(fun () -> t.l0 <- [])

let compact_span t level span =
  if span.fragments <> [] && level + 1 < t.cfg.max_levels then
    compact t level span.fragments ~clear:(fun () -> span.fragments <- [])

let pick_compaction t =
  if List.length t.l0 >= t.cfg.max_files_per_guard then Some `L0
  else begin
    let best = ref None in
    for level = 1 to t.cfg.max_levels - 2 do
      List.iter
        (fun span ->
          let n = List.length span.fragments in
          if n >= t.cfg.max_files_per_guard then
            match !best with
            | Some (_, _, m) when m >= n -> ()
            | _ -> best := Some (level, span, n))
        t.levels.(level).spans
    done;
    match !best with Some (l, s, _) -> Some (`Span (l, s)) | None -> None
  end

(* Advisory estimate for the compaction pool (may be read without external
   synchronization): input bytes of L0 and of every over-full guard span. *)
let maintenance_pending t =
  let frag_bytes =
    List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.size) 0
  in
  let pending =
    ref
      (if List.length t.l0 >= t.cfg.max_files_per_guard then
         max 1 (frag_bytes t.l0)
       else 0)
  in
  for level = 1 to t.cfg.max_levels - 2 do
    List.iter
      (fun span ->
        if List.length span.fragments >= t.cfg.max_files_per_guard then
          pending := !pending + max 1 (frag_bytes span.fragments))
      t.levels.(level).spans
  done;
  !pending

let maintenance t ?budget_bytes () =
  let budget = ref (match budget_bytes with Some b -> b | None -> max_int) in
  let rec loop () =
    if !budget > 0 then
      match pick_compaction t with
      | Some job ->
        let before = Io_stats.bytes_written (io_stats t) in
        (match job with
        | `L0 -> compact_l0 t
        | `Span (level, span) -> compact_span t level span);
        let after = Io_stats.bytes_written (io_stats t) in
        budget := !budget - (after - before);
        loop ()
      | None -> ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Recovery *)

let recover ?env cfg =
  let env = match env with Some e -> e | None -> Env.in_memory () in
  if not (Table_set.exists env ~name:cfg.name) then create ~env cfg
  else begin
    let t = make ~reopen:true env cfg in
    (* A fragment replays into the span holding its smallest key: live
       operation splits and re-logs fragments before a guard lands, so none
       straddles one. *)
    t.seq <-
      Table_set.replay_manifest t.ts (function
        | Manifest.Add_table
            { bucket = level; name; size; entry_count; smallest; largest; _ } ->
          let meta = { Table.name; size; entry_count; smallest; largest } in
          if level = 0 then t.l0 <- meta :: t.l0
          else begin
            let span = span_for t.levels.(level) meta.Table.smallest in
            span.fragments <- meta :: span.fragments
          end
        | Manifest.Remove_table { bucket = level; name; _ } ->
          if level = 0 then t.l0 <- Table_set.without ~file:name t.l0
          else
            List.iter
              (fun span ->
                span.fragments <- Table_set.without ~file:name span.fragments)
              t.levels.(level).spans
        | Manifest.Add_bucket { id = level; lo = g } ->
          let lvl = t.levels.(level) in
          if not (List.exists (fun s -> String.equal s.guard g) lvl.spans) then begin
            let target = span_for lvl g in
            let left, right =
              List.partition
                (fun (m : Table.meta) -> String.compare m.Table.smallest g < 0)
                target.fragments
            in
            let right_span = { guard = g; fragments = right } in
            let rec insert = function
              | [] -> []
              | span :: rest ->
                if span == target then
                  { span with fragments = left } :: right_span :: rest
                else span :: insert rest
            in
            lvl.spans <- insert lvl.spans
          end
        | Manifest.Remove_bucket _ | Manifest.Watermark _ -> ());
    t.seq <-
      Table_set.recover_wal t.ts ~seq:t.seq ~live:(fun () -> all_tables t)
        (fun (r : Wal.record) ->
          observe_key t r.Wal.key;
          Skiplist.add t.mem
            (Ikey.make ~kind:r.Wal.kind r.Wal.key ~seq:r.Wal.seq)
            r.Wal.value);
    t
  end

(* ------------------------------------------------------------------ *)
(* Public API *)

let apply t kind key value =
  let seq = Int64.add t.seq 1L in
  t.seq <- seq;
  observe_key t key;
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

let get_seq t key ~snapshot =
  match Skiplist.find t.mem key ~snapshot with
  | Some (Ikey.Value, v) -> Some v
  | Some (Ikey.Deletion, _) -> None
  | None ->
    (* One encoded seek target serves every fragment probe on the way down. *)
    let target = Ikey.encode_seek key ~seq:snapshot in
    let check_meta (m : Table.meta) =
      if not (Table.overlaps m ~lo:key ~hi:key) then None
      else
        Table.Reader.get_encoded (Table_set.reader_of t.ts m)
          ~category:Io_stats.Read_path target
    in
    let rec check_list = function
      | [] -> `Miss
      | m :: rest -> (
        match check_meta m with
        | Some (Ikey.Value, v, _) -> `Hit v
        | Some (Ikey.Deletion, _, _) -> `Deleted
        | None -> check_list rest)
    in
    let rec levels level =
      if level >= t.cfg.max_levels then None
      else
        match check_list (span_for t.levels.(level) key).fragments with
        | `Hit v -> Some v
        | `Deleted -> None
        | `Miss -> levels (level + 1)
    in
    (match check_list t.l0 with
    | `Hit v -> Some v
    | `Deleted -> None
    | `Miss -> levels 1)

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

(* A corrupt fragment leaves L0 or its guard span, with the manifest edit. *)
let drop_quarantined t file =
  let drop level tables =
    match Table_set.take ~file tables with
    | Some (meta, rest) ->
      log_remove_fragment t ~level meta;
      invalidate_view t;
      Some rest
    | None -> None
  in
  match drop 0 t.l0 with
  | Some rest ->
    t.l0 <- rest;
    true
  | None ->
    let found = ref false in
    Array.iteri
      (fun level lvl ->
        List.iter
          (fun span ->
            if not !found then
              match drop level span.fragments with
              | Some rest ->
                found := true;
                span.fragments <- rest
              | None -> ())
          lvl.spans)
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

let guard_count t ~level =
  if level < 1 || level >= t.cfg.max_levels then 0
  else List.length t.levels.(level).spans - 1

let level_count t = 1 + deepest_nonempty t

let compaction_count t = t.compactions
