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
  env : Env.t;
  wal : Wal.t;
  manifest : Manifest.t;
  mutable mem : Skiplist.t; (* guarded_by: caller *)
  mutable l0 : Table.meta list; (* newest first; guarded_by: caller *)
  levels : level array; (* index 1..max_levels-1 used *)
  readers : (string, Table.Reader.t) Hashtbl.t;
  mutable next_file : int; (* guarded_by: caller *)
  mutable seq : int64; (* guarded_by: caller *)
  mutable compactions : int; (* guarded_by: caller *)
  (* Guards observed from inserted keys but not yet committed to a level. *)
  pending_guards : (int, string list) Hashtbl.t;
  mutable next_snap_id : int; (* guarded_by: caller *)
  live_snaps : (int, int64) Hashtbl.t; (* snapshot id -> pinned seq *)
  mutable view : (Sorted_view.t * Table.meta array) option; (* guarded_by: caller *)
      (* Store-wide sorted view over every live fragment; None when absent
         or invalidated. Scans build it lazily; compaction and guard-commit
         fragment splits drop it. *)
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
    l0 = [];
    levels = Array.init cfg.max_levels (fun _ -> { spans = [ { guard = ""; fragments = [] } ] });
    readers = Hashtbl.create 64;
    next_file = 1;
    seq = 0L;
    compactions = 0;
    pending_guards = Hashtbl.create 8;
    next_snap_id = 0;
    live_snaps = Hashtbl.create 8;
    view = None;
  }

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

(* Pinned snapshots. Reads in this baseline are eager (no lazy stream
   escapes a call), so pinning only needs the version-GC floor: while a
   snapshot is live, compaction keeps every version a pinned seq can see. *)

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

(* Manifest edits: the [bucket] field carries the level a fragment lives in
   (0 = the unguarded L0); guards are logged as [Add_bucket { id = level;
   lo = guard }]. Replay re-places every fragment into the span containing
   its smallest key — sound because live operation physically splits (and
   re-logs) any fragment that would straddle a new guard. *)
let log_add_fragment t ~level (m : Table.meta) =
  Manifest.append t.manifest
    (Manifest.Add_table
       {
         bucket = level;
         level;
         name = m.Table.name;
         size = m.Table.size;
         entry_count = m.Table.entry_count;
         smallest = m.Table.smallest;
         largest = m.Table.largest;
       })

let log_remove_fragment t ~level (m : Table.meta) =
  Manifest.append t.manifest
    (Manifest.Remove_table { bucket = level; level; name = m.Table.name })

let log_watermark t =
  Manifest.append t.manifest
    (Manifest.Watermark { seq = t.seq; next_file = t.next_file })

(* ------------------------------------------------------------------ *)
(* Sorted view (REMIX-style; see Sorted_view and DESIGN.md). One view over
   every live fragment — guards partition the key space but do not change
   the merge: a frozen merge of all fragments replays any range. Building
   or extending the view bypasses the block cache; a walk reads under the
   scan admission class. *)

let invalidate_view t = t.view <- None

(* A whole-table pass (view build, compaction): bypasses the block cache. *)
let table_seq t ~category meta =
  Table.Reader.stream (reader_of t meta) ~category ~admit:Block_cache.Bypass
    ()

let all_tables t =
  t.l0
  @ List.concat_map
      (fun lvl -> List.concat_map (fun s -> s.fragments) lvl.spans)
      (Array.to_list t.levels)

let store_view t =
  if Option.is_none t.view then
    t.view <-
      Sorted_view.build ~enabled:t.cfg.sorted_view
        ~min_runs:t.cfg.sorted_view_min_runs ~stats:(io_stats t)
        ~stream:(table_seq t ~category:Io_stats.Read_path)
        (all_tables t);
  t.view

(* Flush site: extend an existing view with the new L0 fragment instead of
   dropping it. *)
let view_note_flush t meta =
  t.view <-
    Sorted_view.extend ~enabled:t.cfg.sorted_view ~stats:(io_stats t)
      ~stream:(table_seq t ~category:Io_stats.Read_path)
      t.view meta

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

(* Commit pending guards for [level]: split any span whose fragments cross
   the new guard. Fragment splitting rewrites data in place — charged as
   Split I/O (the PebblesDB cost the paper calls out). *)
let rec split_fragment t ~category (meta : Table.meta) ~at =
  ignore category;
  let reader = reader_of t meta in
  let at_enc = Ikey.encode_user at in
  let build side_name pred =
    let b =
      Table.Builder.create t.env ~name:side_name ~category:Io_stats.Split
        ~bits_per_key:t.cfg.bits_per_key ~ph_index:t.cfg.ph_index
        ~expected_keys:(max 64 meta.Table.entry_count) ()
    in
    Seq.iter
      (fun (key, value) ->
        if pred key then Table.Builder.add_encoded b ~key ~value)
      (Table.Reader.stream reader ~category:Io_stats.Split
         ~admit:Block_cache.Bypass ());
    if Table.Builder.entry_count b > 0 then Some (Table.Builder.finish b)
    else begin
      Table.Builder.abandon b;
      None
    end
  in
  (* The caller deletes [meta] once the manifest edits replacing it are
     durable. *)
  let left =
    build (fresh_table_name t) (fun k -> Ikey.compare_encoded_user at_enc k > 0)
  in
  let right =
    build (fresh_table_name t) (fun k -> Ikey.compare_encoded_user at_enc k <= 0)
  in
  (left, right)

and commit_guards t level =
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
        Manifest.append t.manifest (Manifest.Add_bucket { id = level; lo = g });
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
                    let l, r = split_fragment t ~category:Io_stats.Split m ~at:g in
                    split_inputs := m :: !split_inputs;
                    log_remove_fragment t ~level m;
                    (match l with
                    | Some m ->
                      left_frags := m :: !left_frags;
                      log_add_fragment t ~level m
                    | None -> ());
                    (match r with
                    | Some m ->
                      right_frags := m :: !right_frags;
                      log_add_fragment t ~level m
                    | None -> ())
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
      Manifest.sync t.manifest;
      List.iter (drop_table t) !split_inputs
    end

(* ------------------------------------------------------------------ *)
(* Flush and compaction *)

let write_run t ~category entries ~expected =
  let name = fresh_table_name t in
  let b =
    Table.Builder.create t.env ~name ~category
      ~bits_per_key:t.cfg.bits_per_key ~ph_index:t.cfg.ph_index
      ~expected_keys:(max 64 expected) ()
  in
  Seq.iter (fun (ik, v) -> Table.Builder.add b ik v) entries;
  if Table.Builder.entry_count b > 0 then Some (Table.Builder.finish b)
  else begin
    Table.Builder.abandon b;
    None
  end

let flush_mem t =
  if Skiplist.count t.mem > 0 then begin
    (match
       write_run t ~category:Io_stats.Flush (Skiplist.to_sorted_seq t.mem)
         ~expected:(Skiplist.count t.mem)
     with
    | Some meta ->
      t.l0 <- meta :: t.l0;
      view_note_flush t meta;
      log_add_fragment t ~level:0 meta
    | None -> ());
    log_watermark t;
    (* The flushed fragment's manifest edit must be durable before the WAL
       records it replaces are reclaimed. *)
    Manifest.sync t.manifest;
    t.mem <- Skiplist.create ();
    ignore (Wal.reclaim t.wal ~persisted_below:(Int64.add t.seq 1L))
  end

(* Partition a merged (encoded) entry sequence by the guards of [level],
   appending one fragment per span. *)
let emit_into_level t ~category level entries ~expected =
  commit_guards t level;
  let lvl = t.levels.(level) in
  let spans = Array.of_list lvl.spans in
  (* Guards encoded once; the per-entry span test then runs on raw bytes. *)
  let guard_enc = Array.map (fun s -> Ikey.encode_user s.guard) spans in
  let n = Array.length spans in
  (* For each span, collect its slice of the iterator lazily by walking the
     merged sequence once. *)
  let current = ref 0 in
  let builder = ref None in
  let finish () =
    match !builder with
    | Some b ->
      if Table.Builder.entry_count b > 0 then begin
        let meta = Table.Builder.finish b in
        let span = spans.(!current) in
        span.fragments <- meta :: span.fragments;
        log_add_fragment t ~level meta
      end
      else Table.Builder.abandon b;
      builder := None
    | None -> ()
  in
  let span_for key =
    (* Largest span index whose guard <= key. Spans are sorted; linear
       advance suffices because entries arrive in key order. *)
    let rec advance i =
      if i + 1 < n && Ikey.compare_encoded_user guard_enc.(i + 1) key <= 0 then
        advance (i + 1)
      else i
    in
    advance !current
  in
  Seq.iter
    (fun (key, value) ->
      let target = span_for key in
      if target <> !current then begin
        finish ();
        current := target
      end;
      let b =
        match !builder with
        | Some b -> b
        | None ->
          let b' =
            Table.Builder.create t.env ~name:(fresh_table_name t) ~category
              ~bits_per_key:t.cfg.bits_per_key ~ph_index:t.cfg.ph_index
              ~expected_keys:(max 64 expected) ()
          in
          builder := Some b';
          b'
      in
      Table.Builder.add_encoded b ~key ~value)
    entries;
  finish ()

let deepest_nonempty t =
  let rec check l =
    if l <= 0 then 0
    else if List.exists (fun s -> s.fragments <> []) t.levels.(l).spans then l
    else check (l - 1)
  in
  check (t.cfg.max_levels - 1)

let compact_l0 t =
  if t.l0 <> [] then begin
    t.compactions <- t.compactions + 1;
    let inputs = t.l0 in
    let seqs =
      List.map (fun m -> table_seq t ~category:(Io_stats.Compaction_read 0) m) inputs
    in
    let drop = deepest_nonempty t = 0 in
    let entries =
      Merge_iter.compact ~dedup_user_keys:true ~drop_tombstones:drop
        ~snapshot_floor:(oldest_snapshot_seq t) seqs
    in
    let expected =
      List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.entry_count) 0 inputs
    in
    emit_into_level t ~category:(Io_stats.Compaction 1) 1 entries ~expected;
    t.l0 <- [];
    invalidate_view t;
    List.iter (fun m -> log_remove_fragment t ~level:0 m) inputs;
    log_watermark t;
    (* Removes durable before the input files vanish. *)
    Manifest.sync t.manifest;
    List.iter (drop_table t) inputs
  end

let compact_span t level span =
  if span.fragments <> [] && level + 1 < t.cfg.max_levels then begin
    t.compactions <- t.compactions + 1;
    let inputs = span.fragments in
    let seqs =
      List.map (fun m -> table_seq t ~category:(Io_stats.Compaction_read level) m) inputs
    in
    let drop = deepest_nonempty t <= level in
    let entries =
      Merge_iter.compact ~dedup_user_keys:true ~drop_tombstones:drop
        ~snapshot_floor:(oldest_snapshot_seq t) seqs
    in
    let expected =
      List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.entry_count) 0 inputs
    in
    emit_into_level t ~category:(Io_stats.Compaction (level + 1)) (level + 1) entries
      ~expected;
    span.fragments <- [];
    invalidate_view t;
    List.iter (fun m -> log_remove_fragment t ~level m) inputs;
    log_watermark t;
    Manifest.sync t.manifest;
    List.iter (drop_table t) inputs
  end

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
        l0 = [];
        levels =
          Array.init cfg.max_levels (fun _ ->
              { spans = [ { guard = ""; fragments = [] } ] });
        readers = Hashtbl.create 64;
        next_file = 1;
        seq = 0L;
        compactions = 0;
        pending_guards = Hashtbl.create 8;
        next_snap_id = 0;
        live_snaps = Hashtbl.create 8;
        view = None;
      }
    in
    (* Place a fragment into the span of its level containing its smallest
       key (fragments never straddle guards: live operation splits and
       re-logs them before a guard lands). *)
    let span_for_key lvl key =
      let rec pick best = function
        | [] -> best
        | span :: rest ->
          if String.compare span.guard key <= 0 then pick span rest else best
      in
      match lvl.spans with
      | first :: rest -> pick first rest
      | [] -> assert false
    in
    Manifest.replay env ~name:(manifest_name cfg) (fun edit ->
        match edit with
        | Manifest.Add_table { bucket = level; name; size; entry_count; smallest; largest; _ } ->
          let meta = { Table.name; size; entry_count; smallest; largest } in
          if level = 0 then t.l0 <- meta :: t.l0
          else begin
            let span = span_for_key t.levels.(level) meta.Table.smallest in
            span.fragments <- meta :: span.fragments
          end
        | Manifest.Remove_table { bucket = level; name; _ } ->
          let drop = List.filter (fun (m : Table.meta) -> not (String.equal m.Table.name name)) in
          if level = 0 then t.l0 <- drop t.l0
          else
            List.iter
              (fun span -> span.fragments <- drop span.fragments)
              t.levels.(level).spans
        | Manifest.Add_bucket { id = level; lo = g } ->
          let lvl = t.levels.(level) in
          if not (List.exists (fun s -> String.equal s.guard g) lvl.spans) then begin
            let target = span_for_key lvl g in
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
        | Manifest.Remove_bucket _ -> ()
        | Manifest.Watermark { seq; next_file } ->
          t.seq <- seq;
          t.next_file <- max t.next_file next_file);
    let wal =
      Wal.recover env ~prefix:(cfg.name ^ "-wal")
        ~replay:(fun (r : Wal.record) ->
          if Int64.compare r.Wal.seq t.seq > 0 then t.seq <- r.Wal.seq;
          observe_key t r.Wal.key;
          Skiplist.add t.mem
            (Ikey.make ~kind:r.Wal.kind r.Wal.key ~seq:r.Wal.seq)
            r.Wal.value)
        ()
    in
    Env.delete env (cfg.name ^ "-tmpwal-000000.log");
    let t = { t with wal } in
    if Int64.compare (Wal.max_seq_logged wal) t.seq > 0 then
      t.seq <- Wal.max_seq_logged wal;
    (* Garbage-collect fragment files no manifest edit survived for. *)
    let live = Hashtbl.create 64 in
    List.iter (fun (m : Table.meta) -> Hashtbl.replace live m.Table.name ()) t.l0;
    Array.iter
      (fun lvl ->
        List.iter
          (fun s ->
            List.iter
              (fun (m : Table.meta) -> Hashtbl.replace live m.Table.name ())
              s.fragments)
          lvl.spans)
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

let write_batch t items =
  if items <> [] then begin
    Wal.append_batch t.wal ~first_seq:(Int64.add t.seq 1L) items;
    List.iter (fun (kind, key, value) -> apply t kind key value) items
  end

let put t ~key ~value = write_batch t [ (Ikey.Value, key, value) ]

let delete t ~key = write_batch t [ (Ikey.Deletion, key, "") ]

let span_containing lvl key =
  let rec pick last = function
    | [] -> last
    | span :: rest ->
      if String.compare span.guard key <= 0 then pick (Some span) rest else last
  in
  pick None lvl.spans

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
        Table.Reader.get_encoded (reader_of t m) ~category:Io_stats.Read_path
          target
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
        match span_containing t.levels.(level) key with
        | None -> levels (level + 1)
        | Some span -> (
          match check_list span.fragments with
          | `Hit v -> Some v
          | `Deleted -> None
          | `Miss -> levels (level + 1))
    in
    (match check_list t.l0 with
    | `Hit v -> Some v
    | `Deleted -> None
    | `Miss -> levels 1)

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
  let frag_sizes lvl =
    List.concat_map
      (fun s -> List.map (fun (m : Table.meta) -> m.Table.size) s.fragments)
      lvl.spans
  in
  List.map (fun (m : Table.meta) -> m.Table.size) t.l0
  @ List.concat_map frag_sizes (Array.to_list t.levels)

let live_table_files t =
  List.map (fun (m : Table.meta) -> m.Table.name) t.l0
  @ List.concat_map
      (fun lvl ->
        List.concat_map
          (fun s -> List.map (fun (m : Table.meta) -> m.Table.name) s.fragments)
          lvl.spans)
      (Array.to_list t.levels)

let guard_count t ~level =
  if level < 1 || level >= t.cfg.max_levels then 0
  else List.length t.levels.(level).spans - 1

let level_count t = 1 + deepest_nonempty t

let compaction_count t = t.compactions

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
