module Io_stats = Wip_storage.Io_stats
module Table = Wip_sstable.Table
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

let sorted_level metas =
  List.sort
    (fun (a : Table.meta) (b : Table.meta) ->
      String.compare a.Table.smallest b.Table.smallest)
    metas

let level_bytes files =
  List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.size) 0 files

module Policy = struct
  type nonrec config = config

  type layout = {
    cfg : config;
    levels : Table.meta list array;
        (* 1 .. max_levels - 1, each sorted by smallest key and disjoint;
           index 0 stays empty (the engine holds L0) *)
    compact_pointer : string array; (* round-robin cursor per level *)
  }

  (* The job is the level to compact into the next one. *)
  type job = int

  let settings (c : config) =
    {
      Lsm_engine.name = c.name;
      memtable_bytes = c.memtable_bytes;
      max_levels = c.max_levels;
      bits_per_key = c.bits_per_key;
      ph_index = c.ph_index;
      sorted_view = c.sorted_view;
      sorted_view_min_runs = c.sorted_view_min_runs;
    }

  let create cfg =
    {
      cfg;
      levels = Array.make cfg.max_levels [];
      compact_pointer = Array.make cfg.max_levels "";
    }

  let bucket ~level:_ = 0

  let tables lay = List.concat (Array.to_list lay.levels)

  (* Disjoint: at most one candidate per level. *)
  let candidates lay ~level key =
    Option.to_list
      (List.find_opt (fun m -> Table.overlaps m ~lo:key ~hi:key) lay.levels.(level))

  let observe_key _ _ = ()

  (* LevelDB-style scores; >= 1.0 means the level needs compaction. Level 0
     is triggered by file count, deeper levels by bytes against a capacity
     [level_multiplier] times the one above. *)
  let score lay ~l0 level =
    let c = lay.cfg in
    if level = 0 then
      float_of_int (List.length l0) /. float_of_int c.l0_compaction_trigger
    else
      let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
      float_of_int (level_bytes lay.levels.(level))
      /. float_of_int (c.level1_bytes * pow c.level_multiplier (level - 1))

  let pick lay ~l0 =
    let best = ref None in
    for level = 0 to lay.cfg.max_levels - 2 do
      let score = score lay ~l0 level in
      if score >= 1.0 then
        match !best with
        | Some (_, s) when s >= score -> ()
        | _ -> best := Some (level, score)
    done;
    Option.map fst !best

  (* Input bytes of every level whose score crossed 1.0. *)
  let pending lay ~l0 =
    let pending = ref 0 in
    for level = 0 to lay.cfg.max_levels - 2 do
      if score lay ~l0 level >= 1.0 then
        pending :=
          !pending
          + max 1 (level_bytes (if level = 0 then l0 else lay.levels.(level)))
    done;
    !pending

  (* Compact [level] into [level + 1]: all of L0 (its files overlap), or one
     deeper file chosen round-robin across the key space, as LevelDB does,
     merged with every overlapping file of the next level — the rewrite of
     next-level data that drives this design's write amplification. *)
  let compact ts lay ~l0 level =
    let target = level + 1 in
    let sources =
      if level = 0 then l0
      else begin
        let files = lay.levels.(level) in
        let next =
          try
            List.find
              (fun (m : Table.meta) ->
                String.compare m.Table.smallest lay.compact_pointer.(level) > 0)
              files
          with Not_found -> List.hd files
        in
        lay.compact_pointer.(level) <- next.Table.smallest;
        [ next ]
      end
    in
    let bound pick field init =
      List.fold_left (fun acc (m : Table.meta) -> pick acc (field m)) init
    in
    let smallest (m : Table.meta) = m.Table.smallest
    and largest (m : Table.meta) = m.Table.largest in
    let lo = bound min smallest (List.hd sources).Table.smallest sources
    and hi = bound max largest (List.hd sources).Table.largest sources in
    let overlapping, untouched =
      List.partition (fun m -> Table.overlaps m ~lo ~hi) lay.levels.(target)
    in
    let inputs = sources @ overlapping in
    let read_cat m =
      if List.memq m sources then Io_stats.Compaction_read level
      else Io_stats.Compaction_read target
    in
    (* Tombstones can be dropped when the output level is the deepest
       level holding data for this key range. The range must cover every
       INPUT: overlapping target-level files can extend beyond the
       sources' [lo, hi], and their entries flow through this compaction
       too — judging them by the narrower sources range once dropped a
       tombstone whose older versions sat deeper, resurrecting a deleted
       key. *)
    let input_lo = bound min smallest lo inputs
    and input_hi = bound max largest hi inputs in
    let deeper_has_data =
      let rec check l =
        l < lay.cfg.max_levels
        && (List.exists
              (fun m -> Table.overlaps m ~lo:input_lo ~hi:input_hi)
              lay.levels.(l)
           || check (l + 1))
      in
      check (target + 1)
    in
    let entries =
      Table_set.compaction ts ~category:read_cat
        ~drop_tombstones:(not deeper_has_data) inputs
    in
    (* Size each output's bloom from the inputs' observed entry density:
       expected keys per output ≈ target bytes / average entry size. *)
    let total_count =
      List.fold_left
        (fun acc (m : Table.meta) -> acc + m.Table.entry_count)
        0 inputs
    in
    let expected_keys =
      max 64
        (lay.cfg.sstable_bytes * total_count / max 1 (level_bytes inputs))
    in
    (* Tables split lazily, and [write_runs] never cuts between two
       versions of one user key: with a version-GC floor several versions
       of a key can flow through one compaction, and the L1+ point read
       probes exactly one table per level — all of a key's versions must
       land in it. *)
    let outputs =
      Table_set.write_runs ts ~category:(Io_stats.Compaction target)
        ~expected_keys entries
        ~cut:(fun ~size _ ~len:_ -> size >= lay.cfg.sstable_bytes)
    in
    if level > 0 then
      lay.levels.(level) <-
        List.filter (fun m -> not (List.memq m sources)) lay.levels.(level);
    lay.levels.(target) <- sorted_level (untouched @ outputs);
    List.iter (Table_set.log_add ts ~bucket:0 ~level:target) outputs;
    List.map
      (fun m -> ((if List.memq m sources then level else target), m))
      inputs

  let take lay ~file =
    let rec find level =
      if level >= Array.length lay.levels then None
      else
        match Table_set.take ~file lay.levels.(level) with
        | Some (meta, rest) ->
          lay.levels.(level) <- rest;
          Some (level, meta)
        | None -> find (level + 1)
    in
    find 1

  let replay lay = function
    | Manifest.Add_table { level; name; size; entry_count; smallest; largest; _ }
      ->
      let rec insert = function
        | (m : Table.meta) :: rest when String.compare m.Table.smallest smallest < 0
          ->
          m :: insert rest
        | files -> { Table.name; size; entry_count; smallest; largest } :: files
      in
      lay.levels.(level) <- insert lay.levels.(level)
    | Manifest.Remove_table { level; name; _ } ->
      lay.levels.(level) <- Table_set.without ~file:name lay.levels.(level)
    | Manifest.Add_bucket _ | Manifest.Remove_bucket _ | Manifest.Watermark _
      ->
      ()

  let finish_replay _ _ = ()
end

include Lsm_engine.Make (Policy)

let files_at_level t level =
  if level = 0 then l0 t else (layout t).Policy.levels.(level)

let level_count t =
  let rec deepest l =
    if l < 0 then 0
    else if files_at_level t l <> [] then l + 1
    else deepest (l - 1)
  in
  deepest ((config t).max_levels - 1)

(* Figure 2: hypothetical guard positions. Walk the level's files in key
   order; a guard sits at every [every]-th key. Within a file, interpolate
   numerically between its smallest and largest key (keys are fixed-width
   decimal so this is accurate for the plot's purpose). *)
let guard_positions t ~level ~every ~space =
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
    (sorted_level (files_at_level t level));
  List.rev !positions
