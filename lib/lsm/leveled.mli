(** Leveled LSM-tree store — the LevelDB/RocksDB-like baseline (paper §II-A).

    Level 0 holds whole-memtable flushes whose key ranges overlap; levels 1
    and deeper hold runs of fixed-target-size, non-overlapping SSTables, each
    level [level_multiplier]× the capacity of the one above. Compaction
    merges one source file (chosen round-robin across the key space, as
    LevelDB does) with every overlapping file of the next level and rewrites
    both — the rewrite of next-level data is what drives this design's
    write amplification and what WipDB eliminates. *)

type config = {
  memtable_bytes : int;
  sstable_bytes : int;  (** target output file size *)
  l0_compaction_trigger : int;
  level1_bytes : int;
  level_multiplier : int;
  max_levels : int;
  bits_per_key : int;
  sorted_view : bool;
      (** maintain a store-wide REMIX-style sorted view so scans replay one
          frozen merge instead of heap-merging every table (default true);
          built once there are two tables *)
  ph_index : bool;
      (** emit a perfect-hash point-index block in every table (default
          true); see {!Wip_sstable.Table} *)
  name : string;  (** label used in reports, e.g. "LevelDB" / "RocksDB" *)
}

val leveldb_config : scale:int -> config
(** Paper-shaped defaults scaled down: [scale] multiplies the memtable and
    level capacities (use 1 for unit tests, larger for benchmarks). *)

val rocksdb_config : scale:int -> config
(** Same organization, RocksDB-flavoured triggers. *)

val rocksdb_bigmem_config : scale:int -> config
(** The paper's "RocksDB-1.6G" variant: a much larger memtable, same
    compaction policy — used to show a bigger memtable alone does not fix
    write amplification. *)

type t

include Wip_kv.Store_intf.Engine with type t := t and type config := config

val config : t -> config

val level_count : t -> int
(** Deepest non-empty level + 1. *)

val files_at_level : t -> int -> Wip_sstable.Table.meta list

val guard_positions : t -> level:int -> every:int -> space:int64 -> float list
(** Figure 2 instrumentation: positions (as fractions of the numeric key
    space) of hypothetical guards placed every [every] keys along the
    level's sorted key order. *)
