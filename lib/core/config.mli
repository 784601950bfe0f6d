(** WipDB configuration (paper §III, §IV-A defaults). *)

type t = {
  l_max : int;
      (** levels per bucket's miniature LSM-tree; compaction-induced write
          amplification is bounded by this (default 3) *)
  t_sublevels : int;
      (** sublevels per level at bucket capacity; the last level reaching
          this count triggers a bucket split (default 8) *)
  split_fanout : int;
      (** [N]: buckets produced by one split; split-induced write
          amplification is [N/(N-1)] (default 8) *)
  bucket_capacity_bytes : int;
      (** a bucket splits when its on-device bytes reach this. 0 (the
          default) derives the paper's definition of a full bucket — every
          level holding [t_sublevels] memtable-sized sublevels:
          [l_max * t_sublevels * memtable_bytes]. A bucket whose last level
          reaches [max_count] sublevels splits regardless, since the last
          level cannot be compacted further. *)
  memtable_items : int;  (** per-bucket MemTable capacity in items *)
  memtable_bytes : int;  (** per-bucket MemTable capacity in bytes *)
  initial_buckets : int;  (** buckets pre-created over the key space *)
  initial_key_space : int64;
      (** numeric key-space extent used to place initial bucket boundaries;
          irrelevant when [initial_buckets = 1] *)
  min_count : int;  (** sublevels before a level is compaction-eligible (4) *)
  max_count : int;  (** sublevels forcing a mandatory compaction (20) *)
  read_weight : float;
      (** weight of relative read count in compaction priority (10);
          0 disables read-aware scheduling — the paper's WipDB-DRC *)
  bits_per_key : int;  (** bloom filter density (10) *)
  block_cache_bytes : int;
      (** LRU block-cache capacity shared by all of the store's tables;
          0 (the default) disables caching so I/O accounting reflects the
          raw read path. *)
  memtable_structure : Wip_memtable.Memtable.structure;
      (** initial structure for new MemTables; [Hash] is WipDB,
          [Sorted] is the paper's WipDB-S ablation *)
  adaptive_memtable : bool;
      (** switch a bucket to a sorted MemTable after heavy range-query
          traffic and back when it subsides (paper §III-D) *)
  range_query_switch_threshold : int;
      (** range queries between two flushes that trigger the switch *)
  compaction_budget_per_batch : int;
      (** background-compaction I/O allowance (bytes) granted per write
          batch, modeling the bandwidth a real deployment's compaction
          threads share with the foreground. [max_int] (the default) runs
          every eligible compaction eagerly; a finite budget makes the
          read-aware scheduler's choice of WHERE to compact meaningful. *)
  wal_segment_bytes : int;
  wal_size_threshold : int;
      (** total log size that forces flushing tail MemTables (paper §III-F) *)
  bucket_merge_bytes : int;
      (** adjacent buckets jointly smaller than this are merged *)
  admission_control : bool;
      (** gate writes on the watermarks below (default [true]); [false]
          admits everything — the ablation arm of [bench/stall.ml] *)
  slowdown_watermark_bytes : int;
      (** write pressure (total MemTable bytes + estimated compaction debt)
          above which an admitted writer first pays down a slice of
          maintenance debt — the analog of LevelDB's slowdown trigger
          (default 2 MiB) *)
  stop_watermark_bytes : int;
      (** write pressure above which writers stall until maintenance brings
          pressure back under the watermark; a stall that outlives
          [stall_deadline_s] is refused with [Backpressure] rather than
          hanging (default 4 MiB) *)
  stall_deadline_s : float;
      (** longest a single write may be stalled (default 1 s) *)
  sorted_view : bool;
      (** maintain a REMIX-style sorted view per bucket so scans replay one
          frozen merge instead of heap-merging the run set (default
          [true]); built lazily on the first scan of a bucket with at least
          two runs (below that a scan just heap-merges), extended
          incrementally at flush, and invalidated by
          compaction/split/merge/quarantine *)
  ph_index : bool;
      (** emit a CHD perfect-hash point-index block in every table so cold
          gets jump straight to their entry instead of binary-searching
          restart points (default [true]); tables too large for 16-bit
          locators ship without one and read via the fallback path *)
  name : string;
}

val default : t
(** Paper defaults scaled to simulation size: [l_max = 3], [t_sublevels = 8],
    [split_fanout = 8], [min_count = 4], [max_count = 20],
    [read_weight = 10.0], hash MemTables of 4096 items / 512 KiB. *)

val scaled : scale:int -> t
(** Multiply the byte-sized knobs by [scale]. *)

val validate : t -> (unit, string) result

val shard_boundaries : t -> shards:int -> string list
(** Lower bounds (first is [""]) partitioning the numeric key space into
    [shards] contiguous ranges, placed by the same rule as the initial
    bucket boundaries — so a sharded front's ranges align with engine
    bucket boundaries whenever [shards] divides [initial_buckets].
    @raise Invalid_argument when [shards < 1]. *)

val effective_bucket_capacity : t -> int
(** [bucket_capacity_bytes] when positive, else the derived
    [l_max * t_sublevels * memtable_bytes]. *)

val wa_upper_bound : t -> float
(** The paper's bound [l_max + N/(N-1)] — 4.14… for the defaults. *)
