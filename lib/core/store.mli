(** WipDB: a write-in-place key-value store that mimics bucket sort.

    The key space is partitioned into buckets; each incoming item goes
    straight into the bucket that owns its key range (write-in-place, like
    bucket sort), where a miniature tiered LSM-tree of at most
    [Config.l_max] levels manages it. Merging a level rewrites nothing in
    the target level, so compaction-induced write amplification is bounded
    by [l_max]; bucket splits add at most [N/(N-1)] more — ≈ 4.15 total with
    the paper's defaults, independent of store size.

    Front ends: one MemTable per bucket (hash-structured by default, §III-C),
    a shared write-ahead log with Figure-5 tail reclamation (§III-F), an
    incremental manifest for structural recovery, read-aware compaction
    scheduling (§III-G) and adaptive per-bucket MemTable structure (§III-D). *)

type t

(** {1 The KV interface}

    [create] raises [Invalid_argument] if the config fails
    {!Config.validate}. [recover] replays the manifest to rebuild the
    bucket directory and the WAL to repopulate MemTables.

    [snapshot]/[get_at]/[scan_at] pin a seq until
    {!Wip_kv.Store_intf.release}. While any snapshot is live, version GC
    floors at the oldest live snapshot's seq and tables retired by
    compaction/split stay readable (refcounted by the pinning snapshots),
    so a pinned lazy {!iter_range} stream keeps draining correctly across
    concurrent writes on every Env, POSIX included. *)

include Wip_kv.Store_intf.Engine with type t := t and type config = Config.t

(** {1 Introspection (benchmarks, tests)} *)

type bucket_info = {
  lo : string;  (** inclusive lower key bound; [""] for the first bucket *)
  memtable_items : int;
  memtable_structure : Wip_memtable.Memtable.structure;
  sublevels_per_level : int list;  (** length [l_max] *)
  bytes : int;  (** on-device bytes of all the bucket's tables *)
}

val bucket_infos : t -> bucket_info list

val bucket_count : t -> int

val split_count : t -> int

val wal_bytes : t -> int

val sequence : t -> int64

val memtable_probes : t -> int
(** Cumulative MemTable probe count across all buckets (Figure 3 proxy). *)

val config : t -> Config.t

val write_pressure : t -> int
(** MemTable bytes plus estimated compaction debt — the quantity the
    admission watermarks gate on. *)

(** {1 Streaming iteration}

    [iter_range] is the lazy counterpart of {!scan}: entries materialize one
    data block at a time as the sequence is consumed, so arbitrarily large
    ranges stream in bounded memory. The sequence is a consistent view at
    the chosen (or current) snapshot. Pass a pinned [snapshot] when the
    stream will be interleaved with writes: without one, a compaction
    triggered mid-drain may retire a table the stream still needs. *)

val iter_range :
  t -> ?snapshot:Wip_kv.Store_intf.snapshot -> lo:string -> hi:string ->
  unit -> (string * string) Seq.t
