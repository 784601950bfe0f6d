(** The table machinery every engine shares: WipDB's buckets, the leveled
    baseline's levels and the fragmented baseline's guard spans all keep
    their runs as {!Wip_sstable.Table} files in one Env, behind one WAL and
    one manifest. This module owns everything about those files that does
    not depend on how an engine places or compacts them:

    - table names, table writing and the reader cache (with the optional
      block cache), and the cache-bypassing whole-table stream;
    - retirement: a table a compaction drops is reclaimed at once, or kept
      as a {e zombie} while a pinned snapshot may still read it;
    - the snapshot registry and the version-GC floor;
    - sorted-view build and extension over a run list;
    - the recovery tail: [next_file] past every used number, WAL replay,
      orphan GC;
    - the failure model: health, degraded mode, probes and quarantine.

    An engine keeps only its layout (what a run list is), its placement and
    compaction policy, and how manifest edits replay into its layout.
    Every mutable field is [guarded_by: caller], like the engines': the
    concurrent front holds the owning shard lock across every call. *)

type t

(** {1 Construction} *)

val exists : Wip_storage.Env.t -> name:string -> bool
(** A manifest for the store [name] is on the Env. *)

val create :
  reopen:bool ->
  Wip_storage.Env.t ->
  name:string ->
  suffix:string ->
  ?wal_segment_bytes:int ->
  ?cache_bytes:int ->
  bits_per_key:int ->
  ph_index:bool ->
  sorted_view:bool ->
  sorted_view_min_runs:int ->
  unit ->
  t
(** The table set of the store [name]: table files are named
    [name-NNNNNN] plus [suffix], and [cache_bytes] (default 0, no cache)
    sizes a block cache shared by every reader. Without [reopen], a fresh
    manifest and WAL. With it, the manifest is reopened for appending, and
    until {!recover_wal} the WAL is an empty placeholder, so a flush during
    replay has a log to sync. *)

val replay_manifest : t -> (Wip_manifest.Manifest.edit -> unit) -> int64
(** Feed every structural edit to the engine in order. Watermarks are
    consumed here: the last one sets [next_file], and its seq is returned
    (0 when there is none). *)

val recover_wal :
  t -> seq:int64 -> live:(unit -> Wip_sstable.Table.meta list) ->
  (Wip_wal.Wal.record -> unit) -> int64
(** The recovery tail, after manifest replay. Moves [next_file] past every
    table number in [live ()] (edits logged after the last watermark may
    name tables beyond it), replays the WAL through the callback, installs
    the recovered log, and deletes every table file of this store that
    [live ()] no longer names — debris of a flush or compaction whose edits
    never became durable. Returns the store's seq: the larger of [seq] (the
    watermark's) and the largest seq ever logged. *)

(** {1 Tables} *)

val env : t -> Wip_storage.Env.t

val stats : t -> Wip_storage.Io_stats.t

val wal : t -> Wip_wal.Wal.t

val write_runs :
  t ->
  category:Wip_storage.Io_stats.category ->
  expected_keys:int ->
  ?cut:(size:int -> string -> bool) ->
  (string * string) Seq.t ->
  Wip_sstable.Table.meta list
(** Write an encoded entry stream, in key order, as new tables: one table,
    or a new one wherever [cut ~size key] (called for every entry, with the
    open table's estimated size, 0 when none is open) says the table must
    end before [key]. Returns the finished tables in key order; a stream
    with no entries writes none. *)

val reader_of : t -> Wip_sstable.Table.meta -> Wip_sstable.Table.Reader.t
(** The cached reader of a live or zombie table, opened on first use. *)

val stream :
  t -> category:Wip_storage.Io_stats.category -> Wip_sstable.Table.meta ->
  (string * string) Seq.t
(** Encoded entries of one whole table, for compaction, split and view
    build: a sequential pass bypasses the block cache, so it can neither
    evict the read working set nor fill the cache with blocks no read asked
    for. *)

val build_view :
  t -> Wip_sstable.Table.meta list ->
  (Wip_sstable.Sorted_view.t * Wip_sstable.Table.meta array) option
(** {!Wip_sstable.Sorted_view.build} over a run list, with the store's view
    settings, streaming as {!stream} does. *)

val extend_view :
  t ->
  (Wip_sstable.Sorted_view.t * Wip_sstable.Table.meta array) option ->
  Wip_sstable.Table.meta ->
  (Wip_sstable.Sorted_view.t * Wip_sstable.Table.meta array) option
(** {!Wip_sstable.Sorted_view.extend} at a flush site. *)

val retire : t -> Wip_sstable.Table.meta -> unit
(** Drop a table the layout no longer references, once the manifest edits
    removing it are durable. With no live snapshot the reader, cached
    blocks and file go at once; otherwise the table becomes a zombie pinned
    by every live snapshot — one may still be streaming its blocks — and
    is reclaimed when the last of them releases. *)

(** {1 Manifest} *)

val log : t -> Wip_manifest.Manifest.edit -> unit

val log_add : t -> bucket:int -> level:int -> Wip_sstable.Table.meta -> unit

val log_remove : t -> bucket:int -> level:int -> Wip_sstable.Table.meta -> unit

val log_watermark : t -> seq:int64 -> unit

val sync_manifest : t -> unit

val checkpoint : t -> seq:int64 -> unit
(** WAL sync, then a synced watermark at [seq]. *)

(** {1 Pinned snapshots}

    A snapshot pins a seq. Reads at that seq stay exact for the handle's
    lifetime because (a) version GC floors at {!oldest_snapshot_seq}, which
    every compaction passes as [Merge_iter.compact ~snapshot_floor], and
    (b) tables retired while a snapshot is live stay readable as zombies
    until their last pinner releases. *)

val snapshot : t -> seq:int64 -> Store_intf.snapshot

val oldest_snapshot_seq : t -> int64

val live_snapshot_count : t -> int

val zombie_table_files : t -> string list

val zombie_bytes : t -> int

(** {1 Failure model}

    The Env underneath already retries transient faults when wrapped by
    [Env.with_retry], so an [Io_fault] that reaches this layer has
    exhausted its retry budget. The store then stops accepting mutations —
    reads keep working — until a probe's durable round-trip succeeds.
    Exceptions are classified through [Env.io_fault_detail] and
    [Env.corruption_detail]: lint rule R6 reserves [Io_fault] handlers for
    [lib/storage]. *)

val health : t -> Store_intf.health

val try_write_batches :
  t ->
  ?admit:(unit -> (unit, Store_intf.write_error) result) ->
  ('a list list -> unit) ->
  'a list list ->
  (unit, Store_intf.write_error) result
(** [try_write_batches t ~admit write batches]: refused typed while
    degraded; [Ok ()] for batches with no items; otherwise [admit] (default
    always) and then [write]. A durable fault in either degrades the store
    and is returned as [Store_degraded]. *)

val ok_or_raise : (unit, Store_intf.write_error) result -> unit
(** @raise Store_intf.Rejected on [Error]. *)

val guard_durable : t -> (unit -> 'a) -> 'a
(** The degraded-state discipline for flush, maintenance and log sync:
    refused while degraded, and a durable fault degrades the store.
    @raise Store_intf.Rejected with [Store_degraded] in both cases. *)

val log_sync : t -> unit
(** [Wal.sync] under {!guard_durable}. *)

val probe : t -> seq:int64 -> Store_intf.health
(** When degraded, one {!checkpoint} at [seq]: success proves the device
    accepts writes again and the store returns to [Healthy]. *)

val quarantined : t -> (string * string) list
(** [(file, detail)] of tables renamed aside after corruption, newest
    first. *)

val with_quarantine : t -> drop:(string -> bool) -> (unit -> 'a) -> 'a
(** Run a read. When it meets a corrupt block of table [file] and
    [drop file] removes that table from the layout (logging the removal
    and dropping views over it), the removal is synced, the reader closed,
    the file's cached blocks evicted, the file renamed aside with a
    [".quarantined"] suffix — outside the table namespace, so orphan GC
    keeps the evidence — and the read runs again on the remaining runs.
    Any other exception propagates. *)

val without : file:string -> Wip_sstable.Table.meta list -> Wip_sstable.Table.meta list
(** The list without the table named [file], for a replayed removal. *)

val take : file:string -> Wip_sstable.Table.meta list ->
  (Wip_sstable.Table.meta * Wip_sstable.Table.meta list) option
(** The table named [file] and the list without it, for a [drop]. *)
