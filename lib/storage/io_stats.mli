(** Byte-accurate I/O accounting.

    Every write and read issued through an {!Env.t} is attributed to a
    category, so experiments can report write amplification and the per-level
    I/O breakdown of Figure 6(c) exactly. Events that are not bytes (syncs,
    stalls, probes, ...) are registered counters, each named once. One leaf
    lock covers the whole record: every recorder, reader and {!snapshot} is
    atomic, and an event that moves several counters takes it once. *)

type category =
  | User_write  (** bytes of user payload accepted by the store front end *)
  | Wal  (** write-ahead-log appends *)
  | Flush  (** memtable → level-0 table writes *)
  | Compaction of int  (** compaction writing INTO the given level *)
  | Compaction_read of int  (** compaction reading FROM the given level *)
  | Split  (** bucket/guard split rewrites (WipDB, PebblesDB) *)
  | Read_path  (** block reads performed to serve user point/range reads *)
  | Manifest  (** metadata persistence *)
  | Table_meta
      (** table self-description: footer, index and filter blocks read when a
          table is opened (previously mis-charged to [Manifest]) *)

type t

type counter
(** An event counter, registered once under the name {!to_list} gives it. *)

val syncs : counter (* durability barriers: {!Env.sync} calls *)
val faults : counter (* injected faults, counted by fault-injection backends *)
val stalls : counter (* admission-control write stalls *)
val stall_time : counter (* ["stall_ns"]: nanoseconds spent stalled *)
val retries : counter (* durable-op re-attempts after a transient fault *)
val degraded_transitions : counter (* Healthy → Degraded edges *)
val bloom_probes : counter (* bloom-filter consultations on reads *)
val bloom_negatives : counter (* probes answered "definitely absent" *)
val bloom_false_positives : counter (* maybes whose table lacked the key *)
val block_fetches : counter (* data-block requests, cache hits included *)
val commit_windows : counter (* group-commit windows, one fsync each *)
val commit_requests : counter (* logical commits those windows carried *)
val commit_time : counter (* ["commit_ns"]: window latency, submit to ack *)
val ph_probes : counter (* perfect-hash point-index lookups *)
val ph_false_hits : counter (* fingerprint aliases the key check rejected *)
val ph_fallbacks : counter (* ph blocks dropped (CRC/parse) at reader open *)
val view_rebuilds : counter (* sorted-view builds and incremental add_runs *)
val view_rebuild_time : counter (* ["view_rebuild_ns"]: time spent in them *)

val create : unit -> t
val count : t -> counter -> int

val add : t -> counter -> int -> unit
(** [add t c n] adds [n], clamped at 0, to [c]. *)

val add_many : t -> (counter * int) list -> unit
(** {!add} for each pair, under one lock acquisition: for an event that
    moves several counters at once. *)

val record_write : t -> category -> int -> unit
val record_read : t -> category -> int -> unit

val bytes_written : t -> int
(** Total device bytes written, across all categories except [User_write]
    (which counts logical user payload, not device traffic). *)

val store_bytes_written : t -> int
(** Device bytes written to the store proper: flush + compaction + split +
    manifest, excluding the WAL. The paper's write-amplification numbers use
    this denominator-free form — its experiments place the log on a separate
    SSD (§IV-A). *)

val bytes_read : t -> int
val user_bytes : t -> int

val write_amplification : t -> float
(** [store_bytes_written / user_bytes]; 0 when no user bytes were written. *)

val written_by : t -> category -> int

val read_by : t -> category -> int
(** [User_write] has one counter for both directions, and
    [Compaction_read l] one per level whichever side records it. *)

val per_level_write : t -> (int * int) list
(** [(level, bytes)] written into each level by compaction, ascending level;
    includes flush as level 0 writes. *)

val per_level_read : t -> (int * int) list

val to_list : t -> (string * int) list
(** Every counter under its registered name, then every category's bytes:
    ["user_bytes"], ["<category>_bytes_written"] and ["_bytes_read"] for
    the others, and ["level<l>_bytes_written"] / ["_read"] for each level
    with traffic. Read under one lock acquisition. *)

val reset : t -> unit
val snapshot : t -> t
(** An independent copy, for delta measurements. *)

val diff : t -> t -> t
(** [diff current baseline] — counters of [current] minus [baseline]. *)

(** {2 Named readers}

    [count] over one counter each. benchmark/server.ml calls them, and that
    directory is the benchmark's own, out of reach of this module's
    refactors; everything else uses {!count}. *)

val sync_count : t -> int
val stall_count : t -> int
val stall_ns : t -> int
val bloom_probe_count : t -> int
val bloom_negative_count : t -> int
val bloom_false_positive_count : t -> int
val block_fetch_count : t -> int
val ph_probe_count : t -> int
val ph_false_hit_count : t -> int
val view_rebuild_count : t -> int
val view_rebuild_ns : t -> int
val group_commit_count : t -> int
val group_commit_request_count : t -> int
