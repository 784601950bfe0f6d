(** The key-value store interface every engine in this repository implements
    (WipDB and the LevelDB-, RocksDB- and PebblesDB-like baselines), so the
    benchmark harness and the examples can drive them interchangeably. *)

type health =
  | Healthy
  | Degraded of { reason : string }
      (** Read-only: a durable write failed after exhausting its retry
          budget. Reads and scans keep working; mutations are rejected with
          {!Store_degraded} until a recovery probe succeeds. *)

(** Why a write was not accepted. *)
type write_error =
  | Backpressure of { shard : int; debt_bytes : int }
      (** Admission control held the write past its stall deadline:
          memtable bytes plus compaction debt on [shard] stood at
          [debt_bytes], above the stop watermark. Transient — retry after
          letting maintenance catch up. *)
  | Store_degraded of { reason : string }
      (** The store is in read-only {!Degraded} state. *)

exception Rejected of write_error
(** Raised by the [unit]-returning mutation entry points ([put], [delete],
    [write_batch]) when the write is refused; [try_write_batch] returns the
    same information as a [result]. *)

let write_error_to_string = function
  | Backpressure { shard; debt_bytes } ->
    Printf.sprintf "backpressure: shard %d holds %d debt bytes" shard
      debt_bytes
  | Store_degraded { reason } -> Printf.sprintf "store degraded: %s" reason

(** A pinned snapshot: reads at [snap_seq] see exactly the versions that were
    visible when the snapshot was taken, for as long as the handle is live.
    While any snapshot is live the owning engine (a) keeps tables retired by
    compaction/split readable until the last pinning snapshot releases, and
    (b) floors version GC at the oldest live snapshot's seq, so no version
    visible to a live snapshot is dropped.

    The record is shared by every engine (and pinned per shard by the
    concurrent front end) so heterogeneous engines behind {!store} expose one
    snapshot currency. [release] is idempotent. *)
type snapshot = {
  snap_seq : int64;  (** the pinned sequence number *)
  snap_id : int;  (** unique within the owning engine instance *)
  snap_release : unit -> unit;
}

let release s = s.snap_release ()

module type S = sig
  type t

  val put : t -> key:string -> value:string -> unit

  val write_batch : t -> (Wip_util.Ikey.kind * string * string) list -> unit
  (** Atomically logged batch (the paper batches 1000 writes per log append).
      @raise Rejected when admission control or degraded state refuses it. *)

  val try_write_batch :
    t -> (Wip_util.Ikey.kind * string * string) list ->
    (unit, write_error) result
  (** [write_batch] with the refusal as data instead of an exception. *)

  val try_write_batches :
    t -> (Wip_util.Ikey.kind * string * string) list list ->
    (unit, write_error) result
  (** Several logical batches as one commit unit: a single WAL append
      carrying one record per batch, then every batch applied, all under
      one admission decision. The group-commit engine primitive — a
      leader calls this with the batches of every queued follower, then
      {!log_sync} once for the lot. All-or-nothing at this level: either
      every batch is logged and applied or none is. *)

  val log_sync : t -> unit
  (** Durability barrier on the write-ahead log only (no flush): after it
      returns, every previously applied batch survives a crash.
      @raise Rejected with [Store_degraded] if the sync itself fails
      durably — callers must not ack writes when this raises. *)

  val health : t -> health

  val probe : t -> health
  (** Attempt recovery when {!Degraded}: perform one durable write
      round-trip; on success the store returns to {!Healthy}. The returned
      value is the health after the probe. No-op when already healthy. *)

  val delete : t -> key:string -> unit

  val get : t -> string -> string option

  val scan : t -> lo:string -> hi:string -> ?limit:int -> unit -> (string * string) list
  (** Live entries with [lo <= key < hi], ascending, at most [limit].
      A negative [limit] is clamped to 0 (empty result), never an error. *)

  val snapshot : t -> snapshot
  (** Pin the current sequence number. Until {!release}, reads through the
      handle are repeatable: version GC floors at the oldest live snapshot
      and retired tables stay readable. Snapshots do not survive a restart. *)

  val get_at : t -> string -> snapshot:snapshot -> string option
  (** [get] at a pinned snapshot: the newest version with seq <= the
      snapshot's seq, [None] if that version is a tombstone or absent. *)

  val scan_at :
    t -> lo:string -> hi:string -> ?limit:int -> snapshot:snapshot -> unit ->
    (string * string) list
  (** [scan] at a pinned snapshot. *)

  val flush : t -> unit
  (** Persist all memtable contents to level-0 tables. *)

  val maintenance : t -> ?budget_bytes:int -> unit -> unit
  (** Run pending background work (compactions). [budget_bytes] bounds the
      amount of compaction I/O performed; omit it to run to quiescence. *)

  val maintenance_pending : t -> int
  (** Estimated bytes of background work {!maintenance} would perform right
      now; 0 when quiescent. Advisory: the compaction pool reads it without
      the owning shard's lock to prioritize shards, so implementations must
      tolerate concurrent mutation (stale or approximate answers are fine,
      crashes are not) and must not write any state. *)

  val env : t -> Wip_storage.Env.t

  val io_stats : t -> Wip_storage.Io_stats.t

  val file_sizes : t -> int list
  (** Sizes of all live data files (Figure 11). *)

  val name : t -> string
end

(** What each engine built on {!Table_set} exposes beyond {!S}: its own
    construction and recovery, a durability barrier, and the table-set
    introspection tests and the CLI read. *)
module type Engine = sig
  include S

  type config

  val create : ?env:Wip_storage.Env.t -> config -> t

  val recover : ?env:Wip_storage.Env.t -> config -> t
  (** Reopen the store persisted in [env]: manifest replay rebuilds the
      engine's layout, WAL replay repopulates the memtables, and table files
      no manifest edit references are deleted. Equivalent to [create] on a
      fresh device. *)

  val checkpoint : t -> unit
  (** WAL sync plus a synced manifest watermark: everything acknowledged so
      far survives a crash. *)

  val compaction_count : t -> int

  val live_table_files : t -> string list
  (** Names of every table file the layout references — after recovery,
      exactly the table files on the Env. *)

  val live_snapshot_count : t -> int

  val oldest_snapshot_seq : t -> int64
  (** The version-GC floor: min over live snapshots, [Int64.max_int] when
      none are live (GC then keeps only the newest version per key). *)

  val zombie_table_files : t -> string list
  (** Files retired from the layout but still pinned by live snapshots,
      unordered. Empty when no snapshot is live. *)

  val zombie_bytes : t -> int
  (** Total on-device size of {!zombie_table_files}: the space long-lived
      snapshots are holding back from reclamation. *)

  val quarantined_tables : t -> (string * string) list
  (** [(file, corruption detail)] of tables renamed aside after failing
      validation, newest first. *)
end

(* Existential wrapper so heterogeneous engines fit in one list. *)
type store = Store : (module S with type t = 'a) * 'a -> store

let put (Store ((module M), t)) ~key ~value = M.put t ~key ~value
let write_batch (Store ((module M), t)) items = M.write_batch t items

let try_write_batch (Store ((module M), t)) items = M.try_write_batch t items

let health (Store ((module M), t)) = M.health t
let probe (Store ((module M), t)) = M.probe t
let delete (Store ((module M), t)) ~key = M.delete t ~key
let get (Store ((module M), t)) key = M.get t key

let scan (Store ((module M), t)) ~lo ~hi ?limit () =
  M.scan t ~lo ~hi ?limit ()

let snapshot (Store ((module M), t)) = M.snapshot t

let get_at (Store ((module M), t)) key ~snapshot = M.get_at t key ~snapshot

let scan_at (Store ((module M), t)) ~lo ~hi ?limit ~snapshot () =
  M.scan_at t ~lo ~hi ?limit ~snapshot ()

let flush (Store ((module M), t)) = M.flush t

let maintenance (Store ((module M), t)) ?budget_bytes () =
  M.maintenance t ?budget_bytes ()

let maintenance_pending (Store ((module M), t)) = M.maintenance_pending t

let env (Store ((module M), t)) = M.env t
let io_stats (Store ((module M), t)) = M.io_stats t
let file_sizes (Store ((module M), t)) = M.file_sizes t
let store_name (Store ((module M), t)) = M.name t
