(** Sharded concurrent store front with a parallel compaction pool.

    The key space is partitioned into contiguous shards, each owning an
    independent engine instance and its own lock, so puts/gets/deletes to
    different shards proceed in parallel — the deployment model the paper
    assumes (§IV-A runs 7 background compaction threads against many
    independent buckets). Align shard boundaries with engine bucket
    boundaries via {!Wipdb.Config.shard_boundaries} (or any strictly
    increasing partition starting at [""]).

    Concurrency model:

    - every operation on one shard holds that shard's mutex;
    - cross-shard [write_batch] and [scan] take the locks of the involved
      shards in ascending shard order — the single canonical order used
      everywhere, so no lock cycle can form. A multi-shard batch is atomic
      per shard and isolated across shards (all locks are held while it
      applies); a scan takes the next shard's lock only while its limit is
      unmet and holds every lock it took until it ends, a consistent cut;
    - a pool of [pool_threads] worker domains (default 7, §IV-A) pulls
      per-shard maintenance work, each cycle serving the unclaimed shard
      with the largest {!Wip_kv.Store_intf.S.maintenance_pending} estimate
      under a per-cycle byte budget.

    For the pool to have work to steal, configure the wrapped engines so
    their write path does not compact inline (for WipDB:
    [compaction_budget_per_batch = 0]; mandatory splits/over-limit
    compactions still run in the writer to bound sublevel counts). *)

module Make (S : Wip_kv.Store_intf.S) : sig
  type t

  val create :
    ?pool_threads:int ->
    ?budget_per_cycle:int ->
    ?idle_sleep:float ->
    ?admission:bool ->
    ?slowdown_watermark_bytes:int ->
    ?stop_watermark_bytes:int ->
    ?inflight_limit_bytes:int ->
    ?stall_deadline_s:float ->
    (string * S.t) list ->
    t
  (** [create shards] starts the compaction pool over [(lower_bound, store)]
      shards. The first lower bound must be [""] and bounds must be strictly
      increasing; each store must only ever be reached through this wrapper.
      [pool_threads] (default 7) sizes the pool ([0] disables background
      work); each worker cycle runs maintenance on one shard bounded by
      [budget_per_cycle] bytes (default 1 MiB) and then yields for
      [idle_sleep] seconds (default 1 ms).

      Admission control (on unless [admission:false]) gates each write on
      its shard's {e write debt} — the engine's advisory
      [maintenance_pending] plus the bytes admitted since the pool last
      serviced the shard (capped at [inflight_limit_bytes], default 4 MiB).
      Debt past [stop_watermark_bytes] (default 4 MiB) stalls the writer
      with the shard lock released between checks so the pool can drain;
      a stall outliving [stall_deadline_s] (default 1 s) is refused with
      {!Wip_kv.Store_intf.Backpressure}. Debt past
      [slowdown_watermark_bytes] (default 2 MiB) waits briefly and admits.
      @raise Invalid_argument on an invalid shard partition or admission
      parameters. *)

  val put : t -> key:string -> value:string -> unit
  (** @raise Wip_kv.Store_intf.Rejected when admission control times out or
      the shard is degraded. *)

  val write_batch : t -> (Wip_util.Ikey.kind * string * string) list -> unit
  (** Items are routed to their shards; locks are acquired in canonical
      ascending order and held until every sub-batch has applied. A batch
      spanning several shards fails fast on admission (it cannot stall with
      multiple locks held) and is atomic per shard, not across shards.
      @raise Wip_kv.Store_intf.Rejected as for {!put}. *)

  val try_write_batch :
    t ->
    (Wip_util.Ikey.kind * string * string) list ->
    (unit, Wip_kv.Store_intf.write_error) result
  (** [write_batch] with the refusal as data: {!commit_batches}'s window
      over this one batch, without the durability barrier.
      [Backpressure.shard] is the index of the first refusing shard. *)

  val commit_batches :
    t ->
    (Wip_util.Ikey.kind * string * string) list array ->
    (unit, Wip_kv.Store_intf.write_error) result array
  (** Group commit: commit several independent logical batches as one
      window — per involved shard, a single WAL append carrying one record
      per batch ({!Wip_kv.Store_intf.S.try_write_batches}) followed by a
      single durability barrier ({!Wip_kv.Store_intf.S.log_sync}), so [n]
      concurrent commits cost one fsync per touched shard instead of [n].
      Returns one verdict per input batch, in order; [Ok] means {e durable}
      — the batch is applied and fsynced on every shard it touches — which
      is the invariant that lets a server acknowledge it. A batch fails
      (typed, like {!try_write_batch}) if any shard it touches refuses
      admission, is degraded, fails to apply, or fails to sync; other
      batches in the window are unaffected. Locks of all involved shards
      are taken in canonical ascending order; each batch stays atomic per
      shard, not across shards. *)

  val delete : t -> key:string -> unit
  (** @raise Wip_kv.Store_intf.Rejected as for {!put}. *)

  val health : t -> Wip_kv.Store_intf.health
  (** {!Wip_kv.Store_intf.Degraded} as soon as any shard's engine is. *)

  val probe : t -> Wip_kv.Store_intf.health
  (** Run a recovery probe on every degraded shard; the result is the
      aggregate health afterwards (first still-degraded shard wins). *)

  val inflight_bytes : t -> int
  (** Total bytes admitted but not yet serviced by the pool, across all
      shards — the quantity bounded by [inflight_limit_bytes]. *)

  val get : t -> string -> string option

  val scan :
    t -> lo:string -> hi:string -> ?limit:int -> unit -> (string * string) list
  (** Rows of [\[lo, hi)] in key order, at most [limit] of them. Shards are
      visited in ascending order and a shard is locked and read only while
      the rows so far fall short of [limit]; every lock taken stays held
      until the scan ends, so the result is a consistent multi-shard cut. A
      negative [limit] is clamped to 0. *)

  type snapshot
  (** A pinned multi-shard snapshot: one engine snapshot per shard, acquired
      as a consistent cut (all shard locks held in canonical order while the
      per-shard sequence numbers are pinned). *)

  val snapshot : t -> snapshot
  (** Pin a consistent cross-shard snapshot. Each shard's engine keeps every
      version (and every retired table) the snapshot can see until
      {!release}; hold snapshots briefly under write churn or space grows. *)

  val release : t -> snapshot -> unit
  (** Release every per-shard pin. Idempotent. *)

  val get_at : t -> string -> snapshot:snapshot -> string option
  (** {!get} as of the snapshot's cut. *)

  val scan_at :
    t ->
    lo:string ->
    hi:string ->
    ?limit:int ->
    snapshot:snapshot ->
    unit ->
    (string * string) list
  (** {!scan} as of the snapshot's cut. Shards are visited lazily and one
      at a time (no cross-shard lock hold): the pinned per-shard snapshots
      alone make the result a consistent cut, however long the scan takes and
      whatever writes or compactions land meanwhile. *)

  val flush : t -> unit

  val maintenance : t -> ?budget_bytes:int -> unit -> unit
  (** Foreground maintenance over every shard (in addition to the pool). *)

  val maintenance_pending : t -> int
  (** Sum of the per-shard advisory estimates (racy read, like the pool's). *)

  val with_shard : t -> key:string -> (S.t -> 'a) -> 'a
  (** Run [f] on the shard owning [key] while holding its lock — for
      engine-specific calls (snapshots, stats, introspection). *)

  val fold_shards : t -> init:'a -> f:('a -> S.t -> 'a) -> 'a
  (** Fold over all shards in key order, locking each in turn (not a
      consistent cut across shards — use for monitoring/aggregation). *)

  val shard_count : t -> int

  val pool_size : t -> int

  val compaction_cycles : t -> int
  (** Pool cycles that claimed a shard and ran maintenance on it. *)

  val stop : t -> unit
  (** Stop and join the pool, then run maintenance to quiescence on every
      shard. Idempotent; also invoked from [at_exit] as a safety net. *)
end
