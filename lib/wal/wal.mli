(** Segmented write-ahead log shared by all MemTables.

    Every update batch is appended to the log before it is acknowledged
    (paper §III-C/F). Because WipDB spreads incoming items over many
    MemTables, log space is reclaimed by the paper's Figure 5 scheme: each
    MemTable tracks the smallest sequence number it holds that is not yet
    persisted; the global minimum of those bounds a log prefix that is all
    garbage. The log is physically a chain of segment files; a segment is
    deleted once every record in it falls below the reclamation bound.

    Records carry a masked CRC-32C and a length header; recovery replays
    segments in order and stops cleanly at a torn tail write. *)

type t

type record = {
  seq : int64;
  kind : Wip_util.Ikey.kind;
  key : string;
  value : string;
}

val create :
  Wip_storage.Env.t -> ?prefix:string -> ?segment_bytes:int -> unit -> t
(** Starts an empty log. [prefix] defaults to ["wal"]; [segment_bytes]
    (default 4 MiB) bounds each segment file. *)

val recover :
  Wip_storage.Env.t ->
  ?prefix:string ->
  ?segment_bytes:int ->
  replay:(record -> unit) ->
  unit ->
  t
(** Opens the log left by a previous incarnation, replays every intact
    record in write order through [replay], and returns a log positioned to
    append after the replayed data. A torn final record is discarded. *)

val append_batch :
  t -> first_seq:int64 -> (Wip_util.Ikey.kind * string * string) list -> unit
(** Atomically logs a batch whose items take sequence numbers [first_seq],
    [first_seq+1], ... in order. *)

val append_batches :
  t ->
  first_seq:int64 ->
  (Wip_util.Ikey.kind * string * string) list list ->
  unit
(** [append_batches t ~first_seq batches] logs several logical batches with
    one physical append — the group-commit primitive. Each non-empty batch
    becomes its own CRC-framed record (replay never tears inside a batch),
    and sequence numbers run consecutively across the batches in list
    order. Equivalent to appending each batch in turn, but the device sees
    a single write. *)

val sync : t -> unit
(** Durability barrier on the current segment: every record appended so
    far survives a crash (a segment roll syncs too). *)

val reclaim : t -> persisted_below:int64 -> int
(** [reclaim t ~persisted_below:s] deletes every segment all of whose
    records have sequence numbers [< s], except the one holding the newest
    record: {!recover} learns {!max_seq_logged} from it, and a store
    restarting from the log takes its sequence number from there. Returns
    bytes freed. This is the Figure 5 tail advance: [s] should be the
    minimum over live MemTables of their smallest unpersisted sequence
    number (or the next unassigned sequence number if everything is
    persisted). *)

val total_bytes : t -> int
(** Live log footprint. *)

val segment_count : t -> int

val max_seq_logged : t -> int64
(** Largest sequence number ever appended (0 when empty). *)
