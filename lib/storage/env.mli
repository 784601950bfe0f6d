(** Storage environment.

    [Env] abstracts the device under the store: file creation, sequential
    append, random reads, deletion, directory listing — with every byte of
    traffic attributed to an {!Io_stats.category}. Two backends:

    - {!in_memory}: files are byte buffers. Deterministic, fast, and the
      default for tests and benchmarks. Substitutes for the paper's PCIe SSD
      per DESIGN.md — the experiments measure bytes moved, which this backend
      accounts exactly.
    - {!posix}: real files under a root directory, for end-to-end runs.

    Paths are flat strings ("000017.lvt", "wal/000002.log", ...). *)

exception Io_fault of { op : string; file : string; retryable : bool }
(** A device error (injected by {!Fault_env} or surfaced by a backend). The
    operation had no effect. [retryable] classifies it: [true] for transient
    errors that may succeed if re-attempted, [false] for permanent ones
    (disk full, failed media) that must never be spun on.

    Lint rule R6 restricts exception handlers that {e match} this exception
    to [lib/storage] and [Wip_util.Retry]. Other layers catch generically
    and consult the classifiers below. *)

exception Corruption of { file : string; detail : string }
(** Stored bytes failed validation (checksum mismatch, impossible offsets,
    bad magic). Raised by readers instead of ever decoding garbage. *)

val io_fault_retryable : exn -> bool
(** [true] exactly for [Io_fault { retryable = true; _ }]. The classifier
    {!with_retry} uses; exposed so upper layers can classify without
    matching the exception themselves. *)

val io_fault_detail : exn -> string option
(** ["op on file"] for an [Io_fault], [None] otherwise. *)

val corruption_detail : exn -> (string * string) option
(** [(file, detail)] for a {!Corruption}, [None] otherwise. *)

type t

type writer
(** Append-only file handle. *)

type reader
(** Random-access read handle over an immutable (closed) file. *)

val in_memory : unit -> t

val posix : root:string -> t
(** Files live under [root]; the directory is created if missing. File
    creation, deletion and rename are made durable with a directory fsync;
    {!sync} is a real fsync. *)

(** {1 Custom backends}

    A backend implemented outside this module — a vtable of closures.
    {!Fault_env} uses this to interpose fault plans under any store. *)

type custom = {
  c_create : string -> custom_writer;
  c_open : string -> custom_reader;  (** raises [Not_found] when missing *)
  c_exists : string -> bool;
  c_delete : string -> unit;
  c_rename : src:string -> dst:string -> unit;
  c_list : unit -> string list;
  c_live_bytes : unit -> int;
}

and custom_writer = {
  cw_append : string -> unit;
  cw_sync : unit -> unit;
  cw_close : unit -> unit;
}

and custom_reader = {
  cr_size : int;
  cr_read : pos:int -> len:int -> string;
  cr_close : unit -> unit;
}

val custom : custom -> t
(** Wrap a custom backend; I/O accounting still happens in this module. *)

val stats : t -> Io_stats.t

(** {1 Transient-fault retry} *)

val with_retry :
  ?policy:Wip_util.Retry.policy ->
  ?sleep_ns:(int -> unit) ->
  seed:int64 ->
  t ->
  t
(** [with_retry ~seed t] is a derived env sharing [t]'s backend, stats and
    lock, whose durable operations — {!create_file}, {!append}, {!sync},
    {!delete}, {!rename} — are re-attempted under [policy] (default
    {!Wip_util.Retry.default_policy}) when they raise a retryable
    {!Io_fault}. Because every durable byte of WAL, flush, compaction,
    split and manifest traffic flows through these five entry points, this
    one wrapper covers every durable-op site in the store.

    Reads are deliberately {e not} retried: a read fault must propagate
    typed to the caller so the read path can fail the one lookup rather
    than stall it.

    The backoff schedule is deterministic: each durable op derives a fresh
    {!Wip_util.Rng} from [seed] and a per-env op counter. [sleep_ns]
    (default: real [Unix.sleepf]) is swappable for tests. Re-attempts are
    counted by {!Io_stats.retries}.
    @raise Invalid_argument if [policy] fails [Retry.validate]. *)

(** {1 Writing} *)

val create_file : t -> string -> writer
(** Truncates any existing file of that name. *)

val append : writer -> category:Io_stats.category -> string -> unit

val writer_offset : writer -> int
(** Bytes written so far. *)

val sync : writer -> unit
(** Durability barrier. No-op in memory; fsync on POSIX. Counted by
    {!Io_stats.syncs} on every backend. *)

val close_writer : writer -> unit

(** {1 Reading} *)

val open_file : t -> string -> reader
(** @raise Not_found if the file does not exist. *)

val read : reader -> category:Io_stats.category -> pos:int -> len:int -> string
(** @raise Invalid_argument when the range is out of bounds. *)

val read_all : reader -> category:Io_stats.category -> string

val file_size : reader -> int

val close_reader : reader -> unit

(** {1 Namespace} *)

val exists : t -> string -> bool

val delete : t -> string -> unit
(** Idempotent. *)

val rename : t -> src:string -> dst:string -> unit

val list_files : t -> string list
(** All live file names, sorted. *)

val total_live_bytes : t -> int
(** Sum of sizes of all live files — the store's device footprint. *)
