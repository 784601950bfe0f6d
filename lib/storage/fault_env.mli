(** Deterministic fault injection under any store.

    [Fault_env] is an in-memory device that distinguishes, per file, the
    bytes a crash would preserve (the {e synced prefix}) from bytes that are
    merely buffered. Every [append] and every [sync] issued through the
    wrapped {!Env.t} is a numbered {e durable op}; a scriptable fault plan
    can, at any chosen op:

    - {b crash}: capture a device image in which every file is cut back to
      its synced prefix — optionally keeping [torn] extra bytes of the
      written file's unsynced tail, modelling a torn write — and abort the
      run by raising {!Crashed};
    - {b fail}: raise the typed {!Env.Io_fault} without applying the
      operation (a transient device error — retrying is legal).

    Reads are independently numbered and can be failed the same way, and
    stored bytes can be bit-flipped in place to model silent media
    corruption. Deletions, renames and file creation are modelled as
    immediately durable — the pessimistic direction for data loss, since a
    deleted WAL segment is unrecoverable while an undeleted orphan is
    merely garbage.

    The crash-matrix harness ([test/test_crash_matrix.ml]) first profiles a
    workload with an empty plan to learn its durable-op count, then replays
    it once per op with a crash scheduled there, recovering from each image
    and asserting the recovery invariants of DESIGN.md. *)

exception Crashed
(** Raised at a scripted crash point, after the device image is captured.
    The store that was running on the env is dead; only {!image} matters. *)

type t

val create : unit -> t

val env : t -> Env.t
(** The wrapped environment to hand to a store. All traffic through it is
    subject to the fault plan; injected faults are counted by
    {!Io_stats.faults} on its stats. *)

(** {1 Scripting faults} *)

val crash_at : t -> op:int -> ?torn:int -> unit -> unit
(** Crash when durable op [op] (1-based, counting appends and syncs in
    issue order) executes. [torn] (default 0) bytes of the affected file's
    unsynced tail survive into the image beyond its synced prefix. *)

val fail_write_at : t -> ?retryable:bool -> op:int -> unit -> unit
(** Raise {!Env.Io_fault} at durable op [op] instead of applying it.
    [retryable] (default [true]) marks the fault transient; pass [false]
    to model a permanent error that retry loops must give up on. *)

val fail_read_at : t -> op:int -> unit
(** Raise {!Env.Io_fault} at read op [op] (1-based, counting reads). Read
    faults carry [retryable = false] — the read path surfaces them typed
    rather than re-attempting. *)

val storm : t -> first_op:int -> last_op:int -> unit
(** A transient-fault storm: every durable op in [[first_op, last_op)]
    raises a retryable {!Env.Io_fault}. Retries themselves are numbered
    ops, so a storm of width [w] defeats fewer than ⌈w / (attempts - 1)⌉
    logical operations before the window passes. Storms stack. *)

val set_space_budget : t -> bytes:int option -> unit
(** Disk full after a byte budget: once [bytes] total have been appended
    successfully, any further append raises
    [Io_fault { op = "no_space"; retryable = false }] before the bytes are
    buffered. [None] (the initial state) removes the limit. *)

val set_latency : t -> durable_ns:int -> unit
(** Sleep [durable_ns] nanoseconds before each durable op — a slow device,
    for exercising stall deadlines. 0 (the initial state) disables. *)


val flip_bit : t -> file:string -> bit:int -> unit
(** Flip bit [bit] (counting from bit 0 of byte 0) of the stored file —
    silent media corruption. The flip lands in both the live contents and
    the synced prefix. @raise Not_found if the file does not exist. *)

(** {1 Observation} *)

val durable_ops : t -> int
(** Durable ops (appends + syncs) executed so far — after a fault-free
    profiling run, the size of the crash matrix. *)

val read_ops : t -> int

val file_size : t -> string -> int
(** Current (buffered) size of a file. @raise Not_found if missing. *)

(** {1 Images} *)

val image : t -> Env.t
(** The device image captured by the crash that fired. A fresh in-memory
    {!Env.t} — recover a store from it. @raise Invalid_argument if no
    scripted crash has fired. *)

val durable_image : t -> Env.t
(** An image of the durable state {e right now} (every file cut to its
    synced prefix), without scheduling a crash — "what if power failed at
    this instant". *)

val snapshot_env : ?truncate:string * int -> t -> Env.t
(** A copy of the full current state (buffered bytes included), with the
    named file truncated to the given byte count when [truncate] is
    supplied. A [truncate] naming a missing file is ignored — copying a
    device with no WAL segment is not an error. *)
