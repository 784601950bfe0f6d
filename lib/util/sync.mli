(** Exception-safe, rank-ordered locking.

    Every mutex in the store lives behind this module: the lint rule R3
    forbids bare [Mutex.*] / [Condition.*] anywhere else, so a critical
    section can only be entered through {!with_lock} /
    {!with_locks_ordered}, which always release on exception.

    Each lock carries a {e rank}. The global lock order is "ascending
    rank": a thread holding a lock may only acquire strictly greater
    ranks. The convention used across the store:

    - [rank_pool] (100) — the compaction pool's claim lock; never held
      together with any other lock.
    - [rank_shard_base + i] (1000 + shard index) — shard locks, acquired
      in ascending shard order by cross-shard operations.
    - [rank_leaf] (1_000_000, the default) — leaf locks (Env, Io_stats,
      Block_cache, Histogram): critical sections that take no
      further lock. Two leaf locks must never nest.

    In debug mode ({!set_debug}) every acquisition is validated against a
    per-thread stack of held locks (keyed by domain {e and} systhread, so
    threads sharing a domain cannot pollute each other's checks): acquiring
    a rank less than or equal to the highest held rank raises
    {!Order_violation} (before the mutex is touched, so nothing leaks), and
    bumps {!violation_count}. Production mode costs one atomic read per
    acquisition. *)

type t

exception Order_violation of string

val rank_pool : int

val rank_shard_base : int

val rank_leaf : int

(** [create ()] makes a lock of rank {!rank_leaf}; pass [~rank] to place
    it elsewhere in the order. [~name] is used in violation reports. *)
val create : ?rank:int -> ?name:string -> unit -> t

val rank : t -> int

val name : t -> string

(** [with_lock l f] runs [f ()] with [l] held, releasing on any exit —
    normal return or raise. *)
val with_lock : t -> (unit -> 'a) -> 'a

(** [with_locks_ordered ls f] acquires every lock in [ls] (which must be
    in strictly ascending rank order — checked eagerly in debug mode),
    runs [f ()], and releases them in reverse order on any exit. *)
val with_locks_ordered : t list -> (unit -> 'a) -> 'a

(** [await t ~deadline pred] — must be called while holding [t] (inside
    {!with_lock}) — returns [true] as soon as [pred ()] holds, re-checking
    every [quantum_s] (default 0.2 ms) with the lock released between
    checks, or [false] once {!Unix.gettimeofday} reaches [deadline]. The
    lock is held whenever [pred] runs and on both return paths. This is
    the primitive behind write-stall waits: a bounded, deadline-respecting
    wait that can never park a writer forever. *)
val await : t -> ?quantum_s:float -> deadline:float -> (unit -> bool) -> bool

(** Condition variables bound to a {!t}. Unlike {!await} (a bounded
    polling wait), these park the waiter on a real [Condition.t] — the
    right tool when a peer is guaranteed to signal (group-commit
    leader/follower handoff). [wait c] must be called while holding the
    lock passed to [create] (innermost, in debug mode); it atomically
    releases the lock, sleeps, and reacquires before returning. As with
    stdlib conditions, wakeups may be spurious — re-check the predicate
    in a loop. [signal]/[broadcast] need not hold the lock but usually
    do. *)
module Cond : sig
  type cond

  val create : t -> cond

  val wait : cond -> unit

  val signal : cond -> unit

  val broadcast : cond -> unit
end

(** Enable / disable the per-domain acquisition-order validator. *)
val set_debug : bool -> unit


(** Locks currently held by the calling thread (0 unless debug mode saw
    the acquisitions). Quiescent code should observe 0 — a nonzero value
    at a sync point is a leak. *)
val held_count : unit -> int

(** Total order violations detected since process start (each also raised
    as {!Order_violation} at the offending acquisition). *)
val violation_count : unit -> int

(** Guarded-by witness — the runtime end of the lint rule R8. A module
    places [check_guard lock ~field] beside an access whose [guarded_by]
    annotation names [lock]; in debug mode the call checks that [lock] is
    physically in the calling thread's held stack and records a
    contradiction (field, lock name) otherwise. No-op outside debug mode.
    Contradictions are recorded rather than raised so a rotted annotation
    surfaces as a test assertion, not a crash inside a worker. *)
val check_guard : t -> field:string -> unit

(** Contradictions recorded since start (or the last reset), oldest
    first. *)
val guard_contradictions : unit -> (string * string) list

val guard_contradiction_count : unit -> int

val reset_guard_contradictions : unit -> unit
