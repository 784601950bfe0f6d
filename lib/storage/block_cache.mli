(** LRU block cache.

    Caches raw (already CRC-verified) data blocks keyed by
    [(file name, offset)], bounded by a byte capacity. Table readers consult
    it before issuing device reads, so repeated point reads and scans over
    hot ranges skip the device entirely — the effect the paper relies on
    when it notes that freshly written, immediately read items are served
    from a cache (§III-G). *)

type t

val create : capacity_bytes:int -> t

val find : t -> file:string -> offset:int -> string option
(** Marks the entry most-recently-used on a hit. *)

val find_no_fill : t -> file:string -> offset:int -> string option
(** Scan-resistant probe: a hit counts in {!hits} but does not promote the
    entry; a miss counts in {!bypasses} instead of {!misses}. Sequential
    readers (compaction, splits) use this so one pass over a table neither
    pollutes the recency order nor skews the point-read hit rate. *)

val add : t -> file:string -> offset:int -> ?charge:int -> string -> unit
(** Inserts (replacing any previous entry for the key) and evicts
    least-recently-used entries until the total charge fits the capacity.
    [charge] (default: the value's length) is what the entry counts
    against the capacity — a sealed block is charged its payload only.
    Values charged more than the whole capacity are not cached; such
    inserts count in {!rejections} rather than silently vanishing. *)

val evict_file : t -> string -> unit
(** Drop every block of a deleted file. *)

type counters = {
  c_hits : int;
  c_misses : int;
  c_bypasses : int;
  c_rejections : int;
  c_used_bytes : int;
  c_entries : int;
}

val counters : t -> counters
(** Every counter read under one lock acquisition — the only way to get a
    mutually consistent set while other threads hit the cache. The scalar
    getters below each take the lock separately, so a pair of them read
    around concurrent traffic can be torn. *)

val hits : t -> int

val misses : t -> int

val bypasses : t -> int
(** Misses of {!find_no_fill} probes (deliberate non-filling traffic). *)

val rejections : t -> int
(** Inserts dropped because the value alone exceeded the capacity. *)

val used_bytes : t -> int

val entry_count : t -> int
