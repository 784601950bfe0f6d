(** Segmented LRU block cache.

    Caches raw (already CRC-verified) data blocks keyed by
    [(file name, offset)], bounded by a byte capacity. Table readers consult
    it before issuing device reads, so repeated point reads and scans over
    hot ranges skip the device entirely — the effect the paper relies on
    when it notes that freshly written, immediately read items are served
    from a cache (§III-G).

    Every read names an {!admission} class. Point reads insert at the
    most-recently-used end of a {e protected} segment; scans insert into a
    {e probation} segment that is evicted first, and a second hit promotes
    a probation block to protected; sequential maintenance readers bypass
    the cache. Protected overflow demotes its least-recently-used blocks to
    the head of probation, so with no scan traffic the protected-then-
    probation order is exactly one LRU list. *)

type t

type admission =
  | Point  (** insert protected; hits promote *)
  | Scan  (** insert on probation; hits promote *)
  | Bypass  (** never insert, never reorder; misses count as bypasses *)

val create : capacity_bytes:int -> t

val find : ?admit:admission -> t -> file:string -> offset:int -> string option
(** [admit] defaults to [Point]. A [Point] or [Scan] hit moves the entry to
    the most-recently-used end of the protected segment and a miss counts
    in {!misses}; a [Bypass] hit leaves the order alone and a miss counts
    in {!bypasses}. *)

val add :
  ?admit:admission -> t -> file:string -> offset:int -> ?charge:int ->
  string -> unit
(** Inserts (replacing any previous entry for the key) at the head of the
    segment [admit] names — [Bypass] inserts nothing — and evicts from the
    probation tail, then the protected tail, until the total charge fits
    the capacity. [charge] (default: the value's length) is what the entry
    counts against the capacity — a sealed block is charged its payload
    only. Values charged more than the whole capacity are not cached; such
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
(** Misses of [Bypass] probes (deliberate non-filling traffic). *)

val rejections : t -> int
(** Inserts dropped because the value alone exceeded the capacity. *)

val used_bytes : t -> int

val entry_count : t -> int
