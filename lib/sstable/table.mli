(** Sorted tables (SSTables / LevelTables): builder and reader.

    A table stores internal-key/value entries in ascending
    {!Wip_util.Ikey.compare} order, carved into prefix-compressed blocks with
    an index block, a bloom filter over (escaped) user keys, and a
    CRC-protected footer. Tables are immutable once finished.

    Keys travel through this layer in their {e encoded} memcomparable form
    (see {!Wip_util.Ikey}): the reader compares raw bytes with
    [String.compare] and never decodes on the point-get, scan or compaction
    paths. *)

type meta = {
  name : string;  (** file name within the {!Wip_storage.Env.t} *)
  size : int;  (** file size in bytes *)
  entry_count : int;
  smallest : string;  (** smallest user key; "" iff the table is empty *)
  largest : string;
}

module Builder : sig
  type t

  val create :
    Wip_storage.Env.t ->
    name:string ->
    category:Wip_storage.Io_stats.category ->
    ?block_size:int ->
    ?bits_per_key:int ->
    ?ph_index:bool ->
    expected_keys:int ->
    unit ->
    t
  (** [block_size] defaults to 4096 bytes, [bits_per_key] to 10.
      [expected_keys] sizes the bloom filter and is required: every call
      site knows (or can bound) its key count, and a defaulted guess either
      wastes filter bytes or inflates the false-positive rate.
      [ph_index] (default true) emits a {!Ph_index} block mapping each user
      key to its newest version's exact slot; it is silently dropped for
      overweight tables or failed constructions. *)

  val add : t -> Wip_util.Ikey.t -> string -> unit
  (** Keys must arrive in strictly ascending internal-key order. *)

  val add_encoded : t -> key:string -> value:string -> unit
  (** Like {!add} but takes the already encoded internal key — the form
      compaction and split streams carry, so re-writing an entry encodes
      nothing. *)

  val entry_count : t -> int

  val estimated_size : t -> int

  val finish : t -> meta
  (** Flushes remaining data, writes filter, index and footer, syncs and
      closes the file. *)

  val abandon : t -> unit
  (** Close and delete the partially written file. *)
end

module Reader : sig
  type t

  val open_ :
    ?cache:Wip_storage.Block_cache.t ->
    ?ph:bool ->
    Wip_storage.Env.t ->
    name:string ->
    t
  (** Reads footer, index, filter and (when present) the perfect-hash point
      index eagerly (accounted as [Table_meta] traffic); data blocks are
      read on demand, consulting [cache] first when one is supplied (only
      device reads are charged to the {!Wip_storage.Io_stats.category}).
      [ph] (default true) set to false ignores any ph block — the bench's
      A/B switch. A ph block that fails its CRC or parse is recorded as a
      ph fallback and ignored: corruption of the accelerator never fails
      the open or the gets it would have served. *)

  val meta : t -> meta

  val has_ph : t -> bool
  (** Whether gets on this reader take the perfect-hash point path. *)

  val ph_bytes : t -> int
  (** On-disk size of the ph block (0 when absent) — bench reporting. *)

  val get :
    t ->
    category:Wip_storage.Io_stats.category ->
    string ->
    snapshot:int64 ->
    (Wip_util.Ikey.kind * string * int64) option
  (** Newest version of the user key with sequence [<= snapshot]. The bloom
      filter short-circuits definite misses without any data-block I/O. *)

  val get_encoded :
    t ->
    category:Wip_storage.Io_stats.category ->
    ?filter_checked:bool ->
    string ->
    (Wip_util.Ikey.kind * string * int64) option
  (** [get_encoded t ~category target] with [target] an
      {!Wip_util.Ikey.encode_seek} result: the allocation-lean form of
      {!get}, letting callers build the seek target once and probe many
      tables. [filter_checked] (default false) skips the bloom probe when
      the caller already ran {!may_contain_encoded}. A false-positive probe
      (maybe-answer but no entry) is recorded in the env's
      {!Wip_storage.Io_stats.t}. *)

  val may_contain_encoded : t -> string -> bool
  (** Bloom-filter check only (records the probe in the env stats) for an
      encoded (seek) key. *)

  (** A run cursor: the table's encoded entries in order from the first
      [>= from] (an encoded seek key; default: the table start). Creating
      one reads nothing — the first {!Cursor.next} seeks — and blocks are
      read lazily under [admit] ([Scan] for range reads, [Bypass] for
      whole-table passes; see {!Wip_storage.Block_cache}). Stepping
      allocates only at block boundaries; damaged bytes raise
      {!Wip_storage.Env.Corruption}. *)
  module Cursor : sig
    type reader := t

    type t

    val create :
      reader ->
      category:Wip_storage.Io_stats.category ->
      admit:Wip_storage.Block_cache.admission ->
      ?from:string ->
      unit ->
      t

    val next : t -> bool
    (** Position on the next entry; [false] once the table is exhausted. *)

    val block : t -> Block.Cursor.t
    (** The block cursor holding the current entry, valid until [next]. *)
  end

  val stream :
    t ->
    category:Wip_storage.Io_stats.category ->
    admit:Wip_storage.Block_cache.admission ->
    ?from:string ->
    unit ->
    (string * string) Seq.t
  (** {!Cursor} as a one-shot sequence of fresh [(key, value)] pairs, for
      flush, compaction, split and view build. Force it at most once. *)

  val close : t -> unit
end

val overlaps : meta -> lo:string -> hi:string -> bool
(** Whether the table's [smallest, largest] user-key range intersects the
    inclusive range [lo, hi]. Empty tables overlap nothing. *)

val overlaps_excl : meta -> lo:string -> hi_excl:string -> bool
(** Like {!overlaps} but with an exclusive upper bound — the natural fit for
    scan ranges [lo, hi): a table whose smallest key equals [hi_excl] does
    not overlap, so the read path never opens it just to discard every
    entry. *)
