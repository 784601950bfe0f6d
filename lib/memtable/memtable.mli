(** Unified MemTable front.

    A WipDB bucket owns one of these; the underlying structure is either the
    {!Hash_memtable} (default, write-optimized) or the {!Skiplist}
    (range-scan friendly). The adaptive policy in the core library decides
    which structure each bucket's next table uses, based on recent
    range-query traffic (paper §III-D). *)

type structure = Hash | Sorted

type t

val create : structure:structure -> capacity_items:int -> capacity_bytes:int -> t

val structure : t -> structure

val try_add : t -> Wip_util.Ikey.t -> string -> bool
(** [false] iff the table is full; the item was not inserted. A skiplist
    table is full when [capacity_bytes] or [capacity_items] is reached; a
    hash table additionally when a directory entry overflows. *)

val adopt : t -> Wip_util.Ikey.t -> string -> t
(** Add an entry that a bucket split or merge moves over from a retired
    bucket's table, and return the table to keep: [t], or — when [t] is a
    hash table out of room for it (the key's directory entry full, or
    [capacity_items] held) — a sorted table holding [t]'s entries and this
    one. The entry is never refused, since it was acknowledged and its WAL
    record may be reclaimed; capacity does not bind here, and the next
    {!try_add} into a full table fails so its owner flushes. *)

val find_with_seq :
  t -> string -> snapshot:int64 ->
  (Wip_util.Ikey.kind * string * int64) option
(** The newest version of [user_key] whose sequence number is
    [<= snapshot], if any, with that sequence number: the first stop of
    an engine's point read. *)

val entries : ?lo:string -> t -> (string * string) Seq.t
(** Every version as [(Ikey.encode key, value)] in internal-key order, from
    the first whose user key is [>= lo] (default: all) — the input of
    flush, split and range scans. A hash table serves it from its
    sort-to-buffer (§III-D), built at most once per version and found by
    binary search; later inserts build a new buffer and never touch this
    one, so the sequence keeps yielding the version it was taken from. A
    skiplist is walked in place from one seek and may also yield entries
    inserted later (their sequence numbers exceed any earlier snapshot). *)

val sorts : t -> int
(** Sort-to-buffer builds so far (0 for a skiplist). *)

val count : t -> int

val byte_size : t -> int

val probes : t -> int

val is_empty : t -> bool

val min_seq : t -> int64 option
(** Smallest sequence number held — drives WAL reclamation. *)
