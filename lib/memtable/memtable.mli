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

val find : t -> string -> snapshot:int64 -> (Wip_util.Ikey.kind * string) option

val find_with_seq :
  t -> string -> snapshot:int64 ->
  (Wip_util.Ikey.kind * string * int64) option
(** {!find} that also reports the found version's sequence number — the
    transaction layer validates commit read/write sets against it. *)

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
