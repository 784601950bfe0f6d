(** WipDB's hash-table MemTable (paper §III-C, Figure 4).

    The directory is an array of cacheline-sized entries, each holding eight
    slots. A slot stores a two-byte tag derived from the user key and a
    pointer (here: an index into the item arena). The slots of an entry are
    used as a log: new items are appended at the end, and lookups scan from
    the end so the newest version of a key wins. When any entry overflows —
    or the item arena reaches capacity — the table reports itself full; the
    owner freezes it, sorts it, and writes it out as a level-0 LevelTable.

    No entry is ever relocated, so a single memory access (one entry probe)
    serves a lookup — the property behind the Figure 3 throughput gap. *)

type t

val create : capacity_items:int -> t
(** Directory is sized so that an average of four slots per entry are used
    at capacity, leaving headroom before overflow. *)

val try_add : t -> Wip_util.Ikey.t -> string -> bool
(** [false] means the table is full (entry overflow or arena at capacity)
    and the item was NOT inserted; the caller must rotate the table. *)

val find_with_seq :
  t -> string -> snapshot:int64 ->
  (Wip_util.Ikey.kind * string * int64) option
(** The newest version of [user_key] whose sequence number is
    [<= snapshot], if any, with that sequence number. *)

val sorted : t -> (string * string) array
(** The paper's sort-to-buffer for range search and flush: every entry as
    [(Ikey.encode key, value)], in internal-key order. Sorted at most once
    per version — the buffer is kept and shared until the next successful
    {!try_add} — and never mutated once returned, so callers must not
    mutate it either. *)

val sorts : t -> int
(** Buffers built so far: at most one per version of the table. *)

val count : t -> int

val byte_size : t -> int

val probes : t -> int
(** Cumulative slot inspections — memory-access proxy for Figure 3. *)

val capacity_items : t -> int
