(** The one k-way merge under every engine: scans ({!Range_reader}),
    compaction, bucket split and merge, and sorted-view build and extension
    all order their inputs in this binary heap.

    Inputs are positioned on encoded internal keys, compared bytewise in
    place (the encoding is memcomparable, see {!Wip_util.Ikey}). The head
    taken last steps only when the next one is asked for, so a consumer
    reads the head's key and value bytes where they lie — in a run cursor's
    block, or a memtable entry — and copies them only if it keeps them:
    {!add_to} moves the head into a table builder with no string in
    between. Stepping allocates nothing beyond the block reads of run
    cursors. *)

exception Stale_view
(** Raised by a view walk whose run cursors end before its selectors do —
    the run set changed under a view that was not invalidated. *)

type input

val mem : (string * string) Seq.t -> input
(** Encoded entries in key order, from a memtable. *)

val run : ?tag:int -> Table.Reader.Cursor.t -> input
(** A table's entries. [tag] (default 0) is what {!tag} reports while this
    run holds the head. *)

val walk :
  selectors:Bytes.t ->
  count:int ->
  start:int ->
  from:string ->
  Table.Reader.Cursor.t array ->
  input
(** The replay of a frozen merge of the given runs: entry [i] is the next
    entry of run [selectors.[i]], for [i] from [start] below [count]; no
    key comparison picks the run. Entries below the encoded key [from] are
    skipped when the walk is positioned. While the walk holds the head,
    {!tag} is the run it popped.
    @raise Invalid_argument when [runs] is empty. *)

type t

val create : input list -> t
(** Position every input on its first entry (run cursors read their first
    block here) and order them. *)

val compact :
  drop_tombstones:bool -> snapshot_floor:int64 -> input list -> t
(** {!create} plus version GC, decided on the key bytes: the newest version
    of each user key at or below [snapshot_floor] survives and older ones
    are dropped, while every version above the floor survives (an open
    snapshot may still read it). With [drop_tombstones] a surviving
    deletion marker is dropped too — legal only when the merge holds the
    deepest data of its key range. *)

val next : t -> bool
(** Step the previous head, then position on the next entry (for a
    {!compact} merge, the next surviving one); [false] once every input is
    exhausted. *)

val key_bytes : t -> Bytes.t
(** The head's encoded key is the first {!key_length} bytes, valid until
    the next {!next}. Do not mutate. *)

val key_length : t -> int

val tag : t -> int
(** The head's run (see {!run} and {!walk}); 0 for a memtable input. *)

val user_key : t -> string
(** The head's unescaped user key (fresh). *)

val value : t -> string
(** The head's value (fresh). *)

val add_to : Table.Builder.t -> t -> unit
(** Add the head to a table builder, copying its bytes in place. *)

val entries_read : t -> int
(** Entries the inputs have stepped over so far, kept or not. *)
