(** The one range reader under every engine's scans.

    A read walks {e sources} in ascending, disjoint key order (a WipDB
    bucket each, or a baseline's whole store): a memtable's encoded entries
    merged with a {!Sorted_view} walk or a heap of run cursors. Entries are
    decided on their key bytes — [hi] bound, snapshot visibility, newest
    version per user key, tombstones — and strings are allocated only for
    returned rows. Tables are read under [Read_path] with [Scan] admission;
    run cursors seek lazily, so a walk fetches blocks only of the runs it
    pops. Damaged blocks raise {!Wip_storage.Env.Corruption}; a view whose
    runs end before its selectors raises {!Sorted_view.Stale_view}. *)

type source
(** One source of a read: a memtable's entries plus its tables. *)

val source :
  reader:(Table.meta -> Table.Reader.t) ->
  lo:string ->
  hi:string ->
  mem:(string * string) Seq.t ->
  (Sorted_view.t * Table.meta array) option ->
  (unit -> Table.meta list) ->
  source
(** An engine's source for [lo, hi): [mem], its encoded entries from the
    first [>= lo], merged with a walk of its cached view over the readers
    of the view's runs when it has one, else with a heap over those of
    [tables ()] that overlap the range. *)

type t

val create : hi:string -> snapshot:int64 -> ?limit:int -> source Seq.t -> t
(** The sources' rows below [hi] visible at [snapshot], at most [limit]
    (negative: none). Sources are forced one at a time, so a read that
    stops early never reaches later ones. *)

val to_list : t -> (string * string) list

val to_seq : t -> (string * string) Seq.t
(** One-shot: the reader is mutable. *)

val entries_read : t -> int
(** Entries pulled from the sources so far, returned or not. *)
