(** K-way merge of ordered sequences (pairing heap).

    Both entry points operate on {e encoded} internal keys — raw strings in
    memcomparable form (see {!Wip_util.Ikey}) compared with
    [String.compare] — so flush, compaction and split streams never
    materialize an [Ikey.t] per element. *)

val merge : (string * 'v) Seq.t list -> (string * 'v) Seq.t
(** Inputs must each be sorted by key; the merged output preserves that
    order (stable across inputs only up to key equality). *)

val compact :
  ?dedup_user_keys:bool ->
  ?drop_tombstones:bool ->
  ?snapshot_floor:int64 ->
  (string * string) Seq.t list ->
  (string * string) Seq.t
(** Merge plus version GC, all on encoded keys. With [dedup_user_keys] the
    newest version of each user key survives and older versions are dropped;
    with [drop_tombstones] surviving deletion markers are also elided (legal
    only when merging into the bottommost data of a key range).
    [snapshot_floor] (default: keep-newest-only regardless) protects
    versions newer than the floor from dedup so that open snapshots keep
    reading consistent data; versions at or below the floor collapse to the
    newest one. *)
