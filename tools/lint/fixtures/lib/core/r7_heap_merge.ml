(* Fixture: R7 — heap merges outside lib/sstable bypass the sorted view. *)

let scan_all inputs = Merge.create inputs (* FINDING: R7 *)

let replay ~selectors ~count runs =
  Wip_sstable.Merge.walk ~selectors ~count ~start:0 ~from:"" runs (* FINDING: R7 *)

let merge_two a b = Merge.create [ a; b ] (* FINDING: R7 *)

(* Negative cases: compact is the sanctioned engine entry point, and a
   one-element create merges nothing. *)
let compact inputs = Merge.compact ~drop_tombstones:false ~snapshot_floor:0L inputs

let flush entries = Merge.create [ Merge.mem entries ]

(* Suppressed case: disjoint-shard concatenation is not a run merge. *)
let shard_concat inputs =
  (* lint: allow R7 — fixture: shard streams are disjoint, not runs *)
  Merge.create inputs
