(* Fixture: R7 negative — lib/sstable owns the heap merge: scans, view
   rebuilds and compaction are built on it. *)

let build runs = Merge.create runs

let replay ~selectors ~count runs =
  Merge.walk ~selectors ~count ~start:0 ~from:"" runs
