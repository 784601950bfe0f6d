(* Fixture: R1 — bare [compare] is Stdlib.compare in disguise. *)

let sort_entries entries = List.sort compare entries (* FINDING: R1 *)

(* Negative case: a locally-bound [compare] (here a labelled parameter, the
   Merge / Block.seek idiom) is not the polymorphic primitive. *)
let seek ~compare keys = List.find (fun k -> compare k >= 0) keys
