(** Sorted in-memory table backed by a probabilistic skip list.

    Entries are internal-key/value pairs ordered by {!Wip_util.Ikey.compare},
    i.e. user key ascending then sequence descending — so multiple versions
    of the same user key coexist and the newest is met first. This is the
    MemTable organization of LevelDB, and WipDB's fallback for buckets that
    receive heavy range-query traffic. *)

type t

val create : ?seed:int64 -> unit -> t

val add : t -> Wip_util.Ikey.t -> string -> unit

val find : t -> string -> snapshot:int64 -> (Wip_util.Ikey.kind * string) option
(** [find t user_key ~snapshot] returns the newest version of [user_key]
    whose sequence number is [<= snapshot], if any. *)

val find_with_seq :
  t -> string -> snapshot:int64 ->
  (Wip_util.Ikey.kind * string * int64) option
(** {!find} that also reports the matched version's sequence number. *)

val to_sorted_seq : ?lo:string -> t -> (Wip_util.Ikey.t * string) Seq.t
(** Entries in internal-key order, from the first whose user key is
    [>= lo] (one seek; default: all entries). The walk is lazy over the
    live list, so it also meets entries inserted after it started. *)

val count : t -> int
(** Number of stored entries (versions, not distinct user keys). *)

val byte_size : t -> int
(** Approximate memory footprint of payload bytes. *)

val probes : t -> int
(** Cumulative node visits across all operations — the memory-access proxy
    used by the Figure 3 reproduction. *)
