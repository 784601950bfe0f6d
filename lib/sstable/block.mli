(** Prefix-compressed key/value blocks.

    Entries are appended in ascending key order; every
    {!Table_format.restart_interval} entries a restart point stores the full
    key so that readers can binary-search restarts and then scan forward.
    Keys here are opaque byte strings (the table layer passes encoded
    internal keys).

    Hot paths read blocks through {!Cursor}, which reconstructs prefix-shared
    keys in place into one reusable buffer and compares keys without
    materializing them; {!decode_all} remains for tests and tools. *)

module Builder : sig
  type t

  val create : unit -> t

  val add : t -> key:string -> value:string -> unit

  val size_estimate : t -> int
  (** Bytes the finished (unsealed) block would occupy so far. *)

  val entry_count : t -> int

  val finish : t -> string
  (** Raw block bytes (no CRC trailer); the builder must not be reused. *)
end

module Cursor : sig
  type t
  (** A mutable cursor over one raw (already CRC-verified) block. Creating
      one allocates only the cursor record and a small key buffer; stepping
      and seeking allocate nothing, and {!key}/{!value} materialize strings
      only when called. *)

  val create : ?len:int -> string -> t
  (** Positioned before the first entry; call {!next} or {!seek}. The block
      is the first [len] bytes of the string (default: all of it), so a
      sealed block is read in place. *)

  val next : t -> bool
  (** Advance to the next entry; [false] (and invalid) at the end. *)

  val rewind : t -> unit
  (** Back to before the first entry. *)

  val seek : t -> string -> bool
  (** [seek t target] positions at the first entry with key [>= target]
      (bytewise), using restart-point binary search directly over the raw
      bytes followed by a forward scan; [false] if no such entry. *)

  val seek_ordinal : t -> int -> bool
  (** [seek_ordinal t n] positions at the [n]-th entry of the block
      (0-based) with zero key comparisons: one restart jump plus at most
      [restart_interval - 1] steps. [false] if the block has fewer than
      [n + 1] restart spans. Used by the perfect-hash point-index path. *)

  val key : t -> string
  (** The current key (fresh string). *)

  val key_bytes : t -> Bytes.t
  (** The shared key buffer — only the first {!key_length} bytes are
      meaningful, and only until the cursor moves. Do not mutate. *)

  val key_length : t -> int

  val compare_key : t -> string -> int
  (** Bytewise comparison of the current key against a target, without
      materializing the key. *)

  val value : t -> string
  (** The current value (fresh string). *)
end

val decode_all : string -> (string * string) list
(** All entries of a raw block in order. Counts into {!decode_count};
    test/tool use only — hot paths must use {!Cursor}. *)

val decode_count : int Atomic.t
(** Number of {!decode_all} calls since start; regression tests assert the
    read hot path leaves it untouched. *)

val seek_probe_count : int Atomic.t
(** Key comparisons spent by {!Cursor.seek} (restart probes + forward
    steps). {!Cursor.seek_ordinal} never bumps it; the readpath bench
    reports the per-get difference between the binary-search and
    perfect-hash point paths. *)
