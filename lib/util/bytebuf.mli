(** A growable byte buffer that writers reuse across records.

    Unlike [Buffer.t] it exposes its bytes in place, so a checksum can be
    computed over what was just written and patched into a header reserved
    before it, and the finished record leaves as a single string copy. The
    on-disk integer encodings ({!Coding}) write into it. *)

type t

val create : int -> t
(** An empty buffer with the given initial capacity. *)

val clear : t -> unit
(** Empty the buffer, keeping its storage. *)

val length : t -> int

val add_char : t -> char -> unit

val add_string : t -> string -> unit

val add_substring : t -> string -> pos:int -> len:int -> unit

val add_subbytes : t -> Bytes.t -> pos:int -> len:int -> unit

val add_int32_le : t -> int -> unit
(** The low 32 bits, little-endian. *)

val add_int64_le : t -> int64 -> unit

val set_int32_le : t -> pos:int -> int -> unit
(** Overwrite four already written bytes at [pos] with the low 32 bits of
    the value, little-endian. *)

val crc32c : t -> pos:int -> len:int -> int
(** {!Crc32c.substring} over written bytes, read in place. *)

val contents : t -> string
(** Everything written, as one fresh string. *)
