(** Binary coding primitives shared by the on-disk formats.

    Integers are little-endian. Varints follow the LEB128-style encoding used
    by LevelDB: seven payload bits per byte, continuation bit in the MSB.
    Every on-disk writer encodes into a {!Bytebuf}. *)

val put_fixed32 : Bytebuf.t -> int -> unit
(** Append a 32-bit little-endian unsigned integer (given as an OCaml [int]
    in [\[0, 2^32)]). *)

val put_fixed64 : Bytebuf.t -> int64 -> unit

val put_varint : Bytebuf.t -> int -> unit
(** Append a non-negative [int] as a varint (1–9 bytes on 63-bit ints). *)

val put_length_prefixed : Bytebuf.t -> string -> unit
(** Append [varint (String.length s)] followed by the raw bytes of [s]. *)

val get_fixed32 : string -> int -> int
(** [get_fixed32 s off] reads a 32-bit LE unsigned integer at [off]. *)

val get_fixed64 : string -> int -> int64

val get_varint : string -> int -> int * int
(** [get_varint s off] returns [(value, next_off)].
    @raise Invalid_argument on truncated or overlong input. *)

val get_length_prefixed : string -> int -> string * int
(** [get_length_prefixed s off] returns [(payload, next_off)]. *)

val varint_length : int -> int
(** Number of bytes [put_varint] would write. *)
