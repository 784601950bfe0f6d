(** Internal keys.

    Every record written to the store carries, in addition to its user key,
    a globally monotonically increasing sequence number and a kind (value or
    deletion tombstone). Internal keys order by (user key ascending, sequence
    number descending) so that the newest version of a user key is
    encountered first during merges and lookups.

    The encoded form is {e memcomparable}: [String.compare (encode a)
    (encode b)] agrees in sign with [compare a b], so the table, block and
    merge layers operate directly on encoded bytes and never decode on hot
    paths. Layout: user-key bytes with every 0x00 escaped as 0x00 0xFF and a
    0x00 0x01 terminator (keeping strict-prefix user keys and embedded NULs
    correctly ordered), then an 8-byte big-endian bitwise complement of
    [seq << 8 | kind_tag] (sequence descending, Value before Deletion). *)

type kind = Value | Deletion

type t = { user_key : string; seq : int64; kind : kind }

val make : ?kind:kind -> string -> seq:int64 -> t

val compare : t -> t -> int
(** User key ascending, then sequence descending, then kind (Value before
    Deletion at equal sequence, which cannot happen in a well-formed store). *)

val compare_user : string -> string -> int
(** Plain byte-wise user-key comparison (the store's global comparator). *)

val encode : t -> string
(** Memcomparable form (see module doc); bytewise order matches {!compare}. *)

val decode : string -> t
(** @raise Invalid_argument on truncated or malformed encodings. Intended
    for tests and tools; hot paths use the [encoded_*] accessors below. *)

val encode_seek : string -> seq:int64 -> string
(** [encode_seek user_key ~seq] = [encode (make user_key ~seq)]: the seek
    target that every entry of [user_key] with sequence [<= seq] (and no
    other version of that user key) compares [>=] to. *)

val encode_user : string -> string
(** Just the escaped user key plus terminator — the user portion of
    {!encode}'s output. Precompute once per range boundary and compare with
    {!compare_encoded_user} instead of decoding every entry. *)

val trailer_length : int
(** Bytes of the fixed trailer (8); an encoded key is
    [encode_user user ^ trailer]. *)

val encoded_seq : string -> int64
(** Sequence number of an encoded key, read from the trailer. *)

val encoded_kind : string -> kind
(** Kind of an encoded key, read from the trailer's last byte. *)

val encoded_same_user : string -> string -> bool
(** Whether two encoded keys share a user key (bytewise on the escaped
    portions; no decoding). *)

val compare_encoded_user : string -> string -> int
(** [compare_encoded_user eu enc] compares an {!encode_user} result against
    the user portion of the encoded key [enc]; sign matches
    [compare_user u (decode enc).user_key]. *)

val user_key_of_encoded : string -> string
(** Unescaped user key of an encoded key: one exact-size allocation. *)

val encoded_seq_int_bytes : Bytes.t -> len:int -> int
(** {!encoded_seq} over the first [len] bytes of a buffer (a
    [Block.Cursor]'s reusable key buffer), as an immediate [int]: sequences
    fit in 56 bits, so per-entry snapshot checks allocate nothing. *)

val encoded_kind_bytes : Bytes.t -> len:int -> kind

val user_key_of_encoded_bytes : Bytes.t -> len:int -> string
(** {!user_key_of_encoded} over the first [len] bytes of a buffer. *)

val compare_encoded_user_bytes : string -> Bytes.t -> len:int -> int
(** {!compare_encoded_user} against the encoded key held in [b.[0..len)]. *)

val encoded_same_user_bytes : Bytes.t -> len:int -> string -> bool
(** [encoded_same_user_bytes buf ~len enc]: whether the encoded key held in
    [buf.[0..len)] shares its user key with the encoded string [enc]. *)

val kind_to_string : kind -> string

val max_seq : int64
(** Largest representable sequence number (56 bits). *)
