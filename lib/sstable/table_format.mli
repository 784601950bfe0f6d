(** On-disk layout of sorted tables (SSTables / LevelTables).

    {v
    [data block]* [filter block] [index block] [footer]
    v}

    Each data block holds prefix-compressed entries with restart points every
    [restart_interval] entries, followed by the restart offset array, its
    count, and a masked CRC-32C trailer. The index block maps each data
    block's last internal key to its (offset, size). The filter block is a
    serialized bloom filter over user keys. The footer pins the index and
    filter locations, the entry count, the smallest/largest user keys, and a
    magic number. *)

val magic : int64

val magic_v2 : int64
(** Magic of footers that carry a perfect-hash point-index block handle.
    Readers accept both; writers emit [magic_v2] only when a ph block is
    present, so tables without one stay byte-identical to v1. *)

val restart_interval : int

type block_handle = { offset : int; size : int }

val no_handle : block_handle
(** [{offset = 0; size = 0}] — the "block absent" sentinel (size 0). *)

type footer = {
  index : block_handle;
  filter : block_handle;
  ph : block_handle;
      (** perfect-hash point index; [no_handle] when the table has none *)
  entry_count : int;
  smallest : string;  (** smallest user key, "" when the table is empty *)
  largest : string;
}

val encode_footer : footer -> string

val decode_footer : string -> footer
(** Expects exactly the trailing footer bytes.
    @raise Invalid_argument on bad magic or truncation. *)

val footer_fixed_prefix_length : int
(** The footer is variable-length (it embeds keys); its last 8 bytes are a
    fixed32 total-footer-length field followed by nothing — readers read the
    last [footer_fixed_prefix_length] bytes first to discover the full
    footer extent. *)

val seal_block : string -> string
(** Append the masked CRC-32C trailer to raw block bytes. *)

val unseal_block : string -> string
(** Verify and strip the trailer.
    @raise Invalid_argument on checksum mismatch. *)

val payload_length : string -> int
(** Length of a sealed block's payload, which a reader can use in place
    (see {!Block.Cursor.create}) instead of copying it out.
    @raise Invalid_argument when too short to hold the trailer. *)

val verify_seal : string -> unit
(** Check the trailer without stripping it.
    @raise Invalid_argument on checksum mismatch. *)
