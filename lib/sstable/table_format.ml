module Bytebuf = Wip_util.Bytebuf
module Coding = Wip_util.Coding
module Crc32c = Wip_util.Crc32c

let magic = 0x7769706462_4C54L (* "wipdb" ^ "LT" *)

(* Tables carrying a perfect-hash point-index block use a distinct magic so
   that v1 readers fail loudly instead of misparsing, and v2 readers accept
   both: the old magic simply means "no ph block". *)
let magic_v2 = 0x7769706462_5632L (* "wipdb" ^ "V2" *)

let restart_interval = 16

type block_handle = { offset : int; size : int }

let no_handle = { offset = 0; size = 0 }

type footer = {
  index : block_handle;
  filter : block_handle;
  ph : block_handle;
  entry_count : int;
  smallest : string;
  largest : string;
}

(* Footer layout:
   varint index.offset | varint index.size
   varint filter.offset | varint filter.size
   [v2 only] varint ph.offset | varint ph.size
   varint entry_count
   length-prefixed smallest | length-prefixed largest
   fixed64 magic (v1) or magic_v2
   fixed32 total footer length (including this field and the magic)

   A footer without a ph block is encoded byte-identically to v1. *)

let footer_fixed_prefix_length = 12 (* magic (8) + length (4) *)

let encode_footer f =
  let v2 = f.ph.size > 0 in
  let buf = Bytebuf.create 64 in
  Coding.put_varint buf f.index.offset;
  Coding.put_varint buf f.index.size;
  Coding.put_varint buf f.filter.offset;
  Coding.put_varint buf f.filter.size;
  if v2 then begin
    Coding.put_varint buf f.ph.offset;
    Coding.put_varint buf f.ph.size
  end;
  Coding.put_varint buf f.entry_count;
  Coding.put_length_prefixed buf f.smallest;
  Coding.put_length_prefixed buf f.largest;
  Coding.put_fixed64 buf (if v2 then magic_v2 else magic);
  let total = Bytebuf.length buf + 4 in
  Coding.put_fixed32 buf total;
  Bytebuf.contents buf

let decode_footer s =
  let n = String.length s in
  if n < footer_fixed_prefix_length then
    invalid_arg "Table_format.decode_footer: too short";
  let stored_magic = Coding.get_fixed64 s (n - 12) in
  let v2 = Int64.equal stored_magic magic_v2 in
  if not (v2 || Int64.equal stored_magic magic) then
    invalid_arg "Table_format.decode_footer: bad magic";
  let index_offset, off = Coding.get_varint s 0 in
  let index_size, off = Coding.get_varint s off in
  let filter_offset, off = Coding.get_varint s off in
  let filter_size, off = Coding.get_varint s off in
  let ph, off =
    if v2 then
      let ph_offset, off = Coding.get_varint s off in
      let ph_size, off = Coding.get_varint s off in
      ({ offset = ph_offset; size = ph_size }, off)
    else (no_handle, off)
  in
  let entry_count, off = Coding.get_varint s off in
  let smallest, off = Coding.get_length_prefixed s off in
  let largest, _off = Coding.get_length_prefixed s off in
  {
    index = { offset = index_offset; size = index_size };
    filter = { offset = filter_offset; size = filter_size };
    ph;
    entry_count;
    smallest;
    largest;
  }

let seal_block raw =
  let n = String.length raw in
  let sealed = Bytes.create (n + 4) in
  Bytes.blit_string raw 0 sealed 0 n;
  Bytes.set_int32_le sealed n (Int32.of_int (Crc32c.masked (Crc32c.string raw)));
  Bytes.unsafe_to_string sealed

let payload_length sealed =
  let n = String.length sealed in
  if n < 4 then invalid_arg "Table_format: sealed block too short";
  n - 4

let verify_seal sealed =
  let n = payload_length sealed in
  if Crc32c.masked (Crc32c.substring sealed ~pos:0 ~len:n)
     <> Coding.get_fixed32 sealed n
  then invalid_arg "Table_format: checksum mismatch"

let unseal_block sealed =
  verify_seal sealed;
  String.sub sealed 0 (payload_length sealed)
