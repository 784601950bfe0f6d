let put_fixed32 = Bytebuf.add_int32_le

let put_fixed64 = Bytebuf.add_int64_le

let rec put_varint buf v =
  assert (v >= 0);
  if v < 0x80 then Bytebuf.add_char buf (Char.unsafe_chr v)
  else begin
    Bytebuf.add_char buf (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    put_varint buf (v lsr 7)
  end

let put_length_prefixed buf s =
  put_varint buf (String.length s);
  Bytebuf.add_string buf s

let get_fixed32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let get_fixed64 s off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.(logor (shift_left !v 8) (of_int (Char.code s.[off + i])))
  done;
  !v

let get_varint s off =
  let rec loop off shift acc =
    if off >= String.length s then invalid_arg "Coding.get_varint: truncated";
    if shift > 63 then invalid_arg "Coding.get_varint: overlong";
    let byte = Char.code s.[off] in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte land 0x80 = 0 then (acc, off + 1) else loop (off + 1) (shift + 7) acc
  in
  loop off 0 0

let get_length_prefixed s off =
  let len, off = get_varint s off in
  if off + len > String.length s then
    invalid_arg "Coding.get_length_prefixed: truncated";
  (String.sub s off len, off + len)

let varint_length v =
  let rec loop v n = if v < 0x80 then n else loop (v lsr 7) (n + 1) in
  loop v 1
