type t = { mutable bytes : Bytes.t; mutable len : int }

let create n = { bytes = Bytes.create (max 16 n); len = 0 }

let clear t = t.len <- 0

let length t = t.len

let reserve t n =
  let need = t.len + n in
  if need > Bytes.length t.bytes then begin
    let bigger = Bytes.create (max need (2 * Bytes.length t.bytes)) in
    Bytes.blit t.bytes 0 bigger 0 t.len;
    t.bytes <- bigger
  end

let add_char t c =
  reserve t 1;
  Bytes.unsafe_set t.bytes t.len c;
  t.len <- t.len + 1

let add_substring t s ~pos ~len =
  reserve t len;
  Bytes.blit_string s pos t.bytes t.len len;
  t.len <- t.len + len

let add_string t s = add_substring t s ~pos:0 ~len:(String.length s)

let add_subbytes t b ~pos ~len =
  reserve t len;
  Bytes.blit b pos t.bytes t.len len;
  t.len <- t.len + len

let set_int32_le t ~pos v =
  if pos < 0 || pos + 4 > t.len then invalid_arg "Bytebuf.set_int32_le";
  Bytes.set_int32_le t.bytes pos (Int32.of_int v)

let add_int32_le t v =
  reserve t 4;
  Bytes.set_int32_le t.bytes t.len (Int32.of_int v);
  t.len <- t.len + 4

let add_int64_le t v =
  reserve t 8;
  Bytes.set_int64_le t.bytes t.len v;
  t.len <- t.len + 8

let crc32c t ~pos ~len =
  if pos + len > t.len then invalid_arg "Bytebuf.crc32c";
  Crc32c.substring (Bytes.unsafe_to_string t.bytes) ~pos ~len

let contents t = Bytes.sub_string t.bytes 0 t.len
