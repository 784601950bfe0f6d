type kind = Value | Deletion

type t = { user_key : string; seq : int64; kind : kind }

let make ?(kind = Value) user_key ~seq = { user_key; seq; kind }

let kind_tag = function Value -> 1 | Deletion -> 0

let compare_user = String.compare

let compare a b =
  let c = String.compare a.user_key b.user_key in
  if c <> 0 then c
  else
    let c = Int64.compare b.seq a.seq in
    if c <> 0 then c else Stdlib.compare (kind_tag b.kind) (kind_tag a.kind)

let max_seq = 0x00FFFFFFFFFFFFFFL

let trailer_length = 8

(* The encoding is memcomparable: [String.compare] on two encoded keys agrees
   in sign with [compare] on the originals, so readers and merges never need
   to decode. User-key bytes come first with every 0x00 escaped as 0x00 0xFF
   and a 0x00 0x01 terminator appended; the terminator sorts below any
   continuation byte (so "ab" < "abc" survives encoding) and below the
   escaped-zero pair (so "a" < "a\x00"), and escaped forms are prefix-free.
   The trailer is the bitwise complement of [seq << 8 | kind_tag] in
   big-endian, making sequence numbers sort descending (and Value before
   Deletion at equal sequence) under plain bytewise comparison. *)

let escaped_length key =
  let n = String.length key in
  let extra = ref 0 in
  for i = 0 to n - 1 do
    if String.unsafe_get key i = '\x00' then incr extra
  done;
  n + !extra + 2

(* Write escape(key) followed by the terminator at [pos]; next free offset. *)
let blit_escaped key b pos =
  let n = String.length key in
  let p = ref pos in
  for i = 0 to n - 1 do
    let c = String.unsafe_get key i in
    if c = '\x00' then begin
      Bytes.unsafe_set b !p '\x00';
      Bytes.unsafe_set b (!p + 1) '\xff';
      p := !p + 2
    end
    else begin
      Bytes.unsafe_set b !p c;
      incr p
    end
  done;
  Bytes.unsafe_set b !p '\x00';
  Bytes.unsafe_set b (!p + 1) '\x01';
  !p + 2

let blit_trailer ~seq ~kind b pos =
  let inv =
    Int64.lognot
      (Int64.logor (Int64.shift_left seq 8) (Int64.of_int (kind_tag kind)))
  in
  for i = 0 to 7 do
    Bytes.unsafe_set b (pos + i)
      Int64.(
        Char.unsafe_chr
          (to_int (logand (shift_right_logical inv (8 * (7 - i))) 0xffL)))
  done;
  pos + 8

let encode_user key =
  let b = Bytes.create (escaped_length key) in
  let _ = blit_escaped key b 0 in
  Bytes.unsafe_to_string b

let encode t =
  let b = Bytes.create (escaped_length t.user_key + trailer_length) in
  let pos = blit_escaped t.user_key b 0 in
  let _ = blit_trailer ~seq:t.seq ~kind:t.kind b pos in
  Bytes.unsafe_to_string b

let encode_seek user_key ~seq = encode { user_key; seq; kind = Value }

let bad detail = invalid_arg ("Ikey.decode: " ^ detail)

(* [b.[0 .. ulen)] is the escaped user key without its terminator. Every
   0x00 in it opens a 0x00 0xFF escape, so the unescaped key is one exact
   allocation of [ulen] minus the NUL count. *)
let unescape b ulen =
  let nuls = ref 0 in
  for i = 0 to ulen - 1 do
    if Bytes.unsafe_get b i = '\x00' then incr nuls
  done;
  let out = Bytes.create (ulen - !nuls) in
  let i = ref 0 in
  for j = 0 to Bytes.length out - 1 do
    let c = Bytes.unsafe_get b !i in
    if c = '\x00' && (!i + 1 >= ulen || Bytes.get b (!i + 1) <> '\xff') then
      bad "bad escape";
    Bytes.unsafe_set out j c;
    i := !i + if c = '\x00' then 2 else 1
  done;
  if !i <> ulen then bad "bad escape";
  Bytes.unsafe_to_string out

let user_key_of_encoded_bytes b ~len =
  if len < trailer_length + 2 then bad "too short";
  if Bytes.get b (len - 10) <> '\x00' || Bytes.get b (len - 9) <> '\x01' then
    bad "missing terminator";
  unescape b (len - trailer_length - 2)

let user_key_of_encoded s =
  user_key_of_encoded_bytes (Bytes.unsafe_of_string s) ~len:(String.length s)

let decode_trailer s n =
  let inv = ref 0L in
  for i = 0 to 7 do
    inv := Int64.(logor (shift_left !inv 8) (of_int (Char.code s.[n - 8 + i])))
  done;
  Int64.lognot !inv

let decode s =
  let n = String.length s in
  let user_key = user_key_of_encoded s in
  let trailer = decode_trailer s n in
  let seq = Int64.shift_right_logical trailer 8 in
  let kind =
    match Int64.(to_int (logand trailer 0xffL)) with
    | 1 -> Value
    | 0 -> Deletion
    | k -> bad (Printf.sprintf "bad kind tag %d" k)
  in
  { user_key; seq; kind }

(* --- allocation-free accessors over encoded keys --- *)

let encoded_seq s =
  let n = String.length s in
  if n < trailer_length then bad "too short";
  Int64.shift_right_logical (decode_trailer s n) 8

(* The complemented kind tag sits in the last byte: 0xFE = Value, 0xFF =
   Deletion. *)
let kind_of_last_byte = function
  | 0xFE -> Value
  | 0xFF -> Deletion
  | k -> bad (Printf.sprintf "bad kind byte %d" k)

let encoded_kind s =
  let n = String.length s in
  if n < trailer_length then bad "too short";
  kind_of_last_byte (Char.code s.[n - 1])

let encoded_same_user a b =
  let la = String.length a - trailer_length
  and lb = String.length b - trailer_length in
  la = lb
  &&
  let rec loop i =
    i >= la
    || (String.unsafe_get a i = String.unsafe_get b i && loop (i + 1))
  in
  loop 0

let compare_encoded_user eu s =
  (* [eu] is an [encode_user] result; compare it against the user portion of
     the encoded key [s]. Escaped forms are prefix-free, so distinct user
     keys always differ at some byte both sides have. *)
  let lu = String.length eu and ls = String.length s - trailer_length in
  let n = min lu ls in
  let rec loop i =
    if i = n then Stdlib.compare lu ls
    else
      let c =
        Char.compare (String.unsafe_get eu i) (String.unsafe_get s i)
      in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

(* Bytes-buffer variants for Block.Cursor's reusable key buffer. *)

(* The first seven trailer bytes are the complemented sequence number, so it
   reads into an immediate int (56 bits) with no Int64 box. *)
let rec seq_int_from b i stop acc =
  if i = stop then acc
  else
    seq_int_from b (i + 1) stop
      ((acc lsl 8) lor (0xff - Char.code (Bytes.unsafe_get b i)))

let encoded_seq_int_bytes b ~len = seq_int_from b (len - 8) (len - 1) 0

let encoded_kind_bytes b ~len =
  kind_of_last_byte (Char.code (Bytes.unsafe_get b (len - 1)))

let encoded_same_user_bytes b ~len s =
  let lb = len - trailer_length and ls = String.length s - trailer_length in
  lb = ls
  &&
  let rec loop i =
    i >= lb
    || (Bytes.unsafe_get b i = String.unsafe_get s i && loop (i + 1))
  in
  loop 0

let kind_to_string = function Value -> "value" | Deletion -> "deletion"
