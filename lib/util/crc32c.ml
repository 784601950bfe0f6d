let polynomial = 0x82F63B78 (* reflected CRC-32C polynomial *)

(* Slicing-by-8: [tables] holds eight 256-entry tables back to back.
   Table 0 is the classic bytewise table; table k advances a byte's
   contribution past k further zero bytes, so one step folds eight input
   bytes with eight lookups. Built once at module initialisation. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := (!c lsr 1) lxor polynomial
      else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

external get32u : string -> int -> int32 = "%caml_string_get32u"

let[@inline] lookup k i = Array.unsafe_get tables ((k * 256) + i)

let[@inline] le32 s i = Int32.to_int (get32u s i) land 0xFFFFFFFF

let rec bytewise s i stop crc =
  if i = stop then crc
  else
    bytewise s (i + 1) stop
      ((crc lsr 8)
      lxor lookup 0 ((crc lxor Char.code (String.unsafe_get s i)) land 0xff))

let rec eightwise s i stop crc =
  if i + 8 > stop then bytewise s i stop crc
  else
    let lo = crc lxor le32 s i and hi = le32 s (i + 4) in
    eightwise s (i + 8) stop
      (lookup 7 (lo land 0xff)
      lxor lookup 6 ((lo lsr 8) land 0xff)
      lxor lookup 5 ((lo lsr 16) land 0xff)
      lxor lookup 4 (lo lsr 24)
      lxor lookup 3 (hi land 0xff)
      lxor lookup 2 ((hi lsr 8) land 0xff)
      lxor lookup 1 ((hi lsr 16) land 0xff)
      lxor lookup 0 (hi lsr 24))

let substring ?(init = 0) s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32c.substring";
  eightwise s pos (pos + len) (init lxor 0xFFFFFFFF) lxor 0xFFFFFFFF

let string ?init s = substring ?init s ~pos:0 ~len:(String.length s)

let mask_delta = 0xa282ead8

let masked crc =
  (((crc lsr 15) lor (crc lsl 17)) + mask_delta) land 0xFFFFFFFF

let unmask masked_crc =
  let rot = (masked_crc - mask_delta) land 0xFFFFFFFF in
  ((rot lsr 17) lor (rot lsl 15)) land 0xFFFFFFFF
