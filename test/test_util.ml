(* Tests for wip_util: coding, CRC, hashing, internal keys, RNG. *)

module Bytebuf = Wip_util.Bytebuf
module Coding = Wip_util.Coding
module Crc32c = Wip_util.Crc32c
module Hashing = Wip_util.Hashing
module Ikey = Wip_util.Ikey
module Rng = Wip_util.Rng

let check = Alcotest.check

let test_varint_roundtrip () =
  List.iter
    (fun v ->
      let buf = Bytebuf.create 16 in
      Coding.put_varint buf v;
      let s = Bytebuf.contents buf in
      let v', off = Coding.get_varint s 0 in
      check Alcotest.int "value" v v';
      check Alcotest.int "length" (String.length s) off;
      check Alcotest.int "predicted length" (Coding.varint_length v)
        (String.length s))
    [ 0; 1; 127; 128; 300; 16383; 16384; 1 lsl 20; 1 lsl 40; max_int ]

let test_fixed_roundtrip () =
  let buf = Bytebuf.create 16 in
  Coding.put_fixed32 buf 0xDEADBEEF;
  Coding.put_fixed64 buf 0x1122334455667788L;
  let s = Bytebuf.contents buf in
  check Alcotest.int "fixed32" 0xDEADBEEF (Coding.get_fixed32 s 0);
  check Alcotest.bool "fixed64" true
    (Int64.equal 0x1122334455667788L (Coding.get_fixed64 s 4))

let test_length_prefixed () =
  let buf = Bytebuf.create 16 in
  Coding.put_length_prefixed buf "hello";
  Coding.put_length_prefixed buf "";
  let s = Bytebuf.contents buf in
  let a, off = Coding.get_length_prefixed s 0 in
  let b, off' = Coding.get_length_prefixed s off in
  check Alcotest.string "first" "hello" a;
  check Alcotest.string "second" "" b;
  check Alcotest.int "consumed" (String.length s) off'

let test_varint_truncated () =
  Alcotest.check_raises "truncated"
    (Invalid_argument "Coding.get_varint: truncated") (fun () ->
      ignore (Coding.get_varint "\x80" 0))

let test_crc_known () =
  (* CRC-32C("123456789") = 0xE3069283, a standard test vector. *)
  check Alcotest.int "check value" 0xE3069283 (Crc32c.string "123456789")

(* RFC 3720 (iSCSI) CRC-32C vectors over 32-byte buffers. *)
let test_crc_vectors () =
  check Alcotest.int "32 zero bytes" 0x8A9136AA (Crc32c.string (String.make 32 '\000'));
  check Alcotest.int "32 0xFF bytes" 0x62A8AB43 (Crc32c.string (String.make 32 '\255'));
  check Alcotest.int "ascending 0..31" 0x46DD794E
    (Crc32c.string (String.init 32 Char.chr));
  check Alcotest.int "descending 31..0" 0x113FDB5C
    (Crc32c.string (String.init 32 (fun i -> Char.chr (31 - i))));
  check Alcotest.int "empty" 0 (Crc32c.string "")

let test_crc_mask_roundtrip () =
  let crc = Crc32c.string "some data" in
  check Alcotest.int "unmask . mask = id" crc (Crc32c.unmask (Crc32c.masked crc))

let test_crc_incremental () =
  let whole = Crc32c.string "abcdef" in
  let part = Crc32c.substring "xxabcdefyy" ~pos:2 ~len:6 in
  check Alcotest.int "substring" whole part

let test_hash_deterministic () =
  check Alcotest.bool "same input same hash" true
    (Int64.equal (Hashing.hash64 "key") (Hashing.hash64 "key"));
  check Alcotest.bool "different seeds differ" false
    (Int64.equal (Hashing.hash64 ~seed:1L "key") (Hashing.hash64 ~seed:2L "key"))

let test_tag16_nonzero () =
  for i = 0 to 999 do
    let t = Hashing.tag16 (string_of_int i) in
    if t = 0 || t > 0xFFFF then Alcotest.failf "tag out of range: %d" t
  done

let test_ikey_roundtrip () =
  let cases =
    [
      Ikey.make "user" ~seq:1L;
      Ikey.make ~kind:Ikey.Deletion "user" ~seq:42L;
      Ikey.make "" ~seq:0L;
      Ikey.make "k" ~seq:Ikey.max_seq;
    ]
  in
  List.iter
    (fun ik ->
      let ik' = Ikey.decode (Ikey.encode ik) in
      check Alcotest.bool "roundtrip" true (Ikey.compare ik ik' = 0);
      check Alcotest.string "user key" ik.Ikey.user_key ik'.Ikey.user_key;
      check Alcotest.bool "seq" true (Int64.equal ik.Ikey.seq ik'.Ikey.seq))
    cases

let test_ikey_order () =
  let a = Ikey.make "a" ~seq:5L in
  let a_newer = Ikey.make "a" ~seq:9L in
  let b = Ikey.make "b" ~seq:1L in
  check Alcotest.bool "user key ascending" true (Ikey.compare a b < 0);
  check Alcotest.bool "seq descending" true (Ikey.compare a_newer a < 0)

let test_ikey_encoded_order_same_user_key () =
  (* For equal user keys, bytewise order of encodings must match
     Ikey.compare (the SSTable block layer compares encodings). *)
  let e1 = Ikey.encode (Ikey.make "same" ~seq:10L) in
  let e2 = Ikey.encode (Ikey.make "same" ~seq:3L) in
  check Alcotest.bool "newer encodes smaller" true (String.compare e1 e2 < 0)

let test_rng_determinism () =
  let a = Rng.create ~seed:7L and b = Rng.create ~seed:7L in
  for _ = 1 to 100 do
    check Alcotest.bool "stream equal" true
      (Int64.equal (Rng.next_int64 a) (Rng.next_int64 b))
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:11L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_split_independent () =
  let r = Rng.create ~seed:3L in
  let s = Rng.split r in
  check Alcotest.bool "split diverges" false
    (Int64.equal (Rng.next_int64 r) (Rng.next_int64 s))

(* Property tests *)

let qcheck_varint =
  QCheck.Test.make ~name:"varint roundtrips any nat" ~count:500
    QCheck.(map abs int)
    (fun v ->
      let buf = Bytebuf.create 16 in
      Coding.put_varint buf v;
      fst (Coding.get_varint (Bytebuf.contents buf) 0) = v)

let qcheck_ikey_compare_encode =
  QCheck.Test.make ~name:"ikey encode/decode preserves compare" ~count:500
    QCheck.(pair (pair small_string small_nat) (pair small_string small_nat))
    (fun ((k1, s1), (k2, s2)) ->
      let a = Ikey.make k1 ~seq:(Int64.of_int s1) in
      let b = Ikey.make k2 ~seq:(Int64.of_int s2) in
      let via_decode =
        Ikey.compare (Ikey.decode (Ikey.encode a)) (Ikey.decode (Ikey.encode b))
      in
      compare (Ikey.compare a b) 0 = compare via_decode 0)

let qcheck_crc_detects_flip =
  QCheck.Test.make ~name:"crc detects single byte flips" ~count:200
    QCheck.(pair string small_nat)
    (fun (s, i) ->
      QCheck.assume (String.length s > 0);
      let i = i mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      Crc32c.string s <> Crc32c.string (Bytes.to_string b))

(* Bit-at-a-time CRC-32C, the definition the eight-byte path must agree
   with. *)
let crc_reference ?(init = 0) s ~pos ~len =
  let crc = ref (init lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code s.[i];
    for _ = 1 to 8 do
      crc := if !crc land 1 = 1 then (!crc lsr 1) lxor 0x82F63B78 else !crc lsr 1
    done
  done;
  !crc lxor 0xFFFFFFFF

(* Every start alignment 0..8 and every length to the end of the string —
   so every tail of 0..7 bytes after the eight-byte steps — agrees with the
   reference, and so does every chaining split of the first lengths through
   [?init]. *)
let qcheck_crc_eightwise =
  QCheck.Test.make ~name:"crc eight-byte path equals bytewise reference"
    ~count:150
    QCheck.(string_of_size Gen.(0 -- 80))
    (fun s ->
      let n = String.length s in
      let ok = ref true in
      for pos = 0 to min 8 n do
        for len = 0 to n - pos do
          let want = crc_reference s ~pos ~len in
          if Crc32c.substring s ~pos ~len <> want then ok := false;
          for k = 0 to min len 9 do
            let head = Crc32c.substring s ~pos ~len:k in
            if
              Crc32c.substring ~init:head s ~pos:(pos + k) ~len:(len - k) <> want
            then ok := false
          done
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "varint roundtrip" `Quick test_varint_roundtrip;
    Alcotest.test_case "fixed roundtrip" `Quick test_fixed_roundtrip;
    Alcotest.test_case "length prefixed" `Quick test_length_prefixed;
    Alcotest.test_case "varint truncated" `Quick test_varint_truncated;
    Alcotest.test_case "crc known vector" `Quick test_crc_known;
    Alcotest.test_case "crc vectors" `Quick test_crc_vectors;
    Alcotest.test_case "crc mask roundtrip" `Quick test_crc_mask_roundtrip;
    Alcotest.test_case "crc incremental" `Quick test_crc_incremental;
    Alcotest.test_case "hash deterministic" `Quick test_hash_deterministic;
    Alcotest.test_case "tag16 nonzero" `Quick test_tag16_nonzero;
    Alcotest.test_case "ikey roundtrip" `Quick test_ikey_roundtrip;
    Alcotest.test_case "ikey order" `Quick test_ikey_order;
    Alcotest.test_case "ikey encoded order" `Quick
      test_ikey_encoded_order_same_user_key;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split_independent;
    QCheck_alcotest.to_alcotest qcheck_varint;
    QCheck_alcotest.to_alcotest qcheck_ikey_compare_encode;
    QCheck_alcotest.to_alcotest qcheck_crc_detects_flip;
    QCheck_alcotest.to_alcotest qcheck_crc_eightwise;
  ]
