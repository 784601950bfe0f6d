type t = { bits : Bytes.t; nbits : int; k : int }

let probes_for bits_per_key =
  let k = int_of_float (float_of_int bits_per_key *. 0.69 +. 0.5) in
  max 1 (min 30 k)

let create ~bits_per_key ~expected_keys =
  let nbits = max 64 (expected_keys * bits_per_key) in
  let nbytes = (nbits + 7) / 8 in
  { bits = Bytes.make nbytes '\000'; nbits = nbytes * 8; k = probes_for bits_per_key }

(* Double hashing's two base hashes, both cut from one 64-bit hash. *)
let h1_of h = Int64.to_int (Int64.logand h 0x3FFFFFFFFFFFFFFFL)

let h2_of h =
  Int64.to_int
    (Int64.logand (Int64.shift_right_logical h 17) 0x3FFFFFFFFFFFFFFFL)
  lor 1

let set_bit bits pos =
  let byte = pos lsr 3 and bit = pos land 7 in
  Bytes.unsafe_set bits byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits byte) lor (1 lsl bit)))

let get_bit_bytes bits pos =
  let byte = pos lsr 3 and bit = pos land 7 in
  Char.code (Bytes.unsafe_get bits byte) land (1 lsl bit) <> 0

let get_bit_string bits pos =
  let byte = pos lsr 3 and bit = pos land 7 in
  Char.code (String.unsafe_get bits byte) land (1 lsl bit) <> 0

let add_sub t key ~pos ~len =
  let hash = Wip_util.Hashing.hash64_sub key ~pos ~len in
  let h = ref (h1_of hash) and h2 = h2_of hash in
  for _ = 1 to t.k do
    set_bit t.bits (!h mod t.nbits);
    h := (!h + h2) land max_int
  done

let add t key = add_sub t key ~pos:0 ~len:(String.length key)

let mem t key =
  let hash = Wip_util.Hashing.hash64 key in
  let h1 = h1_of hash and h2 = h2_of hash in
  let rec loop h i =
    if i = 0 then true
    else if not (get_bit_bytes t.bits (h mod t.nbits)) then false
    else loop ((h + h2) land max_int) (i - 1)
  in
  loop h1 t.k

let encode t =
  let n = Bytes.length t.bits in
  let s = Bytes.create (n + 1) in
  Bytes.blit t.bits 0 s 0 n;
  Bytes.set s n (Char.chr t.k);
  Bytes.unsafe_to_string s

let mem_encoded_sub filter key ~pos ~len =
  let n = String.length filter in
  if n < 2 then true
  else begin
    let k = Char.code filter.[n - 1] in
    if k < 1 || k > 30 then true
    else begin
      let nbits = (n - 1) * 8 in
      let hash = Wip_util.Hashing.hash64_sub key ~pos ~len in
      let h2 = h2_of hash in
      let rec loop h i =
        if i = 0 then true
        else if not (get_bit_string filter (h mod nbits)) then false
        else loop ((h + h2) land max_int) (i - 1)
      in
      loop (h1_of hash) k
    end
  end

let mem_encoded filter key =
  mem_encoded_sub filter key ~pos:0 ~len:(String.length key)

let bit_count t = t.nbits

let probe_count t = t.k
