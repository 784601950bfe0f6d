(* CHD-style perfect-hash point index (CompassDB's trick, PAPERS.md).

   Maps every distinct escaped-user key of a table to the exact
   (data block, entry ordinal) of its newest version, so a point get jumps
   straight to the entry with Cursor.seek_ordinal instead of binary-searching
   restart points. The structure is immutable and built once at table-write
   time from keys already in hand.

   Construction (compress-hash-displace with a single 16-bit displacement per
   bucket): keys are thrown into b ≈ n/4 buckets by one hash; buckets are
   placed greedily, largest first, each searching for a displacement d such
   that slot(key, d) = (h1 + d·h2) mod m is free and distinct for all its
   keys, with m ≈ 1.23·n slots. Each slot stores a 1-byte fingerprint (never
   0 — 0 marks an empty slot) plus fixed16 block and entry numbers, 5 bytes
   per slot ≈ 6.2 bytes per key. Construction is randomized only through the
   key set; for pathological sets it can fail, in which case [build] returns
   [None] and the table simply ships without an index (readers fall back to
   restart binary search). The same [None] applies to overweight tables:
   block or entry ordinals beyond 16 bits, or key counts beyond [capacity].

   A fingerprint match for an absent key (p ≈ 1/255) sends the reader to an
   unrelated entry; the table layer verifies the user key before trusting the
   slot and counts the rejection as a ph false hit. *)

module Bytebuf = Wip_util.Bytebuf
module Coding = Wip_util.Coding
module Hashing = Wip_util.Hashing

let seed_bucket = 0x5748_4950_4442_3031L (* "WHIPDB01" *)
let seed_slot = 0x5748_4950_4442_3032L

let max_ordinal = 0xFFFF
let capacity = 1 lsl 22
let max_displacement = 0xFFFF
let slot_bytes = 5

(* Non-negative int from a 64-bit hash. *)
let pos64 h = Int64.to_int (Int64.logand h 0x3FFF_FFFF_FFFF_FFFFL)

let fingerprint ha =
  let f = Int64.to_int (Int64.shift_right_logical ha 56) land 0xFF in
  if f = 0 then 1 else f

(* Slot families: the 16-bit displacement d encodes a CHD pair
   (d0, d1) = (d / 256, d mod 256); slot d = (h1 + d0·h2 + d1) mod m with
   h2 in [1, m-1], both derived from one hash of the key. The additive d1
   term steps through consecutive residues, so the family reaches every
   slot even when gcd(h2, m) > 1 — a plain (h1 + d·h2) walk can orbit a
   tiny subgroup and strand the last buckets of a large table. m >= 2
   always (we force it below). *)
let slot_h1 hb ~m = pos64 hb mod m

let slot_h2 hb ~m = 1 + (pos64 (Int64.shift_right_logical hb 31) mod (m - 1))

let slot_of ~h1 ~h2 ~m d = (h1 + ((d / 256) * h2) + (d mod 256)) mod m

type reader = {
  n : int;
  m : int;
  b : int;
  disp_off : int; (* byte offset of the displacement array *)
  slots_off : int; (* byte offset of the slot array *)
  data : string;
}

let key_count r = r.n

let byte_size r = String.length r.data

(* --- encoding ------------------------------------------------------- *)

let put_fixed16 buf v =
  Bytebuf.add_char buf (Char.chr (v land 0xFF));
  Bytebuf.add_char buf (Char.chr ((v lsr 8) land 0xFF))

let get_fixed16 s off =
  Char.code (String.unsafe_get s off)
  lor (Char.code (String.unsafe_get s (off + 1)) lsl 8)

(* [keys] are the escaped-user key slices (newest version first occurrence),
   [locators.(i)] = (block lsl 16) lor entry for keys.(i). Every key is
   hashed once up front; buckets are index ranges of one [members] array,
   so the displacement search allocates nothing per attempt. *)
let build ~keys ~locators =
  let n = Array.length keys in
  let overweight l = l lsr 16 > max_ordinal || l land 0xFFFF > max_ordinal in
  if n = 0 || n > capacity || Array.length locators <> n
     || Array.exists overweight locators
  then None
  else begin
    let m = max 2 (n * 123 / 100) in
    let b = max 1 ((n + 3) / 4) in
    let bucket_of = Array.make n 0 and fp = Array.make n 0 in
    let h1 = Array.make n 0 and h2 = Array.make n 0 in
    Array.iteri
      (fun i k ->
        let ha = Hashing.hash64 ~seed:seed_bucket k in
        bucket_of.(i) <- pos64 ha mod b;
        fp.(i) <- fingerprint ha;
        let hb = Hashing.hash64 ~seed:seed_slot k in
        h1.(i) <- slot_h1 hb ~m;
        h2.(i) <- slot_h2 hb ~m)
      keys;
    (* Bucket k's keys are members.(start.(k) .. start.(k+1) - 1). *)
    let start = Array.make (b + 1) 0 in
    Array.iter (fun k -> start.(k + 1) <- start.(k + 1) + 1) bucket_of;
    for k = 1 to b do
      start.(k) <- start.(k) + start.(k - 1)
    done;
    let members = Array.make n 0 and next = Array.sub start 0 b in
    Array.iteri
      (fun i k ->
        members.(next.(k)) <- i;
        next.(k) <- next.(k) + 1)
      bucket_of;
    let size k = start.(k + 1) - start.(k) in
    (* Largest buckets first; Array.sort is deterministic, so equal sizes
       keep the order every earlier build produced. *)
    let order = Array.init b (fun i -> i) in
    Array.sort (fun x y -> Int.compare (size y) (size x)) order;
    let slots = Array.make m (-1) in
    let disp = Array.make b 0 in
    let taken = Array.make (Array.fold_left max 0 (Array.init b size)) 0 in
    (* Whether keys j.. of bucket k land on distinct free slots at
       displacement d, left in taken.(j .. size k - 1). The closures close
       over the arrays only, so an attempt allocates nothing. *)
    let rec clash s c j = c < j && (taken.(c) = s || clash s (c + 1) j) in
    let rec fits k d j =
      j = size k
      ||
      let i = members.(start.(k) + j) in
      let s = slot_of ~h1:h1.(i) ~h2:h2.(i) ~m d in
      slots.(s) < 0
      && (not (clash s 0 j))
      && begin
           taken.(j) <- s;
           fits k d (j + 1)
         end
    in
    let rec place k d =
      if d > max_displacement then false
      else if fits k d 0 then begin
        for j = 0 to size k - 1 do
          slots.(taken.(j)) <- members.(start.(k) + j)
        done;
        disp.(k) <- d;
        true
      end
      else place k (d + 1)
    in
    if not (Array.for_all (fun k -> size k = 0 || place k 0) order) then None
    else begin
      let buf = Bytebuf.create (16 + (2 * b) + (slot_bytes * m)) in
      Coding.put_varint buf n;
      Coding.put_varint buf m;
      Coding.put_varint buf b;
      Array.iter (fun d -> put_fixed16 buf d) disp;
      Array.iter
        (fun i ->
          let loc = if i < 0 then 0 else locators.(i) in
          Bytebuf.add_char buf (Char.chr (if i < 0 then 0 else fp.(i)));
          put_fixed16 buf (loc lsr 16);
          put_fixed16 buf (loc land 0xFFFF))
        slots;
      Some (Bytebuf.contents buf)
    end
  end

(* --- decoding / lookup ---------------------------------------------- *)

let read data =
  let n, off = Coding.get_varint data 0 in
  let m, off = Coding.get_varint data off in
  let b, off = Coding.get_varint data off in
  if n < 0 || m < 2 || b < 1 then invalid_arg "Ph_index.read: bad header";
  let disp_off = off in
  let slots_off = disp_off + (2 * b) in
  if slots_off + (slot_bytes * m) > String.length data then
    invalid_arg "Ph_index.read: truncated";
  { n; m; b; disp_off; slots_off; data }

(* Look up the escaped-user slice [key.[pos .. pos+len)]. Returns
   [Some (block, entry)] on a fingerprint match — the caller must still
   verify the user key at that position — and [None] for a definite miss. *)
let find r key ~pos ~len =
  if r.n = 0 then None
  else begin
    let ha = Hashing.hash64_sub ~seed:seed_bucket key ~pos ~len in
    let bucket = pos64 ha mod r.b in
    let d = get_fixed16 r.data (r.disp_off + (2 * bucket)) in
    let hb = Hashing.hash64_sub ~seed:seed_slot key ~pos ~len in
    let s = slot_of ~h1:(slot_h1 hb ~m:r.m) ~h2:(slot_h2 hb ~m:r.m) ~m:r.m d in
    let off = r.slots_off + (slot_bytes * s) in
    let fp = Char.code (String.unsafe_get r.data off) in
    if fp = 0 || fp <> fingerprint ha then None
    else Some (get_fixed16 r.data (off + 1), get_fixed16 r.data (off + 3))
  end
