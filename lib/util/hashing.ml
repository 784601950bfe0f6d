let prime1 = 0x9E3779B185EBCA87L
let prime2 = 0xC2B2AE3D27D4EB4FL
let prime3 = 0x165667B19E3779F9L

let rotl x r = Int64.(logor (shift_left x r) (shift_right_logical x (64 - r)))

(* Lanes are read as little-endian 64-bit loads and the avalanche is
   written out in place, so a call allocates only its boxed result. *)
let hash64_sub ?(seed = 0L) s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Hashing.hash64_sub";
  let stop = pos + len in
  let h = ref (Int64.add seed (Int64.of_int len)) in
  let i = ref pos in
  (* 8-byte lanes *)
  while !i + 8 <= stop do
    let lane = String.get_int64_le s !i in
    h := Int64.mul (rotl (Int64.add !h (Int64.mul lane prime2)) 31) prime1;
    i := !i + 8
  done;
  (* tail bytes *)
  while !i < stop do
    let b = Int64.of_int (Char.code (String.unsafe_get s !i)) in
    h := Int64.mul (rotl (Int64.logxor !h (Int64.mul b prime1)) 27) prime2;
    incr i
  done;
  (* avalanche *)
  h := Int64.(mul (logxor !h (shift_right_logical !h 33)) prime2);
  h := Int64.(mul (logxor !h (shift_right_logical !h 29)) prime3);
  Int64.(logxor !h (shift_right_logical !h 32))

let hash64 ?seed s = hash64_sub ?seed s ~pos:0 ~len:(String.length s)

let hash32 ?(seed = 0) s =
  let h = hash64 ~seed:(Int64.of_int seed) s in
  Int64.(to_int (logand (logxor h (shift_right_logical h 32)) 0xFFFFFFFFL))

let tag16 s =
  let t = hash32 ~seed:0x7a6 s land 0xFFFF in
  if t = 0 then 1 else t
