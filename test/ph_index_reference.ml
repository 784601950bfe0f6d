(* Reference implementation of Ph_index.build: the original construction,
   which rehashes every key of a bucket on each displacement attempt. The
   optimized builder must produce byte-identical blocks (see
   test_sorted_view.ml, "ph build matches reference"). Constants and slot
   arithmetic are restated here because ph_index.mli keeps them private. *)

module Bytebuf = Wip_util.Bytebuf
module Coding = Wip_util.Coding
module Hashing = Wip_util.Hashing

let seed_bucket = 0x5748_4950_4442_3031L
let seed_slot = 0x5748_4950_4442_3032L
let max_ordinal = 0xFFFF
let capacity = 1 lsl 22
let max_displacement = 0xFFFF
let slot_bytes = 5

let pos64 h = Int64.to_int (Int64.logand h 0x3FFF_FFFF_FFFF_FFFFL)

let fingerprint ha =
  let f = Int64.to_int (Int64.shift_right_logical ha 56) land 0xFF in
  if f = 0 then 1 else f

let slot_params hb ~m =
  let h1 = pos64 hb mod m in
  let h2 = 1 + (pos64 (Int64.shift_right_logical hb 31) mod (m - 1)) in
  (h1, h2)

let slot_of ~h1 ~h2 ~m d = (h1 + ((d / 256) * h2) + (d mod 256)) mod m

let put_fixed16 buf v =
  Bytebuf.add_char buf (Char.chr (v land 0xFF));
  Bytebuf.add_char buf (Char.chr ((v lsr 8) land 0xFF))

let build ~keys ~locators =
  let n = Array.length keys in
  if n = 0 || n > capacity || Array.length locators <> n then None
  else begin
    let m = max 2 (n * 123 / 100) in
    let b = max 1 ((n + 3) / 4) in
    (* Bucketize. *)
    let buckets = Array.make b [] in
    let ok = ref true in
    Array.iteri
      (fun i k ->
        if locators.(i) lsr 16 > max_ordinal || locators.(i) land 0xFFFF > max_ordinal
        then ok := false
        else begin
          let ha = Hashing.hash64 ~seed:seed_bucket k in
          buckets.(pos64 ha mod b) <- i :: buckets.(pos64 ha mod b)
        end)
      keys;
    if not !ok then None
    else begin
      let order = Array.init b (fun i -> i) in
      Array.sort
        (fun x y ->
          Int.compare (List.length buckets.(y)) (List.length buckets.(x)))
        order;
      let slots = Array.make m (-1) in
      let disp = Array.make b 0 in
      let place bucket_keys d =
        (* All keys of the bucket must land on distinct free slots at
           displacement d; returns the slots or None. *)
        let rec go acc = function
          | [] -> Some acc
          | i :: rest ->
            let hb = Hashing.hash64 ~seed:seed_slot keys.(i) in
            let h1, h2 = slot_params hb ~m in
            let s = slot_of ~h1 ~h2 ~m d in
            if slots.(s) >= 0 || List.exists (fun (s', _) -> s' = s) acc then
              None
            else go ((s, i) :: acc) rest
        in
        go [] bucket_keys
      in
      let rec search bi =
        if bi >= b then true
        else
          let bucket = buckets.(order.(bi)) in
          if bucket = [] then search (bi + 1)
          else begin
            let rec try_d d =
              if d > max_displacement then false
              else
                match place bucket d with
                | Some placed ->
                  List.iter (fun (s, i) -> slots.(s) <- i) placed;
                  disp.(order.(bi)) <- d;
                  true
                | None -> try_d (d + 1)
            in
            try_d 0 && search (bi + 1)
          end
      in
      if not (search 0) then None
      else begin
        let buf = Bytebuf.create (16 + (2 * b) + (slot_bytes * m)) in
        Coding.put_varint buf n;
        Coding.put_varint buf m;
        Coding.put_varint buf b;
        Array.iter (fun d -> put_fixed16 buf d) disp;
        Array.iter
          (fun i ->
            if i < 0 then begin
              Bytebuf.add_char buf '\000';
              put_fixed16 buf 0;
              put_fixed16 buf 0
            end
            else begin
              let ha = Hashing.hash64 ~seed:seed_bucket keys.(i) in
              Bytebuf.add_char buf (Char.chr (fingerprint ha));
              put_fixed16 buf (locators.(i) lsr 16);
              put_fixed16 buf (locators.(i) land 0xFFFF)
            end)
          slots;
        Some (Bytebuf.contents buf)
      end
    end
  end
