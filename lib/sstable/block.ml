module Coding = Wip_util.Coding

module Builder = struct
  type t = {
    buf : Buffer.t;
    mutable restarts : int list; (* reverse order *)
    mutable counter : int;
    mutable last_key : string;
    mutable entries : int;
  }

  let create () =
    { buf = Buffer.create 4096; restarts = [ 0 ]; counter = 0; last_key = ""; entries = 0 }

  let shared_prefix_length a b =
    let n = min (String.length a) (String.length b) in
    let rec loop i = if i < n && a.[i] = b.[i] then loop (i + 1) else i in
    loop 0

  let add t ~key ~value =
    assert (t.entries = 0 || String.compare t.last_key key <= 0);
    let shared =
      if t.counter < Table_format.restart_interval then
        shared_prefix_length t.last_key key
      else begin
        t.restarts <- Buffer.length t.buf :: t.restarts;
        t.counter <- 0;
        0
      end
    in
    Coding.put_varint t.buf shared;
    Coding.put_varint t.buf (String.length key - shared);
    Coding.put_varint t.buf (String.length value);
    Buffer.add_substring t.buf key shared (String.length key - shared);
    Buffer.add_string t.buf value;
    t.last_key <- key;
    t.counter <- t.counter + 1;
    t.entries <- t.entries + 1

  let size_estimate t =
    Buffer.length t.buf + (4 * List.length t.restarts) + 4

  let entry_count t = t.entries

  let finish t =
    let restarts = List.rev t.restarts in
    List.iter (fun off -> Coding.put_fixed32 t.buf off) restarts;
    Coding.put_fixed32 t.buf (List.length restarts);
    Buffer.contents t.buf
end

let restart_info ?len raw =
  let n = Option.value len ~default:(String.length raw) in
  let count = Coding.get_fixed32 raw (n - 4) in
  let restart_base = n - 4 - (4 * count) in
  (count, restart_base)

let restart_offset raw restart_base i = Coding.get_fixed32 raw (restart_base + (4 * i))

(* Full-block decodes performed (every [decode_all] call). Hot paths use
   {!Cursor} and never bump this; the regression test in test_readpath holds
   it still across a cache-hot get. *)
let decode_count = Atomic.make 0

(* Key comparisons spent positioning cursors: every restart probe of a
   binary search and every entry stepped over while converging on the
   target. The perfect-hash point path jumps straight to an ordinal, so the
   readpath bench reports this as probes/op to show the saving. *)
let seek_probe_count = Atomic.make 0

(* Decode the entry at [off]; returns (key, value, next_off). [prev_key] is
   the fully reconstructed previous key for prefix sharing. *)
let decode_entry raw ~prev_key off =
  let shared, off = Coding.get_varint raw off in
  let unshared, off = Coding.get_varint raw off in
  let vlen, off = Coding.get_varint raw off in
  let key = String.sub prev_key 0 shared ^ String.sub raw off unshared in
  let off = off + unshared in
  let value = String.sub raw off vlen in
  (key, value, off + vlen)

let decode_all raw =
  Atomic.incr decode_count;
  let _count, restart_base = restart_info raw in
  let rec loop off prev_key acc =
    if off >= restart_base then List.rev acc
    else
      let key, value, off' = decode_entry raw ~prev_key off in
      loop off' key ((key, value) :: acc)
  in
  loop 0 "" []

module Cursor = struct
  type t = {
    raw : string;
    restart_base : int;
    restart_count : int;
    mutable pos : int; (* offset of the next entry to parse *)
    mutable p : int; (* parse offset, advanced by [varint] *)
    mutable key_buf : Bytes.t; (* reused across entries; prefix in place *)
    mutable key_len : int;
    mutable val_off : int;
    mutable val_len : int;
    mutable valid : bool;
  }

  let create ?len raw =
    let restart_count, restart_base = restart_info ?len raw in
    if restart_base < 0 then invalid_arg "Block.Cursor: bad restart array";
    {
      raw;
      restart_base;
      restart_count;
      pos = 0;
      p = 0;
      key_buf = Bytes.create 64;
      key_len = 0;
      val_off = 0;
      val_len = 0;
      valid = false;
    }

  (* Stepping and seeking allocate nothing: varints decode in place into
     [t.p] (no result tuple) and every loop below is a top-level function,
     so no closure is built per call. *)
  let rec varint_from t shift acc =
    if shift > 63 then invalid_arg "Block.Cursor: overlong varint";
    let byte = Char.code t.raw.[t.p] in
    t.p <- t.p + 1;
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte < 0x80 then acc else varint_from t (shift + 7) acc

  let varint t = varint_from t 0 0

  let reserve t n =
    if Bytes.length t.key_buf < n then begin
      let bigger = Bytes.create (max n (2 * Bytes.length t.key_buf)) in
      Bytes.blit t.key_buf 0 bigger 0 t.key_len;
      t.key_buf <- bigger
    end

  let next t =
    if t.pos >= t.restart_base then begin
      t.valid <- false;
      false
    end
    else begin
      t.p <- t.pos;
      let shared = varint t in
      let unshared = varint t in
      let vlen = varint t in
      let off = t.p in
      if (t.valid && shared > t.key_len) || (not t.valid) && shared > 0 then
        invalid_arg "Block.Cursor: shared prefix without predecessor";
      if off + unshared + vlen > t.restart_base then
        invalid_arg "Block.Cursor: entry overruns block";
      reserve t (shared + unshared);
      Bytes.blit_string t.raw off t.key_buf shared unshared;
      t.key_len <- shared + unshared;
      t.val_off <- off + unshared;
      t.val_len <- vlen;
      t.pos <- t.val_off + vlen;
      t.valid <- true;
      true
    end

  let rewind t =
    t.pos <- 0;
    t.key_len <- 0;
    t.valid <- false

  let key t = Bytes.sub_string t.key_buf 0 t.key_len

  let key_length t = t.key_len

  let key_bytes t = t.key_buf

  let value t = String.sub t.raw t.val_off t.val_len

  let rec compare_raw_from raw off len target lt i n =
    if i = n then Int.compare len lt
    else
      let c =
        Char.compare
          (String.unsafe_get raw (off + i))
          (String.unsafe_get target i)
      in
      if c <> 0 then c else compare_raw_from raw off len target lt (i + 1) n

  let compare_key t target =
    let lt = String.length target in
    compare_raw_from
      (Bytes.unsafe_to_string t.key_buf)
      0 t.key_len target lt 0 (min t.key_len lt)

  (* Compare the key stored at restart [i] against [target] straight out of
     the raw block: restart entries carry their full key (shared = 0), so no
     reconstruction or copy is needed. *)
  let compare_restart t i target =
    Atomic.incr seek_probe_count;
    t.p <- restart_offset t.raw t.restart_base i;
    let shared = varint t in
    let unshared = varint t in
    let _vlen = varint t in
    if shared <> 0 then invalid_arg "Block.Cursor: restart with shared prefix";
    let lt = String.length target in
    compare_raw_from t.raw t.p unshared target lt 0 (min unshared lt)

  (* Last restart in [lo, hi) whose key is < target; restart [lo]'s is. *)
  let rec last_restart_below t target lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if compare_restart t mid target < 0 then last_restart_below t target mid hi
      else last_restart_below t target lo mid

  let rec scan_to t target =
    if not (next t) then false
    else begin
      Atomic.incr seek_probe_count;
      compare_key t target >= 0 || scan_to t target
    end

  let seek t target =
    if t.restart_count = 0 || t.restart_base = 0 then begin
      (* No entries (an empty builder still emits one restart slot). *)
      t.valid <- false;
      false
    end
    else begin
      let start =
        if compare_restart t 0 target >= 0 then 0
        else last_restart_below t target 0 t.restart_count
      in
      t.pos <- restart_offset t.raw t.restart_base start;
      t.key_len <- 0;
      t.valid <- false;
      scan_to t target
    end

  let rec step t k = k = 0 || (next t && step t (k - 1))

  (* Jump to entry ordinal [n] without any key comparison: restart
     [n / restart_interval] then step [n mod restart_interval] entries.
     Sound because {!Builder.add} opens a restart every
     [Table_format.restart_interval] entries exactly. *)
  let seek_ordinal t n =
    if n < 0 then invalid_arg "Block.Cursor.seek_ordinal: negative ordinal";
    let r = n / Table_format.restart_interval in
    if t.restart_count = 0 || t.restart_base = 0 || r >= t.restart_count then begin
      t.valid <- false;
      false
    end
    else begin
      t.pos <- restart_offset t.raw t.restart_base r;
      t.key_len <- 0;
      t.valid <- false;
      step t ((n mod Table_format.restart_interval) + 1)
    end
end
