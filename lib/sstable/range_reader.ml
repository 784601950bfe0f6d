(* A source's inputs — its memtable entries, and a sorted view walk (pop
   the run cursor the next selector names) or plain run cursors — sit in
   one {!Merge} heap. The head decided last only steps when the next entry
   is needed, so a read that stops at its limit never fetches a block past
   its last row. Decisions read key bytes in place; strings are made only
   in [row]. *)

module Ikey = Wip_util.Ikey
module Cursor = Table.Reader.Cursor

(* A source's inputs, not yet positioned: creating cursors reads nothing. *)
type source = Merge.input list

let source ~reader ~lo ~hi ~mem view tables =
  let from = Ikey.encode_seek lo ~seq:Ikey.max_seq in
  let cursor ~from m =
    Cursor.create (reader m) ~category:Read_path ~admit:Scan ~from ()
  in
  Merge.mem mem
  ::
  (match view with
  | Some (view, runs) when Array.length runs > 0 ->
    let start, anchor = Sorted_view.position view ~from in
    [
      Merge.walk ~selectors:(Sorted_view.selectors view)
        ~count:(Sorted_view.entry_count view) ~start ~from
        (Array.map (cursor ~from:anchor) runs);
    ]
  | Some _ -> []
  | None ->
    (* Exclusive bound: a table whose smallest key equals [hi] holds
       nothing in [lo, hi) — never open or read it. *)
    List.filter_map
      (fun m ->
        if Table.overlaps_excl m ~lo ~hi_excl:hi then
          Some (Merge.run (cursor ~from m))
        else None)
      (tables ()))

type t = {
  hi : Bytes.t; (* escaped user key bound, exclusive *)
  snapshot : int;
  mutable limit : int; (* rows still to emit *)
  mutable sources : source Seq.t;
  mutable merge : Merge.t; (* the source being read *)
  mutable read : int; (* entries read from earlier sources *)
  mutable last : Bytes.t; (* escaped user key of the last decided entry *)
  mutable last_len : int; (* -1: nothing decided yet *)
}

let create ~hi ~snapshot ?(limit = max_int) sources =
  {
    hi = Bytes.of_string (Ikey.encode_user hi);
    (* Sequences never exceed [max_seq]: clamping keeps every comparison
       and fits the bound in an immediate int. *)
    snapshot = Int64.to_int (Int64.min snapshot Ikey.max_seq);
    limit = max 0 limit;
    sources;
    merge = Merge.create [];
    read = 0;
    last = Bytes.create 32;
    last_len = -1;
  }

(* Decide the head [buf.[0..len)] on its bytes: [true] for a row. Only
   versions at or below the snapshot count; the first of them per user key
   is remembered and shadows the rest; a tombstone returns nothing. *)
let decide t buf ~len =
  Int.compare (Ikey.encoded_seq_int_bytes buf ~len) t.snapshot <= 0
  &&
  let ulen = len - Ikey.trailer_length in
  (not (ulen = t.last_len && Block.equal_prefix t.last buf ulen))
  && begin
       if Bytes.length t.last < ulen then t.last <- Bytes.create (2 * ulen);
       Bytes.blit buf 0 t.last 0 ulen;
       t.last_len <- ulen;
       match Ikey.encoded_kind_bytes buf ~len with
       | Ikey.Value -> true
       | Ikey.Deletion -> false
     end

let finish t =
  t.limit <- 0;
  t.sources <- Seq.empty;
  false

let rec next t =
  if t.limit <= 0 then false
  else if not (Merge.next t.merge) then
    match t.sources () with
    | Seq.Nil -> finish t
    | Seq.Cons (s, rest) ->
      t.sources <- rest;
      t.read <- t.read + Merge.entries_read t.merge;
      t.merge <- Merge.create s;
      next t
  else begin
    let buf = Merge.key_bytes t.merge and len = Merge.key_length t.merge in
    (* Sources ascend and each input is sorted: the first head past [hi]
       ends the whole read. *)
    if
      Block.compare_bytes t.hi (Bytes.length t.hi) buf (len - Ikey.trailer_length)
      <= 0
    then finish t
    else if decide t buf ~len then begin
      t.limit <- t.limit - 1;
      true
    end
    else next t
  end

let row t = (Merge.user_key t.merge, Merge.value t.merge)

let to_list t =
  let rec go acc = if next t then go (row t :: acc) else List.rev acc in
  go []

let to_seq t =
  let rec go () = if next t then Seq.Cons (row t, go) else Seq.Nil in
  go

let entries_read t = t.read + Merge.entries_read t.merge
