module Ikey = Wip_util.Ikey

let slots_per_entry = 8

(* [entry] = (Ikey.encode ikey, value): keys are encoded once, at insert,
   and the pair is shared by every sorted buffer built from the table. *)
type item = { ikey : Ikey.t; entry : string * string }

let empty_item = { ikey = Ikey.make "" ~seq:0L; entry = ("", "") }

type t = {
  (* Directory: entry [e], slot [s] lives at tags.(e * 8 + s) / refs.(e * 8 + s).
     A tag of 0 means the slot is empty; slots fill left to right (a log). *)
  tags : int array;
  refs : int array;
  entry_count : int;
  mutable items : item array;
  mutable item_count : int;
  capacity_items : int;
  mutable byte_size : int;
  mutable probes : int;
  mutable sorted : (string * string) array option;
      (* the current version's sort-to-buffer, dropped by the next insert
         and never mutated once built; guarded_by: caller *)
  mutable sorts : int; (* guarded_by: caller *)
}

let next_pow2 n =
  let rec loop p = if p >= n then p else loop (p * 2) in
  loop 1

let create ~capacity_items =
  assert (capacity_items > 0);
  (* Two slots of average load per eight-slot entry at full capacity: the
     Poisson tail P(entry >= 8 | mean 2) ~ 1e-3 keeps premature
     freeze-on-overflow rare while a lookup still costs one cache line. *)
  let entry_count = max 2 (next_pow2 ((capacity_items + 1) / 2)) in
  {
    tags = Array.make (entry_count * slots_per_entry) 0;
    refs = Array.make (entry_count * slots_per_entry) 0;
    entry_count;
    items = Array.make (min capacity_items 64) empty_item;
    item_count = 0;
    capacity_items;
    byte_size = 0;
    probes = 0;
    sorted = None;
    sorts = 0;
  }

let entry_of t user_key =
  Wip_util.Hashing.hash32 user_key land (t.entry_count - 1)

let grow_items t =
  let cap = Array.length t.items in
  if t.item_count = cap then begin
    let bigger =
      Array.make (min t.capacity_items (max 64 (cap * 2))) empty_item
    in
    Array.blit t.items 0 bigger 0 cap;
    t.items <- bigger
  end

let try_add t ikey value =
  if t.item_count >= t.capacity_items then false
  else begin
    let entry = entry_of t ikey.Ikey.user_key in
    let base = entry * slots_per_entry in
    (* Find the first empty slot in the entry's log. *)
    let rec first_free s =
      if s = slots_per_entry then None
      else begin
        t.probes <- t.probes + 1;
        if t.tags.(base + s) = 0 then Some s else first_free (s + 1)
      end
    in
    match first_free 0 with
    | None -> false (* entry overflow: freeze the table *)
    | Some s ->
      grow_items t;
      t.items.(t.item_count) <- { ikey; entry = (Ikey.encode ikey, value) };
      t.sorted <- None;
      t.tags.(base + s) <- Wip_util.Hashing.tag16 ikey.Ikey.user_key;
      t.refs.(base + s) <- t.item_count;
      t.item_count <- t.item_count + 1;
      t.byte_size <-
        t.byte_size + String.length ikey.Ikey.user_key + String.length value + 8;
      true
  end

let find_with_seq t user_key ~snapshot =
  let entry = entry_of t user_key in
  let base = entry * slots_per_entry in
  let tag = Wip_util.Hashing.tag16 user_key in
  (* Scan the slot log from its end: newest first. *)
  let rec scan s =
    if s < 0 then None
    else begin
      t.probes <- t.probes + 1;
      if t.tags.(base + s) = 0 then scan (s - 1)
      else if t.tags.(base + s) <> tag then scan (s - 1)
      else
        let item = t.items.(t.refs.(base + s)) in
        if
          String.equal item.ikey.Ikey.user_key user_key
          && Int64.compare item.ikey.Ikey.seq snapshot <= 0
        then Some (item.ikey.Ikey.kind, snd item.entry, item.ikey.Ikey.seq)
        else scan (s - 1)
    end
  in
  scan (slots_per_entry - 1)

let sorted t =
  match t.sorted with
  | Some buf -> buf
  | None ->
    let buf = Array.init t.item_count (fun i -> t.items.(i).entry) in
    (* Encoded keys are memcomparable and unique (one seq per write). *)
    Array.sort (fun (a, _) (b, _) -> String.compare a b) buf;
    t.sorts <- t.sorts + 1;
    t.sorted <- Some buf;
    buf

let sorts t = t.sorts

let count t = t.item_count

let byte_size t = t.byte_size

let probes t = t.probes

let capacity_items t = t.capacity_items
