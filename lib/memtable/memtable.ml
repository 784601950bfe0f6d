module Ikey = Wip_util.Ikey

type structure = Hash | Sorted

type impl = I_hash of Hash_memtable.t | I_sorted of Skiplist.t

type t = {
  impl : impl;
  capacity_items : int;
  capacity_bytes : int;
  mutable min_seq : int64 option;
}

let create ~structure ~capacity_items ~capacity_bytes =
  let impl =
    match structure with
    | Hash -> I_hash (Hash_memtable.create ~capacity_items)
    | Sorted -> I_sorted (Skiplist.create ())
  in
  { impl; capacity_items; capacity_bytes; min_seq = None }

let structure t = match t.impl with I_hash _ -> Hash | I_sorted _ -> Sorted

let count t =
  match t.impl with
  | I_hash h -> Hash_memtable.count h
  | I_sorted s -> Skiplist.count s

let byte_size t =
  match t.impl with
  | I_hash h -> Hash_memtable.byte_size h
  | I_sorted s -> Skiplist.byte_size s

let note_seq t seq =
  match t.min_seq with
  | None -> t.min_seq <- Some seq
  | Some m -> if Int64.compare seq m < 0 then t.min_seq <- Some seq

let try_add t ikey value =
  if count t >= t.capacity_items || byte_size t >= t.capacity_bytes then false
  else
    match t.impl with
    | I_hash h ->
      let ok = Hash_memtable.try_add h ikey value in
      if ok then note_seq t ikey.Ikey.seq;
      ok
    | I_sorted s ->
      Skiplist.add s ikey value;
      note_seq t ikey.Ikey.seq;
      true

let find_with_seq t user_key ~snapshot =
  match t.impl with
  | I_hash h -> Hash_memtable.find_with_seq h user_key ~snapshot
  | I_sorted s -> Skiplist.find_with_seq s user_key ~snapshot

let entries ?lo t =
  match t.impl with
  | I_hash h ->
    let buf = Hash_memtable.sorted h in
    (* Binary search for the first entry >= [target]. *)
    let rec first target a b =
      if a >= b then a
      else
        let mid = (a + b) / 2 in
        if String.compare (fst buf.(mid)) target < 0 then first target (mid + 1) b
        else first target a mid
    in
    let n = Array.length buf in
    let start =
      match lo with
      | None -> 0
      | Some lo -> first (Ikey.encode_seek lo ~seq:Ikey.max_seq) 0 n
    in
    Seq.init (n - start) (fun i -> buf.(start + i))
  | I_sorted s ->
    Skiplist.to_sorted_seq ?lo s |> Seq.map (fun (ik, v) -> (Ikey.encode ik, v))

let rec adopt t ikey value =
  let added =
    match t.impl with
    | I_hash h -> Hash_memtable.try_add h ikey value
    | I_sorted s ->
      Skiplist.add s ikey value;
      true
  in
  if added then begin
    note_seq t ikey.Ikey.seq;
    t
  end
  else begin
    (* A hash table out of room: the key's directory entry is full, or
       every item slot is taken. *)
    let sorted =
      create ~structure:Sorted ~capacity_items:t.capacity_items
        ~capacity_bytes:t.capacity_bytes
    in
    let sorted =
      Seq.fold_left
        (fun acc (k, v) -> adopt acc (Ikey.decode k) v)
        sorted (entries t)
    in
    adopt sorted ikey value
  end

let sorts t =
  match t.impl with I_hash h -> Hash_memtable.sorts h | I_sorted _ -> 0

let probes t =
  match t.impl with
  | I_hash h -> Hash_memtable.probes h
  | I_sorted s -> Skiplist.probes s

let is_empty t = count t = 0

let min_seq t = t.min_seq
