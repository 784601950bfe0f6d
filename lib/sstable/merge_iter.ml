module Ikey = Wip_util.Ikey

(* A pairing heap keyed by the head element of each sequence: find-min is
   O(1) and delete-min amortises to O(log k), so each emitted element costs
   O(log k) instead of the O(k) fold + fresh List.filter allocation of the
   previous linear scan — the difference shows at split/merge time, when a
   bucket's every sublevel joins the merge. Streams carry *encoded* internal
   keys compared bytewise (the encoding is memcomparable, see
   {!Wip_util.Ikey}), so merging materializes no [Ikey.t] records. *)
type 'v stream = { head : string * 'v; tail : (string * 'v) Seq.t }

let stream_of_seq seq =
  match seq () with
  | Seq.Nil -> None
  | Seq.Cons (head, tail) -> Some { head; tail }

(* Non-empty heap; the whole heap is a [heap option]. *)
type 'v heap = Node of 'v stream * 'v heap list

let meld (Node (sa, ca) as a) (Node (sb, cb) as b) =
  if String.compare (fst sa.head) (fst sb.head) <= 0 then Node (sa, b :: ca)
  else Node (sb, a :: cb)

let insert s = function
  | None -> Some (Node (s, []))
  | Some h -> Some (meld (Node (s, [])) h)

(* Standard two-pass pairing: meld children pairwise left to right, then
   fold the pair melds together right to left. *)
let rec merge_pairs = function
  | [] -> None
  | [ h ] -> Some h
  | a :: b :: rest -> (
    let ab = meld a b in
    match merge_pairs rest with
    | None -> Some ab
    | Some r -> Some (meld ab r))

let merge seqs =
  match List.filter_map stream_of_seq seqs with
  | [] -> Seq.empty
  | [ s ] ->
    (* One live source — its order is already the merged order, so hand the
       underlying sequence back with no per-element heap bookkeeping. The
       common case is a whole-table pass over a single run. *)
    fun () -> Seq.Cons (s.head, s.tail)
  | streams ->
    let heap = List.fold_left (fun acc s -> insert s acc) None streams in
    let rec next heap () =
      match heap with
      | None -> Seq.Nil
      | Some (Node (s, children)) ->
        let rest = merge_pairs children in
        let heap' =
          match stream_of_seq s.tail with
          | Some s' -> insert s' rest
          | None -> rest
        in
        Seq.Cons (s.head, next heap')
    in
    next heap

let compact ?(dedup_user_keys = true) ?(drop_tombstones = false)
    ?(snapshot_floor = Int64.max_int) seqs =
  let merged = merge seqs in
  let no_floor = Int64.equal snapshot_floor Int64.max_int in
  (* [emitted_below_floor]: a version of the last user key with seq <= floor
     has already been decided (kept or tombstone-dropped); all older ones are
     shadowed. Versions with seq > floor always survive — an open snapshot
     may still need them. Everything reads off the encoded keys: user-key
     identity bytewise, sequence and kind from the trailer. *)
  let rec filter last_key emitted_below_floor seq () =
    match seq () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (((k, _v) as entry), rest) ->
      let same_key =
        match last_key with
        | Some prev -> Ikey.encoded_same_user prev k
        | None -> false
      in
      let emitted_below_floor = same_key && emitted_below_floor in
      let key' = Some k in
      if
        (not no_floor) && Int64.compare (Ikey.encoded_seq k) snapshot_floor > 0
      then Seq.Cons (entry, filter key' emitted_below_floor rest)
      else if dedup_user_keys && emitted_below_floor then filter key' true rest ()
      else if
        drop_tombstones
        && match Ikey.encoded_kind k with Ikey.Deletion -> true | Ikey.Value -> false
      then filter key' true rest ()
      else Seq.Cons (entry, filter key' true rest)
  in
  filter None false merged
