(* Read-back helpers the sstable tests share; the engines read through
   table cursors and the merge directly. *)

module Table = Wip_sstable.Table
module Block = Wip_sstable.Block
module Merge = Wip_sstable.Merge

(* A table's entries as a one-shot sequence of fresh (encoded key, value)
   pairs; force it at most once. *)
let stream r ~category ~admit ?from () =
  let c = Table.Reader.Cursor.create r ~category ~admit ?from () in
  let rec go () =
    if Table.Reader.Cursor.next c then
      let b = Table.Reader.Cursor.block c in
      Seq.Cons ((Block.Cursor.key b, Block.Cursor.value b), go)
    else Seq.Nil
  in
  go

(* Every entry a merge yields, as (encoded key, value). *)
let drain m =
  let rec go acc =
    if Merge.next m then
      go
        (( Bytes.sub_string (Merge.key_bytes m) 0 (Merge.key_length m),
           Merge.value m )
        :: acc)
    else List.rev acc
  in
  go []

(* A block's raw bytes: the sealed block without its CRC trailer. *)
let block_contents b =
  let sealed = Block.Builder.seal b in
  String.sub sealed 0 (String.length sealed - 4)
