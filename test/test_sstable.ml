(* Tests for wip_sstable: block coding, table build/read, merge iterator. *)

module Ikey = Wip_util.Ikey
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Block = Wip_sstable.Block
module Table = Wip_sstable.Table
module Table_format = Wip_sstable.Table_format
module Merge_iter = Wip_sstable.Merge_iter

let ik ?(kind = Ikey.Value) key seq = Ikey.make ~kind key ~seq:(Int64.of_int seq)

let enc ?kind key seq = Ikey.encode (ik ?kind key seq)

(* A table's decoded entries from user key [lo] (default: all). *)
let iter_from r ?(lo = "") () =
  let from = if lo = "" then "" else Ikey.encode_seek lo ~seq:Ikey.max_seq in
  Table.Reader.stream r ~category:Io_stats.Read_path
    ~admit:Wip_storage.Block_cache.Scan ~from ()
  |> Seq.map (fun (k, v) -> (Ikey.decode k, v))

(* ------------------------------------------------------------------ *)
(* Block layer *)

let test_block_roundtrip () =
  let b = Block.Builder.create () in
  let entries =
    List.init 100 (fun i -> (Printf.sprintf "key-%05d" i, "value" ^ string_of_int i))
  in
  List.iter (fun (k, v) -> Block.Builder.add b ~key:k ~value:v) entries;
  let raw = Block.Builder.finish b in
  Alcotest.(check (list (pair string string))) "all entries back" entries
    (Block.decode_all raw)

let test_block_seek () =
  let b = Block.Builder.create () in
  for i = 0 to 99 do
    Block.Builder.add b ~key:(Printf.sprintf "k%04d" (i * 2)) ~value:(string_of_int i)
  done;
  let cur = Block.Cursor.create (Block.Builder.finish b) in
  let seek target =
    if Block.Cursor.seek cur target then Some (Block.Cursor.key cur) else None
  in
  Alcotest.(check (option string)) "exact" (Some "k0050") (seek "k0050");
  Alcotest.(check (option string)) "between keys: the next one" (Some "k0052")
    (seek "k0051");
  Alcotest.(check (option string)) "before the first" (Some "k0000") (seek "");
  Alcotest.(check (option string)) "past the end" None (seek "zzz")

let test_block_seal_unseal () =
  let sealed = Table_format.seal_block "payload" in
  Alcotest.(check string) "roundtrip" "payload" (Table_format.unseal_block sealed);
  let corrupted =
    let b = Bytes.of_string sealed in
    Bytes.set b 0 'P';
    Bytes.to_string b
  in
  match Table_format.unseal_block corrupted with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "corruption undetected"

let test_footer_roundtrip () =
  let f =
    {
      Table_format.index = { Table_format.offset = 123; size = 45 };
      filter = { Table_format.offset = 6; size = 7 };
      ph = Table_format.no_handle;
      entry_count = 890;
      smallest = "aaa";
      largest = "zzz";
    }
  in
  let encoded = Table_format.encode_footer f in
  let f' = Table_format.decode_footer encoded in
  Alcotest.(check int) "index offset" 123 f'.Table_format.index.Table_format.offset;
  Alcotest.(check int) "entries" 890 f'.Table_format.entry_count;
  Alcotest.(check string) "smallest" "aaa" f'.Table_format.smallest;
  Alcotest.(check string) "largest" "zzz" f'.Table_format.largest;
  Alcotest.(check int) "no ph block" 0 f'.Table_format.ph.Table_format.size;
  (* v1 magic: a footer without a ph block is byte-identical to v1. *)
  let n = String.length encoded in
  Alcotest.(check int64) "v1 magic" Table_format.magic
    (Wip_util.Coding.get_fixed64 encoded (n - 12));
  (* With a ph handle the footer switches to the v2 magic and round-trips. *)
  let f2 =
    { f with Table_format.ph = { Table_format.offset = 77; size = 88 } }
  in
  let encoded2 = Table_format.encode_footer f2 in
  let n2 = String.length encoded2 in
  Alcotest.(check int64) "v2 magic" Table_format.magic_v2
    (Wip_util.Coding.get_fixed64 encoded2 (n2 - 12));
  let f2' = Table_format.decode_footer encoded2 in
  Alcotest.(check int) "ph offset" 77 f2'.Table_format.ph.Table_format.offset;
  Alcotest.(check int) "ph size" 88 f2'.Table_format.ph.Table_format.size;
  Alcotest.(check int) "v2 index offset" 123
    f2'.Table_format.index.Table_format.offset

(* ------------------------------------------------------------------ *)
(* Table layer *)

let build_table env name entries =
  let b =
    Table.Builder.create env ~name ~category:Io_stats.Flush
      ~expected_keys:(List.length entries) ()
  in
  List.iter (fun (ikey, v) -> Table.Builder.add b ikey v) entries;
  Table.Builder.finish b

let test_table_roundtrip () =
  let env = Env.in_memory () in
  let entries =
    List.init 1000 (fun i -> (ik (Printf.sprintf "key-%06d" i) (i + 1), "v" ^ string_of_int i))
  in
  let meta = build_table env "t1" entries in
  Alcotest.(check int) "entry count" 1000 meta.Table.entry_count;
  Alcotest.(check string) "smallest" "key-000000" meta.Table.smallest;
  Alcotest.(check string) "largest" "key-000999" meta.Table.largest;
  let r = Table.Reader.open_ env ~name:"t1" in
  List.iter
    (fun ((ikey : Ikey.t), v) ->
      match
        Table.Reader.get r ~category:Io_stats.Read_path ikey.Ikey.user_key
          ~snapshot:Int64.max_int
      with
      | Some (Ikey.Value, v', _) when String.equal v v' -> ()
      | _ -> Alcotest.failf "lookup failed for %s" ikey.Ikey.user_key)
    entries;
  Alcotest.(check bool) "absent key" true
    (Table.Reader.get r ~category:Io_stats.Read_path "nope" ~snapshot:Int64.max_int
     = None);
  Table.Reader.close r

let test_table_snapshot_reads () =
  let env = Env.in_memory () in
  let entries =
    [ (ik "k" 9, "v9"); (ik "k" 5, "v5"); (ik ~kind:Ikey.Deletion "k" 3, ""); (ik "k" 1, "v1") ]
  in
  let _ = build_table env "t2" entries in
  let r = Table.Reader.open_ env ~name:"t2" in
  let get snap = Table.Reader.get r ~category:Io_stats.Read_path "k" ~snapshot:snap in
  (match get 100L with
  | Some (Ikey.Value, "v9", _) -> ()
  | _ -> Alcotest.fail "expected v9");
  (match get 6L with
  | Some (Ikey.Value, "v5", _) -> ()
  | _ -> Alcotest.fail "expected v5");
  (match get 3L with
  | Some (Ikey.Deletion, _, _) -> ()
  | _ -> Alcotest.fail "expected tombstone");
  (match get 1L with
  | Some (Ikey.Value, "v1", _) -> ()
  | _ -> Alcotest.fail "expected v1");
  Alcotest.(check bool) "snapshot 0" true (get 0L = None);
  Table.Reader.close r

let test_table_iter_from () =
  let env = Env.in_memory () in
  let entries =
    List.init 500 (fun i -> (ik (Printf.sprintf "%06d" (i * 2)) (i + 1), string_of_int i))
  in
  let _ = build_table env "t3" entries in
  let r = Table.Reader.open_ env ~name:"t3" in
  let from_300 =
    List.of_seq (iter_from r ~lo:"000300" ())
  in
  Alcotest.(check int) "tail size" 350 (List.length from_300);
  (match from_300 with
  | ((first : Ikey.t), _) :: _ ->
    Alcotest.(check string) "first" "000300" first.Ikey.user_key
  | [] -> Alcotest.fail "empty");
  let from_301 =
    List.of_seq (iter_from r ~lo:"000301" ())
  in
  (match from_301 with
  | ((first : Ikey.t), _) :: _ ->
    Alcotest.(check string) "between keys" "000302" first.Ikey.user_key
  | [] -> Alcotest.fail "empty");
  let all = List.of_seq (iter_from r ()) in
  Alcotest.(check int) "full scan" 500 (List.length all);
  Table.Reader.close r

let test_table_bloom_short_circuits () =
  let env = Env.in_memory () in
  let entries = List.init 100 (fun i -> (ik (Printf.sprintf "in-%04d" i) (i + 1), "v")) in
  let _ = build_table env "t4" entries in
  let r = Table.Reader.open_ env ~name:"t4" in
  let stats = Env.stats env in
  let before = Io_stats.read_by stats Io_stats.Read_path in
  let misses = ref 0 in
  for i = 0 to 999 do
    if
      Table.Reader.get r ~category:Io_stats.Read_path
        (Printf.sprintf "out-%04d" i) ~snapshot:Int64.max_int
      = None
    then incr misses
  done;
  let after = Io_stats.read_by stats Io_stats.Read_path in
  Alcotest.(check int) "all misses" 1000 !misses;
  (* Bloom filters should have stopped nearly all block reads: allow a few
     false positives' worth of I/O. *)
  let per_block = 4096 + 64 in
  Alcotest.(check bool) "bloom stopped most I/O" true
    (after - before < 40 * per_block);
  Table.Reader.close r

let test_table_corruption_detection () =
  let env = Env.in_memory () in
  let entries = List.init 50 (fun i -> (ik (Printf.sprintf "%04d" i) (i + 1), "v")) in
  let _ = build_table env "t5" entries in
  (* Flip a byte in the middle of the file (inside the first data block). *)
  let r = Env.open_file env "t5" in
  let contents = Env.read_all r ~category:Io_stats.Read_path in
  Env.close_reader r;
  let b = Bytes.of_string contents in
  Bytes.set b 10 (Char.chr (Char.code (Bytes.get b 10) lxor 0xFF));
  let w = Env.create_file env "t5" in
  Env.append w ~category:Io_stats.Flush (Bytes.to_string b);
  Env.close_writer w;
  let reader = Table.Reader.open_ env ~name:"t5" in
  (match
     Table.Reader.get reader ~category:Io_stats.Read_path "0000"
       ~snapshot:Int64.max_int
   with
  | exception Env.Corruption { file = "t5"; _ } -> ()
  | _ -> Alcotest.fail "corrupt block read succeeded");
  Table.Reader.close reader

let test_overlaps () =
  let m =
    { Table.name = "x"; size = 1; entry_count = 5; smallest = "d"; largest = "m" }
  in
  Alcotest.(check bool) "inside" true (Table.overlaps m ~lo:"e" ~hi:"f");
  Alcotest.(check bool) "spanning" true (Table.overlaps m ~lo:"a" ~hi:"z");
  Alcotest.(check bool) "left disjoint" false (Table.overlaps m ~lo:"a" ~hi:"c");
  Alcotest.(check bool) "right disjoint" false (Table.overlaps m ~lo:"n" ~hi:"z");
  Alcotest.(check bool) "boundary" true (Table.overlaps m ~lo:"m" ~hi:"z");
  let empty = { m with entry_count = 0 } in
  Alcotest.(check bool) "empty overlaps nothing" false
    (Table.overlaps empty ~lo:"a" ~hi:"z")

(* ------------------------------------------------------------------ *)
(* Merge iterator *)

let seq_of_list l = List.to_seq l

let user_of = Ikey.user_key_of_encoded

let test_merge_order () =
  let s1 = seq_of_list [ (enc "a" 1, "1"); (enc "c" 2, "2") ] in
  let s2 = seq_of_list [ (enc "b" 3, "3"); (enc "d" 4, "4") ] in
  let merged = List.of_seq (Merge_iter.merge [ s1; s2 ]) in
  Alcotest.(check (list string)) "interleaved"
    [ "a"; "b"; "c"; "d" ]
    (List.map (fun (k, _) -> user_of k) merged)

let test_compact_dedup () =
  let newer = seq_of_list [ (enc "k" 9, "new") ] in
  let older = seq_of_list [ (enc "k" 2, "old"); (enc "z" 1, "zv") ] in
  let out = List.of_seq (Merge_iter.compact [ newer; older ]) in
  Alcotest.(check (list (pair string string)))
    "newest survives"
    [ ("k", "new"); ("z", "zv") ]
    (List.map (fun (k, v) -> (user_of k, v)) out)

let test_compact_tombstones () =
  let s =
    seq_of_list [ (enc ~kind:Ikey.Deletion "k" 5, ""); (enc "k" 2, "old") ]
  in
  let keep = List.of_seq (Merge_iter.compact ~drop_tombstones:false [ s ]) in
  Alcotest.(check int) "tombstone kept" 1 (List.length keep);
  (match keep with
  | [ (k, _) ] ->
    Alcotest.(check bool) "is deletion" true
      (Ikey.encoded_kind k = Ikey.Deletion)
  | _ -> Alcotest.fail "unexpected");
  let s =
    seq_of_list [ (enc ~kind:Ikey.Deletion "k" 5, ""); (enc "k" 2, "old") ]
  in
  let dropped = List.of_seq (Merge_iter.compact ~drop_tombstones:true [ s ]) in
  Alcotest.(check int) "tombstone and shadowed value gone" 0 (List.length dropped)

let test_compact_snapshot_floor () =
  let s =
    seq_of_list
      [ (enc "k" 9, "v9"); (enc "k" 7, "v7"); (enc "k" 3, "v3"); (enc "k" 1, "v1") ]
  in
  let out = List.of_seq (Merge_iter.compact ~snapshot_floor:7L [ s ]) in
  (* Versions above the floor (9) are kept; newest at/below floor (7) kept;
     older (3, 1) dropped. *)
  Alcotest.(check (list string)) "floor semantics" [ "v9"; "v7" ]
    (List.map snd out)

(* Regression for the pairing-heap [merge]: the output must stay exactly the
   multiset of inputs sorted by encoded-key order — same ordering and
   duplicate handling as a reference sort — across many streams, empty
   streams, and (key, seq) entries duplicated between streams (as after a
   WAL replay re-ingests a flushed table's contents). *)
let test_merge_matches_reference_sort () =
  let streams =
    [
      [ (enc "b" 5, "b5"); (enc "d" 2, "d2"); (enc "f" 1, "f1") ];
      [];
      [ (enc "a" 9, "a9"); (enc "b" 7, "b7"); (enc "b" 5, "b5") ];
      [ (enc "b" 5, "b5") ];
      [ (enc "a" 9, "a9"); (enc "z" 1, "z1") ];
      [ (enc "c" 4, "c4") ];
    ]
  in
  let expected =
    List.concat streams
    |> List.stable_sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let out = List.of_seq (Merge_iter.merge (List.map seq_of_list streams)) in
  Alcotest.(check int) "length preserved" (List.length expected)
    (List.length out);
  List.iter2
    (fun (ek, ev) (ok, ov) ->
      Alcotest.(check string) "key order" ek ok;
      Alcotest.(check string) "value" ev ov)
    expected out;
  (* Duplicate handling downstream: compact keeps one entry per user key. *)
  let compacted =
    List.of_seq (Merge_iter.compact (List.map seq_of_list streams))
  in
  Alcotest.(check (list (pair string string)))
    "compact dedups to newest per key"
    [ ("a", "a9"); ("b", "b7"); ("c", "c4"); ("d", "d2"); ("f", "f1"); ("z", "z1") ]
    (List.map (fun (k, v) -> (user_of k, v)) compacted)

let qcheck_merge_is_sorted =
  QCheck.Test.make ~name:"merge output is sorted" ~count:100
    QCheck.(list (small_list (pair (int_bound 100) (int_bound 1000))))
    (fun lists ->
      let seqs =
        List.map
          (fun l ->
            l
            |> List.map (fun (k, s) -> (enc (Printf.sprintf "%03d" k) s, "v"))
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
            |> seq_of_list)
          lists
      in
      let out = List.of_seq (Merge_iter.merge seqs) in
      let rec sorted = function
        | (a, _) :: ((b, _) :: _ as rest) ->
          String.compare a b <= 0 && sorted rest
        | _ -> true
      in
      sorted out
      && List.length out = List.fold_left (fun acc l -> acc + List.length l) 0 lists)

let qcheck_table_roundtrip =
  QCheck.Test.make ~name:"table roundtrips arbitrary sorted entries" ~count:30
    QCheck.(small_list (pair (int_bound 10000) small_string))
    (fun raw ->
      let entries =
        raw
        |> List.mapi (fun i (k, v) -> (ik (Printf.sprintf "%06d" k) (i + 1), v))
        |> List.sort_uniq (fun (a, _) (b, _) -> Ikey.compare a b)
      in
      QCheck.assume (entries <> []);
      let env = Env.in_memory () in
      let b =
        Table.Builder.create env ~name:"q" ~category:Io_stats.Flush
          ~expected_keys:(List.length entries) ()
      in
      List.iter (fun (ikey, v) -> Table.Builder.add b ikey v) entries;
      let _ = Table.Builder.finish b in
      let r = Table.Reader.open_ env ~name:"q" in
      let back = List.of_seq (iter_from r ()) in
      Table.Reader.close r;
      List.length back = List.length entries
      && List.for_all2
           (fun (k1, v1) ((k2 : Ikey.t), v2) ->
             Ikey.compare k1 k2 = 0 && String.equal v1 v2)
           entries back)

let suite =
  [
    Alcotest.test_case "block roundtrip" `Quick test_block_roundtrip;
    Alcotest.test_case "block seek" `Quick test_block_seek;
    Alcotest.test_case "block seal/unseal" `Quick test_block_seal_unseal;
    Alcotest.test_case "footer roundtrip" `Quick test_footer_roundtrip;
    Alcotest.test_case "table roundtrip" `Quick test_table_roundtrip;
    Alcotest.test_case "table snapshots" `Quick test_table_snapshot_reads;
    Alcotest.test_case "table iter_from" `Quick test_table_iter_from;
    Alcotest.test_case "bloom short-circuit" `Quick
      test_table_bloom_short_circuits;
    Alcotest.test_case "corruption detection" `Quick
      test_table_corruption_detection;
    Alcotest.test_case "overlaps" `Quick test_overlaps;
    Alcotest.test_case "merge order" `Quick test_merge_order;
    Alcotest.test_case "merge matches reference sort" `Quick
      test_merge_matches_reference_sort;
    Alcotest.test_case "compact dedup" `Quick test_compact_dedup;
    Alcotest.test_case "compact tombstones" `Quick test_compact_tombstones;
    Alcotest.test_case "compact snapshot floor" `Quick
      test_compact_snapshot_floor;
    QCheck_alcotest.to_alcotest qcheck_merge_is_sorted;
    QCheck_alcotest.to_alcotest qcheck_table_roundtrip;
  ]

(* ------------------------------------------------------------------ *)
(* Block cursor: must agree with decode_all on every block and seek
   position (before the first key, exact hits, between keys, exactly on
   restart points, past the end, and on the empty block). *)

let cursor_walk raw =
  let cur = Block.Cursor.create raw in
  let rec loop acc =
    if Block.Cursor.next cur then
      loop ((Block.Cursor.key cur, Block.Cursor.value cur) :: acc)
    else List.rev acc
  in
  loop []

let reference_seek entries target =
  List.find_opt (fun (k, _) -> String.compare k target >= 0) entries

let cursor_seek raw target =
  let cur = Block.Cursor.create raw in
  if Block.Cursor.seek cur target then
    Some (Block.Cursor.key cur, Block.Cursor.value cur)
  else None

let check_cursor_agrees raw =
  let entries = Block.decode_all raw in
  Alcotest.(check (list (pair string string)))
    "cursor walk = decode_all" entries (cursor_walk raw);
  let targets =
    ("" :: "\255\255\255" :: List.map fst entries)
    @ List.map (fun (k, _) -> k ^ "\000") entries
  in
  List.iter
    (fun target ->
      let expected = reference_seek entries target in
      let got = cursor_seek raw target in
      if expected <> got then
        Alcotest.failf "seek %S disagrees with reference" target)
    targets

let test_cursor_matches_decode_all () =
  (* Shared prefixes, varied lengths, >= several restart intervals. *)
  let b = Block.Builder.create () in
  for i = 0 to 199 do
    let key =
      if i mod 3 = 0 then Printf.sprintf "user-%05d" i
      else if i mod 3 = 1 then Printf.sprintf "user-%05d-long-suffix-%d" i i
      else Printf.sprintf "user-%05d\000bin" i
    in
    Block.Builder.add b ~key ~value:(String.make (i mod 7) 'v')
  done;
  check_cursor_agrees (Block.Builder.finish b);
  (* Rewind re-walks from the start. *)
  let b = Block.Builder.create () in
  List.iter
    (fun k -> Block.Builder.add b ~key:k ~value:k)
    [ "a"; "ab"; "abc"; "b" ];
  let raw = Block.Builder.finish b in
  let cur = Block.Cursor.create raw in
  ignore (Block.Cursor.seek cur "abc");
  Block.Cursor.rewind cur;
  Alcotest.(check bool) "next after rewind" true (Block.Cursor.next cur);
  Alcotest.(check string) "first key" "a" (Block.Cursor.key cur)

let test_cursor_restart_boundaries () =
  (* One key per restart slot boundary: restart_interval entries apart. *)
  let n = 4 * Wip_sstable.Table_format.restart_interval in
  let b = Block.Builder.create () in
  for i = 0 to n - 1 do
    Block.Builder.add b ~key:(Printf.sprintf "%06d" (2 * i)) ~value:""
  done;
  check_cursor_agrees (Block.Builder.finish b)

let test_cursor_empty_block () =
  let raw = Block.Builder.finish (Block.Builder.create ()) in
  let cur = Block.Cursor.create raw in
  Alcotest.(check bool) "next on empty" false (Block.Cursor.next cur);
  Alcotest.(check bool) "seek on empty" false (Block.Cursor.seek cur "x")

let qcheck_cursor_equivalence =
  QCheck.Test.make ~name:"cursor agrees with decode_all on random blocks"
    ~count:60
    QCheck.(small_list (pair small_string small_string))
    (fun raw_entries ->
      let entries =
        raw_entries
        |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
      in
      let b = Block.Builder.create () in
      List.iter (fun (k, v) -> Block.Builder.add b ~key:k ~value:v) entries;
      let raw = Block.Builder.finish b in
      check_cursor_agrees raw;
      true)

(* Edge cases: degenerate tables. *)

let test_empty_table () =
  let env = Env.in_memory () in
  let b =
    Table.Builder.create env ~name:"empty" ~category:Io_stats.Flush
      ~expected_keys:1 ()
  in
  let meta = Table.Builder.finish b in
  Alcotest.(check int) "no entries" 0 meta.Table.entry_count;
  let r = Table.Reader.open_ env ~name:"empty" in
  Alcotest.(check bool) "get misses" true
    (Table.Reader.get r ~category:Io_stats.Read_path "k" ~snapshot:Int64.max_int
     = None);
  Alcotest.(check int) "iter empty" 0
    (Seq.length (iter_from r ()));
  Table.Reader.close r

let test_single_entry_table () =
  let env = Env.in_memory () in
  let b =
    Table.Builder.create env ~name:"one" ~category:Io_stats.Flush
      ~expected_keys:1 ()
  in
  Table.Builder.add b (ik "only" 1) "";
  let meta = Table.Builder.finish b in
  Alcotest.(check string) "smallest=largest" meta.Table.smallest meta.Table.largest;
  let r = Table.Reader.open_ env ~name:"one" in
  (match
     Table.Reader.get r ~category:Io_stats.Read_path "only" ~snapshot:Int64.max_int
   with
  | Some (Ikey.Value, "", _) -> ()
  | _ -> Alcotest.fail "empty value lost");
  Table.Reader.close r

let test_abandon_removes_file () =
  let env = Env.in_memory () in
  let b =
    Table.Builder.create env ~name:"gone" ~category:Io_stats.Flush
      ~expected_keys:1 ()
  in
  Table.Builder.add b (ik "k" 1) "v";
  Table.Builder.abandon b;
  Alcotest.(check bool) "file deleted" false (Env.exists env "gone")

(* Block.Cursor promises that stepping and seeking allocate nothing: over a
   1000-entry block, a full [next] pass, a [seek] per entry and a
   [seek_ordinal] per entry together add zero minor words (less the
   calibrated cost of reading the counter itself). *)
let test_cursor_steps_allocate_nothing () =
  let n = 1000 in
  let b = Block.Builder.create () in
  let keys = Array.init n (fun i -> enc (Printf.sprintf "user-%06d" i) (n - i)) in
  Array.iteri (fun i k -> Block.Builder.add b ~key:k ~value:(string_of_int i)) keys;
  let cur = Block.Cursor.create (Block.Builder.finish b) in
  (* Warm-up: grow the key buffer to its final size. *)
  while Block.Cursor.next cur do () done;
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let empty = words (fun () -> ()) in
  let passes =
    [
      ( "next",
        fun () ->
          Block.Cursor.rewind cur;
          while Block.Cursor.next cur do () done );
      ( "seek",
        fun () ->
          for i = 0 to n - 1 do
            ignore (Block.Cursor.seek cur (Array.unsafe_get keys i))
          done );
      ( "seek_ordinal",
        fun () ->
          for i = 0 to n - 1 do
            ignore (Block.Cursor.seek_ordinal cur i)
          done );
    ]
  in
  List.iter
    (fun (what, f) ->
      Alcotest.(check (float 0.)) (what ^ " allocates nothing") 0.
        (words f -. empty))
    passes

let suite =
  suite
  @ [
      Alcotest.test_case "cursor steps allocate nothing" `Quick
        test_cursor_steps_allocate_nothing;
      Alcotest.test_case "empty table" `Quick test_empty_table;
      Alcotest.test_case "single entry" `Quick test_single_entry_table;
      Alcotest.test_case "abandon" `Quick test_abandon_removes_file;
      Alcotest.test_case "cursor = decode_all" `Quick
        test_cursor_matches_decode_all;
      Alcotest.test_case "cursor restart boundaries" `Quick
        test_cursor_restart_boundaries;
      Alcotest.test_case "cursor empty block" `Quick test_cursor_empty_block;
      QCheck_alcotest.to_alcotest qcheck_cursor_equivalence;
    ]
