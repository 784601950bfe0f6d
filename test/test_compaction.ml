(* Compaction over run cursors ({!Wip_sstable.Merge.compact} into
   {!Wip_kv.Table_set.write_runs}) against the reference it replaced: the
   pairing-heap merge of fresh (key, value) pairs in merge_iter_reference.ml,
   written entry by entry through [Table.Builder.add_encoded]. Random runs
   with multi-version keys across runs, tombstones, snapshot floors, both
   tombstone policies, empty runs and single runs must produce
   byte-identical tables, cut at the same splitters. *)

module Ikey = Wip_util.Ikey
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Block_cache = Wip_storage.Block_cache
module Table = Wip_sstable.Table
module Merge = Wip_sstable.Merge
module Table_set = Wip_kv.Table_set

let category = Io_stats.Compaction 1

let read_file env name =
  let r = Env.open_file env name in
  let s = Env.read_all r ~category:Io_stats.Table_meta in
  Env.close_reader r;
  s

let write_table env name entries =
  let b =
    Table.Builder.create env ~name ~category:Io_stats.Flush
      ~expected_keys:(max 1 (List.length entries)) ()
  in
  List.iter (fun (key, value) -> Table.Builder.add_encoded b ~key ~value) entries;
  Table.Builder.finish b

(* [runs] random runs over a small user-key space, so user keys recur
   across runs; every entry has its own sequence number, about one in five
   is a tombstone, and some runs are empty. *)
let random_runs st =
  let nruns = 1 + Random.State.int st 5 in
  let users = 1 + Random.State.int st 40 in
  let sizes =
    Array.init nruns (fun _ ->
        if Random.State.int st 6 = 0 then 0 else Random.State.int st 60)
  in
  let total = Array.fold_left ( + ) 0 sizes in
  (* Distinct sequence numbers in a random order. *)
  let seqs = Array.init total (fun i -> i + 1) in
  for i = total - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = seqs.(i) in
    seqs.(i) <- seqs.(j);
    seqs.(j) <- x
  done;
  let next = ref 0 in
  let runs =
    Array.map
      (fun n ->
        List.init n (fun _ ->
            let user = Printf.sprintf "u%d" (Random.State.int st users) in
            let seq = seqs.(!next) in
            incr next;
            let kind =
              if Random.State.int st 5 = 0 then Ikey.Deletion else Ikey.Value
            in
            ( Ikey.encode (Ikey.make ~kind user ~seq:(Int64.of_int seq)),
              String.make (Random.State.int st 40) (Char.chr (97 + (seq mod 26))) ))
        |> List.sort (fun (a, _) (b, _) -> String.compare a b))
      sizes
  in
  (runs, total)

(* The cut a bucket split makes: a new table at the first entry at or past
   each splitter. [key] is a string here (the reference asks at every
   entry) and bytes in [write_runs]. *)
let splitter_cut splitters compare_key =
  let remaining = ref (List.map Ikey.encode_user splitters) in
  fun key ->
    let advanced = ref false in
    while
      match !remaining with
      | s :: _ when compare_key s key <= 0 -> true
      | _ -> false
    do
      remaining := List.tl !remaining;
      advanced := true
    done;
    !advanced

(* The table writer compaction used before run cursors: [cut] asked at
   every entry of a (key, value) sequence, with the open table's size. *)
let reference_write env ~expected_keys ~cut entries =
  let outputs = ref [] and current = ref None and n = ref 0 in
  let finish () =
    Option.iter
      (fun b ->
        if Table.Builder.entry_count b > 0 then
          outputs := Table.Builder.finish b :: !outputs
        else Table.Builder.abandon b)
      !current;
    current := None
  in
  Seq.iter
    (fun (key, value) ->
      let size =
        match !current with Some b -> Table.Builder.estimated_size b | None -> 0
      in
      if cut ~size key then finish ();
      let b =
        match !current with
        | Some b -> b
        | None ->
          incr n;
          let b =
            Table.Builder.create env ~name:(Printf.sprintf "ref-%06d" !n)
              ~category ~expected_keys ()
          in
          current := Some b;
          b
      in
      Table.Builder.add_encoded b ~key ~value)
    entries;
  finish ();
  List.rev !outputs

let same_tables env ~what (want : Table.meta list) (got : Table.meta list) =
  if List.length want <> List.length got then
    QCheck.Test.fail_reportf "%s: %d tables, reference wrote %d" what
      (List.length got) (List.length want);
  List.iter2
    (fun (w : Table.meta) (g : Table.meta) ->
      if
        w.Table.entry_count <> g.Table.entry_count
        || not (String.equal (read_file env w.Table.name) (read_file env g.Table.name))
      then
        QCheck.Test.fail_reportf "%s: %s differs from reference %s" what
          g.Table.name w.Table.name)
    want got

let check_case seed =
  let st = Random.State.make [| seed |] in
  let runs, total = random_runs st in
  let floor =
    if Random.State.bool st then Int64.max_int
    else Int64.of_int (Random.State.int st (total + 2))
  in
  let drop_tombstones = Random.State.bool st in
  let splitters =
    List.init (Random.State.int st 4) (fun _ ->
        Printf.sprintf "u%d" (Random.State.int st 40))
    |> List.sort_uniq String.compare
  in
  let env = Env.in_memory () in
  let metas =
    Array.to_list
      (Array.mapi (fun i r -> write_table env (Printf.sprintf "run-%d" i) r) runs)
  in
  let ts =
    Table_set.create ~reopen:false env ~name:"cmp" ~suffix:".lvt"
      ~bits_per_key:10 ~ph_index:true ~sorted_view:false ()
  in
  if not (Int64.equal floor Int64.max_int) then
    ignore (Table_set.snapshot ts ~seq:floor);
  let expected_keys = max 64 total in
  let reference () =
    Merge_iter_reference.compact ~drop_tombstones ~snapshot_floor:floor
      (List.map
         (fun m ->
           Sstable_helpers.stream (Table_set.reader_of ts m) ~category
             ~admit:Block_cache.Bypass ())
         metas)
  in
  let compaction () =
    Table_set.compaction ts ~category:(fun _ -> category) ~drop_tombstones metas
  in
  let what =
    Printf.sprintf "%d runs, floor %Ld, drop %b" (List.length metas) floor
      drop_tombstones
  in
  (* Cut at splitters, as a bucket split does. *)
  let want =
    reference_write env ~expected_keys
      ~cut:
        (let cut = splitter_cut splitters Ikey.compare_encoded_user in
         fun ~size:_ key -> cut key)
      (reference ())
  in
  let cut =
    splitter_cut splitters (fun s (key, len) ->
        Ikey.compare_encoded_user_bytes s key ~len)
  in
  let got =
    Table_set.write_runs ts ~category ~expected_keys
      ~cut:(fun ~size:_ key ~len -> cut (key, len))
      (compaction ())
  in
  same_tables env ~what:(what ^ ", splitters") want got;
  (* Cut on size, as the leveled baseline does: the reference's cut had to
     guard against ending a table between two versions of one user key,
     which [write_runs] now does for every cut. *)
  let limit = 200 + Random.State.int st 800 in
  let prev = ref None in
  let want =
    reference_write env ~expected_keys
      ~cut:(fun ~size key ->
        let last = !prev in
        prev := Some key;
        match last with
        | Some last -> size >= limit && not (Ikey.encoded_same_user last key)
        | None -> false)
      (reference ())
  in
  let got =
    Table_set.write_runs ts ~category ~expected_keys
      ~cut:(fun ~size _ ~len:_ -> size >= limit)
      (compaction ())
  in
  same_tables env ~what:(what ^ ", size cut") want got;
  true

let qcheck_equivalence =
  QCheck.Test.make ~name:"cursor compaction writes the reference's tables"
    ~count:300 QCheck.int check_case

(* Merging run cursors allocates per block, not per entry: no key or value
   string, no sequence node. Four 2000-entry runs, fully merged with
   version GC, stay under 4 minor words per entry: entering a block costs
   about a hundred words (its cursor, key buffer and read closures), spread
   over ~40 entries, while one key string per entry would add 4 more and
   the reference merge spends about 90. *)
let test_merge_allocation () =
  let env = Env.in_memory () in
  let fan = 4 and per = 2000 in
  let readers =
    List.init fan (fun j ->
        let name = Printf.sprintf "run-%d" j in
        ignore
          (write_table env name
             (List.init per (fun i ->
                  ( Ikey.encode_seek
                      (Printf.sprintf "%012d" ((i * fan) + j))
                      ~seq:(Int64.of_int (i + 1)),
                    String.make 80 'v' ))));
        Table.Reader.open_ env ~name)
  in
  let merge () =
    Merge.compact ~drop_tombstones:true ~snapshot_floor:Int64.max_int
      (List.map
         (fun r ->
           Merge.run
             (Table.Reader.Cursor.create r ~category ~admit:Block_cache.Bypass ()))
         readers)
  in
  let drain m =
    let n = ref 0 in
    while Merge.next m do
      incr n
    done;
    !n
  in
  ignore (drain (merge ()));
  let w0 = Gc.minor_words () in
  let n = drain (merge ()) in
  let per_entry = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "every entry merged" (fan * per) n;
  if per_entry > 4.0 then
    Alcotest.failf "merge allocates %.3f minor words per entry" per_entry

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_equivalence;
    Alcotest.test_case "run-cursor merge allocates per block" `Quick
      test_merge_allocation;
  ]
