(* Read acceleration: sorted views and the perfect-hash point index.

   - property: a range read through a view walk, and through a heap of run
     cursors, equals the pairing-heap reference merge (Merge_iter) from
     arbitrary seek points, including after an incremental add_run;
   - property: engine scans with the accelerators on equal the same store
     with them off, under interleaved writes/deletes/flushes/compactions/
     splits, including pinned-snapshot reads;
   - unit: Ph_index build/find roundtrip, alias rate, malformed blocks;
   - unit: table gets through the ph index equal the binary-search path for
     every live version and snapshot. *)

module Ikey = Wip_util.Ikey
module Rng = Wip_util.Rng
module Merge_iter = Wip_sstable.Merge_iter
module Sorted_view = Wip_sstable.Sorted_view
module Range_reader = Wip_sstable.Range_reader
module Ph_index = Wip_sstable.Ph_index
module Table = Wip_sstable.Table
module Io_stats = Wip_storage.Io_stats
module Config = Wipdb.Config
module Store = Wipdb.Store

let key i = Printf.sprintf "%08d" i

(* ------------------------------------------------------------------ *)
(* Pure view-vs-reference property *)

(* [k] runs of encoded entries with globally unique keys (distinct seqs),
   each run sorted by encoded key — the shape every table stream has. *)
let make_runs rng ~k ~n =
  let runs = Array.make k [] in
  for i = 0 to n - 1 do
    let user = key (Rng.int rng 400) in
    let enc = Ikey.encode (Ikey.make user ~seq:(Int64.of_int (i + 1))) in
    let r = Rng.int rng k in
    runs.(r) <- (enc, "v" ^ string_of_int i) :: runs.(r)
  done;
  Array.map
    (fun l -> List.sort (fun (a, _) (b, _) -> String.compare a b) l)
    runs

(* Each run as a table on one in-memory Env, read back through readers. *)
let tables_written = ref 0

let write_runs env runs =
  Array.map
    (fun entries ->
      incr tables_written;
      let name = Printf.sprintf "run-%d" !tables_written in
      let b =
        Table.Builder.create env ~name ~category:Io_stats.Flush
          ~expected_keys:(List.length entries) ()
      in
      List.iter (fun (key, value) -> Table.Builder.add_encoded b ~key ~value) entries;
      ignore (Table.Builder.finish b);
      Table.Reader.open_ env ~name)
    runs

(* What a range read from user key [lo] must return at the newest
   snapshot: the newest version of every user key [>= lo]. *)
let reference_rows runs ~lo =
  let rec dedup last = function
    | [] -> []
    | (k, v) :: rest ->
      let u = (Ikey.decode k).Ikey.user_key in
      if Some u = last || String.compare u lo < 0 then dedup (Some u) rest
      else (u, v) :: dedup (Some u) rest
  in
  dedup None
    (List.of_seq (Merge_iter.merge (Array.to_list runs |> List.map List.to_seq)))

(* Views are built the way engines build them: through [build] and
   [extend] over the runs' tables. *)
let stream_of readers (m : Table.meta) =
  Table.Reader.stream
    (List.find
       (fun r -> String.equal (Table.Reader.meta r).Table.name m.Table.name)
       (Array.to_list readers))
    ~category:Io_stats.Read_path ~admit:Wip_storage.Block_cache.Bypass ()

let metas readers = Array.to_list (Array.map Table.Reader.meta readers)

let build_view env readers =
  match
    Sorted_view.build ~enabled:true ~min_runs:1
      ~stats:(Wip_storage.Env.stats env) ~stream:(stream_of readers)
      (metas readers)
  with
  | Some (view, _) -> view
  | None -> Alcotest.fail "no view built"

(* One source over [readers]: through [view] when given, else a heap. *)
let reader_of readers (m : Table.meta) =
  List.find
    (fun r -> String.equal (Table.Reader.meta r).Table.name m.Table.name)
    (Array.to_list readers)

let range ?limit ?view readers ~lo =
  let view = Option.map (fun v -> (v, Array.of_list (metas readers))) view in
  Range_reader.create ~hi:"\255" ~snapshot:Ikey.max_seq ?limit
    (Seq.return
       (Range_reader.source ~reader:(reader_of readers) ~lo ~hi:"\255"
          ~mem:Seq.empty view (fun () -> metas readers)))

(* The view walk and the heap merge of the same readers both equal the
   reference. *)
let check_walk name view readers runs ~lo =
  let want = reference_rows runs ~lo in
  let via_view = Range_reader.to_list (range ~view readers ~lo) in
  let via_heap = Range_reader.to_list (range readers ~lo) in
  if via_view <> want then
    Alcotest.failf "%s: walk from %S diverged (%d rows vs %d)" name
      (String.escaped lo) (List.length via_view) (List.length want);
  if via_heap <> want then
    Alcotest.failf "%s: heap from %S diverged (%d rows vs %d)" name
      (String.escaped lo) (List.length via_heap) (List.length want)

let test_view_matches_merge () =
  let rng = Rng.create ~seed:7701L in
  let env = Wip_storage.Env.in_memory () in
  for round = 0 to 9 do
    let k = 1 + Rng.int rng 8 in
    let n = Rng.int rng 1500 in
    let runs = make_runs rng ~k ~n in
    let readers = write_runs env runs in
    let view = build_view env readers in
    Alcotest.(check int)
      (Printf.sprintf "round %d entry count" round)
      n (Sorted_view.entry_count view);
    (* A full walk pops every entry of every run exactly once. *)
    let full = range ~view readers ~lo:"" in
    ignore (Range_reader.to_list full);
    Alcotest.(check int) "full walk reads every entry" n
      (Range_reader.entries_read full);
    check_walk "full" view readers runs ~lo:"";
    (* Seek from existing keys, keys past the end, and synthetic points. *)
    for _ = 1 to 25 do
      check_walk "seek" view readers runs ~lo:(key (Rng.int rng 401))
    done;
    check_walk "past end" view readers runs ~lo:"\255\255"
  done

let test_view_add_run () =
  let rng = Rng.create ~seed:7702L in
  let env = Wip_storage.Env.in_memory () in
  for _ = 0 to 4 do
    let k = 1 + Rng.int rng 5 in
    let runs = make_runs rng ~k:(k + 1) ~n:(200 + Rng.int rng 800) in
    let readers = write_runs env runs in
    let base = Array.sub readers 0 k in
    let view' =
      match
        Sorted_view.extend ~enabled:true ~stats:(Wip_storage.Env.stats env)
          ~stream:(stream_of readers)
          (Some (build_view env base, Array.of_list (metas base)))
          (Table.Reader.meta readers.(k))
      with
      | Some (view, _) -> view
      | None -> Alcotest.fail "view not extended"
    in
    Alcotest.(check int) "run count" (k + 1) (Sorted_view.run_count view');
    check_walk "after add_run" view' readers runs ~lo:"";
    for _ = 1 to 10 do
      check_walk "after add_run seek" view' readers runs
        ~lo:(key (Rng.int rng 400))
    done
  done

(* A positioned walk is a bounded skip: from any seek point it pops at
   most [seg_size] entries out of the run cursors before its first row. *)
let test_walk_skip_bounded () =
  let rng = Rng.create ~seed:7704L in
  let env = Wip_storage.Env.in_memory () in
  let runs = make_runs rng ~k:6 ~n:5000 in
  let readers = write_runs env runs in
  let view = build_view env readers in
  for _ = 1 to 300 do
    let lo = key (Rng.int rng 400) in
    let r = range ~limit:1 ~view readers ~lo in
    if
      Range_reader.to_list r <> []
      && Range_reader.entries_read r - 1 > Sorted_view.seg_size
    then
      Alcotest.failf "walk from %S popped %d entries before its first"
        (String.escaped lo)
        (Range_reader.entries_read r - 1)
  done

(* ------------------------------------------------------------------ *)
(* Ph_index unit tests *)

let test_ph_roundtrip () =
  let rng = Rng.create ~seed:7703L in
  let n = 3000 in
  let keys = Array.init n (fun i -> Printf.sprintf "user-%06d" i) in
  let locators =
    Array.init n (fun _ -> (Rng.int rng 0x10000 lsl 16) lor Rng.int rng 0x10000)
  in
  match Ph_index.build ~keys ~locators with
  | None -> Alcotest.fail "build failed on a well-formed key set"
  | Some block ->
    let r = Ph_index.read block in
    Alcotest.(check int) "key count" n (Ph_index.key_count r);
    Array.iteri
      (fun i k ->
        match Ph_index.find r k ~pos:0 ~len:(String.length k) with
        | Some loc when loc = (locators.(i) lsr 16, locators.(i) land 0xFFFF) ->
          ()
        | Some (b, e) ->
          Alcotest.failf "%s: wrong locator (%d,%d), want (%d,%d)" k b e
            (locators.(i) lsr 16)
            (locators.(i) land 0xFFFF)
        | None -> Alcotest.failf "%s: perfect hash missed a member key" k)
      keys;
    (* Absent keys: fingerprint aliases are possible but must be rare
       (expected rate 1/255 ≈ 0.4%). *)
    let aliases = ref 0 in
    let probes = 2000 in
    for i = 0 to probes - 1 do
      let k = Printf.sprintf "absent-%06d" i in
      match Ph_index.find r k ~pos:0 ~len:(String.length k) with
      | Some _ -> incr aliases
      | None -> ()
    done;
    Alcotest.(check bool)
      (Printf.sprintf "alias rate %d/%d below 2.5%%" !aliases probes)
      true
      (!aliases * 40 < probes)

let test_ph_rejects_overweight () =
  let keys = [| "a"; "b" |] in
  Alcotest.(check bool) "block ordinal over 16 bits" true
    (Ph_index.build ~keys ~locators:[| 0x1_0000_0000; 1 |] = None);
  Alcotest.(check bool) "empty key set" true
    (Ph_index.build ~keys:[||] ~locators:[||] = None)

(* The builder hashes each key once and places buckets without allocating;
   its blocks must equal the original construction's byte for byte, since
   a different block would change every table file written. Key sets are
   distinct, sized log-uniformly over 1..20000, with short, long and
   binary keys. *)
let test_ph_build_matches_reference () =
  let rng = Rng.create ~seed:0x9417L in
  let sets = 400 in
  let built = ref 0 in
  for set = 1 to sets do
    let n = max 1 (int_of_float (exp (Rng.float rng *. log 20_000.0))) in
    let key i =
      match set mod 3 with
      | 0 -> Printf.sprintf "k%08d" (i * 7 + Rng.int rng 7)
      | 1 ->
        Printf.sprintf "%d-%s" i
          (Bytes.to_string (Rng.bytes rng (Rng.int rng 24)))
      | _ -> Printf.sprintf "user/%d/%x" i (Rng.int rng 0xFFFFFF)
    in
    let keys = Array.init n key in
    let locators =
      Array.init n (fun _ -> (Rng.int rng 0x10000 lsl 16) lor Rng.int rng 0x10000)
    in
    let want = Ph_index_reference.build ~keys ~locators in
    let got = Ph_index.build ~keys ~locators in
    if not (Option.equal String.equal got want) then
      Alcotest.failf "set %d (%d keys): build differs from the reference" set n;
    if Option.is_some got then incr built
  done;
  (* Tiny sets can be unplaceable (two keys, two slots, equal h1 parity):
     both builders say None there. Most sets must still compare blocks. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d sets indexed" !built sets)
    true
    (!built * 10 >= sets * 9);
  (* An overweight locator anywhere is a None from both. *)
  let keys = Array.init 1000 (Printf.sprintf "key-%04d") in
  List.iter
    (fun bad ->
      let locators = Array.init 1000 (fun i -> i) in
      locators.(Rng.int rng 1000) <- bad;
      Alcotest.(check bool) "overweight: reference None" true
        (Ph_index_reference.build ~keys ~locators = None);
      Alcotest.(check bool) "overweight: None" true
        (Ph_index.build ~keys ~locators = None))
    [ 0x1_0000 lsl 16; max_int ]

let test_ph_malformed () =
  let raises s =
    match Ph_index.read s with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "malformed block %S parsed" (String.escaped s)
  in
  raises "";
  raises "garbage that is not an index block";
  (* Truncate a valid block: every prefix must be rejected, not mis-read. *)
  let keys = Array.init 50 (fun i -> key i) in
  let locators = Array.init 50 (fun i -> i) in
  match Ph_index.build ~keys ~locators with
  | None -> Alcotest.fail "small build failed"
  | Some block ->
    raises (String.sub block 0 (String.length block / 2));
    raises (String.sub block 0 (String.length block - 1))

(* ------------------------------------------------------------------ *)
(* Table-level: ph path equals binary-search path for every version *)

let test_table_ph_equals_binary () =
  let env = Wip_storage.Env.in_memory () in
  let name = "ph-eq.sst" in
  let b =
    Table.Builder.create env ~name ~category:Io_stats.Flush ~bits_per_key:10
      ~expected_keys:700 ()
  in
  (* 200 users; user i has versions at seqs {3i+3, 3i+2, 3i+1} (descending
     encoded order = ascending table order by encoding), multiples of 7
     deleted at their newest seq. *)
  let seqs_of i = [ 3 * i + 3; 3 * i + 2; 3 * i + 1 ] in
  for i = 0 to 199 do
    List.iter
      (fun s ->
        let kind =
          if i mod 7 = 0 && s = 3 * i + 3 then Ikey.Deletion else Ikey.Value
        in
        Table.Builder.add b
          (Ikey.make ~kind (key i) ~seq:(Int64.of_int s))
          (Printf.sprintf "v%d@%d" i s))
      (seqs_of i)
  done;
  let _meta = Table.Builder.finish b in
  let with_ph = Table.Reader.open_ env ~name in
  let without = Table.Reader.open_ env ~name ~ph:false in
  Alcotest.(check bool) "index present" true (Table.Reader.has_ph with_ph);
  Alcotest.(check bool) "index suppressed" false (Table.Reader.has_ph without);
  Alcotest.(check bool) "index bytes reported" true
    (Table.Reader.ph_bytes with_ph > 0);
  let probe r target =
    match Table.Reader.get_encoded r ~category:Io_stats.Read_path target with
    | Some (kind, v, seq) -> Some (kind, v, seq)
    | None -> None
  in
  (* Every user x every interesting snapshot, plus absent users. *)
  for i = 0 to 209 do
    List.iter
      (fun snap ->
        let target = Ikey.encode_seek (key i) ~seq:(Int64.of_int snap) in
        let a = probe with_ph target and b = probe without target in
        if a <> b then
          Alcotest.failf "user %d snap %d: ph path diverged from binary path"
            i snap)
      [ 0; 3 * i; 3 * i + 1; 3 * i + 2; 3 * i + 3; 10_000 ]
  done;
  (* The ph path was actually exercised. *)
  let stats = Wip_storage.Env.stats env in
  Alcotest.(check bool) "ph probes recorded" true
    (Io_stats.ph_probe_count stats > 0);
  Table.Reader.close with_ph;
  Table.Reader.close without

(* ------------------------------------------------------------------ *)
(* Engine-level equivalence: accelerators on vs off under churn *)

let small_config ~accel name =
  {
    Config.default with
    Config.memtable_items = 48;
    memtable_bytes = 4 * 1024;
    t_sublevels = 4;
    min_count = 2;
    max_count = 6;
    initial_buckets = 2;
    sorted_view = accel;
    ph_index = accel;
    name;
  }

let test_store_equivalence_under_churn () =
  let rng = Rng.create ~seed:7704L in
  let on = Store.create (small_config ~accel:true "sv-on") in
  let off = Store.create (small_config ~accel:false "sv-off") in
  let both f =
    f on;
    f off
  in
  let compare_scans tag =
    for _ = 1 to 6 do
      let a = Rng.int rng 600 and b = Rng.int rng 600 in
      let lo = key (min a b) and hi = key (max a b) in
      let sa = Store.scan on ~lo ~hi () and sb = Store.scan off ~lo ~hi () in
      if sa <> sb then
        Alcotest.failf "%s: scan [%s,%s) diverged (%d vs %d entries)" tag lo
          hi (List.length sa) (List.length sb);
      let ia = List.of_seq (Store.iter_range on ~lo ~hi ())
      and ib = List.of_seq (Store.iter_range off ~lo ~hi ()) in
      if ia <> ib then Alcotest.failf "%s: iter_range diverged" tag
    done
  in
  let snaps = ref [] in
  for phase = 0 to 7 do
    for _ = 1 to 300 do
      let k = key (Rng.int rng 600) in
      if Rng.int rng 10 = 0 then both (fun s -> Store.delete s ~key:k)
      else
        let v = Printf.sprintf "p%d-%d" phase (Rng.int rng 1_000_000) in
        both (fun s -> Store.put s ~key:k ~value:v)
    done;
    (* Pin matching snapshots on both stores before more churn. *)
    if phase = 2 || phase = 5 then
      snaps := (Store.snapshot on, Store.snapshot off) :: !snaps;
    if phase mod 2 = 1 then both (fun s -> Store.flush s);
    if phase mod 3 = 2 then both (fun s -> Store.maintenance s ());
    compare_scans (Printf.sprintf "phase %d" phase);
    (* Snapshot-anchored scans must agree long after the pin, across the
       flushes/compactions/splits that happened since. *)
    List.iter
      (fun (sa, sb) ->
        let ra = Store.scan_at on ~lo:"" ~hi:"\255" ~snapshot:sa ()
        and rb = Store.scan_at off ~lo:"" ~hi:"\255" ~snapshot:sb () in
        if ra <> rb then
          Alcotest.failf "phase %d: pinned snapshot scan diverged" phase)
      !snaps
  done;
  List.iter
    (fun (sa, sb) ->
      Wip_kv.Store_intf.release sa;
      Wip_kv.Store_intf.release sb)
    !snaps;
  (* The accelerated store actually used its accelerators. *)
  let stats_on = Wip_storage.Env.stats (Store.env on) in
  Alcotest.(check bool) "views were built" true
    (Io_stats.view_rebuild_count stats_on > 0)

let suite =
  [
    Alcotest.test_case "view matches merge reference" `Quick
      test_view_matches_merge;
    Alcotest.test_case "add_run matches rebuilt merge" `Quick
      test_view_add_run;
    Alcotest.test_case "walk skip is bounded" `Quick test_walk_skip_bounded;
    Alcotest.test_case "ph roundtrip + alias rate" `Quick test_ph_roundtrip;
    Alcotest.test_case "ph rejects overweight tables" `Quick
      test_ph_rejects_overweight;
    Alcotest.test_case "ph rejects malformed blocks" `Quick test_ph_malformed;
    Alcotest.test_case "ph build matches reference" `Quick
      test_ph_build_matches_reference;
    Alcotest.test_case "table ph path equals binary path" `Quick
      test_table_ph_equals_binary;
    Alcotest.test_case "store scans: accelerators on = off" `Quick
      test_store_equivalence_under_churn;
  ]
