(* The shared range reader under every engine's scans:
   - property: scans of WipDB (hash memtable + sorted views, skiplist
     memtable without), the leveled and the fragmented baseline (views on
     and off) equal a reference model of user key -> seq-versioned values,
     through multi-version keys, tombstones, keys holding 0x00 and 0xFF,
     limits 0, 1, n and none, flushes and compactions, and [scan_at] on a
     snapshot pinned across them;
   - a damaged data block met by a cursor surfaces as the typed
     Env.Corruption, so every engine quarantines the table and retries;
   - a view walked over a run set it was not built for raises
     Sorted_view.Stale_view. *)

module Store_intf = Wip_kv.Store_intf
module Store = Wipdb.Store
module Config = Wipdb.Config
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Ikey = Wip_util.Ikey
module Table = Wip_sstable.Table
module Sorted_view = Wip_sstable.Sorted_view
module Range_reader = Wip_sstable.Range_reader

(* Every string of length 0..3 over { 0x00, 'a', 0xFF }: prefixes, embedded
   NULs and 0xFF runs in one small space, so versions pile up per key. *)
let keys =
  let alphabet = [ "\000"; "a"; "\255" ] in
  let rec all n =
    if n = 0 then [ "" ]
    else "" :: List.concat_map (fun k -> List.map (( ^ ) k) alphabet) (all (n - 1))
  in
  List.sort_uniq String.compare (all 3) |> Array.of_list

type op =
  | Put of int * int
  | Delete of int
  | Flush
  | Compact
  | Pin
  | Scan of int * int * int option

let op_gen =
  let open QCheck.Gen in
  let key = int_bound (Array.length keys - 1) in
  let limit = oneof [ return None; map Option.some (oneofl [ 0; 1; 3; 17 ]) ] in
  frequency
    [
      (8, map2 (fun k v -> Put (k, v)) key (int_bound 999));
      (3, map (fun k -> Delete k) key);
      (1, return Flush);
      (1, return Compact);
      (1, return Pin);
      (2, map3 (fun a b l -> Scan (a, b, l)) key key limit);
    ]

let print_op = function
  | Put (k, v) -> Printf.sprintf "put %S %d" keys.(k) v
  | Delete k -> Printf.sprintf "del %S" keys.(k)
  | Flush -> "flush"
  | Compact -> "compact"
  | Pin -> "pin"
  | Scan (a, b, l) ->
    Printf.sprintf "scan [%S, %S) %s" keys.(a) keys.(b)
      (match l with None -> "all" | Some l -> string_of_int l)

(* The model: every write as (time, value option), newest first. *)
module M = Map.Make (String)

let visible model ~at ~lo ~hi ~limit =
  M.bindings model
  |> List.filter_map (fun (k, versions) ->
         if String.compare k lo < 0 || String.compare k hi >= 0 then None
         else
           match List.find_opt (fun (t, _) -> t <= at) versions with
           | Some (_, Some v) -> Some (k, v)
           | _ -> None)
  |> List.filteri (fun i _ ->
         match limit with None -> true | Some l -> i < l)

let wipdb ~structure ~view () =
  Store.create
    {
      Config.default with
      Config.name = "rr";
      memtable_items = 8;
      l_max = 2;
      t_sublevels = 2;
      split_fanout = 2;
      min_count = 2;
      max_count = 4;
      bucket_capacity_bytes = 768;
      adaptive_memtable = false;
      memtable_structure = structure;
      sorted_view = view;
      sorted_view_min_runs = 2;
      block_cache_bytes = 16 * 1024;
    }

let leveled ~view () =
  Wip_lsm.Leveled.create
    {
      (Wip_lsm.Leveled.leveldb_config ~scale:1) with
      Wip_lsm.Leveled.memtable_bytes = 256;
      sstable_bytes = 256;
      level1_bytes = 1024;
      sorted_view = view;
      name = "rr-lvl";
    }

let flsm ~view () =
  Wip_lsm.Flsm.create
    {
      (Wip_lsm.Flsm.default_config ~scale:1) with
      Wip_lsm.Flsm.memtable_bytes = 256;
      top_level_bits = 3;
      sorted_view = view;
      name = "rr-flsm";
    }

let engines =
  [
    ( "wipdb hash + views",
      fun () ->
        Store_intf.Store
          ((module Store), wipdb ~structure:Wip_memtable.Memtable.Hash ~view:true ()) );
    ( "wipdb skiplist, no views",
      fun () ->
        Store_intf.Store
          ((module Store), wipdb ~structure:Wip_memtable.Memtable.Sorted ~view:false ())
    );
    ( "leveled + views",
      fun () -> Store_intf.Store ((module Wip_lsm.Leveled), leveled ~view:true ()) );
    ( "leveled, no views",
      fun () -> Store_intf.Store ((module Wip_lsm.Leveled), leveled ~view:false ()) );
    ( "flsm + views",
      fun () -> Store_intf.Store ((module Wip_lsm.Flsm), flsm ~view:true ()) );
    ( "flsm, no views",
      fun () -> Store_intf.Store ((module Wip_lsm.Flsm), flsm ~view:false ()) );
  ]

let pp rows =
  String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%S=%s" k v) rows)

let run_ops make ops =
  let s = make () in
  let model = ref M.empty and now = ref 0 in
  let pinned = ref None in
  let write k v =
    incr now;
    model :=
      M.update keys.(k)
        (fun vs -> Some ((!now, v) :: Option.value vs ~default:[]))
        !model
  in
  let check what ~got ~want =
    if got <> want then
      QCheck.Test.fail_reportf "%s:\n got  [%s]\n want [%s]" what (pp got)
        (pp want)
  in
  let scan ?snap ~lo ~hi ~limit () =
    let at = match snap with Some (_, at) -> at | None -> !now in
    let got =
      match snap with
      | Some (sn, _) -> Store_intf.scan_at s ~lo ~hi ?limit ~snapshot:sn ()
      | None -> Store_intf.scan s ~lo ~hi ?limit ()
    in
    check
      (Printf.sprintf "scan%s [%S, %S) limit %s"
         (if snap = None then "" else "_at")
         lo hi
         (match limit with None -> "none" | Some l -> string_of_int l))
      ~got
      ~want:(visible !model ~at ~lo ~hi ~limit)
  in
  List.iter
    (function
      | Put (k, v) ->
        let v = string_of_int v in
        Store_intf.put s ~key:keys.(k) ~value:v;
        write k (Some v)
      | Delete k ->
        Store_intf.delete s ~key:keys.(k);
        write k None
      | Flush -> Store_intf.flush s
      | Compact -> Store_intf.maintenance s ()
      | Pin ->
        if !pinned = None then pinned := Some (Store_intf.snapshot s, !now)
      | Scan (a, b, limit) -> scan ~lo:keys.(a) ~hi:keys.(b) ~limit ())
    ops;
  (* Whatever ran since the pin, a compaction now must not change what the
     snapshot reads. *)
  Store_intf.flush s;
  Store_intf.maintenance s ();
  let all = Array.length keys in
  List.iter
    (fun limit ->
      scan ~lo:"" ~hi:"\255\255\255\255" ~limit ();
      scan ~lo:keys.(all / 3) ~hi:keys.(2 * all / 3) ~limit ();
      Option.iter
        (fun snap ->
          scan ~snap ~lo:"" ~hi:"\255\255\255\255" ~limit ();
          scan ~snap ~lo:keys.(all / 2) ~hi:"\255\255\255\255" ~limit ())
        !pinned)
    [ Some 0; Some 1; Some 5; None ];
  Option.iter (fun (sn, _) -> Store_intf.release sn) !pinned;
  true

let qcheck_engine (name, make) =
  QCheck.Test.make ~name:(name ^ ": range reads equal the model") ~count:25
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map print_op ops))
       QCheck.Gen.(list_size (int_range 20 160) op_gen))
    (run_ops make)

(* WipDB's lazy iterator is the same reader: it agrees with [scan] across
   bucket boundaries after splits. *)
let test_iter_range_equals_scan () =
  let db = wipdb ~structure:Wip_memtable.Memtable.Hash ~view:true () in
  for i = 0 to 599 do
    let k = keys.(i mod Array.length keys) ^ string_of_int (i mod 97) in
    if i mod 11 = 0 then Store.delete db ~key:k
    else Store.put db ~key:k ~value:(string_of_int i)
  done;
  Store.maintenance db ();
  Alcotest.(check bool) "several buckets" true (Store.bucket_count db > 1);
  let scan = Store.scan db ~lo:"" ~hi:"\255\255\255\255" () in
  let iter = List.of_seq (Store.iter_range db ~lo:"" ~hi:"\255\255\255\255" ()) in
  Alcotest.(check (list (pair string string))) "iter_range = scan" scan iter

(* A flipped bit inside a data block is found by the cursor that fetches
   it: the typed Corruption reaches the engine, which quarantines the table
   and retries, returning an exact-value subset of the undamaged scan (rows
   the WAL still holds may survive the quarantine). *)
let corrupt_block_is_quarantined (type a c)
    (module E : Store_intf.Engine with type t = a and type config = c)
    (cfg : c) =
  let module Fault_env = Wip_storage.Fault_env in
  let fenv = Fault_env.create () in
  let db = E.create ~env:(Fault_env.env fenv) cfg in
  let key i = Printf.sprintf "k%04d" i in
  for i = 0 to 199 do
    E.put db ~key:(key i) ~value:(Printf.sprintf "v%04d" i)
  done;
  E.flush db;
  E.checkpoint db;
  let before = E.scan db ~lo:"" ~hi:"\255" () in
  let table = List.hd (List.sort String.compare (E.live_table_files db)) in
  (* Byte 16 is inside the first data block's payload. *)
  Fault_env.flip_bit fenv ~file:table ~bit:(16 * 8);
  let db2 = E.recover ~env:(Fault_env.snapshot_env fenv) cfg in
  let after = E.scan db2 ~lo:"" ~hi:"\255" () in
  Alcotest.(check (list string))
    (E.name db2 ^ ": damaged table quarantined")
    [ table ]
    (List.map fst (E.quarantined_tables db2));
  List.iter
    (fun (k, v) ->
      if List.assoc_opt k before <> Some v then
        Alcotest.failf "%s: row %S=%S is not in the undamaged scan" (E.name db2)
          k v)
    after

let test_corrupt_block_is_quarantined () =
  corrupt_block_is_quarantined
    (module Store)
    {
      Config.default with
      Config.name = "rr-corrupt";
      memtable_items = 16;
      adaptive_memtable = false;
      block_cache_bytes = 0;
    };
  corrupt_block_is_quarantined
    (module Wip_lsm.Leveled)
    {
      (Wip_lsm.Leveled.leveldb_config ~scale:1) with
      Wip_lsm.Leveled.memtable_bytes = 1024;
      name = "rr-corrupt-lvl";
    };
  corrupt_block_is_quarantined
    (module Wip_lsm.Flsm)
    {
      (Wip_lsm.Flsm.default_config ~scale:1) with
      Wip_lsm.Flsm.memtable_bytes = 1024;
      name = "rr-corrupt-flsm";
    }

(* A view walked over runs it was not built for runs out of entries before
   its selectors do: the reader raises Stale_view, never a short answer. *)
let test_stale_view_raises () =
  let env = Env.in_memory () in
  let table name n =
    let b =
      Table.Builder.create env ~name ~category:Io_stats.Flush ~expected_keys:n ()
    in
    for i = 0 to n - 1 do
      Table.Builder.add b
        (Ikey.make (Printf.sprintf "%s-%04d" name i) ~seq:(Int64.of_int (i + 1)))
        "v"
    done;
    ignore (Table.Builder.finish b);
    Table.Reader.open_ env ~name
  in
  let a = table "a" 100 and b = table "b" 100 and short = table "c" 10 in
  let view =
    match
      Sorted_view.build ~enabled:true ~min_runs:2 ~stats:(Env.stats env)
        ~cursor:(fun m ->
          Table.Reader.Cursor.create
            (if m.Table.name = "a" then a else b)
            ~category:Io_stats.Read_path ~admit:Wip_storage.Block_cache.Bypass
            ())
        [ Table.Reader.meta a; Table.Reader.meta b ]
    with
    | Some (view, _) -> view
    | None -> Alcotest.fail "no view built"
  in
  (* The view's second run read through [second]: its own table, or a
     shorter one standing in for a missed invalidation. *)
  let read second =
    let reader (m : Table.meta) = if m.Table.name = "a" then a else second in
    let metas = [| Table.Reader.meta a; Table.Reader.meta b |] in
    Range_reader.to_list
      (Range_reader.create ~hi:"\255" ~snapshot:Ikey.max_seq
         (Seq.return
            (Range_reader.source ~reader ~lo:"" ~hi:"\255" ~mem:Seq.empty
               (Some (view, metas)) (fun () -> []))))
  in
  Alcotest.(check int) "the view's own runs" 200 (List.length (read b));
  match read short with
  | exception Sorted_view.Stale_view -> ()
  | rows -> Alcotest.failf "stale view answered %d rows" (List.length rows)

let suite =
  List.map (fun e -> QCheck_alcotest.to_alcotest (qcheck_engine e)) engines
  @ [
      Alcotest.test_case "iter_range = scan across buckets" `Quick
        test_iter_range_equals_scan;
      Alcotest.test_case "corrupt block quarantined" `Quick
        test_corrupt_block_is_quarantined;
      Alcotest.test_case "stale view raises" `Quick test_stale_view_raises;
    ]
