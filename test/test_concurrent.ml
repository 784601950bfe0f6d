(* Tests for the concurrent front: thread safety under mixed load and
   background compaction actually happening off the write path. *)

module C = Wip_concurrent.Sharded_store.Make (Wipdb.Store)

(* One shard and a one-worker pool: the whole store behind one lock, with
   compaction off the write path. *)
let single ?idle_sleep db = C.create ~pool_threads:1 ?idle_sleep [ ("", db) ]

let base_config =
  {
    Wipdb.Config.default with
    Wipdb.Config.memtable_items = 64;
    memtable_bytes = 8 * 1024;
    t_sublevels = 4;
    min_count = 2;
    max_count = 8;
    (* Leave eligible compactions entirely to the background thread. *)
    compaction_budget_per_batch = 0;
    name = "conc";
  }

let key i = Printf.sprintf "%08d" i

let test_background_compaction_happens () =
  let db = Wipdb.Store.create base_config in
  let c = single ~idle_sleep:0.0005 db in
  for i = 0 to 9999 do
    C.put c ~key:(key (i mod 3000)) ~value:("v" ^ string_of_int i)
  done;
  (* Give the compactor a moment, then stop (stop drains to quiescence). *)
  C.stop c;
  Alcotest.(check bool)
    (Printf.sprintf "compactions ran (%d, %d cycles)"
       (Wipdb.Store.compaction_count db) (C.compaction_cycles c))
    true
    (Wipdb.Store.compaction_count db > 0);
  (* Data intact. *)
  for i = 0 to 2999 do
    if C.get c (key i) = None then Alcotest.failf "lost key %d" i
  done

let test_concurrent_readers_and_writer () =
  let db = Wipdb.Store.create base_config in
  let c = single db in
  let n = 4000 in
  let failures = Atomic.make 0 in
  let writer () =
    for i = 0 to n - 1 do
      C.put c ~key:(key i) ~value:(string_of_int i)
    done
  in
  let reader () =
    (* Readers chase the writer; any key they observe must have its exact
       written value. *)
    for _ = 0 to (2 * n) - 1 do
      let i = Random.int n in
      match C.get c (key i) with
      | Some v when v <> string_of_int i -> Atomic.incr failures
      | Some _ | None -> ()
    done
  in
  let scanner () =
    for _ = 0 to 49 do
      let r = C.scan c ~lo:(key 0) ~hi:(key n) ~limit:100 () in
      (* Scans must be sorted and duplicate-free even mid-write. *)
      let rec ordered = function
        | (a, _) :: ((b, _) :: _ as rest) ->
          if String.compare a b >= 0 then Atomic.incr failures;
          ordered rest
        | _ -> ()
      in
      ordered r
    done
  in
  let threads =
    [
      Thread.create writer ();
      Thread.create reader ();
      Thread.create reader ();
      Thread.create scanner ();
    ]
  in
  List.iter Thread.join threads;
  C.stop c;
  Alcotest.(check int) "no torn reads" 0 (Atomic.get failures);
  for i = 0 to n - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "final key %d" i)
      (Some (string_of_int i))
      (C.get c (key i))
  done

let test_write_batch_and_flush () =
  let db = Wipdb.Store.create base_config in
  let c = single db in
  C.write_batch c
    [
      (Wip_util.Ikey.Value, "a", "1");
      (Wip_util.Ikey.Value, "b", "2");
      (Wip_util.Ikey.Deletion, "a", "");
    ];
  C.flush c;
  Alcotest.(check (option string)) "batch applied" None (C.get c "a");
  Alcotest.(check (option string)) "batch applied b" (Some "2") (C.get c "b");
  C.stop c

let test_stop_idempotent () =
  let db = Wipdb.Store.create base_config in
  let c = single db in
  C.put c ~key:"x" ~value:"y";
  C.stop c;
  C.stop c;
  Alcotest.(check (option string)) "usable after stop" (Some "y") (C.get c "x")

let test_with_store_exposes_engine () =
  let db = Wipdb.Store.create base_config in
  let c = single db in
  C.put c ~key:"k" ~value:"v1";
  let snap = C.with_shard c ~key:"" Wipdb.Store.snapshot in
  C.put c ~key:"k" ~value:"v2";
  let old = C.with_shard c ~key:"" (fun s -> Wipdb.Store.get_at s "k" ~snapshot:snap) in
  Alcotest.(check (option string)) "snapshot via with_store" (Some "v1") old;
  C.stop c

let suite =
  [
    Alcotest.test_case "background compaction" `Quick
      test_background_compaction_happens;
    Alcotest.test_case "readers + writer" `Slow test_concurrent_readers_and_writer;
    Alcotest.test_case "batch and flush" `Quick test_write_batch_and_flush;
    Alcotest.test_case "stop idempotent" `Quick test_stop_idempotent;
    Alcotest.test_case "with_store" `Quick test_with_store_exposes_engine;
  ]

(* The front is generic over engines: drive the leveled baseline too. *)
module CL = Wip_concurrent.Sharded_store.Make (Wip_lsm.Leveled)

let test_generic_over_leveled () =
  let db =
    Wip_lsm.Leveled.create
      {
        (Wip_lsm.Leveled.leveldb_config ~scale:1) with
        Wip_lsm.Leveled.memtable_bytes = 2048;
        name = "conc-lvl";
      }
  in
  let c = CL.create ~pool_threads:1 [ ("", db) ] in
  for i = 0 to 1999 do
    CL.put c ~key:(key i) ~value:(string_of_int i)
  done;
  CL.stop c;
  for i = 0 to 1999 do
    Alcotest.(check (option string))
      (Printf.sprintf "key %d" i)
      (Some (string_of_int i))
      (CL.get c (key i))
  done

let suite =
  suite
  @ [ Alcotest.test_case "generic over leveled" `Quick test_generic_over_leveled ]
