(* Tests for Flsm: the PebblesDB-like fragmented LSM with guards. *)

module Flsm = Wip_lsm.Flsm
module Io_stats = Wip_storage.Io_stats

module Model = Map.Make (String)

let small_config =
  {
    (Flsm.default_config ~scale:1) with
    Flsm.memtable_bytes = 2 * 1024;
    max_files_per_guard = 3;
    top_level_bits = 6;
    bits_decrement = 2;
    max_levels = 4;
    name = "Pebbles-test";
  }

let key i = Printf.sprintf "%08d" i

let test_put_get () =
  let db = Flsm.create small_config in
  Flsm.put db ~key:"a" ~value:"1";
  Flsm.put db ~key:"b" ~value:"2";
  Alcotest.(check (option string)) "a" (Some "1") (Flsm.get db "a");
  Alcotest.(check (option string)) "missing" None (Flsm.get db "zzz")

let test_overwrite_and_delete () =
  let db = Flsm.create small_config in
  Flsm.put db ~key:"k" ~value:"old";
  Flsm.put db ~key:"k" ~value:"new";
  Alcotest.(check (option string)) "latest" (Some "new") (Flsm.get db "k");
  Flsm.delete db ~key:"k";
  Flsm.flush db;
  Flsm.maintenance db ();
  Alcotest.(check (option string)) "deleted" None (Flsm.get db "k")

let test_persistence_through_guard_compaction () =
  let db = Flsm.create small_config in
  let n = 4000 in
  for i = 0 to n - 1 do
    Flsm.put db ~key:(key (i * 6151 mod n)) ~value:("v" ^ string_of_int i)
  done;
  Flsm.flush db;
  Flsm.maintenance db ();
  Alcotest.(check bool) "reached deeper levels" true (Flsm.level_count db >= 2);
  for i = 0 to n - 1 do
    if Flsm.get db (key i) = None then Alcotest.failf "lost key %d" i
  done

let test_guards_grow_with_data () =
  let db = Flsm.create small_config in
  for i = 0 to 7999 do
    Flsm.put db ~key:(key (i * 6151 mod 8000)) ~value:"payload-payload"
  done;
  Flsm.flush db;
  Flsm.maintenance db ();
  let total_guards =
    List.fold_left ( + ) 0
      (List.init 3 (fun l -> Flsm.guard_count db ~level:(l + 1)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "guards appeared (%d)" total_guards)
    true (total_guards > 0)

let test_deeper_levels_have_more_guards () =
  let db = Flsm.create small_config in
  for i = 0 to 15_999 do
    Flsm.put db ~key:(key (i * 6151 mod 16_000)) ~value:"payload-payload"
  done;
  Flsm.flush db;
  Flsm.maintenance db ();
  let g1 = Flsm.guard_count db ~level:1 in
  let g3 = Flsm.guard_count db ~level:3 in
  Alcotest.(check bool)
    (Printf.sprintf "g3 (%d) >= g1 (%d)" g3 g1)
    true (g3 >= g1)

let test_scan () =
  let db = Flsm.create small_config in
  for i = 0 to 1999 do
    Flsm.put db ~key:(key i) ~value:("v" ^ string_of_int i)
  done;
  Flsm.delete db ~key:(key 1000);
  let r = Flsm.scan db ~lo:(key 995) ~hi:(key 1005) () in
  Alcotest.(check int) "live keys" 9 (List.length r);
  Alcotest.(check bool) "tombstone honored" true (not (List.mem_assoc (key 1000) r))

let test_model_random_ops () =
  let db = Flsm.create small_config in
  let model = ref Model.empty in
  let rng = Wip_util.Rng.create ~seed:21L in
  for i = 0 to 4999 do
    let k = key (Wip_util.Rng.int rng 400) in
    if Wip_util.Rng.int rng 6 = 0 then begin
      Flsm.delete db ~key:k;
      model := Model.remove k !model
    end
    else begin
      let v = "v" ^ string_of_int i in
      Flsm.put db ~key:k ~value:v;
      model := Model.add k v !model
    end
  done;
  for i = 0 to 399 do
    let k = key i in
    Alcotest.(check (option string))
      (Printf.sprintf "key %d" i)
      (Model.find_opt k !model) (Flsm.get db k)
  done

let test_file_fragmentation () =
  (* The paper's Figure 11: PebblesDB's guard partitioning produces many
     small files. After a sizable load the store must have strictly more
     files than levels. *)
  let db = Flsm.create small_config in
  for i = 0 to 9999 do
    Flsm.put db ~key:(key (i * 6151 mod 10_000)) ~value:(String.make 50 'v')
  done;
  Flsm.flush db;
  Flsm.maintenance db ();
  let sizes = Flsm.file_sizes db in
  Alcotest.(check bool)
    (Printf.sprintf "many fragments (%d)" (List.length sizes))
    true
    (List.length sizes > 8)

let qcheck_model =
  QCheck.Test.make ~name:"flsm agrees with Map model" ~count:15
    QCheck.(small_list (pair (int_bound 100) (option (int_bound 1000))))
    (fun ops ->
      let db = Flsm.create small_config in
      let model = ref Model.empty in
      List.iter
        (fun (k, v) ->
          let k = key k in
          match v with
          | Some v ->
            let v = string_of_int v in
            Flsm.put db ~key:k ~value:v;
            model := Model.add k v !model
          | None ->
            Flsm.delete db ~key:k;
            model := Model.remove k !model)
        ops;
      Flsm.flush db;
      Flsm.maintenance db ();
      Model.for_all (fun k v -> Flsm.get db k = Some v) !model
      && List.for_all
           (fun (k, _) -> Flsm.get db (key k) = Model.find_opt (key k) !model)
           ops)

let suite =
  [
    Alcotest.test_case "put/get" `Quick test_put_get;
    Alcotest.test_case "overwrite/delete" `Quick test_overwrite_and_delete;
    Alcotest.test_case "guard compaction persistence" `Quick
      test_persistence_through_guard_compaction;
    Alcotest.test_case "guards grow" `Quick test_guards_grow_with_data;
    Alcotest.test_case "guard density by depth" `Slow
      test_deeper_levels_have_more_guards;
    Alcotest.test_case "scan" `Quick test_scan;
    Alcotest.test_case "model random ops" `Quick test_model_random_ops;
    Alcotest.test_case "file fragmentation" `Quick test_file_fragmentation;
    QCheck_alcotest.to_alcotest qcheck_model;
  ]

let test_recovery_roundtrip () =
  let env = Wip_storage.Env.in_memory () in
  let db = Flsm.create ~env small_config in
  for i = 0 to 7999 do
    Flsm.put db ~key:(key (i * 6151 mod 8000)) ~value:("v" ^ string_of_int i)
  done;
  Flsm.delete db ~key:(key 11);
  let guards_before =
    List.init 3 (fun l -> Flsm.guard_count db ~level:(l + 1))
  in
  let db2 = Flsm.recover ~env small_config in
  Alcotest.(check (list int)) "guard structure recovered" guards_before
    (List.init 3 (fun l -> Flsm.guard_count db2 ~level:(l + 1)));
  Alcotest.(check (option string)) "deletion recovered" None (Flsm.get db2 (key 11));
  for i = 0 to 7999 do
    if i <> 11 && Flsm.get db2 (key i) = None then
      Alcotest.failf "recovery lost key %d" i
  done;
  (* Scans still observe global order across recovered spans. *)
  let r = Flsm.scan db2 ~lo:(key 100) ~hi:(key 120) () in
  Alcotest.(check int) "range intact" 20 (List.length r)

let test_recovery_of_unflushed_writes () =
  let env = Wip_storage.Env.in_memory () in
  let db = Flsm.create ~env small_config in
  Flsm.put db ~key:"wal-only" ~value:"survives";
  let db2 = Flsm.recover ~env small_config in
  Alcotest.(check (option string)) "wal replay" (Some "survives")
    (Flsm.get db2 "wal-only")

(* A guard commit replaces each straddling fragment by its halves in the
   fragment's place, behind the span's newer fragments. Recovery from the
   manifest alone — the WAL segments holding the writes reclaimed — must
   rebuild that order, or a get meets an older half first. *)
let test_recovery_keeps_split_order () =
  let cfg =
    {
      (Flsm.default_config ~scale:1) with
      Flsm.memtable_bytes = 16 * 1024 * 1024;
      max_files_per_guard = 1;
      top_level_bits = 1;
      bits_decrement = 0;
      max_levels = 2;
      name = "split-order";
    }
  in
  let env = Wip_storage.Env.in_memory () in
  let db = Flsm.create ~env cfg in
  let settle () =
    Flsm.flush db;
    Flsm.maintenance db ()
  in
  let n = 250 in
  List.iter
    (fun (parity, value) ->
      for i = 0 to n - 1 do
        Flsm.put db ~key:(key ((2 * i) + parity)) ~value
      done;
      settle ())
    [ (0, "v1"); (0, "v2"); (1, "odd") ];
  (* One record past the 4 MiB segment rolls the log; the next lands in a
     fresh segment, so the flush reclaims the rolled one. *)
  Flsm.put db ~key:"~filler" ~value:(String.make (4 * 1024 * 1024) 'f');
  Flsm.put db ~key:"~filler" ~value:"";
  settle ();
  Flsm.checkpoint db;
  let stale db =
    List.length
      (List.filter (fun i -> Flsm.get db (key (2 * i)) <> Some "v2")
         (List.init n Fun.id))
  in
  Alcotest.(check int) "stale before restart" 0 (stale db);
  Alcotest.(check int) "stale after manifest-only recovery" 0
    (stale (Flsm.recover ~env cfg))

let suite =
  suite
  @ [
      Alcotest.test_case "recovery keeps split order" `Quick
        test_recovery_keeps_split_order;
      Alcotest.test_case "recovery roundtrip" `Quick test_recovery_roundtrip;
      Alcotest.test_case "recovery of unflushed" `Quick
        test_recovery_of_unflushed_writes;
    ]
