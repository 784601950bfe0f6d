(* Pinned snapshots, SI transactions and version GC:
   - property: reads at a pinned snapshot are exact across all three
     engines through interleaved writes, deletes, flushes and forced
     compactions — version GC never drops a version a live snapshot sees;
   - the drain-before-write hazard on the POSIX Env: a pinned iter_range
     stream keeps draining across a compaction that retires its tables,
     and the retired files are reclaimed on release;
   - SI conflict matrix, and committed transactions surviving a crash;
   - scan-boundary regressions: 17+ bytes of 0xff stay visible, negative
     limits are clamped, boundary-adjacent tables are never fetched. *)

module Store_intf = Wip_kv.Store_intf
module Store = Wipdb.Store
module Config = Wipdb.Config
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Fault_env = Wip_storage.Fault_env
module Rng = Wip_util.Rng
module Model = Map.Make (String)

let key i = Printf.sprintf "%06d" i

let small_config =
  {
    Config.default with
    Config.memtable_items = 64;
    memtable_bytes = 8 * 1024;
    t_sublevels = 4;
    min_count = 2;
    max_count = 8;
    name = "snap";
  }

let make_engines () =
  let wip = Store.create { small_config with Config.name = "swip" } in
  let lvl =
    Wip_lsm.Leveled.create
      {
        (Wip_lsm.Leveled.leveldb_config ~scale:1) with
        Wip_lsm.Leveled.memtable_bytes = 2 * 1024;
        sstable_bytes = 1024;
        level1_bytes = 8 * 1024;
        name = "slvl";
      }
  in
  let flsm =
    Wip_lsm.Flsm.create
      {
        (Wip_lsm.Flsm.default_config ~scale:1) with
        Wip_lsm.Flsm.memtable_bytes = 2 * 1024;
        top_level_bits = 6;
        name = "sflsm";
      }
  in
  [
    Store_intf.Store ((module Store), wip);
    Store_intf.Store ((module Wip_lsm.Leveled), lvl);
    Store_intf.Store ((module Wip_lsm.Flsm), flsm);
  ]

(* ------------------------------------------------------------------ *)
(* Property: a pinned snapshot always reads exactly the model captured at
   pin time, whatever lands (and however much compaction runs) after. *)

let check_snap ~name ~rng s (snap, m) =
  for _ = 1 to 8 do
    let k = key (Rng.int rng 200) in
    let got = Store_intf.get_at s k ~snapshot:snap in
    let expected = Model.find_opt k m in
    if got <> expected then
      Alcotest.failf "%s: get_at %s saw %s, pinned model has %s" name k
        (Option.value got ~default:"<none>")
        (Option.value expected ~default:"<none>")
  done;
  let a = Rng.int rng 150 in
  let lo = key a and hi = key (a + 50) in
  let got = Store_intf.scan_at s ~lo ~hi ~snapshot:snap () in
  let expected =
    Model.bindings m
    |> List.filter (fun (k, _) -> String.compare k lo >= 0 && String.compare k hi < 0)
  in
  if got <> expected then
    Alcotest.failf "%s: scan_at [%s, %s) returned %d entries, pinned model %d"
      name lo hi (List.length got) (List.length expected)

let run_engine_property ~seed s =
  let name = Store_intf.store_name s in
  let rng = Rng.create ~seed in
  let model = ref Model.empty in
  let snaps = ref [] in
  for step = 0 to 1199 do
    let r = Rng.int rng 100 in
    if r < 55 then begin
      let k = key (Rng.int rng 200) in
      let v = Printf.sprintf "v%d" step in
      Store_intf.put s ~key:k ~value:v;
      model := Model.add k v !model
    end
    else if r < 70 then begin
      let k = key (Rng.int rng 200) in
      Store_intf.delete s ~key:k;
      model := Model.remove k !model
    end
    else if r < 80 then begin
      if List.length !snaps < 6 then
        snaps := (Store_intf.snapshot s, !model) :: !snaps
    end
    else if r < 87 then begin
      match !snaps with
      | [] -> ()
      | (snap, _) :: rest ->
        Store_intf.release snap;
        snaps := rest
    end
    else if r < 95 then begin
      (* Forced GC churn: flush then compact with the floor at the oldest
         live snapshot. *)
      Store_intf.flush s;
      Store_intf.maintenance s ()
    end
    else List.iter (check_snap ~name ~rng s) !snaps
  done;
  Store_intf.flush s;
  Store_intf.maintenance s ();
  List.iter (check_snap ~name ~rng s) !snaps;
  List.iter (fun (snap, _) -> Store_intf.release snap) !snaps;
  (* With every snapshot released the floor is gone: compaction may now
     collapse history, but the current view must still match the model. *)
  Store_intf.flush s;
  Store_intf.maintenance s ();
  Model.iter
    (fun k v ->
      if Store_intf.get s k <> Some v then
        Alcotest.failf "%s: current read of %s diverged after release" name k)
    !model

let test_pinned_reads_exact () =
  List.iter
    (fun seed -> List.iter (run_engine_property ~seed) (make_engines ()))
    [ 0xC0FFEEL; 0x5EEDL ]

(* ------------------------------------------------------------------ *)
(* The store.ml drain-before-write hazard, on the real filesystem: a
   pinned stream must keep draining after compaction retires the tables
   it reads, and the retired files must be reclaimed once released. *)

let test_pinned_stream_survives_retirement_posix () =
  let root = Filename.temp_file "wipdb-snap" "" in
  Sys.remove root;
  let env = Env.posix ~root in
  let db = Store.create ~env { small_config with Config.name = "pin" } in
  let n = 2000 in
  for i = 0 to n - 1 do
    Store.put db ~key:(key i) ~value:("v" ^ string_of_int i)
  done;
  Store.flush db;
  Store.maintenance db ();
  let snap = Store.snapshot db in
  let stream = Store.iter_range db ~snapshot:snap ~lo:"" ~hi:"\255" () in
  (* Capture the first bucket's table streams by consuming a prefix. *)
  let rec take_n acc k seq =
    if k = 0 then (List.rev acc, seq)
    else
      match seq () with
      | Seq.Nil -> (List.rev acc, Seq.empty)
      | Seq.Cons (x, rest) -> take_n (x :: acc) (k - 1) rest
  in
  let prefix, rest = take_n [] 100 stream in
  (* Retire those tables: overwrite everything, flush, compact. *)
  for i = 0 to n - 1 do
    Store.put db ~key:(key i) ~value:"CHANGED"
  done;
  Store.flush db;
  Store.maintenance db ();
  let zombies = Store.zombie_table_files db in
  Alcotest.(check bool) "compaction retired pinned tables" true (zombies <> []);
  Alcotest.(check bool) "zombie bytes accounted" true (Store.zombie_bytes db > 0);
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " still on device") true (Env.exists env f))
    zombies;
  (* The pinned stream must still drain to exactly the pre-churn view. *)
  let got = prefix @ List.of_seq rest in
  Alcotest.(check int) "pinned drain complete" n (List.length got);
  List.iteri
    (fun i (k, v) ->
      if k <> key i || v <> "v" ^ string_of_int i then
        Alcotest.failf "pinned stream diverged at %d: (%s, %s)" i k v)
    got;
  (* Release reclaims every zombie, on the POSIX device too. *)
  Wip_kv.Store_intf.release snap;
  Alcotest.(check (list string)) "zombies reclaimed" [] (Store.zombie_table_files db);
  Alcotest.(check int) "no snapshot live" 0 (Store.live_snapshot_count db);
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " deleted after release") false
        (Env.exists env f))
    zombies;
  (* Releasing twice is harmless. *)
  Wip_kv.Store_intf.release snap

(* ------------------------------------------------------------------ *)
(* SI transactions *)

let check_commit what expected got =
  let pp = function
    | Ok () -> "Ok"
    | Error e -> Store_intf.write_error_to_string e
  in
  if got <> expected then
    Alcotest.failf "%s: expected %s, got %s" what (pp expected) (pp got)

let test_txn_conflict_matrix () =
  let db = Store.create small_config in
  Store.put db ~key:"base" ~value:"b0";
  (* Disjoint write sets: both commit. *)
  let t1 = Store.txn_begin db and t2 = Store.txn_begin db in
  Store.txn_put t1 ~key:"a" ~value:"1";
  Store.txn_put t2 ~key:"b" ~value:"2";
  check_commit "disjoint t1" (Ok ()) (Store.txn_commit t1);
  check_commit "disjoint t2" (Ok ()) (Store.txn_commit t2);
  Alcotest.(check (option string)) "a" (Some "1") (Store.get db "a");
  Alcotest.(check (option string)) "b" (Some "2") (Store.get db "b");
  (* Write-write conflict: first committer wins. *)
  let t1 = Store.txn_begin db and t2 = Store.txn_begin db in
  Store.txn_put t1 ~key:"k" ~value:"x";
  Store.txn_put t2 ~key:"k" ~value:"y";
  check_commit "ww winner" (Ok ()) (Store.txn_commit t1);
  check_commit "ww loser"
    (Error (Store_intf.Txn_conflict { key = "k" }))
    (Store.txn_commit t2);
  Alcotest.(check (option string)) "winner's value" (Some "x") (Store.get db "k");
  (* Read-write conflict: a commit under the transaction's read invalidates
     it even when the write sets are disjoint. *)
  let t = Store.txn_begin db in
  ignore (Store.txn_get t "base");
  Store.put db ~key:"base" ~value:"b1";
  Store.txn_put t ~key:"other" ~value:"o";
  check_commit "rw conflict"
    (Error (Store_intf.Txn_conflict { key = "base" }))
    (Store.txn_commit t);
  Alcotest.(check (option string)) "aborted write invisible" None
    (Store.get db "other");
  (* Reads of untouched keys don't conflict; own writes are read back. *)
  let t = Store.txn_begin db in
  Store.txn_put t ~key:"rw" ~value:"mine";
  Alcotest.(check (option string)) "own write" (Some "mine")
    (Store.txn_get t "rw");
  Store.txn_delete t ~key:"a";
  Alcotest.(check (option string)) "own delete" None (Store.txn_get t "a");
  ignore (Store.txn_get t "quiet");
  Store.put db ~key:"elsewhere" ~value:"z";
  check_commit "no conflict" (Ok ()) (Store.txn_commit t);
  Alcotest.(check (option string)) "committed write" (Some "mine")
    (Store.get db "rw");
  Alcotest.(check (option string)) "committed delete" None (Store.get db "a");
  (* The snapshot view holds while the transaction runs. *)
  let t = Store.txn_begin db in
  Store.put db ~key:"rw" ~value:"later";
  Alcotest.(check (option string)) "pinned read" (Some "mine")
    (Store.txn_get t "rw");
  Store.txn_abort t;
  (* Abort discards buffered writes and releases the pin; closed handles
     refuse further use. *)
  let t = Store.txn_begin db in
  Store.txn_put t ~key:"ab" ~value:"v";
  Store.txn_abort t;
  Alcotest.(check (option string)) "abort discards" None (Store.get db "ab");
  (match Store.txn_put t ~key:"ab" ~value:"again" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "closed transaction accepted a write");
  Alcotest.(check int) "all transaction pins released" 0
    (Store.live_snapshot_count db)

let test_committed_txns_survive_crash () =
  let fenv = Fault_env.create () in
  let db = Store.create ~env:(Fault_env.env fenv) small_config in
  (* An uncommitted transaction leaves no durable trace. *)
  let t0 = Store.txn_begin db in
  Store.txn_put t0 ~key:"ghost" ~value:"boo";
  let pre = Store.recover ~env:(Fault_env.durable_image fenv) small_config in
  Alcotest.(check (option string)) "uncommitted invisible" None
    (Store.get pre "ghost");
  Store.txn_abort t0;
  (* Acked transactions survive recovery from the durable image, whole. *)
  for n = 1 to 5 do
    let t = Store.txn_begin db in
    for j = 0 to 3 do
      Store.txn_put t
        ~key:(Printf.sprintf "t%d-%d" n j)
        ~value:(Printf.sprintf "v%d" n)
    done;
    (match Store.txn_commit t with
    | Ok () -> ()
    | Error e ->
      Alcotest.failf "txn %d refused: %s" n (Store_intf.write_error_to_string e));
    Store.checkpoint db;
    let db2 = Store.recover ~env:(Fault_env.durable_image fenv) small_config in
    for m = 1 to n do
      for j = 0 to 3 do
        Alcotest.(check (option string))
          (Printf.sprintf "txn %d key %d after crash %d" m j n)
          (Some (Printf.sprintf "v%d" m))
          (Store.get db2 (Printf.sprintf "t%d-%d" m j))
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Scan-boundary regressions *)

let test_long_0xff_keys_visible () =
  let db = Store.create small_config in
  let k17 = String.make 17 '\255' in
  let k20 = String.make 20 '\255' in
  Store.put db ~key:k17 ~value:"a";
  Store.put db ~key:k20 ~value:"b";
  Store.put db ~key:"zzz" ~value:"c";
  let hi = String.make 32 '\255' in
  let check_visible stage =
    Alcotest.(check (list (pair string string)))
      (stage ^ ": all-0xff keys in scan")
      [ ("zzz", "c"); (k17, "a"); (k20, "b") ]
      (Store.scan db ~lo:"z" ~hi ());
    Alcotest.(check (option string)) (stage ^ ": 17-byte get") (Some "a")
      (Store.get db k17);
    Alcotest.(check (option string)) (stage ^ ": 20-byte get") (Some "b")
      (Store.get db k20)
  in
  check_visible "memtable";
  Store.flush db;
  Store.maintenance db ();
  check_visible "tables";
  (* The old sentinel made [lo] at/above 17 bytes of 0xff skip the last
     bucket entirely. *)
  Alcotest.(check (list (pair string string)))
    "scan starting at the old sentinel"
    [ (k17, "a"); (k20, "b") ]
    (Store.scan db ~lo:k17 ~hi ());
  let snap = Store.snapshot db in
  Alcotest.(check (list (pair string string)))
    "pinned scan past the old sentinel"
    [ (k17, "a"); (k20, "b") ]
    (Store.scan_at db ~lo:k17 ~hi ~snapshot:snap ());
  Wip_kv.Store_intf.release snap

let test_negative_limit_clamped () =
  List.iter
    (fun s ->
      let name = Store_intf.store_name s in
      for i = 0 to 49 do
        Store_intf.put s ~key:(key i) ~value:"v"
      done;
      Alcotest.(check int)
        (name ^ ": negative limit is empty")
        0
        (List.length (Store_intf.scan s ~lo:"" ~hi:"\255" ~limit:(-3) ()));
      Alcotest.(check int)
        (name ^ ": zero limit is empty")
        0
        (List.length (Store_intf.scan s ~lo:"" ~hi:"\255" ~limit:0 ()));
      Alcotest.(check int)
        (name ^ ": max_int limit is unbounded")
        50
        (List.length (Store_intf.scan s ~lo:"" ~hi:"\255" ~limit:max_int ()));
      let snap = Store_intf.snapshot s in
      Alcotest.(check int)
        (name ^ ": negative limit at snapshot")
        0
        (List.length
           (Store_intf.scan_at s ~lo:"" ~hi:"\255" ~limit:(-1) ~snapshot:snap ()));
      Store_intf.release snap)
    (make_engines ())

let test_boundary_table_not_fetched () =
  let env = Env.in_memory () in
  let db = Store.create ~env { small_config with Config.name = "bnd" } in
  (* A single table whose smallest key is exactly the scan's exclusive
     upper bound. *)
  Store.put db ~key:"m" ~value:"v0";
  for i = 1 to 19 do
    Store.put db ~key:(Printf.sprintf "m%02d" i) ~value:"v"
  done;
  Store.flush db;
  Store.maintenance db ();
  let stats = Env.stats env in
  let read () = Io_stats.read_by stats Io_stats.Read_path in
  let b0 = read () in
  Alcotest.(check (list (pair string string)))
    "scan below the boundary" []
    (Store.scan db ~lo:"a" ~hi:"m" ());
  Alcotest.(check int) "boundary table not fetched" 0 (read () - b0);
  (* Sanity: the instrument fires as soon as the bound admits the table. *)
  Alcotest.(check (list (pair string string)))
    "inclusive bound reads it"
    [ ("m", "v0") ]
    (Store.scan db ~lo:"a" ~hi:"m\001" ());
  Alcotest.(check bool) "fetch observed" true (read () - b0 > 0)

let suite =
  [
    Alcotest.test_case "pinned reads exact (all engines)" `Quick
      test_pinned_reads_exact;
    Alcotest.test_case "pinned stream survives retirement (posix)" `Quick
      test_pinned_stream_survives_retirement_posix;
    Alcotest.test_case "SI conflict matrix" `Quick test_txn_conflict_matrix;
    Alcotest.test_case "committed txns survive crash" `Quick
      test_committed_txns_survive_crash;
    Alcotest.test_case "17-byte 0xff keys visible" `Quick
      test_long_0xff_keys_visible;
    Alcotest.test_case "negative scan limit clamped" `Quick
      test_negative_limit_clamped;
    Alcotest.test_case "boundary table not fetched" `Quick
      test_boundary_table_not_fetched;
  ]
