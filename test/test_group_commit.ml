(* Group commit: window coalescing, the per-window fsync saving, typed
   failure of followers when a leader's commit blows up, and crash-matrix
   rows for the commit unit itself — a crash at EVERY durable op across a
   workload of multi-batch windows, recovering each image and asserting
   that exactly a prefix survives, acked windows are never lost, and no
   batch inside a window is ever torn. *)

module Config = Wipdb.Config
module Store = Wipdb.Store
module Fault_env = Wip_storage.Fault_env
module Io_stats = Wip_storage.Io_stats
module Group_commit = Wip_server.Group_commit
module Ikey = Wip_util.Ikey
module Intf = Wip_kv.Store_intf

let cfg name =
  {
    Config.default with
    (* Memtable and segment sized so the workload's durable ops are the
       WAL appends and explicit syncs — no flush noise in the counts. *)
    Config.memtable_items = 4096;
    memtable_bytes = 1024 * 1024;
    wal_segment_bytes = 1024 * 1024;
    block_cache_bytes = 0;
    name;
  }

(* ------------------------------------------------------------------ *)
(* Window coalescing under real concurrency *)

let test_windows_coalesce () =
  let table : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let tlock = Mutex.create () in
  let commit batches =
    (* A slow device: while the leader is "inside the fsync", the other
       submitters must pile into the next window. *)
    Unix.sleepf 0.03;
    Mutex.lock tlock;
    Array.iter
      (fun items ->
        List.iter (fun (_, k, v) -> Hashtbl.replace table k v) items)
      batches;
    Mutex.unlock tlock;
    Array.map (fun _ -> Ok ()) batches
  in
  let stats = Io_stats.create () in
  let gc = Group_commit.create ~max_delay_s:0.002 ~stats ~commit () in
  let n = 8 in
  let results = Array.make n (Error (Intf.Store_degraded { reason = "unset" })) in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              Group_commit.submit gc
                [ (Ikey.Value, Printf.sprintf "k%d" i, Printf.sprintf "v%d" i) ])
          ())
  in
  List.iter Thread.join threads;
  Group_commit.stop gc;
  Array.iteri
    (fun i r ->
      match r with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "submit %d refused: %s" i (Intf.write_error_to_string e))
    results;
  for i = 0 to n - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "k%d applied" i)
      (Some (Printf.sprintf "v%d" i))
      (Hashtbl.find_opt table (Printf.sprintf "k%d" i))
  done;
  Alcotest.(check int) "every request carried" n (Group_commit.requests gc);
  let w = Group_commit.windows gc in
  if w >= n then
    Alcotest.failf "no coalescing: %d windows for %d requests" w n;
  (* The stats hook saw the same window/request totals. *)
  Alcotest.(check int) "stats windows" w Io_stats.(count stats commit_windows);
  Alcotest.(check int) "stats requests" n
    (Io_stats.(count stats commit_requests))

let test_no_coalesce_baseline () =
  let commit batches = Array.map (fun _ -> Ok ()) batches in
  let gc = Group_commit.create ~coalesce:false ~commit () in
  let n = 6 in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            match Group_commit.submit gc [ (Ikey.Value, string_of_int i, "v") ] with
            | Ok () -> ()
            | Error _ -> assert false)
          ())
  in
  List.iter Thread.join threads;
  Group_commit.stop gc;
  Alcotest.(check int) "requests" n (Group_commit.requests gc);
  Alcotest.(check int) "baseline: one window per request" n
    (Group_commit.windows gc)

let test_stop_refuses () =
  let gc =
    Group_commit.create ~commit:(fun b -> Array.map (fun _ -> Ok ()) b) ()
  in
  Group_commit.stop gc;
  match Group_commit.submit gc [ (Ikey.Value, "k", "v") ] with
  | Error (Intf.Store_degraded _) -> ()
  | Ok () -> Alcotest.fail "submit after stop succeeded"
  | Error e ->
    Alcotest.failf "wrong refusal: %s" (Intf.write_error_to_string e)

(* A leader whose commit raises must fail its followers with a typed
   verdict — nobody parks forever — and the exception must escape only
   through the leader's own submit. *)
let test_leader_crash_fails_followers () =
  let commit _ =
    Unix.sleepf 0.03;
    failwith "device went away"
  in
  let gc = Group_commit.create ~max_delay_s:0.002 ~commit () in
  let n = 4 in
  let outcomes = Array.make n `Pending in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            outcomes.(i) <-
              (match Group_commit.submit gc [ (Ikey.Value, string_of_int i, "v") ] with
              | Ok () -> `Acked
              | Error (Intf.Store_degraded _) -> `Typed
              | Error _ -> `Wrong
              | exception Failure _ -> `Raised))
          ())
  in
  (* Join with the test harness's own patience as the hang detector. *)
  List.iter Thread.join threads;
  let raised = ref 0 and typed = ref 0 in
  Array.iteri
    (fun i o ->
      match o with
      | `Raised -> incr raised
      | `Typed -> incr typed
      | `Acked -> Alcotest.failf "submit %d acked a failed commit" i
      | `Wrong -> Alcotest.failf "submit %d got a non-degraded error" i
      | `Pending -> Alcotest.failf "submit %d never completed" i)
    outcomes;
  Alcotest.(check int) "every submitter heard back" n (!raised + !typed);
  if !raised = 0 then Alcotest.fail "no leader re-raised the commit failure"

(* ------------------------------------------------------------------ *)
(* The fsync saving, measured on the real engine: one window of four
   batches costs one WAL append + one sync; four solo commits cost four
   of each. This is the deterministic core of the benchmark's headline. *)

let test_engine_fsync_accounting () =
  let batch i = [ (Ikey.Value, Printf.sprintf "b%d" i, "v") ] in
  let grouped =
    let fenv = Fault_env.create () in
    let db = Store.create ~env:(Fault_env.env fenv) (cfg "gc-grouped") in
    let before = Fault_env.durable_ops fenv in
    (match Store.try_write_batches db (List.init 4 batch) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "grouped: %s" (Intf.write_error_to_string e));
    Store.log_sync db;
    Fault_env.durable_ops fenv - before
  in
  let solo =
    let fenv = Fault_env.create () in
    let db = Store.create ~env:(Fault_env.env fenv) (cfg "gc-solo") in
    let before = Fault_env.durable_ops fenv in
    List.iter
      (fun i ->
        (match Store.try_write_batch db (batch i) with
        | Ok () -> ()
        | Error e -> Alcotest.failf "solo: %s" (Intf.write_error_to_string e));
        Store.log_sync db)
      [ 0; 1; 2; 3 ];
    Fault_env.durable_ops fenv - before
  in
  Alcotest.(check int) "grouped window: one append + one sync" 2 grouped;
  Alcotest.(check int) "solo commits: four appends + four syncs" 8 solo

(* ------------------------------------------------------------------ *)
(* Crash-matrix rows for the commit unit *)

(* The workload the leader performs per window, replayed deterministically:
   each window carries two batches of two items, appended as one physical
   write ([try_write_batches]) then fsynced ([log_sync]). A window is
   "acked" only once log_sync returns — exactly when Group_commit hands
   out Ok verdicts. *)

let total_windows = 10

let wkey w b i = Printf.sprintf "w%02d-b%d-k%d" w b i

let wvalue w b i = Printf.sprintf "val-%d-%d-%d" w b i

let window_batches w =
  List.init 2 (fun b ->
      List.init 2 (fun i -> (Ikey.Value, wkey w b i, wvalue w b i)))

let run_windows db acked =
  for w = 1 to total_windows do
    (match Store.try_write_batches db (window_batches w) with
    | Ok () -> ()
    | Error e ->
      Alcotest.failf "window %d refused: %s" w (Intf.write_error_to_string e));
    (* Crash here = "between WAL append and fsync": window w appended,
       never acked. *)
    Store.log_sync db;
    (* Crash after this point = "after fsync, before acks": durable, and
       the recovery must keep it whether or not anyone recorded the ack. *)
    acked := w
  done

(* Which windows / batches survived recovery, and with what fidelity. *)
let survivors db =
  List.init total_windows (fun wi ->
      let w = wi + 1 in
      List.init 2 (fun b ->
          let present =
            List.init 2 (fun i -> Store.get db (wkey w b i))
          in
          match present with
          | [ Some v0; Some v1 ] ->
            Alcotest.(check string) "exact value" (wvalue w b 0) v0;
            Alcotest.(check string) "exact value" (wvalue w b 1) v1;
            true
          | [ None; None ] -> false
          | _ -> Alcotest.failf "torn batch: window %d batch %d" w b))

let check_image ~op ~acked image =
  let db = Store.recover ~env:image (cfg "gc-matrix") in
  let surv = survivors db in
  (* Batch survival is a prefix of append order: batch (w,b) present
     implies every earlier batch of every earlier window present. *)
  let flat = List.concat surv in
  let seen_gap = ref false in
  List.iteri
    (fun i present ->
      if present && !seen_gap then
        Alcotest.failf "op %d: batch %d survived after a gap" op i;
      if not present then seen_gap := true)
    flat;
  (* No acked window lost: acked = log_sync returned = durable. *)
  List.iteri
    (fun wi batches ->
      if wi + 1 <= acked && not (List.for_all (fun p -> p) batches) then
        Alcotest.failf "op %d: acked window %d lost" op (wi + 1))
    surv

let test_crash_matrix_windows () =
  (* Profile the workload to learn its durable-op count. *)
  let total_ops =
    let fenv = Fault_env.create () in
    let db = Store.create ~env:(Fault_env.env fenv) (cfg "gc-matrix") in
    let acked = ref 0 in
    run_windows db acked;
    Fault_env.durable_ops fenv
  in
  Alcotest.(check bool) "workload has durable ops" true (total_ops > 0);
  for op = 1 to total_ops do
    let fenv = Fault_env.create () in
    (* Rotate the torn-byte count so some crashes tear the tail of the
       multi-batch append mid-record. *)
    Fault_env.crash_at fenv ~op ~torn:(op mod 4) ();
    let acked = ref 0 in
    match
      (* Creation's own durable ops are crash candidates too. *)
      let db = Store.create ~env:(Fault_env.env fenv) (cfg "gc-matrix") in
      run_windows db acked
    with
    | () -> ()
    | exception Fault_env.Crashed ->
      check_image ~op ~acked:!acked (Fault_env.image fenv)
  done

(* The same rows driven through Group_commit itself: the leader runs the
   commit on a crashing device, the Crashed exception must escape submit
   (typed refusal is only for followers), and recovery from the image
   keeps every submit that returned Ok. *)
let test_crash_through_group_commit () =
  let run_until_crash ~op =
    let fenv = Fault_env.create () in
    Fault_env.crash_at fenv ~op ();
    let acked = ref [] in
    (try
       let db = Store.create ~env:(Fault_env.env fenv) (cfg "gc-live") in
       let commit batches =
         match Store.try_write_batches db (Array.to_list batches) with
         | Error e -> Array.map (fun _ -> Error e) batches
         | Ok () ->
           Store.log_sync db;
           Array.map (fun _ -> Ok ()) batches
       in
       let gc = Group_commit.create ~max_delay_s:0.0001 ~commit () in
       for i = 1 to 12 do
         let key = Printf.sprintf "live-%02d" i in
         match Group_commit.submit gc [ (Ikey.Value, key, key) ] with
         | Ok () -> acked := key :: !acked
         | Error _ -> ()
       done
     with Fault_env.Crashed -> ());
    (fenv, !acked)
  in
  for op = 1 to 30 do
    let fenv, acked = run_until_crash ~op in
    (* A scheduled op beyond the workload's durable-op count never fires;
       there is no image to check in that row. *)
    if Fault_env.durable_ops fenv >= op then begin
      let db = Store.recover ~env:(Fault_env.image fenv) (cfg "gc-live") in
      List.iter
        (fun key ->
          match Store.get db key with
          | Some v when v = key -> ()
          | Some _ -> Alcotest.failf "op %d: acked %s corrupted" op key
          | None -> Alcotest.failf "op %d: acked %s lost" op key)
        acked
    end
  done

let suite =
  [
    Alcotest.test_case "concurrent submits coalesce into windows" `Quick
      test_windows_coalesce;
    Alcotest.test_case "coalesce:false is one window per request" `Quick
      test_no_coalesce_baseline;
    Alcotest.test_case "stop refuses new submissions" `Quick test_stop_refuses;
    Alcotest.test_case "leader crash fails followers with typed verdicts"
      `Quick test_leader_crash_fails_followers;
    Alcotest.test_case "one window = one append + one fsync" `Quick
      test_engine_fsync_accounting;
    Alcotest.test_case "crash matrix over multi-batch windows" `Slow
      test_crash_matrix_windows;
    Alcotest.test_case "crash matrix through Group_commit submits" `Slow
      test_crash_through_group_commit;
  ]
