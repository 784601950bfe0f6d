(* Dynamic/static agreement for the guarded-by discipline (lint rule R8).

   The linter proves, lexically, that every access to a [guarded_by: lock]
   field happens inside [Sync.with_lock lock]. Several modules additionally
   carry a runtime witness — [Sync.check_guard lock ~field] placed beside
   an annotated access — which, in debug mode, checks the lock really is in
   the calling thread's held stack and records a contradiction otherwise.

   This suite drives a concurrent workload through every witness-bearing
   module (sharded store, group commit, block cache, io stats, histogram)
   with the validator on and asserts the runtime never
   contradicts a static annotation. If an annotation rots — a field's real
   guard changes but the comment (and hence the linter's model) does not —
   the witness fires here before the stale annotation can mislead anyone. *)

module Sync = Wip_util.Sync
module Ikey = Wip_util.Ikey
module Sh = Wip_concurrent.Sharded_store.Make (Wipdb.Store)
module Config = Wipdb.Config
module Group_commit = Wip_server.Group_commit
module Block_cache = Wip_storage.Block_cache
module Io_stats = Wip_storage.Io_stats
module Histogram = Wip_stats.Histogram

let () = Sync.set_debug true

(* The witness mechanism itself: a guarded access outside its lock is a
   contradiction; the same access under the lock is not. *)
let test_witness_mechanism () =
  Sync.reset_guard_contradictions ();
  let l = Sync.create ~name:"probe-lock" () in
  Sync.with_lock l (fun () -> Sync.check_guard l ~field:"probe");
  Alcotest.(check int)
    "no contradiction under the lock" 0
    (Sync.guard_contradiction_count ());
  (* Deliberate negative: the annotation claims [l], but nothing holds it. *)
  Sync.check_guard l ~field:"probe";
  Alcotest.(check int)
    "unlocked access recorded" 1
    (Sync.guard_contradiction_count ());
  (match Sync.guard_contradictions () with
  | [ (field, lock) ] ->
    Alcotest.(check string) "field named" "probe" field;
    Alcotest.(check string) "lock named" "probe-lock" lock
  | l -> Alcotest.failf "expected one contradiction, got %d" (List.length l));
  (* Holding a *different* lock does not satisfy the guard. *)
  let other = Sync.create ~rank:1 ~name:"other-lock" () in
  Sync.with_lock other (fun () -> Sync.check_guard l ~field:"probe");
  Alcotest.(check int)
    "wrong lock recorded" 2
    (Sync.guard_contradiction_count ());
  Sync.reset_guard_contradictions ();
  Alcotest.(check int) "reset clears" 0 (Sync.guard_contradiction_count ())

let base_config =
  {
    Config.default with
    Config.memtable_items = 64;
    memtable_bytes = 8 * 1024;
    t_sublevels = 4;
    min_count = 2;
    max_count = 8;
    compaction_budget_per_batch = 0;
    name = "lockdisc";
  }

let key_of ~count i =
  Printf.sprintf "%016Ld"
    Int64.(
      div
        (mul (of_int i) base_config.Config.initial_key_space)
        (of_int count))

let spawn_all fns = List.map (fun f -> Thread.create f ()) fns

let join_all = List.iter Thread.join

(* Concurrent workload over every witness-bearing module. Static analysis
   says each witness site runs under its annotated lock; the assertion at
   the end says the runtime agreed on every single execution. *)
let test_concurrent_agreement () =
  Sync.reset_guard_contradictions ();
  let v0 = Sync.violation_count () in
  (* Sharded store: parallel writers + readers hit the sub_batch witness
     ("inflight" under the shard lock) through the normal put path. *)
  let bounds = Config.shard_boundaries base_config ~shards:4 in
  let stores =
    List.mapi
      (fun i lo ->
        let cfg =
          { base_config with Config.name = Printf.sprintf "lockdisc-%d" i }
        in
        (lo, Wipdb.Store.create cfg))
      bounds
  in
  let sh = Sh.create ~pool_threads:2 ~idle_sleep:0.0005 stores in
  (* Group commit: concurrent submitters hit the "queue" witness under the
     group-commit lock on every enqueue. *)
  let gc =
    Group_commit.create ~max_delay_s:0.001
      ~commit:(fun batches -> Array.map (fun _ -> Ok ()) batches)
      ()
  in
  (* Leaf-lock modules, shared across threads. *)
  let cache = Block_cache.create ~capacity_bytes:4096 in
  let stats = Io_stats.create () in
  let hist = Histogram.create () in
  let n = 200 in
  let writer t0 () =
    for i = 0 to n - 1 do
      let k = key_of ~count:n ((i + (t0 * 37)) mod n) in
      Sh.put sh ~key:k ~value:(string_of_int i)
    done
  in
  let reader () =
    for i = 0 to n - 1 do
      ignore (Sh.get sh (key_of ~count:n i))
    done
  in
  let submitter () =
    for i = 0 to 49 do
      ignore (Group_commit.submit gc [ (Ikey.Value, string_of_int i, "v") ])
    done
  in
  let leaf_hammer () =
    for i = 0 to n - 1 do
      Block_cache.add cache ~file:"f" ~offset:(i mod 16) (String.make 32 'x');
      ignore (Block_cache.find cache ~file:"f" ~offset:(i mod 16));
      Io_stats.record_sync stats;
      Histogram.add hist (float_of_int i)
    done
  in
  join_all
    (spawn_all
       [
         writer 0;
         writer 1;
         reader;
         reader;
         submitter;
         submitter;
         leaf_hammer;
         leaf_hammer;
       ]);
  Group_commit.stop gc;
  Sh.stop sh;
  Alcotest.(check int)
    "runtime never contradicted an annotation" 0
    (Sync.guard_contradiction_count ());
  Alcotest.(check int) "no order violations" v0 (Sync.violation_count ());
  Alcotest.(check int) "nothing held at quiescence" 0 (Sync.held_count ())

let suite =
  [
    Alcotest.test_case "witness mechanism" `Quick test_witness_mechanism;
    Alcotest.test_case "concurrent agreement" `Quick test_concurrent_agreement;
  ]
