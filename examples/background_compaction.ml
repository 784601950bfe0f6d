(* Background compaction: the paper's deployment model (§IV-A runs seven
   compaction threads). A one-shard concurrent front puts a WipDB store
   behind a lock and runs a one-worker compaction pool, so foreground
   writes return after the WAL append + MemTable insert and merge-sorting
   happens off the critical path. Reader threads run concurrently with the
   writer.

   Run with:  dune exec examples/background_compaction.exe *)

module C = Wip_concurrent.Sharded_store.Make (Wipdb.Store)

let key i = Printf.sprintf "%012d" i

let () =
  let env = Wip_storage.Env.in_memory () in
  let cfg =
    {
      Wipdb.Config.default with
      Wipdb.Config.memtable_items = 512;
      memtable_bytes = 64 * 1024;
      (* Leave all eligible compactions to the background thread: the write
         path only does mandatory work (splits, over-limit levels). *)
      compaction_budget_per_batch = 0;
      name = "bgdb";
    }
  in
  let db = Wipdb.Store.create ~env cfg in
  let c =
    C.create ~pool_threads:1 ~budget_per_cycle:(512 * 1024) ~idle_sleep:0.0002
      [ ("", db) ]
  in

  let n = 120_000 in
  let write_done = Atomic.make false in
  let reads = Atomic.make 0 and hits = Atomic.make 0 in

  let writer () =
    let rng = Wip_util.Rng.create ~seed:1L in
    for i = 1 to n do
      C.put c
        ~key:(key (Wip_util.Rng.int rng 500_000))
        ~value:(Printf.sprintf "value-%08d" i)
    done;
    Atomic.set write_done true
  in
  let reader seed () =
    let rng = Wip_util.Rng.create ~seed in
    while not (Atomic.get write_done) do
      let k = key (Wip_util.Rng.int rng 500_000) in
      Atomic.incr reads;
      match C.get c k with Some _ -> Atomic.incr hits | None -> ()
    done
  in

  let t0 = Unix.gettimeofday () in
  let threads =
    Thread.create writer ()
    :: List.map (fun s -> Thread.create (reader s) ()) [ 2L; 3L; 4L ]
  in
  List.iter Thread.join threads;
  let dt = Unix.gettimeofday () -. t0 in
  C.stop c;

  Printf.printf "writer: %d puts in %.2f s (%.0f ops/s)\n" n dt
    (float_of_int n /. dt);
  Printf.printf "readers (3 threads): %d gets, %d hits, concurrent with writes\n"
    (Atomic.get reads) (Atomic.get hits);
  C.with_shard c ~key:"" (fun db ->
      Printf.printf
        "background compactor: %d compactions, %d splits, %d buckets, WA %.2f\n"
        (Wipdb.Store.compaction_count db)
        (Wipdb.Store.split_count db)
        (Wipdb.Store.bucket_count db)
        (Wip_storage.Io_stats.write_amplification (Wip_storage.Env.stats env)));
  Printf.printf "compactor cycles that did work: %d\n" (C.compaction_cycles c);
  (* Everything remains readable after the compactor drains. *)
  let sample = C.scan c ~lo:(key 0) ~hi:(key 500_000) ~limit:5 () in
  Printf.printf "first keys: %s\n"
    (String.concat ", " (List.map fst sample));
  print_endline "background compaction example OK"
