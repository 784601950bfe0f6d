(* Deterministic chaos harness: randomized concurrent load against the
   sharded front end while seeded transient-fault storms (and, on some
   seeds, injected device latency) hit every shard's device. Each seed is
   one fully deterministic scenario; the suite runs a fixed matrix of 8.

   Invariants asserted per seed:

   - {b no acked write lost}: every batch for which [try_write_batch]
     returned [Ok] is readable afterwards with its exact value — through
     storms, retries, stalls and degradation;
   - {b no hang past deadline}: admission stalls are bounded by
     [stall_deadline_s] and retry backoff by the policy cap, so the whole
     run finishes well inside a generous wall-clock budget;
   - {b clean terminal state}: the store ends [Healthy], or [Degraded]
     with mutations refused typed while reads still serve;
   - the fault machinery actually fired: injected faults > 0 and env-level
     retries > 0 (the storms were not scheduled past the workload).

   Every seed runs over WipDB shards; the first two also run over the
   leveled and fragmented baselines, which share WipDB's failure model. *)

module Store = Wipdb.Store
module Config = Wipdb.Config
module Env = Wip_storage.Env
module Fault_env = Wip_storage.Fault_env
module Io_stats = Wip_storage.Io_stats
module Rng = Wip_util.Rng
module Ikey = Wip_util.Ikey
module Intf = Wip_kv.Store_intf

let seeds = List.init 8 (fun i -> Int64.of_int (1009 + (37 * i)))

let base_config =
  {
    Config.default with
    Config.memtable_items = 48;
    memtable_bytes = 4 * 1024;
    t_sublevels = 4;
    min_count = 2;
    max_count = 8;
    (* Leave eligible compactions to the background pool. *)
    compaction_budget_per_batch = 0;
    name = "chaos";
  }

let shards = 2

let writer_threads = 2

let batches_per_writer = 120

(* Unique key per (writer, iteration), spread across the engine key space
   so both shards see traffic. Unique keys make "no acked write lost" a
   pure set-membership check — no overwrite races to reason about. *)
let key_of tid i =
  let slot = (i * writer_threads) + tid in
  let count = writer_threads * batches_per_writer in
  Printf.sprintf "%016Ld"
    Int64.(
      div
        (mul (of_int slot) base_config.Config.initial_key_space)
        (of_int count))

let value_of ~seed tid i = Printf.sprintf "s%Ld-t%d-%d" seed tid i

(* One shard's engine over [env], named [name]. *)
type engine =
  | Engine :
      string
      * (module Intf.Engine with type t = 'a)
      * (env:Env.t -> name:string -> 'a)
      -> engine

let wipdb =
  Engine
    ( "wipdb",
      (module Store),
      fun ~env ~name -> Store.create ~env { base_config with Config.name } )

let leveled =
  Engine
    ( "leveled",
      (module Wip_lsm.Leveled),
      fun ~env ~name ->
        Wip_lsm.Leveled.create ~env
          {
            (Wip_lsm.Leveled.leveldb_config ~scale:1) with
            Wip_lsm.Leveled.memtable_bytes = 4 * 1024;
            name;
          } )

let flsm =
  Engine
    ( "flsm",
      (module Wip_lsm.Flsm),
      fun ~env ~name ->
        Wip_lsm.Flsm.create ~env
          {
            (Wip_lsm.Flsm.default_config ~scale:1) with
            Wip_lsm.Flsm.memtable_bytes = 4 * 1024;
            name;
          } )

(* One deterministic scenario: per-shard fault env with rng-scheduled
   storms, retry-wrapped, under concurrent writers. *)
let run_scenario (Engine (_, (module E), make)) seed =
  let module Sh = Wip_concurrent.Sharded_store.Make (E) in
  let rng = Rng.create ~seed in
  let fenvs = Array.init shards (fun _ -> Fault_env.create ()) in
  let bounds = Config.shard_boundaries base_config ~shards in
  let stores =
    List.mapi
      (fun i lo ->
        let fenv = fenvs.(i) in
        (* Storms early in the op sequence so they reliably overlap the
           workload. Width up to 6 can out-last the 4-attempt retry budget
           — degradation (and recovery via probe) is part of the scenario
           space. Backoff sleeps are elided: the schedule, not the wall
           clock, is what the test pins down. *)
        let storms = 2 + Rng.int rng 3 in
        for _ = 1 to storms do
          let first_op = 3 + Rng.int rng 120 in
          let width = 1 + Rng.int rng 6 in
          Fault_env.storm fenv ~first_op ~last_op:(first_op + width)
        done;
        if Rng.int rng 4 = 0 then
          Fault_env.set_latency fenv ~durable_ns:20_000;
        let env =
          Env.with_retry
            ~seed:(Int64.add seed (Int64.of_int i))
            ~sleep_ns:(fun _ -> ())
            (Fault_env.env fenv)
        in
        (lo, make ~env ~name:(Printf.sprintf "chaos-%d" i)))
      bounds
  in
  let c =
    Sh.create ~pool_threads:2 ~idle_sleep:0.0005
      ~slowdown_watermark_bytes:(16 * 1024)
      ~stop_watermark_bytes:(64 * 1024)
      ~inflight_limit_bytes:(64 * 1024) ~stall_deadline_s:0.5 stores
  in
  let started = Unix.gettimeofday () in
  (* Per-writer journals of acknowledged writes; each is touched by exactly
     one thread until the joins below. *)
  let acked = Array.make writer_threads [] in
  let writer tid =
    for i = 0 to batches_per_writer - 1 do
      let key = key_of tid i and value = value_of ~seed tid i in
      match Sh.try_write_batch c [ (Ikey.Value, key, value) ] with
      | Ok () -> acked.(tid) <- (key, value) :: acked.(tid)
      | Error (Intf.Backpressure _) ->
        (* Refused under load: not acknowledged, nothing to verify. *)
        ()
      | Error (Intf.Store_degraded _) ->
        (* The shard went read-only under the storm; run a recovery probe
           and carry on — later writes retry against the probed state. *)
        ignore (Sh.probe c)
    done
  in
  let threads =
    List.init writer_threads (fun tid -> Thread.create writer tid)
  in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. started in
  (* Stall deadlines and the retry cap bound every wait; 60 s of wall clock
     means something hung. *)
  Alcotest.(check bool)
    (Printf.sprintf "seed %Ld: no hang (%.1f s)" seed elapsed)
    true (elapsed < 60.0);
  (* Storms are over (their op windows are long past): a probe must be able
     to report a definite terminal state. *)
  let terminal = Sh.probe c in
  Sh.stop c;
  (* No acked write lost — regardless of terminal state, reads serve. *)
  Array.iteri
    (fun tid journal ->
      List.iter
        (fun (key, value) ->
          match Sh.get c key with
          | Some v when String.equal v value -> ()
          | Some v ->
            Alcotest.failf "seed %Ld writer %d: key %s has %S, acked %S"
              seed tid key v value
          | None ->
            Alcotest.failf "seed %Ld writer %d: acked key %s lost" seed tid
              key)
        journal)
    acked;
  let total_acked = Array.fold_left (fun n j -> n + List.length j) 0 acked in
  Alcotest.(check bool)
    (Printf.sprintf "seed %Ld: workload made progress" seed)
    true
    (total_acked > batches_per_writer / 2);
  (* Terminal state is Healthy, or cleanly Degraded: mutations refused with
     the typed error, reads still serving (verified above). *)
  (match terminal with
  | Intf.Healthy -> (
    match
      Sh.try_write_batch c [ (Ikey.Value, key_of 0 0, "post-recovery") ]
    with
    | Ok () -> ()
    | Error e ->
      Alcotest.failf "seed %Ld: healthy store refused a write: %s" seed
        (Intf.write_error_to_string e))
  | Intf.Degraded _ -> (
    match
      Sh.try_write_batch c [ (Ikey.Value, key_of 0 0, "post-degrade") ]
    with
    | Error (Intf.Store_degraded _) -> ()
    | Ok () ->
      Alcotest.failf "seed %Ld: degraded store accepted a mutation" seed
    | Error (Intf.Backpressure _ as e) ->
      Alcotest.failf "seed %Ld: degraded store reported %s" seed
        (Intf.write_error_to_string e)));
  (* The scenario actually exercised the machinery under test. *)
  let faults, retries =
    Array.fold_left
      (fun (f, r) fenv ->
        let stats = Env.stats (Fault_env.env fenv) in
        (f + Io_stats.(count stats faults), r + Io_stats.(count stats retries)))
      (0, 0) fenvs
  in
  Alcotest.(check bool)
    (Printf.sprintf "seed %Ld: storms fired (faults=%d)" seed faults)
    true (faults > 0);
  Alcotest.(check bool)
    (Printf.sprintf "seed %Ld: retries engaged (retries=%d)" seed retries)
    true (retries > 0)

let suite =
  List.map
    (fun seed ->
      Alcotest.test_case
        (Printf.sprintf "storm seed %Ld" seed)
        `Quick
        (fun () -> run_scenario wipdb seed))
    seeds
  @ List.concat_map
      (fun (Engine (label, _, _) as engine) ->
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "storm seed %Ld %s" seed label)
              `Quick
              (fun () -> run_scenario engine seed))
          (List.filteri (fun i _ -> i < 2) seeds))
      [ leveled; flsm ]
