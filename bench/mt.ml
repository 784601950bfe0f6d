(* Multi-threaded scaling of the sharded front-end: ops/s at 1/2/4/8
   foreground threads against 8 shards with the paper's 7-thread background
   compaction pool (§IV-A). Each round rebuilds and preloads a fresh store,
   then splits [ops] mixed operations (~90% get / 10% put, uniform keys)
   across the foreground domains; per-domain latency histograms are merged
   for the percentile columns. *)

open Harness
module Config = Wipdb.Config
module Key_codec = Wip_workload.Key_codec
module Rng = Wip_util.Rng
module Histogram = Wip_stats.Histogram
module Sharded = Wip_concurrent.Sharded_store.Make (Wipdb.Store)

let shards = 8

let pool_threads = 7

let thread_counts = [ 1; 2; 4; 8 ]

(* Small memtables so flushes pile up sublevels and background compaction
   has real work during the measured window; the write path never compacts
   inline ([compaction_budget_per_batch = 0]). *)
let shard_config i =
  {
    Config.default with
    Config.name = Printf.sprintf "mt-s%d" i;
    memtable_items = 128;
    memtable_bytes = 16 * 1024;
    t_sublevels = 4;
    min_count = 2;
    max_count = 8;
    initial_buckets = 2;
    compaction_budget_per_batch = 0;
    initial_key_space = key_space;
  }

(* Key [i] of [n] spread uniformly across the whole key space so traffic
   covers every shard. *)
let key_of ~n i =
  Key_codec.encode Int64.(div (mul (of_int i) key_space) (of_int n))

let build_store () =
  let bounds = Config.shard_boundaries (shard_config 0) ~shards in
  Sharded.create ~pool_threads ~idle_sleep:0.0002
    (List.mapi (fun i lo -> (lo, Wipdb.Store.create (shard_config i))) bounds)

let preload c ~keys ~value =
  for i = 0 to keys - 1 do
    Sharded.put c ~key:(key_of ~n:keys i) ~value
  done

(* One foreground worker: [per_domain] ops, ~90% get / 10% put, recording
   per-op latency in microseconds. *)
let foreground c ~keys ~value ~seed ~per_domain h () =
  let rng = Rng.create ~seed in
  for _ = 1 to per_domain do
    let k = key_of ~n:keys (Rng.int rng keys) in
    let t0 = Unix.gettimeofday () in
    (if Rng.int rng 10 = 0 then Sharded.put c ~key:k ~value
     else ignore (Sharded.get c k));
    Histogram.add h ((Unix.gettimeofday () -. t0) *. 1.0e6)
  done

type round_result = {
  r_threads : int;
  r_ops_per_s : float;
  r_p50 : float;
  r_p99 : float;
  r_cycles : int;
  r_compactions : int;
  (* Resilience counters, summed over all shard stats from one consistent
     per-shard snapshot each. *)
  r_stalls : int;
  r_stall_ms : float;
  r_retries : int;
  r_degraded : int;
}

let round ~ops ~threads ~value =
  let keys = max 1000 (ops / 2) in
  let c = build_store () in
  preload c ~keys ~value;
  let cycles0 = Sharded.compaction_cycles c in
  let per_domain = ops / threads in
  let merged = Histogram.create () in
  let t0 = Unix.gettimeofday () in
  let ds =
    List.init threads (fun d ->
        let h = Histogram.create () in
        let dom =
          Domain.spawn
            (foreground c ~keys ~value
               ~seed:(Int64.of_int (0xC0FFEE + d))
               ~per_domain h)
        in
        (dom, h))
  in
  List.iter
    (fun (dom, h) ->
      Domain.join dom;
      Histogram.merge merged h)
    ds;
  let dt = Unix.gettimeofday () -. t0 in
  let cycles = Sharded.compaction_cycles c - cycles0 in
  Sharded.stop c;
  let compactions =
    Sharded.fold_shards c ~init:0 ~f:(fun acc s ->
        acc + Wipdb.Store.compaction_count s)
  in
  let stalls, stall_ns, retries, degraded =
    Sharded.fold_shards c ~init:(0, 0, 0, 0)
      ~f:(fun (st, sn, re, dg) s ->
        let io = Wip_storage.Io_stats.snapshot (Wipdb.Store.io_stats s) in
        ( st + Wip_storage.Io_stats.(count io stalls),
          sn + Wip_storage.Io_stats.(count io stall_time),
          re + Wip_storage.Io_stats.(count io retries),
          dg + Wip_storage.Io_stats.(count io degraded_transitions) ))
  in
  {
    r_threads = threads;
    r_ops_per_s = float_of_int (threads * per_domain) /. dt;
    r_p50 = Histogram.percentile merged 50.0;
    r_p99 = Histogram.percentile merged 99.0;
    r_cycles = cycles;
    r_compactions = compactions;
    r_stalls = stalls;
    r_stall_ms = float_of_int stall_ns /. 1.0e6;
    r_retries = retries;
    r_degraded = degraded;
  }

let run ~ops () =
  section
    (Printf.sprintf
       "mt: sharded front-end scaling (%d shards, %d-thread pool, %d ops/round)"
       shards pool_threads ops);
  let value = String.make 100 'v' in
  row "%-8s %12s %9s %12s %12s %12s %12s %7s %9s" "threads" "ops/s" "speedup"
    "p50 (us)" "p99 (us)" "pool cycles" "compactions" "stalls" "retries";
  let base = ref None in
  let results =
    List.map
      (fun threads ->
        let r = round ~ops ~threads ~value in
        let b =
          match !base with
          | None ->
            base := Some r.r_ops_per_s;
            r.r_ops_per_s
          | Some b -> b
        in
        row "%-8d %12.0f %8.2fx %12.1f %12.1f %12d %12d %7d %9d" threads
          r.r_ops_per_s (r.r_ops_per_s /. b) r.r_p50 r.r_p99 r.r_cycles
          r.r_compactions r.r_stalls r.r_retries;
        r)
      thread_counts
  in
  (* Machine-readable trail, resilience counters included. *)
  let json = "BENCH_mt.json" in
  let oc = open_out json in
  Printf.fprintf oc "{\n  \"bench\": \"mt\",\n  \"ops\": %d,\n  \"rounds\": [" ops;
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "%s\n    { \"threads\": %d, \"ops_per_sec\": %.0f, \"p50_us\": %.1f, \
         \"p99_us\": %.1f,\n\
        \      \"pool_cycles\": %d, \"compactions\": %d, \"stalls\": %d, \
         \"stall_ms\": %.1f,\n\
        \      \"retries\": %d, \"degraded_transitions\": %d }"
        (if i = 0 then "" else ",")
        r.r_threads r.r_ops_per_s r.r_p50 r.r_p99 r.r_cycles r.r_compactions
        r.r_stalls r.r_stall_ms r.r_retries r.r_degraded)
    results;
  Printf.fprintf oc "\n  ]\n}\n";
  close_out oc;
  row "wrote %s" json
