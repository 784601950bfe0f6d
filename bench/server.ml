(* Service-layer benchmark: group commit on vs off over real loopback
   sockets.

   Eight client domains hammer a served store with synchronous puts. The
   device is a fault-injected in-memory env with a scripted durable-op
   latency, so an fsync costs what an fsync costs — which is exactly the
   price group commit amortises. Two runs: group commit ON (concurrent
   commits coalesce into WAL windows, one append + one fsync per window)
   and OFF (every request pays its own append + fsync through the same
   code path). The headline is fsyncs per acked op; the paper-level claim
   is that the ON run needs at least 4x fewer at 8 concurrent clients.

   Writes BENCH_server.json (schema in EXPERIMENTS.md) so successive PRs
   can diff the coalescing behaviour mechanically. *)

open Harness
module Config = Wipdb.Config
module Store = Wipdb.Store
module Fault_env = Wip_storage.Fault_env
module Io_stats = Wip_storage.Io_stats
module Server = Wip_server.Server
module Client = Wip_server.Client
module Group_commit = Wip_server.Group_commit
module Histogram = Wip_stats.Histogram
module Key_codec = Wip_workload.Key_codec
module Rng = Wip_util.Rng

let clients = 8

let value_size = 128

(* 150 us per durable op: the ballpark of a data-center-grade NVMe fsync,
   and large enough that coalescing dominates scheduling noise. *)
let durable_op_ns = 150_000

let config name =
  {
    Config.default with
    Config.name;
    (* The run must measure commit fsyncs, not flush traffic: memtable and
       WAL thresholds sit far above the benchmark's footprint. *)
    memtable_items = 1_000_000;
    memtable_bytes = 256 * 1024 * 1024;
    wal_segment_bytes = 256 * 1024 * 1024;
    wal_size_threshold = 1024 * 1024 * 1024;
    block_cache_bytes = 0;
  }

type outcome = {
  ops_per_s : float;
  p50_us : float;
  p99_us : float;
  acked : int;
  errors : int;
  fsyncs : int;
  fsyncs_per_op : float;
  windows : int;
  requests : int;
}

let one_run ~ops ~group_commit =
  let name = if group_commit then "srv-gc-on" else "srv-gc-off" in
  let fenv = Fault_env.create () in
  Fault_env.set_latency fenv ~durable_ns:durable_op_ns;
  let db = Store.create ~env:(Fault_env.env fenv) (config name) in
  let commit batches =
    match Store.try_write_batches db (Array.to_list batches) with
    | Error e -> Array.map (fun _ -> Error e) batches
    | Ok () -> (
      match Store.log_sync db with
      | () -> Array.map (fun _ -> Ok ()) batches
      | exception Wip_kv.Store_intf.Rejected e ->
        Array.map (fun _ -> Error e) batches)
  in
  let ops_rec =
    {
      Server.get = (fun key -> Store.get db key);
      scan = (fun ~lo ~hi ~limit -> Store.scan db ~lo ~hi ?limit ());
      commit;
      stats = (fun () -> []);
    }
  in
  let syncs_before = Io_stats.(count (Store.io_stats db) syncs) in
  let srv = Server.start ~workers:clients ~group_commit ~ops:ops_rec () in
  let per_client = ops / clients in
  let client_domain c =
    Domain.spawn (fun () ->
        let conn = Client.connect ~port:(Server.port srv) () in
        let rng = Rng.create ~seed:(Int64.of_int (0x5E4 + c)) in
        let h = Histogram.create () in
        let acked = ref 0 and errors = ref 0 in
        for _ = 1 to per_client do
          let key = Key_codec.encode (Rng.int64 rng key_space) in
          let value = value_of_size rng value_size in
          let t0 = Unix.gettimeofday () in
          (match Client.put conn ~key ~value with
          | Ok () -> incr acked
          | Error _ -> incr errors);
          Histogram.add h ((Unix.gettimeofday () -. t0) *. 1.0e6)
        done;
        Client.close conn;
        (h, !acked, !errors))
  in
  let t0 = Unix.gettimeofday () in
  let domains = List.init clients client_domain in
  let results = List.map Domain.join domains in
  let dt = Unix.gettimeofday () -. t0 in
  let gc = Server.group srv in
  let windows = Group_commit.windows gc in
  let requests = Group_commit.requests gc in
  Server.stop srv;
  let syncs_after = Io_stats.(count (Store.io_stats db) syncs) in
  let hist = Histogram.create () in
  let acked = ref 0 and errors = ref 0 in
  List.iter
    (fun (h, a, e) ->
      Histogram.merge hist h;
      acked := !acked + a;
      errors := !errors + e)
    results;
  let fsyncs = syncs_after - syncs_before in
  {
    ops_per_s = float_of_int !acked /. dt;
    p50_us = Histogram.percentile hist 50.0;
    p99_us = Histogram.percentile hist 99.0;
    acked = !acked;
    errors = !errors;
    fsyncs;
    fsyncs_per_op = float_of_int fsyncs /. float_of_int (max 1 !acked);
    windows;
    requests;
  }

let run ~ops () =
  section
    (Printf.sprintf
       "server: group commit on vs off (%d ops, %d client domains, %d us/durable op)"
       ops clients (durable_op_ns / 1000));
  let on = one_run ~ops ~group_commit:true in
  let off = one_run ~ops ~group_commit:false in
  row "%-12s %10s %10s %10s %8s %8s %10s %9s" "group commit" "ops/s"
    "p50 (us)" "p99 (us)" "acked" "fsyncs" "fsyncs/op" "win size";
  let print label (o : outcome) =
    row "%-12s %10.0f %10.1f %10.1f %8d %8d %10.3f %9.1f" label o.ops_per_s
      o.p50_us o.p99_us o.acked o.fsyncs o.fsyncs_per_op
      (float_of_int o.requests /. float_of_int (max 1 o.windows))
  in
  print "on" on;
  print "off" off;
  let reduction = off.fsyncs_per_op /. on.fsyncs_per_op in
  row "fsync reduction: %.1fx (>= 4x required at %d clients)" reduction clients;
  if on.errors + off.errors > 0 then
    row "errors: on=%d off=%d" on.errors off.errors;
  let json = "BENCH_server.json" in
  let oc = open_out json in
  let emit label (o : outcome) =
    Printf.sprintf
      {|{
    "ops_per_sec": %.0f,
    "p50_us": %.1f,
    "p99_us": %.1f,
    "acked": %d,
    "errors": %d,
    "fsyncs": %d,
    "fsyncs_per_op": %.4f,
    "windows": %d,
    "requests": %d
  }|}
      o.ops_per_s o.p50_us o.p99_us o.acked o.errors o.fsyncs o.fsyncs_per_op
      o.windows o.requests
    |> fun body -> Printf.sprintf "%S: %s" label body
  in
  Printf.fprintf oc
    "{\n  \"bench\": \"server\",\n  \"ops\": %d,\n  \"clients\": %d,\n  \
     \"durable_op_ns\": %d,\n  %s,\n  %s,\n  \"fsync_reduction_x\": %.2f\n}\n"
    ops clients durable_op_ns
    (emit "group_commit_on" on)
    (emit "group_commit_off" off)
    reduction;
  close_out oc;
  row "wrote %s" json;
  if on.acked = 0 || off.acked = 0 then failwith "server: no acked ops";
  if reduction < 4.0 then
    failwith
      (Printf.sprintf
         "server: group commit reduced fsyncs/op only %.1fx (< 4x)" reduction)
