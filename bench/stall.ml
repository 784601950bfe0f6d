(* Admission-control stall benchmark: the cost and the payoff of the write
   watermarks.

   Two identical single-engine write runs — small memtables, no inline
   compaction budget, so every byte written becomes flush + compaction debt
   — once with admission control ON (slowdown/stop watermarks gating each
   batch, the stalled writer paying the debt down) and once OFF (debt grows
   without bound). Reports per-batch latency p50/p99, stall count and time
   from Io_stats, and the maximum observed write pressure
   (MemTable bytes + maintenance debt): bounded near the stop watermark
   with admission on, proportional to total bytes written with it off.

   Writes BENCH_stall.json (schema in EXPERIMENTS.md) so successive PRs
   can diff the stall trajectory mechanically. *)

open Harness
module Config = Wipdb.Config
module Store = Wipdb.Store
module Histogram = Wip_stats.Histogram
module Key_codec = Wip_workload.Key_codec
module Rng = Wip_util.Rng

let slowdown_mark = 256 * 1024

let stop_mark = 512 * 1024

let batch_size = 16

let value_size = 128

let config ~admission name =
  {
    Config.default with
    Config.name;
    memtable_items = 256;
    memtable_bytes = 16 * 1024;
    t_sublevels = 4;
    min_count = 2;
    max_count = 8;
    initial_buckets = 2;
    initial_key_space = key_space;
    (* All maintenance is deferred debt: nothing compacts inline, so only
       admission control (or nothing) stands between the writer and
       unbounded accumulation. *)
    compaction_budget_per_batch = 0;
    admission_control = admission;
    slowdown_watermark_bytes = slowdown_mark;
    stop_watermark_bytes = stop_mark;
    stall_deadline_s = 5.0;
  }

type outcome = {
  ops_per_s : float;
  p50_us : float;
  p99_us : float;
  max_pressure : int;
  stalls : int;
  stall_ms : float;
  rejected : int;
}

let one_run ~ops ~admission =
  let db =
    Store.create (config ~admission (if admission then "st-on" else "st-off"))
  in
  let rng = Rng.create ~seed:0x57A11L in
  let h = Histogram.create () in
  let batches = ops / batch_size in
  let max_pressure = ref 0 in
  let rejected = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to batches do
    let items =
      List.init batch_size (fun _ ->
          let k = Key_codec.encode (Rng.int64 rng key_space) in
          (Wip_util.Ikey.Value, k, value_of_size rng value_size))
    in
    let bt0 = Unix.gettimeofday () in
    (match Store.try_write_batch db items with
    | Ok () -> ()
    | Error _ -> incr rejected);
    Histogram.add h ((Unix.gettimeofday () -. bt0) *. 1.0e6);
    max_pressure := max !max_pressure (Store.write_pressure db)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let stats = Wip_storage.Io_stats.snapshot (Store.io_stats db) in
  {
    ops_per_s = float_of_int (batches * batch_size) /. dt;
    p50_us = Histogram.percentile h 50.0;
    p99_us = Histogram.percentile h 99.0;
    max_pressure = !max_pressure;
    stalls = Wip_storage.Io_stats.(count stats stalls);
    stall_ms =
      float_of_int Wip_storage.Io_stats.(count stats stall_time) /. 1.0e6;
    rejected = !rejected;
  }

let run ~ops () =
  section
    (Printf.sprintf
       "stall: admission control on vs off (%d ops, watermarks %s/%s)" ops
       (human_bytes slowdown_mark) (human_bytes stop_mark));
  let on = one_run ~ops ~admission:true in
  let off = one_run ~ops ~admission:false in
  row "%-10s %12s %12s %12s %14s %8s %10s %9s" "admission" "ops/s" "p50 (us)"
    "p99 (us)" "max pressure" "stalls" "stall (ms)" "rejected";
  let print label (o : outcome) =
    row "%-10s %12.0f %12.1f %12.1f %14s %8d %10.1f %9d" label o.ops_per_s
      o.p50_us o.p99_us (human_bytes o.max_pressure) o.stalls o.stall_ms
      o.rejected
  in
  print "on" on;
  print "off" off;
  (* Admission keeps pressure within one batch's landing of the stop
     watermark; without it the debt is bounded only by the bytes written. *)
  let slack = (batch_size * (value_size + 64)) + (16 * 1024) in
  let bounded = on.max_pressure <= stop_mark + slack in
  row "pressure bound: %s <= %s + slack: %b"
    (human_bytes on.max_pressure) (human_bytes stop_mark) bounded;
  let json = "BENCH_stall.json" in
  let oc = open_out json in
  Printf.fprintf oc
    {|{
  "bench": "stall",
  "ops": %d,
  "slowdown_watermark_bytes": %d,
  "stop_watermark_bytes": %d,
  "admission_on": {
    "ops_per_sec": %.0f,
    "p50_us": %.1f,
    "p99_us": %.1f,
    "max_pressure_bytes": %d,
    "stalls": %d,
    "stall_ms": %.1f,
    "rejected": %d
  },
  "admission_off": {
    "ops_per_sec": %.0f,
    "p50_us": %.1f,
    "p99_us": %.1f,
    "max_pressure_bytes": %d,
    "stalls": %d,
    "stall_ms": %.1f,
    "rejected": %d
  },
  "pressure_bounded": %b
}
|}
    ops slowdown_mark stop_mark on.ops_per_s on.p50_us on.p99_us
    on.max_pressure on.stalls on.stall_ms on.rejected off.ops_per_s
    off.p50_us off.p99_us off.max_pressure off.stalls off.stall_ms
    off.rejected bounded;
  close_out oc;
  row "wrote %s" json;
  if not bounded then
    failwith "stall: admission control failed to bound write pressure"
