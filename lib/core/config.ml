type t = {
  l_max : int;
  t_sublevels : int;
  split_fanout : int;
  bucket_capacity_bytes : int;
  memtable_items : int;
  memtable_bytes : int;
  initial_buckets : int;
  initial_key_space : int64;
  min_count : int;
  max_count : int;
  read_weight : float;
  bits_per_key : int;
  block_cache_bytes : int;
  memtable_structure : Wip_memtable.Memtable.structure;
  adaptive_memtable : bool;
  range_query_switch_threshold : int;
  compaction_budget_per_batch : int;
  wal_segment_bytes : int;
  wal_size_threshold : int;
  bucket_merge_bytes : int;
  admission_control : bool;
  slowdown_watermark_bytes : int;
  stop_watermark_bytes : int;
  stall_deadline_s : float;
  sorted_view : bool;
  ph_index : bool;
  name : string;
}

let default =
  {
    l_max = 3;
    t_sublevels = 8;
    split_fanout = 8;
    bucket_capacity_bytes = 0;
    memtable_items = 4096;
    memtable_bytes = 512 * 1024;
    initial_buckets = 1;
    initial_key_space = 1_000_000_000L;
    min_count = 4;
    max_count = 20;
    read_weight = 10.0;
    bits_per_key = 10;
    block_cache_bytes = 0;
    memtable_structure = Wip_memtable.Memtable.Hash;
    adaptive_memtable = true;
    range_query_switch_threshold = 8;
    compaction_budget_per_batch = max_int;
    wal_segment_bytes = 1024 * 1024;
    wal_size_threshold = 64 * 1024 * 1024;
    bucket_merge_bytes = 16 * 1024;
    admission_control = true;
    slowdown_watermark_bytes = 2 * 1024 * 1024;
    stop_watermark_bytes = 4 * 1024 * 1024;
    stall_deadline_s = 1.0;
    sorted_view = true;
    ph_index = true;
    name = "WipDB";
  }

let scaled ~scale =
  {
    default with
    memtable_items = default.memtable_items * scale;
    memtable_bytes = default.memtable_bytes * scale;
    wal_segment_bytes = default.wal_segment_bytes * scale;
    wal_size_threshold = default.wal_size_threshold * scale;
    bucket_merge_bytes = default.bucket_merge_bytes * scale;
    slowdown_watermark_bytes = default.slowdown_watermark_bytes * scale;
    stop_watermark_bytes = default.stop_watermark_bytes * scale;
  }

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.l_max < 1 then err "l_max must be >= 1 (got %d)" t.l_max
  else if t.t_sublevels < 1 then err "t_sublevels must be >= 1"
  else if t.split_fanout < 2 then err "split_fanout must be >= 2"
  else if t.bucket_capacity_bytes < 0 then err "bucket_capacity_bytes must be >= 0"
  else if t.memtable_items < 1 then err "memtable_items must be >= 1"
  else if t.initial_buckets < 1 then err "initial_buckets must be >= 1"
  else if t.min_count < 1 then err "min_count must be >= 1"
  else if t.max_count < t.min_count then err "max_count must be >= min_count"
  else if t.read_weight < 0.0 then err "read_weight must be >= 0"
  else if t.slowdown_watermark_bytes < 1 then
    err "slowdown_watermark_bytes must be >= 1"
  else if t.stop_watermark_bytes < t.slowdown_watermark_bytes then
    err "stop_watermark_bytes must be >= slowdown_watermark_bytes"
  else if t.stall_deadline_s <= 0.0 then err "stall_deadline_s must be > 0"
  else Ok ()

(* Boundary j of n sits at j/n of the numeric key space, formatted exactly
   like bootstrap bucket boundaries — so when [n] divides [initial_buckets]
   every shard boundary coincides with an engine bucket boundary and a shard
   never straddles a bucket. *)
let shard_boundaries t ~shards =
  if shards < 1 then invalid_arg "Config.shard_boundaries: shards must be >= 1";
  List.init shards (fun i ->
      if i = 0 then ""
      else
        Printf.sprintf "%016Ld"
          (Int64.div
             (Int64.mul t.initial_key_space (Int64.of_int i))
             (Int64.of_int shards)))

let effective_bucket_capacity t =
  if t.bucket_capacity_bytes > 0 then t.bucket_capacity_bytes
  else t.l_max * t.t_sublevels * t.memtable_bytes

let wa_upper_bound t =
  float_of_int t.l_max
  +. (float_of_int t.split_fanout /. float_of_int (t.split_fanout - 1))
