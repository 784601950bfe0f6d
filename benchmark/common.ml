(* What the load generator and the server under test must agree on: the
   stack's fixed sizing, the key layout and the value format. None of these
   is a flag — two results are comparable only when they ran the same
   stack, so changing one of them is a change to the benchmark. *)

module Config = Wipdb.Config
module Key_codec = Wip_workload.Key_codec

(* Sized for a 2-core machine. *)
let shards = 2

let server_workers = 2

let pool_threads = 1

(* Memtables are per bucket. At 64 KiB a bucket flushes after about 530
   writes, so the write-heavy workloads flush, compact and split inside
   one measured window; the 5% inserts of scan_zipf do not fill one. *)
let memtable_bytes = 64 * 1024

let memtable_items = 640

let block_cache_bytes_per_shard = 4 * 1024 * 1024

(* 200k records of 16 B keys and 100 B values: about 22 MiB of data
   against 8 MiB of block cache. *)
let records = 200_000

let value_bytes = 100

let key_space = 1_000_000_000L

(* Records are spread over the whole numeric key space: raw ids in
   [0, records) would all fall into the first shard of
   [Config.shard_boundaries], which splits [0, 1e9) evenly. *)
let stride = Int64.div key_space (Int64.of_int records)

let config shard =
  {
    Config.default with
    Config.name = Printf.sprintf "wipdb.shard-%d" shard;
    (* The pool compacts; the serving path must not compact inline. *)
    compaction_budget_per_batch = 0;
    memtable_bytes;
    memtable_items;
    block_cache_bytes = block_cache_bytes_per_shard;
  }

let boundaries = Config.shard_boundaries Config.default ~shards

let key_of_pos = Key_codec.encode

let record_pos r = Int64.mul (Int64.of_int r) stride

let record_key r = key_of_pos (record_pos r)

(* A value is [key#counter#filler], [value_bytes] long, [counter] in 8
   decimal digits. It names the key it belongs to and how many writes that
   key has seen, so a reader can tell a value of the wrong key or a stale
   value from a correct one; the filler is derived from both so a torn
   value does not parse back. *)
let filler_base ~key ~counter =
  let h = ref counter in
  String.iter (fun c -> h := (!h * 31) + Char.code c) key;
  !h land 0xffff

let filler base i = Char.chr (97 + ((base + (i * 7)) mod 26))

let value ~key ~counter =
  let head = Printf.sprintf "%s#%08d#" key counter in
  let base = filler_base ~key ~counter and h = String.length head in
  String.init value_bytes (fun i -> if i < h then head.[i] else filler base (i - h))

(* [Some counter] when [v] is exactly a value written for [key]. Runs on
   every reply wipbench checks, so it compares in place rather than
   rebuilding the expected value. *)
let counter_of ~key v =
  let kl = String.length key in
  let h = kl + 10 in
  let rec same_key i = i = kl || (v.[i] = key.[i] && same_key (i + 1)) in
  let rec digits i acc =
    if i = kl + 9 then Some acc
    else
      match v.[i] with
      | '0' .. '9' as c -> digits (i + 1) ((acc * 10) + Char.code c - 48)
      | _ -> None
  in
  if String.length v <> value_bytes || v.[kl] <> '#' || v.[kl + 9] <> '#'
     || not (same_key 0)
  then None
  else
    match digits (kl + 1) 0 with
    | None -> None
    | Some counter ->
      let base = filler_base ~key ~counter in
      let rec rest i = i = value_bytes || (v.[i] = filler base (i - h) && rest (i + 1)) in
      if rest h then Some counter else None

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The closed loop's shape: each of [client_domains] domains owns one
   connection with [pipeline] requests in flight. *)
let client_domains = 2

let pipeline = 16

(* Set-ups per run: set-up time is reported as their median, so that one
   slow set-up does not move a gated metric. *)
let setups = 3

let warmup_s = 5.0
