(* Shared plumbing for the experiment harness: engine constructors over
   fresh in-memory environments, workload drivers, and table printing. *)

module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Store_intf = Wip_kv.Store_intf
module Key_codec = Wip_workload.Key_codec
module Distribution = Wip_workload.Distribution

let key_space = 1_000_000_000L

(* ------------------------------------------------------------------ *)
(* Engine constructors. [scale] grows memtable/level capacities so the
   level structure at benchmark size resembles the paper's at its size. *)

type engine = {
  label : string;
  store : Store_intf.store;
}

let wipdb_config ~scale =
  {
    (Wipdb.Config.scaled ~scale) with
    Wipdb.Config.memtable_items = 512 * scale;
    memtable_bytes = 128 * 1024 * scale;
    initial_buckets = 16;
    (* Tight enough that the default runs exercise bucket splitting, as the
       paper's Figure 6 does ("as WipDB starts to split, the number of
       buckets grows"). *)
    bucket_capacity_bytes = 768 * 1024 * scale;
    wal_segment_bytes = 256 * 1024;
    wal_size_threshold = 64 * 1024 * 1024;
  }

let make_wipdb ?(label = "WipDB") ?(cfg_adjust = fun c -> c) ~scale () =
  let cfg = cfg_adjust { (wipdb_config ~scale) with Wipdb.Config.name = label } in
  let db = Wipdb.Store.create cfg in
  { label; store = Store_intf.Store ((module Wipdb.Store), db) }

let make_wipdb_s ~scale () =
  make_wipdb ~label:"WipDB-S"
    ~cfg_adjust:(fun c ->
      { c with Wipdb.Config.memtable_structure = Wip_memtable.Memtable.Sorted })
    ~scale ()

let make_wipdb_drc ~scale () =
  make_wipdb ~label:"WipDB-DRC"
    ~cfg_adjust:(fun c -> { c with Wipdb.Config.read_weight = 0.0 })
    ~scale ()

let make_leveldb ~scale () =
  let db = Wip_lsm.Leveled.create (Wip_lsm.Leveled.leveldb_config ~scale) in
  { label = "LevelDB"; store = Store_intf.Store ((module Wip_lsm.Leveled), db) }

let make_rocksdb ~scale () =
  let db = Wip_lsm.Leveled.create (Wip_lsm.Leveled.rocksdb_config ~scale) in
  { label = "RocksDB"; store = Store_intf.Store ((module Wip_lsm.Leveled), db) }

let make_rocksdb_bigmem ~scale () =
  let db = Wip_lsm.Leveled.create (Wip_lsm.Leveled.rocksdb_bigmem_config ~scale) in
  {
    label = "RocksDB-bigmem";
    store = Store_intf.Store ((module Wip_lsm.Leveled), db);
  }

let make_pebblesdb ~scale () =
  let db = Wip_lsm.Flsm.create (Wip_lsm.Flsm.default_config ~scale) in
  { label = "PebblesDB"; store = Store_intf.Store ((module Wip_lsm.Flsm), db) }

(* ------------------------------------------------------------------ *)
(* Drivers *)

let value_of_size rng n = Bytes.to_string (Wip_util.Rng.bytes rng n)

(* Write [ops] items whose key positions come from [dist]; batch the log as
   the paper does (1000 writes per batch). Returns elapsed seconds. *)
let drive_writes ?(batch = 200) ?(value_size = 100) ?(on_progress = fun ~done_:_ -> ())
    engine dist ~ops =
  let rng = Wip_util.Rng.create ~seed:0xBEEFL in
  let t0 = Unix.gettimeofday () in
  let remaining = ref ops in
  let done_ = ref 0 in
  while !remaining > 0 do
    let n = min batch !remaining in
    let items =
      List.init n (fun _ ->
          let k = Key_codec.encode (Distribution.next dist) in
          (Wip_util.Ikey.Value, k, value_of_size rng value_size))
    in
    Store_intf.write_batch engine.store items;
    remaining := !remaining - n;
    done_ := !done_ + n;
    on_progress ~done_:!done_
  done;
  Unix.gettimeofday () -. t0

let mops v = v /. 1.0e6

(* ------------------------------------------------------------------ *)
(* Output helpers *)

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let row fmt = Printf.printf (fmt ^^ "\n%!")

(* Set by [main.exe --exact]: experiments print only what is a pure
   function of the code — device-byte counters in full, no wall-clock
   numbers — so two runs can be diffed byte for byte. *)
let exact = ref false

let human_bytes n =
  if !exact then Printf.sprintf "%d B" n
  else if n >= 1 lsl 30 then Printf.sprintf "%.2f GiB" (float_of_int n /. float_of_int (1 lsl 30))
  else if n >= 1 lsl 20 then Printf.sprintf "%.2f MiB" (float_of_int n /. float_of_int (1 lsl 20))
  else if n >= 1 lsl 10 then Printf.sprintf "%.2f KiB" (float_of_int n /. float_of_int (1 lsl 10))
  else Printf.sprintf "%d B" n
