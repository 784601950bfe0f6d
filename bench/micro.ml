(* Bechamel microbenchmarks — one Test.make per paper table/figure's hot
   path: Figure 3 (MemTable insert/lookup structures), Figure 6 (write
   path), Figure 8/Table I (point-read path), Figure 10-E/Table II (scan
   path), plus substrate primitives (bloom, block coding, WAL append). *)

open Bechamel
open Toolkit
module Ikey = Wip_util.Ikey
module Memtable = Wip_memtable.Memtable

let prepared_keys n =
  let rng = Wip_util.Rng.create ~seed:0xABCDL in
  Array.init n (fun _ ->
      Printf.sprintf "%016d" (Wip_util.Rng.int rng 1_000_000_000))

(* Figure 3: hash vs skiplist memtable insert. *)
let memtable_insert structure =
  let keys = prepared_keys 4096 in
  let t =
    ref (Memtable.create ~structure ~capacity_items:10_000 ~capacity_bytes:max_int)
  in
  let i = ref 0 in
  Staged.stage (fun () ->
      let key = keys.(!i land 4095) in
      incr i;
      let ik = Ikey.make key ~seq:(Int64.of_int !i) in
      if not (Memtable.try_add !t ik "0123456789abcdef") then begin
        t :=
          Memtable.create ~structure ~capacity_items:10_000 ~capacity_bytes:max_int;
        ignore (Memtable.try_add !t ik "0123456789abcdef")
      end)

let memtable_lookup structure =
  let keys = prepared_keys 4096 in
  let t = Memtable.create ~structure ~capacity_items:8192 ~capacity_bytes:max_int in
  Array.iteri
    (fun i k -> ignore (Memtable.try_add t (Ikey.make k ~seq:(Int64.of_int i)) "v"))
    keys;
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      ignore
        (Memtable.find_with_seq t keys.(!i land 4095) ~snapshot:Int64.max_int))

(* Figure 6: the WipDB write path end to end (memtable + wal + compactions). *)
let wipdb_write () =
  let cfg =
    {
      (Harness.wipdb_config ~scale:1) with
      Wipdb.Config.initial_buckets = 8;
      name = "WipDB-micro";
    }
  in
  let db = Wipdb.Store.create cfg in
  let keys = prepared_keys 4096 in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      Wipdb.Store.put db ~key:keys.(!i land 4095) ~value:"0123456789abcdef")

(* Figure 8 / Table I: point reads on a populated store. *)
let wipdb_read () =
  let cfg =
    {
      (Harness.wipdb_config ~scale:1) with
      Wipdb.Config.initial_buckets = 8;
      name = "WipDB-micro-r";
    }
  in
  let db = Wipdb.Store.create cfg in
  let keys = prepared_keys 8192 in
  Array.iter (fun k -> Wipdb.Store.put db ~key:k ~value:"v") keys;
  Wipdb.Store.flush db;
  Wipdb.Store.maintenance db ();
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      ignore (Wipdb.Store.get db keys.(!i land 8191)))

(* Figure 10-E / Table II: short range scans. *)
let wipdb_scan () =
  let cfg =
    {
      (Harness.wipdb_config ~scale:1) with
      Wipdb.Config.initial_buckets = 8;
      name = "WipDB-micro-s";
    }
  in
  let db = Wipdb.Store.create cfg in
  for i = 0 to 8191 do
    Wipdb.Store.put db ~key:(Printf.sprintf "%016d" (i * 1000)) ~value:"v"
  done;
  Wipdb.Store.flush db;
  Wipdb.Store.maintenance db ();
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      let lo = Printf.sprintf "%016d" ((!i * 37 land 8191) * 1000) in
      let hi = Printf.sprintf "%016d" (((!i * 37 land 8191) + 50) * 1000) in
      ignore (Wipdb.Store.scan db ~lo ~hi ~limit:50 ()))

(* Substrate primitives. *)
let bloom_query () =
  let b = Wip_bloom.Bloom.create ~bits_per_key:10 ~expected_keys:10_000 in
  let keys = prepared_keys 4096 in
  Array.iter (Wip_bloom.Bloom.add b) keys;
  let e = Wip_bloom.Bloom.encode b in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      ignore (Wip_bloom.Bloom.mem_encoded e keys.(!i land 4095)))

let wal_append () =
  let env = Wip_storage.Env.in_memory () in
  let w = Wip_wal.Wal.create env () in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      Wip_wal.Wal.append_batch w ~first_seq:(Int64.of_int !i)
        [ (Ikey.Value, "key-0123456789", "value-0123456789") ])

let tests () =
  Test.make_grouped ~name:"wipdb"
    [
      Test.make ~name:"fig3/memtable-insert-hash" (memtable_insert Memtable.Hash);
      Test.make ~name:"fig3/memtable-insert-skiplist"
        (memtable_insert Memtable.Sorted);
      Test.make ~name:"fig3/memtable-lookup-hash" (memtable_lookup Memtable.Hash);
      Test.make ~name:"fig3/memtable-lookup-skiplist"
        (memtable_lookup Memtable.Sorted);
      Test.make ~name:"fig6/wipdb-put" (wipdb_write ());
      Test.make ~name:"fig8/wipdb-get" (wipdb_read ());
      Test.make ~name:"fig10e/wipdb-scan50" (wipdb_scan ());
      Test.make ~name:"substrate/bloom-query" (bloom_query ());
      Test.make ~name:"substrate/wal-append" (wal_append ());
    ]

let run () =
  Harness.section "Bechamel microbenchmarks (ns/op)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "%-40s %12.1f ns/op\n%!" name est
      | _ -> Printf.printf "%-40s (no estimate)\n%!" name)
    results
