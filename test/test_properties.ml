(* Cross-cutting property tests: invariants that must hold for arbitrary
   inputs and configurations, spanning several libraries at once. *)

module Ikey = Wip_util.Ikey
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Block = Wip_sstable.Block
module Merge = Wip_sstable.Merge
module Distribution = Wip_workload.Distribution

(* Blocks must roundtrip keys with heavy shared prefixes and arbitrary
   bytes — the prefix-compression path is the risky one. *)
let qcheck_block_prefix_compression =
  QCheck.Test.make ~name:"block roundtrips prefix-heavy binary keys" ~count:100
    QCheck.(small_list (pair small_string small_string))
    (fun raw ->
      let keys =
        raw
        |> List.mapi (fun i (a, b) ->
               (* Construct keys sharing long prefixes deliberately. *)
               ("common-prefix-" ^ a ^ "\x00\xff" ^ b, string_of_int i))
        |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
      in
      let b = Block.Builder.create () in
      List.iter (fun (k, v) -> Block.Builder.add b ~key:k ~value:v) keys;
      let raw_block = Sstable_helpers.block_contents b in
      Block.decode_all raw_block = keys)

(* The memcomparable encoding is the load-bearing invariant of the whole
   read path: every hot-path comparison is [String.compare] on encoded
   bytes, which is only correct if it sign-agrees with [Ikey.compare].
   Exercise the nasty cases on purpose: strict-prefix user keys, embedded
   NUL and 0xFF bytes, equal user keys with different sequences/kinds. *)
let qcheck_encode_order_agrees =
  let open QCheck in
  let user_gen =
    (* Small alphabet with the escape-relevant bytes so collisions, shared
       prefixes and escape sequences all occur often. *)
    Gen.(string_size (int_bound 6) ~gen:(oneofl [ '\x00'; '\x01'; 'a'; '\xff' ]))
  in
  let ikey_gen =
    Gen.map3
      (fun user seq kind ->
        Ikey.make user
          ~seq:(Int64.of_int seq)
          ~kind:(if kind then Ikey.Value else Ikey.Deletion))
      user_gen (Gen.int_bound 1000) Gen.bool
  in
  let print ik =
    Printf.sprintf "%S@%Ld/%s" ik.Ikey.user_key ik.Ikey.seq
      (Ikey.kind_to_string ik.Ikey.kind)
  in
  Test.make ~name:"String.compare on encodings sign-agrees with Ikey.compare"
    ~count:2000
    (make ~print:(QCheck.Print.pair print print) Gen.(pair ikey_gen ikey_gen))
    (fun (a, b) ->
      let sign n = Stdlib.compare n 0 in
      sign (String.compare (Ikey.encode a) (Ikey.encode b))
      = sign (Ikey.compare a b)
      (* and the roundtrip stays faithful, so the order claim is about the
         keys we think it is about *)
      && Ikey.decode (Ikey.encode a) = a)

let drain = Sstable_helpers.drain

let compact_dropping_tombstones entries =
  drain
    (Merge.compact ~drop_tombstones:true ~snapshot_floor:Int64.max_int
       [ Merge.mem (List.to_seq entries) ])

(* compact is idempotent: compacting an already-compacted stream changes
   nothing. *)
let qcheck_compact_idempotent =
  QCheck.Test.make ~name:"merge compact is idempotent" ~count:100
    QCheck.(small_list (pair (int_bound 50) (int_bound 1000)))
    (fun raw ->
      let entries =
        raw
        |> List.map (fun (k, s) ->
               ( Ikey.encode
                   (Ikey.make (Printf.sprintf "%03d" k) ~seq:(Int64.of_int s)),
                 "v" ))
        |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
      in
      let once = compact_dropping_tombstones entries in
      once = compact_dropping_tombstones once)

(* Splitting one sorted stream into chunks and merging them back is the
   identity. *)
let qcheck_merge_of_partition_is_identity =
  QCheck.Test.make ~name:"merge of a partition restores the stream" ~count:100
    QCheck.(pair (small_list (pair (int_bound 100) (int_bound 100))) (int_range 1 5))
    (fun (raw, parts) ->
      let entries =
        raw
        |> List.map (fun (k, s) ->
               ( Ikey.encode
                   (Ikey.make (Printf.sprintf "%03d" k) ~seq:(Int64.of_int s)),
                 "v" ))
        |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
      in
      let chunks = Array.make parts [] in
      List.iteri (fun i e -> chunks.(i mod parts) <- e :: chunks.(i mod parts)) entries;
      let seqs =
        Array.to_list chunks |> List.map (fun c -> List.to_seq (List.rev c))
      in
      drain (Merge.create (List.map Merge.mem seqs)) = entries)

(* Every distribution shape stays within the space bound. *)
let qcheck_distribution_bounds =
  let shape_gen =
    QCheck.Gen.oneofl
      [
        Distribution.Uniform;
        Distribution.Zipfian { theta = 0.99; scrambled = true };
        Distribution.Zipfian { theta = 0.8; scrambled = false };
        Distribution.Exponential { rate = 5.0 };
        Distribution.Reversed_exponential { rate = 12.0 };
        Distribution.Normal { mean_frac = 0.3; stddev_frac = 0.4 };
        Distribution.Sequential;
        Distribution.Latest { theta = 0.99 };
      ]
  in
  QCheck.Test.make ~name:"all distributions respect the space bound" ~count:40
    (QCheck.make shape_gen)
    (fun shape ->
      let space = 10_000L in
      let g = Distribution.make shape ~space ~seed:9L in
      Distribution.set_bound g 500L;
      let ok = ref true in
      for _ = 1 to 500 do
        let v = Distribution.next g in
        if Int64.compare v 0L < 0 || Int64.compare v space >= 0 then ok := false
      done;
      !ok)

(* Io_stats.diff algebra: diff(current, base) + base = current, per category. *)
let qcheck_io_stats_diff =
  QCheck.Test.make ~name:"io_stats diff is the counter delta" ~count:100
    QCheck.(pair (small_list (pair (int_bound 5) small_nat)) (small_list (pair (int_bound 5) small_nat)))
    (fun (first, second) ->
      let cat = function
        | 0 -> Io_stats.Flush
        | 1 -> Io_stats.Wal
        | 2 -> Io_stats.Compaction 1
        | 3 -> Io_stats.Compaction 3
        | 4 -> Io_stats.Split
        | _ -> Io_stats.Manifest
      in
      let stats = Io_stats.create () in
      List.iter (fun (c, n) -> Io_stats.record_write stats (cat c) n) first;
      let base = Io_stats.snapshot stats in
      List.iter (fun (c, n) -> Io_stats.record_write stats (cat c) n) second;
      let d = Io_stats.diff stats base in
      List.for_all
        (fun c ->
          Io_stats.written_by d (cat c)
          = Io_stats.written_by stats (cat c) - Io_stats.written_by base (cat c))
        [ 0; 1; 2; 3; 4; 5 ])

(* WipDB's WA bound holds for arbitrary (valid) small configurations. *)
let qcheck_wa_bound_random_configs =
  QCheck.Test.make ~name:"WA stays near the paper bound for random configs"
    ~count:8
    QCheck.(triple (int_range 1 4) (int_range 2 6) (int_range 2 8))
    (fun (l_max, t_sublevels, split_fanout) ->
      let cfg =
        {
          Wipdb.Config.default with
          Wipdb.Config.l_max;
          t_sublevels;
          split_fanout;
          memtable_items = 64;
          memtable_bytes = 8 * 1024;
          min_count = 2;
          max_count = max 4 t_sublevels;
          bucket_merge_bytes = 0;
          name = Printf.sprintf "q-%d-%d-%d" l_max t_sublevels split_fanout;
        }
      in
      let db = Wipdb.Store.create cfg in
      for i = 0 to 14_999 do
        Wipdb.Store.put db ~key:(Printf.sprintf "%012d" (i * 31 mod 15_000))
          ~value:"0123456789abcdef0123"
      done;
      let wa = Io_stats.write_amplification (Wipdb.Store.io_stats db) in
      (* 1.4x allowance for format framing + manifest (see test_wipdb). *)
      wa <= Wipdb.Config.wa_upper_bound cfg *. 1.4)

(* A single flipped bit anywhere on the device — sstable, WAL or manifest —
   must never surface as a wrong value. Checksums turn it into a typed
   [Env.Corruption] (or a clean loss of the damaged suffix); silent
   misreads are the one unacceptable outcome. *)
let qcheck_bit_flip_never_wrong =
  QCheck.Test.make ~name:"single bit flip never yields a wrong value" ~count:25
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (file_pick, bit_pick) ->
      let module Fault_env = Wip_storage.Fault_env in
      let cfg =
        {
          Wipdb.Config.default with
          Wipdb.Config.name = "flip";
          memtable_items = 8;
          l_max = 2;
          t_sublevels = 2;
          split_fanout = 2;
          min_count = 2;
          max_count = 2;
          initial_buckets = 1;
          adaptive_memtable = false;
          wal_segment_bytes = 1024;
          bucket_merge_bytes = 0;
          block_cache_bytes = 0;
        }
      in
      let keys = 80 in
      let value i = Printf.sprintf "val-%d" i in
      let fenv = Fault_env.create () in
      let db = Wipdb.Store.create ~env:(Fault_env.env fenv) cfg in
      for i = 0 to keys - 1 do
        Wipdb.Store.put db ~key:(Printf.sprintf "%03d" i) ~value:(value i)
      done;
      Wipdb.Store.checkpoint db;
      let files =
        Env.list_files (Fault_env.env fenv)
        |> List.filter (fun f -> Fault_env.file_size fenv f > 0)
        |> List.sort String.compare
      in
      let file = List.nth files (file_pick mod List.length files) in
      Fault_env.flip_bit fenv ~file
        ~bit:(bit_pick mod (8 * Fault_env.file_size fenv file));
      (* Corruption may be detected at recovery (manifest/WAL damage) or at
         read time (sstable damage); it may lose data; it must never lie. *)
      match Wipdb.Store.recover ~env:(Fault_env.snapshot_env fenv) cfg with
      | exception (Env.Corruption _ | Not_found) -> true
      | db2 ->
        let ok = ref true in
        for i = 0 to keys - 1 do
          match Wipdb.Store.get db2 (Printf.sprintf "%03d" i) with
          | Some v -> if not (String.equal v (value i)) then ok := false
          | None -> () (* loss of the damaged suffix is legal *)
          | exception (Env.Corruption _ | Not_found) -> ()
        done;
        !ok)

(* Recovery is an identity on reads, regardless of where writes stopped —
   on every engine, and from the manifest alone: one filler record past the
   largest default WAL segment (4 MiB) rolls the log, the next record
   lands in a fresh segment, and the flush after it reclaims every segment
   holding the model's writes, so no replayed record can hide a manifest
   replay error. *)
let qcheck_recovery =
  let engine (type a c)
      (module E : Wip_kv.Store_intf.Engine with type t = a and type config = c)
      (cfg : c) =
    let wrap db = Wip_kv.Store_intf.Store ((module E), db) in
    ((fun env -> wrap (E.create ~env cfg)), fun env -> wrap (E.recover ~env cfg))
  in
  let engines =
    [
      engine (module Wipdb.Store)
        {
          Wipdb.Config.default with
          Wipdb.Config.name = "qwip";
          memtable_items = 16;
          bucket_merge_bytes = 0;
        };
      engine (module Wip_lsm.Leveled)
        {
          (Wip_lsm.Leveled.leveldb_config ~scale:1) with
          Wip_lsm.Leveled.memtable_bytes = 1024;
          sstable_bytes = 512;
          level1_bytes = 4096;
          name = "qlvl";
        };
      engine (module Wip_lsm.Flsm)
        {
          (Wip_lsm.Flsm.default_config ~scale:1) with
          Wip_lsm.Flsm.memtable_bytes = 1024;
          max_files_per_guard = 2;
          top_level_bits = 2;
          bits_decrement = 1;
          max_levels = 3;
          name = "qflsm";
        };
    ]
  in
  let module S = Wip_kv.Store_intf in
  QCheck.Test.make ~name:"all engines recover live keys" ~count:10
    QCheck.(small_list (pair (int_bound 80) (option (int_bound 100))))
    (fun ops ->
      List.for_all
        (fun (create, recover) ->
          let env = Env.in_memory () in
          let db = create env in
          let model = Hashtbl.create 16 in
          List.iter
            (fun (k, v) ->
              let k = Printf.sprintf "%04d" k in
              match v with
              | Some v ->
                S.put db ~key:k ~value:(string_of_int v);
                Hashtbl.replace model k (Some (string_of_int v))
              | None ->
                S.delete db ~key:k;
                Hashtbl.replace model k None)
            ops;
          S.put db ~key:"~filler" ~value:(String.make (4 * 1024 * 1024) 'f');
          S.put db ~key:"~filler" ~value:"";
          S.flush db;
          S.maintenance db ();
          let db2 = recover env in
          Hashtbl.fold (fun k v acc -> acc && S.get db2 k = v) model true)
        engines)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_block_prefix_compression;
    QCheck_alcotest.to_alcotest qcheck_encode_order_agrees;
    QCheck_alcotest.to_alcotest qcheck_compact_idempotent;
    QCheck_alcotest.to_alcotest qcheck_merge_of_partition_is_identity;
    QCheck_alcotest.to_alcotest qcheck_distribution_bounds;
    QCheck_alcotest.to_alcotest qcheck_io_stats_diff;
    QCheck_alcotest.to_alcotest qcheck_wa_bound_random_configs;
    QCheck_alcotest.to_alcotest qcheck_bit_flip_never_wrong;
    QCheck_alcotest.to_alcotest qcheck_recovery;
  ]
