(* Tests for the sharded concurrent front: key routing, cross-shard batches
   and scans, the parallel compaction pool, and a writer/reader stress run
   that doubles as the torn-value check for the shared statistics and the
   block cache counters. *)

module Sh = Wip_concurrent.Sharded_store.Make (Wipdb.Store)
module Config = Wipdb.Config
module Block_cache = Wip_storage.Block_cache
module Histogram = Wip_stats.Histogram

let base_config =
  {
    Config.default with
    Config.memtable_items = 64;
    memtable_bytes = 8 * 1024;
    t_sublevels = 4;
    min_count = 2;
    max_count = 8;
    (* Leave eligible compactions entirely to the background pool. *)
    compaction_budget_per_batch = 0;
    name = "shard";
  }

(* Spread [i] of [count] uniformly across the engine key space so keys
   actually land on different shards (shard boundaries live at fractions of
   [initial_key_space], formatted "%016Ld"). *)
let key_of ~count i =
  Printf.sprintf "%016Ld"
    Int64.(
      div
        (mul (of_int i) base_config.Config.initial_key_space)
        (of_int count))

let mk_store ?(shards = 4) ?(pool_threads = 2) () =
  let bounds = Config.shard_boundaries base_config ~shards in
  let stores =
    List.mapi
      (fun i lo ->
        let cfg = { base_config with Config.name = Printf.sprintf "shard-%d" i } in
        (lo, Wipdb.Store.create cfg))
      bounds
  in
  Sh.create ~pool_threads ~idle_sleep:0.0005 stores

let test_routing_and_shape () =
  let c = mk_store ~shards:4 () in
  Alcotest.(check int) "shard count" 4 (Sh.shard_count c);
  Alcotest.(check int) "pool size" 2 (Sh.pool_size c);
  let n = 400 in
  for i = 0 to n - 1 do
    Sh.put c ~key:(key_of ~count:n i) ~value:(string_of_int i)
  done;
  for i = 0 to n - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "key %d" i)
      (Some (string_of_int i))
      (Sh.get c (key_of ~count:n i))
  done;
  (* Every shard saw a share of the traffic. *)
  let populated =
    Sh.fold_shards c ~init:0 ~f:(fun acc s ->
        if Wipdb.Store.sequence s > 0L then acc + 1 else acc)
  in
  Alcotest.(check int) "all shards populated" 4 populated;
  Sh.stop c

let test_invalid_partitions () =
  let mk bounds =
    Sh.create ~pool_threads:0
      (List.map (fun lo -> (lo, Wipdb.Store.create base_config)) bounds)
  in
  Alcotest.check_raises "empty" (Invalid_argument
    "Sharded_store.create: at least one shard") (fun () -> ignore (mk []));
  (match mk [ "a"; "b" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "first bound must be \"\"");
  match mk [ ""; "m"; "m" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bounds must be strictly increasing"

let test_cross_shard_write_batch () =
  let c = mk_store ~shards:4 () in
  let n = 40 in
  (* One batch spanning every shard, including a delete of a key written by
     the same batch's predecessor. *)
  Sh.put c ~key:(key_of ~count:n 1) ~value:"doomed";
  let batch =
    List.init n (fun i -> (Wip_util.Ikey.Value, key_of ~count:n i, "b" ^ string_of_int i))
    @ [ (Wip_util.Ikey.Deletion, key_of ~count:n 1, "") ]
  in
  Sh.write_batch c batch;
  Alcotest.(check (option string)) "deleted" None (Sh.get c (key_of ~count:n 1));
  for i = 0 to n - 1 do
    if i <> 1 then
      Alcotest.(check (option string))
        (Printf.sprintf "batch key %d" i)
        (Some ("b" ^ string_of_int i))
        (Sh.get c (key_of ~count:n i))
  done;
  Sh.flush c;
  Alcotest.(check (option string)) "still deleted after flush" None
    (Sh.get c (key_of ~count:n 1));
  Sh.stop c

let test_scan_across_shards () =
  let c = mk_store ~shards:4 () in
  let n = 200 in
  for i = 0 to n - 1 do
    Sh.put c ~key:(key_of ~count:n i) ~value:(string_of_int i)
  done;
  (* Range spanning all four shards. *)
  let lo = key_of ~count:n 10 and hi = key_of ~count:n 190 in
  let r = Sh.scan c ~lo ~hi () in
  Alcotest.(check int) "span size" 180 (List.length r);
  let rec ordered = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if String.compare a b >= 0 then Alcotest.fail "scan out of order";
      ordered rest
    | _ -> ()
  in
  ordered r;
  Alcotest.(check string) "first" (string_of_int 10) (snd (List.hd r));
  (* Limit cuts across the shard merge, not per shard. *)
  let limited = Sh.scan c ~lo ~hi ~limit:7 () in
  Alcotest.(check int) "limit" 7 (List.length limited);
  Alcotest.(check (list string)) "limited prefix"
    (List.filteri (fun i _ -> i < 7) (List.map snd r))
    (List.map snd limited);
  (* Empty and inverted ranges. *)
  Alcotest.(check int) "inverted" 0 (List.length (Sh.scan c ~lo:hi ~hi:lo ()));
  Sh.stop c

(* Engine wrapper counting the scans that reach one watched store — the
   witness that a lazily visited shard's engine was never asked. *)
module Counting = struct
  include Wipdb.Store

  let watched : Wipdb.Store.t option Atomic.t = Atomic.make None

  let calls = Atomic.make 0

  let count s =
    match Atomic.get watched with
    | Some w when w == s -> Atomic.incr calls
    | _ -> ()

  let scan s ~lo ~hi ?limit () =
    count s;
    Wipdb.Store.scan s ~lo ~hi ?limit ()

  let scan_at s ~lo ~hi ?limit ~snapshot () =
    count s;
    Wipdb.Store.scan_at s ~lo ~hi ?limit ~snapshot ()
end

module Csh = Wip_concurrent.Sharded_store.Make (Counting)

(* Two shards split at key [n / 2]; the key space's end as scan [hi], as a
   YCSB-E scan sends it. *)
let two_shards ~n =
  let stores =
    List.mapi
      (fun i lo ->
        let cfg = { base_config with Config.name = Printf.sprintf "shard-%d" i } in
        (lo, Wipdb.Store.create cfg))
      (Config.shard_boundaries base_config ~shards:2)
  in
  Atomic.set Counting.watched (Some (snd (List.nth stores 1)));
  Atomic.set Counting.calls 0;
  let c = Csh.create ~pool_threads:0 stores in
  for i = 0 to n - 1 do
    Csh.put c ~key:(key_of ~count:n i) ~value:(string_of_int i)
  done;
  c

let scan_end = String.make 17 '\xff'

(* Run [f] on another domain while this one holds the lock of the shard
   owning [key]; fail if [f] does not finish within 5 s (it is blocked on
   that lock). *)
let while_shard_locked c ~key f =
  let held = Atomic.make false and release = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        Csh.with_shard c ~key (fun _ ->
            Atomic.set held true;
            while not (Atomic.get release) do Domain.cpu_relax () done))
  in
  while not (Atomic.get held) do Domain.cpu_relax () done;
  let result = Atomic.make None in
  let worker = Domain.spawn (fun () -> Atomic.set result (Some (f ()))) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get result = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  let in_time = Atomic.get result in
  Atomic.set release true;
  Domain.join holder;
  Domain.join worker;
  match in_time with
  | Some r -> r
  | None -> Alcotest.fail "scan blocked on a shard it had no need to visit"

let test_scan_lock_protocol () =
  let n = 200 in
  let c = two_shards ~n in
  let keys lo_i len = List.init len (fun k -> string_of_int (lo_i + k)) in
  let scan ?limit lo_i =
    List.map snd (Csh.scan c ~lo:(key_of ~count:n lo_i) ~hi:scan_end ?limit ())
  in
  (* Satisfied inside shard 0: shard 1 is neither asked nor locked. *)
  let rows =
    while_shard_locked c ~key:(key_of ~count:n (n - 1)) (fun () ->
        scan ~limit:5 10)
  in
  Alcotest.(check (list string)) "within shard 0" (keys 10 5) rows;
  Alcotest.(check int) "shard 1 engine untouched" 0 (Atomic.get Counting.calls);
  (* Exactly filling shard 0 still leaves shard 1 alone. *)
  Alcotest.(check (list string)) "fills shard 0" (keys 90 10) (scan ~limit:10 90);
  Alcotest.(check int) "shard 1 still untouched" 0 (Atomic.get Counting.calls);
  (* Spilling across the boundary asks shard 1 for the remainder only. *)
  List.iter
    (fun limit ->
      Alcotest.(check (list string))
        (Printf.sprintf "spill limit %d" limit)
        (keys 97 (min limit (n - 97)))
        (scan ~limit 97))
    [ 4; 7; 103; 500 ];
  Alcotest.(check int) "shard 1 asked once per spill" 4
    (Atomic.get Counting.calls);
  Alcotest.(check (list string)) "no limit" (keys 150 50) (scan 150);
  Alcotest.(check (list string)) "no limit, both shards" (keys 60 140) (scan 60);
  Atomic.set Counting.calls 0;
  List.iter
    (fun limit ->
      Alcotest.(check (list string))
        (Printf.sprintf "limit %d" limit)
        [] (scan ~limit 97))
    [ 0; -1; min_int ];
  Alcotest.(check int) "clamped limits touch no shard 1" 0
    (Atomic.get Counting.calls);
  (* A pinned snapshot answers across the boundary as of its cut. *)
  let snap = Csh.snapshot c in
  for i = 0 to n - 1 do
    Csh.put c ~key:(key_of ~count:n i) ~value:"new"
  done;
  Csh.put c ~key:(key_of ~count:n 99 ^ "x") ~value:"new";
  let at ?limit lo_i =
    List.map snd
      (Csh.scan_at c ~lo:(key_of ~count:n lo_i) ~hi:scan_end ?limit
         ~snapshot:snap ())
  in
  Alcotest.(check (list string)) "snapshot spill" (keys 95 10) (at ~limit:10 95);
  Alcotest.(check (list string)) "snapshot, no limit" (keys 95 105) (at 95);
  Alcotest.(check (list string)) "snapshot, zero limit" [] (at ~limit:0 95);
  Csh.release c snap;
  Alcotest.(check (list string)) "live spill sees the rewrite"
    [ "new"; "new"; "new" ] (scan ~limit:3 98);
  Csh.stop c

let test_pool_compacts_in_background () =
  let c = mk_store ~shards:4 ~pool_threads:3 () in
  let n = 3000 in
  for i = 0 to (3 * n) - 1 do
    Sh.put c ~key:(key_of ~count:n (i mod n)) ~value:("v" ^ string_of_int i)
  done;
  Sh.stop c;
  let compactions =
    Sh.fold_shards c ~init:0 ~f:(fun acc s -> acc + Wipdb.Store.compaction_count s)
  in
  Alcotest.(check bool)
    (Printf.sprintf "compactions ran (%d over %d pool cycles)" compactions
       (Sh.compaction_cycles c))
    true (compactions > 0);
  Alcotest.(check int) "drained" 0 (Sh.maintenance_pending c);
  for i = 0 to n - 1 do
    if Sh.get c (key_of ~count:n i) = None then Alcotest.failf "lost key %d" i
  done

(* N writer domains + M reader domains over disjoint and overlapping
   ranges. Every read must return a previously-written value or None —
   never a torn value — and every scan across a shard boundary must be a
   consistent cut of the cross-shard batches. *)
let test_stress_writers_readers () =
  let c = mk_store ~shards:4 ~pool_threads:2 () in
  let writers = 4 and readers = 4 in
  let per_writer = 600 in
  let disjoint = writers * per_writer in
  (* Overlap range: a band of keys every writer fights over. *)
  let overlap = 64 in
  let overlap_key j = "ovl:" ^ Printf.sprintf "%04d" j in
  (* Cut band: [per_side] keys on each side of every shard boundary, all
     rewritten by one batch per generation. *)
  let bounds = Array.of_list (Config.shard_boundaries base_config ~shards:4) in
  let per_side = 2 and generations = 200 in
  let cut_lo b = Printf.sprintf "%016Ld.cut" (Int64.pred (Int64.of_string bounds.(b))) in
  let cut_keys =
    List.concat_map
      (fun b ->
        List.init per_side (fun j -> cut_lo b ^ string_of_int j)
        @ List.init per_side (fun j -> bounds.(b) ^ ".cut" ^ string_of_int j))
      [ 1; 2; 3 ]
  in
  let cut_writer () =
    for g = 1 to generations do
      let v = string_of_int g in
      ignore
        (Sh.try_write_batch c
           (List.map (fun k -> (Wip_util.Ikey.Value, k, v)) cut_keys))
    done
  in
  let is_cut k =
    let n = String.length k in
    n > 20 && String.sub k 16 4 = ".cut"
  in
  let failures = Atomic.make 0 and torn_cuts = Atomic.make 0 in
  let writer w () =
    for i = 0 to per_writer - 1 do
      let idx = (w * per_writer) + i in
      let k = key_of ~count:disjoint idx in
      Sh.put c ~key:k ~value:(Printf.sprintf "w%d:%s" w k);
      if i mod 7 = 0 then begin
        let j = (idx * 13) mod overlap in
        Sh.put c ~key:(overlap_key j)
          ~value:(Printf.sprintf "%s#%d" (overlap_key j) w)
      end
    done
  in
  let reader _ () =
    for _ = 0 to (2 * disjoint) - 1 do
      let idx = Random.int disjoint in
      let k = key_of ~count:disjoint idx in
      (match Sh.get c k with
      | None -> ()
      | Some v ->
        (* The only writer of this key is its range owner: the value is
           either absent or exactly what that writer put. *)
        let w = idx / per_writer in
        if v <> Printf.sprintf "w%d:%s" w k then Atomic.incr failures);
      let j = Random.int overlap in
      (match Sh.get c (overlap_key j) with
      | None -> ()
      | Some v ->
        (* Contended key: any writer may own it, but the value must be a
           well-formed write, never an interleaving of two. *)
        let prefix = overlap_key j ^ "#" in
        let plen = String.length prefix in
        if
          String.length v <= plen
          || String.sub v 0 plen <> prefix
          || int_of_string_opt (String.sub v plen (String.length v - plen))
             = None
        then Atomic.incr failures);
      (* A limit that may stop on either side of the boundary. *)
      let b = 1 + Random.int 3 in
      let limit = 1 + Random.int ((2 * per_side) + 2) in
      let rows = Sh.scan c ~lo:(cut_lo b) ~hi:"~" ~limit () in
      if List.length rows > limit then Atomic.incr failures;
      match List.filter (fun (k, _) -> is_cut k) rows with
      | (_, v) :: rest ->
        if List.exists (fun (_, v') -> v' <> v) rest then Atomic.incr torn_cuts
      | [] -> ()
    done
  in
  let cutter = Domain.spawn cut_writer in
  let ds =
    List.init writers (fun w -> Domain.spawn (writer w))
    @ List.init readers (fun r -> Domain.spawn (reader r))
  in
  List.iter Domain.join (cutter :: ds);
  Sh.stop c;
  Alcotest.(check int) "no torn values" 0 (Atomic.get failures);
  Alcotest.(check int) "consistent scan cuts" 0 (Atomic.get torn_cuts);
  for idx = 0 to disjoint - 1 do
    let k = key_of ~count:disjoint idx in
    let w = idx / per_writer in
    Alcotest.(check (option string))
      (Printf.sprintf "final key %d" idx)
      (Some (Printf.sprintf "w%d:%s" w k))
      (Sh.get c k)
  done

let test_block_cache_counters_under_contention () =
  let cache = Block_cache.create ~capacity_bytes:(64 * 1024) in
  let domains = 4 and per_domain = 20_000 in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              let file = Printf.sprintf "f%d" (i mod 8) in
              let offset = (d + i) mod 32 in
              (match Block_cache.find cache ~file ~offset with
              | Some _ -> ()
              | None -> Block_cache.add cache ~file ~offset "0123456789abcdef");
              ignore (Block_cache.used_bytes cache)
            done))
  in
  List.iter Domain.join ds;
  (* Exactly one counter bumps per lookup — lost updates would break this. *)
  let cc = Block_cache.counters cache in
  Alcotest.(check int) "hits + misses = lookups" (domains * per_domain)
    (cc.Block_cache.c_hits + cc.Block_cache.c_misses)

let test_stats_under_contention () =
  let h = Histogram.create () in
  let domains = 4 and per_domain = 25_000 in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let local = Histogram.create () in
            for i = 1 to per_domain do
              Histogram.add h (float_of_int (i mod 1000));
              Histogram.add local (float_of_int ((d * per_domain) + i))
            done;
            Histogram.merge h local))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "histogram count (direct + merged)"
    (2 * domains * per_domain) (Histogram.count h)

let suite =
  [
    Alcotest.test_case "routing and shape" `Quick test_routing_and_shape;
    Alcotest.test_case "invalid partitions" `Quick test_invalid_partitions;
    Alcotest.test_case "cross-shard write_batch" `Quick
      test_cross_shard_write_batch;
    Alcotest.test_case "scan across shards" `Quick test_scan_across_shards;
    Alcotest.test_case "scan lock protocol" `Quick test_scan_lock_protocol;
    Alcotest.test_case "pool compacts in background" `Quick
      test_pool_compacts_in_background;
    Alcotest.test_case "stress writers+readers" `Slow
      test_stress_writers_readers;
    Alcotest.test_case "block cache counters" `Slow
      test_block_cache_counters_under_contention;
    Alcotest.test_case "stats under contention" `Slow
      test_stats_under_contention;
  ]
