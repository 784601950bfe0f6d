(* Figure 8 + Table I: mixed read/write service. A store preloaded with
   uniform data serves a read stream (uniform in 8a, exponential in 8b)
   while a throttled writer runs concurrently. The paper's machinery:
   8 reader threads + 1 writer at 150 Kops/s; our deterministic analogue
   interleaves R reads per write and grants the WipDB variants a bounded
   background-compaction budget per write, so read-aware scheduling
   (WipDB vs WipDB-DRC) has a scarce resource to allocate. Reads address
   keys that exist: the read distribution indexes the sorted preloaded key
   array, so exponential reads are spatially concentrated — the locality
   the read-aware scheduler exploits (§III-G). *)

open Harness
module Distribution = Wip_workload.Distribution
module Key_codec = Wip_workload.Key_codec
module Store_intf = Wip_kv.Store_intf
module Histogram = Wip_stats.Histogram

(* Scarce on purpose: the writer must outpace the background allowance so a
   backlog of sublevels builds up and the scheduler's choice of WHERE to
   compact matters. *)
let budget_per_batch = 32

(* Engines are rebuilt per phase. WipDB variants also expose their concrete
   handle so the hot/cold sublevel mechanism metric can be read out. *)
let wip_cfg ~read_weight ~scale label =
  {
    (wipdb_config ~scale) with
    Wipdb.Config.name = label;
    compaction_budget_per_batch = budget_per_batch;
    memtable_items = 128;
    memtable_bytes = 32 * 1024;
    read_weight;
  }

let engines ~scale =
  let wip label read_weight =
    let db = Wipdb.Store.create (wip_cfg ~read_weight ~scale label) in
    ( { label; store = Store_intf.Store ((module Wipdb.Store), db) },
      Some db )
  in
  [
    wip "WipDB" 10.0;
    wip "WipDB-DRC" 0.0;
    (make_leveldb ~scale (), None);
    (make_rocksdb ~scale (), None);
    (make_pebblesdb ~scale (), None);
  ]

(* Mean total sublevel count of the buckets at or below [hot_hi] (the
   read-hot key range under exponential reads) vs the rest: read-aware
   scheduling should keep the hot side lower. *)
let hot_cold_sublevels db ~hot_hi =
  let hot_n = ref 0 and hot_sum = ref 0 and cold_n = ref 0 and cold_sum = ref 0 in
  List.iter
    (fun (info : Wipdb.Store.bucket_info) ->
      let subs = List.fold_left ( + ) 0 info.Wipdb.Store.sublevels_per_level in
      if String.compare info.Wipdb.Store.lo hot_hi <= 0 then begin
        incr hot_n;
        hot_sum := !hot_sum + subs
      end
      else begin
        incr cold_n;
        cold_sum := !cold_sum + subs
      end)
    (Wipdb.Store.bucket_infos db);
  ( (if !hot_n = 0 then 0.0 else float_of_int !hot_sum /. float_of_int !hot_n),
    if !cold_n = 0 then 0.0 else float_of_int !cold_sum /. float_of_int !cold_n )

let mixed_phase (engine, wip_handle) ~read_shape ~preload ~mixed_ops ~reads_per_write =
  let rng = Wip_util.Rng.create ~seed:0xF8L in
  let write_dist = Distribution.make Distribution.Uniform ~space:key_space ~seed:8L in
  (* Preload, remembering the key population. *)
  let keys = Array.make preload "" in
  let batch = ref [] in
  for i = 0 to preload - 1 do
    let k = Key_codec.encode (Distribution.next write_dist) in
    keys.(i) <- k;
    batch := (Wip_util.Ikey.Value, k, value_of_size rng 100) :: !batch;
    if List.length !batch = 200 then begin
      Store_intf.write_batch engine.store !batch;
      batch := []
    end
  done;
  Store_intf.write_batch engine.store !batch;
  Store_intf.flush engine.store;
  Store_intf.maintenance engine.store ();
  Array.sort String.compare keys;
  (* Read index distribution over the sorted population: exponential reads
     hit a spatially concentrated key range. *)
  let read_dist =
    Distribution.make read_shape ~space:(Int64.of_int preload) ~seed:9L
  in
  let lat = Histogram.create () in
  let hits = ref 0 in
  let t0 = Unix.gettimeofday () in
  let writes = ref 0 in
  for _ = 1 to mixed_ops / (reads_per_write + 1) do
    let k = Key_codec.encode (Distribution.next write_dist) in
    Store_intf.put engine.store ~key:k ~value:(value_of_size rng 100);
    incr writes;
    for _ = 1 to reads_per_write do
      let idx = Int64.to_int (Distribution.next read_dist) in
      let r0 = Unix.gettimeofday () in
      (match Store_intf.get engine.store keys.(idx) with
      | Some _ -> incr hits
      | None -> ());
      Histogram.add lat ((Unix.gettimeofday () -. r0) *. 1e6)
    done
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let reads = Histogram.count lat in
  let hot_cold =
    match wip_handle with
    | Some db -> Some (hot_cold_sublevels db ~hot_hi:keys.(preload / 10))
    | None -> None
  in
  ( float_of_int reads /. dt,
    float_of_int !writes /. dt,
    Histogram.percentile lat 99.0,
    float_of_int !hits /. float_of_int (max 1 reads),
    hot_cold )

let run ~ops () =
  let preload = ops in
  let mixed_ops = max 1000 (4 * ops) in
  let reads_per_write = 4 in
  (* Under --exact only the hot/cold sublevel column prints: it is a pure
     function of the code (the §III-G scheduling shape), while the other
     columns are wall-clock. Only the WipDB variants have the column. *)
  let run_phase title shape =
    section title;
    if !exact then row "%-16s %20s" "store" "hot/cold sublevels"
    else
      row "%-16s %12s %12s %12s %8s %20s" "store" "read Kops/s" "write Kops/s"
        "p99 (us)" "hit%" "hot/cold sublevels";
    List.filter_map
      (fun ((engine, wip_handle) as pair) ->
        if !exact && Option.is_none wip_handle then None
        else begin
          let read_thr, write_thr, p99, hit_rate, hot_cold =
            mixed_phase pair ~read_shape:shape ~preload ~mixed_ops
              ~reads_per_write
          in
          let hc =
            match hot_cold with
            | Some (hot, cold) -> Printf.sprintf "%.1f / %.1f" hot cold
            | None -> "-"
          in
          if !exact then row "%-16s %20s" engine.label hc
          else
            row "%-16s %12.1f %12.1f %12.1f %8.1f %20s" engine.label
              (read_thr /. 1e3) (write_thr /. 1e3) p99 (100.0 *. hit_rate) hc;
          Some (engine.label, p99)
        end)
      (engines ~scale:1)
  in
  let uni =
    run_phase "Figure 8(a): mixed read/write, uniform reads" Distribution.Uniform
  in
  let expo =
    run_phase "Figure 8(b): mixed read/write, exponential reads"
      (Distribution.Exponential { rate = 10.0 })
  in
  if not !exact then begin
    section "Table I: 99th-percentile read latency (us)";
    row "%-16s %12s %12s" "store" "uniform" "exponential";
    List.iter
      (fun (label, p_uni) ->
        match List.assoc_opt label expo with
        | Some p_exp -> row "%-16s %12.1f %12.1f" label p_uni p_exp
        | None -> ())
      uni
  end
