(* Figure 6: sustained random-write performance across stores —
   (a) throughput over time, (b) write amplification over time,
   (c) total per-level read/write I/O. The paper writes 8 billion
   116-byte items; we write a scaled-down stream over the same key space
   and report the same three views. *)

open Harness
module Io_stats = Wip_storage.Io_stats
module Store_intf = Wip_kv.Store_intf

let engines ~scale =
  [
    make_wipdb ~scale ();
    make_wipdb_s ~scale ();
    make_leveldb ~scale ();
    make_rocksdb ~scale ();
    make_rocksdb_bigmem ~scale ();
    make_pebblesdb ~scale ();
  ]

let run ~ops () =
  section "Figure 6: write performance (uniform keys, 16 B keys / 100 B values)";
  let samples = 8 in
  let results =
    List.map
      (fun mk ->
        let engine = mk in
        let dist =
          Wip_workload.Distribution.make Wip_workload.Distribution.Uniform
            ~space:key_space ~seed:6L
        in
        let stats = Store_intf.io_stats engine.store in
        let marks = ref [] in
        let next_mark = ref (ops / samples) in
        let window_t0 = ref (Unix.gettimeofday ()) in
        let window_ops = ref 0 in
        let last_done = ref 0 in
        let on_progress ~done_ =
          window_ops := !window_ops + (done_ - !last_done);
          last_done := done_;
          if done_ >= !next_mark then begin
            let t1 = Unix.gettimeofday () in
            let thr = float_of_int !window_ops /. Float.max 1e-9 (t1 -. !window_t0) in
            marks := (done_, thr, Io_stats.write_amplification stats) :: !marks;
            window_t0 := t1;
            window_ops := 0;
            next_mark := !next_mark + (ops / samples)
          end
        in
        let elapsed = drive_writes ~on_progress engine dist ~ops in
        Store_intf.flush engine.store;
        Store_intf.maintenance engine.store ();
        (engine, elapsed, List.rev !marks))
      (engines ~scale:1)
  in
  (* (a) throughput over time: wall clock, so not under --exact *)
  if not !exact then begin
    row "";
    row "-- 6(a) write throughput (Mops/s) at each progress mark --";
    Printf.printf "%-16s" "store";
    for i = 1 to samples do
      Printf.printf "%8d%%" (100 * i / samples)
    done;
    Printf.printf "%10s\n%!" "overall";
    List.iter
      (fun (engine, elapsed, marks) ->
        Printf.printf "%-16s" engine.label;
        List.iter (fun (_, thr, _) -> Printf.printf "%9.3f" (mops thr)) marks;
        Printf.printf "%10.3f\n%!" (mops (float_of_int ops /. elapsed)))
      results
  end;
  (* (b) WA over time *)
  row "";
  row "-- 6(b) cumulative write amplification at each progress mark --";
  Printf.printf "%-16s" "store";
  for i = 1 to samples do
    Printf.printf "%8d%%" (100 * i / samples)
  done;
  Printf.printf "%10s\n%!" "final";
  List.iter
    (fun (engine, _, marks) ->
      Printf.printf "%-16s" engine.label;
      List.iter (fun (_, _, wa) -> Printf.printf "%9.2f" wa) marks;
      let stats = Store_intf.io_stats engine.store in
      Printf.printf "%10.2f\n%!" (Io_stats.write_amplification stats))
    results;
  (* (c) per-level I/O *)
  row "";
  row "-- 6(c) I/O breakdown (device bytes) --";
  List.iter
    (fun (engine, _, _) ->
      let stats = Store_intf.io_stats engine.store in
      row "%s:" engine.label;
      row "  flush (into L0):        W %-12s R %s"
        (human_bytes (Io_stats.written_by stats Io_stats.Flush))
        (human_bytes (Io_stats.read_by stats Io_stats.Flush));
      List.iter
        (fun (level, bytes) ->
          row "  compaction into L%d:     W %-12s R %s" level
            (human_bytes bytes)
            (human_bytes (Io_stats.read_by stats (Io_stats.Compaction_read (level - 1)))))
        (Io_stats.per_level_write stats);
      row "  splits/guards:          W %-12s R %s"
        (human_bytes (Io_stats.written_by stats Io_stats.Split))
        (human_bytes (Io_stats.read_by stats Io_stats.Split));
      row "  wal:                    W %s"
        (human_bytes (Io_stats.written_by stats Io_stats.Wal));
      row "  TOTAL (store writes):   %s for %s of user data  (WA %.2f)"
        (human_bytes (Io_stats.store_bytes_written stats))
        (human_bytes (Io_stats.user_bytes stats))
        (Io_stats.write_amplification stats))
    results
