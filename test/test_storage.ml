(* Tests for wip_storage: the Env backends and byte-accurate I/O stats. *)

module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats

let test_mem_roundtrip () =
  let env = Env.in_memory () in
  let w = Env.create_file env "a.dat" in
  Env.append w ~category:Io_stats.Flush "hello ";
  Env.append w ~category:Io_stats.Flush "world";
  Alcotest.(check int) "offset" 11 (Env.writer_offset w);
  Env.close_writer w;
  let r = Env.open_file env "a.dat" in
  Alcotest.(check string) "full read" "hello world"
    (Env.read_all r ~category:Io_stats.Read_path);
  Alcotest.(check string) "partial read" "world"
    (Env.read r ~category:Io_stats.Read_path ~pos:6 ~len:5);
  Alcotest.(check int) "size" 11 (Env.file_size r);
  Env.close_reader r

let test_mem_namespace () =
  let env = Env.in_memory () in
  let w = Env.create_file env "x" in
  Env.append w ~category:Io_stats.Flush "1";
  Env.close_writer w;
  Alcotest.(check bool) "exists" true (Env.exists env "x");
  Env.rename env ~src:"x" ~dst:"y";
  Alcotest.(check bool) "renamed away" false (Env.exists env "x");
  Alcotest.(check bool) "renamed to" true (Env.exists env "y");
  Alcotest.(check (list string)) "listing" [ "y" ] (Env.list_files env);
  Env.delete env "y";
  Alcotest.(check (list string)) "empty" [] (Env.list_files env);
  Env.delete env "y" (* idempotent *)

let test_missing_file () =
  let env = Env.in_memory () in
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Env.open_file env "nope"))

let temp_root () =
  let root = Filename.temp_file "wipdb-test" "" in
  Sys.remove root;
  root

let test_out_of_bounds_read () =
  let root = temp_root () in
  List.iter
    (fun env ->
      let w = Env.create_file env "f" in
      Env.append w ~category:Io_stats.Flush "abc";
      Env.close_writer w;
      let r = Env.open_file env "f" in
      List.iter
        (fun (pos, len) ->
          match Env.read r ~category:Io_stats.Read_path ~pos ~len with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "expected Invalid_argument at (%d, %d)" pos len)
        [ (2, 5); (3, 1); (-1, 1); (0, -1); (4, 0) ];
      Env.close_reader r;
      Env.delete env "f")
    [ Env.in_memory (); Env.posix ~root ];
  Unix.rmdir root

(* Positioned posix reads return exactly the bytes the in-memory Env holds,
   whether two readers of one file interleave or two domains share one. *)
let test_posix_positioned_reads () =
  let root = temp_root () in
  let posix = Env.posix ~root and mem = Env.in_memory () in
  let size = 200_000 in
  let data = String.init size (fun i -> Char.chr ((i * 7919) lxor (i lsr 8) land 0xff)) in
  List.iter
    (fun env ->
      let w = Env.create_file env "t" in
      Env.append w ~category:Io_stats.Flush data;
      Env.close_writer w)
    [ posix; mem ];
  let want = Env.open_file mem "t" in
  let r1 = Env.open_file posix "t" and r2 = Env.open_file posix "t" in
  Alcotest.(check int) "size" size (Env.file_size r1);
  let check rng r =
    let pos = Random.State.int rng size in
    let len = Random.State.int rng (min 70_000 (size - pos + 1)) in
    let read r = Env.read r ~category:Io_stats.Read_path ~pos ~len in
    if read r <> read want then Alcotest.failf "read (%d, %d) differs" pos len
  in
  let rng = Random.State.make [| 42 |] in
  for i = 1 to 500 do
    check rng (if i mod 2 = 0 then r1 else r2)
  done;
  let shared seed () =
    let rng = Random.State.make [| seed |] in
    for _ = 1 to 300 do check rng r1 done
  in
  List.iter Domain.join [ Domain.spawn (shared 1); Domain.spawn (shared 2) ];
  List.iter Env.close_reader [ r1; r2; want ];
  Env.delete posix "t";
  Unix.rmdir root

let test_stats_accounting () =
  let env = Env.in_memory () in
  let stats = Env.stats env in
  let w = Env.create_file env "f" in
  Env.append w ~category:Io_stats.Flush (String.make 100 'x');
  Env.append w ~category:(Io_stats.Compaction 2) (String.make 50 'y');
  Env.close_writer w;
  Io_stats.record_write stats Io_stats.User_write 30;
  Alcotest.(check int) "flush bytes" 100 (Io_stats.written_by stats Io_stats.Flush);
  Alcotest.(check int) "level-2 bytes" 50
    (Io_stats.written_by stats (Io_stats.Compaction 2));
  Alcotest.(check int) "total written" 150 (Io_stats.bytes_written stats);
  Alcotest.(check int) "user bytes" 30 (Io_stats.user_bytes stats);
  Alcotest.(check (float 0.001)) "wa" 5.0 (Io_stats.write_amplification stats);
  let r = Env.open_file env "f" in
  ignore (Env.read r ~category:Io_stats.Read_path ~pos:0 ~len:100);
  Alcotest.(check int) "read bytes" 100 (Io_stats.bytes_read stats);
  Env.close_reader r

let test_stats_wal_excluded_from_wa () =
  let stats = Io_stats.create () in
  Io_stats.record_write stats Io_stats.User_write 100;
  Io_stats.record_write stats Io_stats.Wal 1000;
  Io_stats.record_write stats Io_stats.Flush 200;
  Alcotest.(check (float 0.001)) "wa excludes wal" 2.0
    (Io_stats.write_amplification stats);
  Alcotest.(check int) "bytes_written includes wal" 1200
    (Io_stats.bytes_written stats)

let test_stats_per_level () =
  let stats = Io_stats.create () in
  Io_stats.record_write stats (Io_stats.Compaction 1) 10;
  Io_stats.record_write stats (Io_stats.Compaction 3) 30;
  Io_stats.record_write stats (Io_stats.Compaction 12) 5;
  Alcotest.(check (list (pair int int)))
    "per level" [ (1, 10); (3, 30); (12, 5) ]
    (Io_stats.per_level_write stats)

let test_stats_snapshot_diff () =
  let stats = Io_stats.create () in
  Io_stats.record_write stats Io_stats.Flush 10;
  let base = Io_stats.snapshot stats in
  Io_stats.record_write stats Io_stats.Flush 25;
  let d = Io_stats.diff stats base in
  Alcotest.(check int) "delta" 25 (Io_stats.written_by d Io_stats.Flush);
  Io_stats.record_write base Io_stats.Flush 1000;
  Alcotest.(check int) "snapshot is independent" 35
    (Io_stats.written_by stats Io_stats.Flush)

let test_total_live_bytes () =
  let env = Env.in_memory () in
  let w = Env.create_file env "a" in
  Env.append w ~category:Io_stats.Flush (String.make 10 'a');
  Env.close_writer w;
  let w = Env.create_file env "b" in
  Env.append w ~category:Io_stats.Flush (String.make 7 'b');
  Env.close_writer w;
  Alcotest.(check int) "live" 17 (Env.total_live_bytes env);
  Env.delete env "a";
  Alcotest.(check int) "after delete" 7 (Env.total_live_bytes env)

let test_posix_roundtrip () =
  let root = temp_root () in
  let env = Env.posix ~root in
  let w = Env.create_file env "data.bin" in
  Env.append w ~category:Io_stats.Flush "persisted";
  Env.sync w;
  Env.close_writer w;
  let r = Env.open_file env "data.bin" in
  Alcotest.(check string) "posix read" "persisted"
    (Env.read_all r ~category:Io_stats.Read_path);
  Env.close_reader r;
  Alcotest.(check bool) "exists" true (Env.exists env "data.bin");
  Env.delete env "data.bin";
  Unix.rmdir root

let suite =
  [
    Alcotest.test_case "mem roundtrip" `Quick test_mem_roundtrip;
    Alcotest.test_case "mem namespace" `Quick test_mem_namespace;
    Alcotest.test_case "missing file" `Quick test_missing_file;
    Alcotest.test_case "out of bounds read" `Quick test_out_of_bounds_read;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
    Alcotest.test_case "wa excludes wal" `Quick test_stats_wal_excluded_from_wa;
    Alcotest.test_case "per-level stats" `Quick test_stats_per_level;
    Alcotest.test_case "snapshot diff" `Quick test_stats_snapshot_diff;
    Alcotest.test_case "total live bytes" `Quick test_total_live_bytes;
    Alcotest.test_case "posix roundtrip" `Quick test_posix_roundtrip;
    Alcotest.test_case "posix positioned reads" `Quick
      test_posix_positioned_reads;
  ]
