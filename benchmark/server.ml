(* The system under test: what `wipdb_cli serve` builds — a sharded WipDB
   store on a posix directory behind the pipelined group-commit server —
   composed from the public API and sized by [Common].

     server.exe --dir DIR [--preload] [--trace FILE]

   With [--preload] it writes [Common.records] records in a fixed shuffled
   order, flushes and runs maintenance to quiescence before serving. It then
   prints "ready <port>" on stdout. The wire [Stats] request marks the
   measured window: the first one opens it, the second closes it, and each
   returns the counters below. On SIGTERM, or when stdin closes because
   wipbench went away, it stops serving, flushes, runs maintenance to
   quiescence, prints one JSON line of counters (and span totals when
   tracing) and exits. With [--trace] the store is built over [Timed],
   spans are recorded inside the window, and raw spans go to FILE. *)

module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Server = Wip_server.Server
module Intf = Wip_kv.Store_intf
module Rng = Wip_util.Rng
module Ikey = Wip_util.Ikey

module type ENGINE = Intf.S with type t = Wipdb.Store.t

let preload_batch = 64

(* Write [shard]'s records through [write_batch] in a shuffled order that
   is the same on every run, as YCSB's load phase inserts in a fixed
   hashed order: every run starts from the same preloaded store, and the
   run's seed varies only the requests. Shard [s] holds record ids
   [s * per_shard, (s + 1) * per_shard): records are spread evenly over
   the key space that [Common.boundaries] splits evenly, so every batch
   stays inside one shard. *)
let preload_shard write_batch shard =
  let per_shard = Common.records / Common.shards in
  let ids = Array.init per_shard (fun i -> (shard * per_shard) + i) in
  let rng = Rng.create ~seed:(Int64.of_int (shard + 1)) in
  for i = per_shard - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- x
  done;
  let rec load from =
    if from < per_shard then begin
      let n = min preload_batch (per_shard - from) in
      write_batch
        (List.init n (fun k ->
             let key = Common.record_key ids.(from + k) in
             (Ikey.Value, key, Common.value ~key ~counter:0)));
      load (from + n)
    end
  in
  load 0

let serve (module E : ENGINE) ~dir ~preload ~trace_file =
  let module Sharded = Wip_concurrent.Sharded_store.Make (E) in
  let env = Env.posix ~root:dir in
  let stores =
    List.mapi
      (fun i lo -> (lo, Wipdb.Store.recover ~env (Common.config i)))
      Common.boundaries
  in
  (* The preload goes through a sharded front of its own, one domain per
     shard, with no pool and no admission: with no background work racing
     the load, the preloaded store's shape — buckets, sublevels — is the
     same on every run. [stop] runs maintenance to quiescence before the
     serving front takes the stores over. *)
  if preload then begin
    let loader = Sharded.create ~pool_threads:0 ~admission:false stores in
    List.init Common.shards (fun shard ->
        Domain.spawn (fun () -> preload_shard (Sharded.write_batch loader) shard))
    |> List.iter Domain.join;
    Sharded.flush loader;
    Sharded.stop loader
  end;
  let st = Sharded.create ~pool_threads:Common.pool_threads stores in
  let tracing = Option.is_some trace_file in
  let span ?weight name f = if tracing then Spans.with_span ?weight name f else f () in
  let counters () =
    let io = Io_stats.snapshot (Env.stats env) in
    let buckets, splits, compactions, probes, sublevels =
      Sharded.fold_shards st ~init:(0, 0, 0, 0, 0)
        ~f:(fun (b, s, c, p, l) store ->
          let infos = Wipdb.Store.bucket_infos store in
          ( b + List.length infos,
            s + Wipdb.Store.split_count store,
            c + Wipdb.Store.compaction_count store,
            p + Wipdb.Store.memtable_probes store,
            l
            + List.fold_left
                (fun acc (bi : Wipdb.Store.bucket_info) ->
                  acc + List.fold_left ( + ) 0 bi.sublevels_per_level)
                0 infos ))
    in
    let gc = Gc.quick_stat () in
    let by = Io_stats.written_by io in
    let flush = by Io_stats.Flush and split = by Io_stats.Split in
    let manifest = by Io_stats.Manifest in
    List.map
      (fun (k, v) -> (k, Int64.of_int v))
      [
        ("user_bytes", Io_stats.user_bytes io);
        ("store_bytes", Io_stats.store_bytes_written io);
        ("wal_bytes", by Io_stats.Wal);
        ("flush_bytes", flush);
        ("split_bytes", split);
        ("manifest_bytes", manifest);
        ("compaction_bytes", Io_stats.store_bytes_written io - flush - split - manifest);
        ("read_path_bytes", Io_stats.read_by io Io_stats.Read_path);
        ("syncs", Io_stats.sync_count io);
        ("stalls", Io_stats.stall_count io);
        ("stall_ns", Io_stats.stall_ns io);
        ("bloom_probes", Io_stats.bloom_probe_count io);
        ("bloom_negatives", Io_stats.bloom_negative_count io);
        ("bloom_false_positives", Io_stats.bloom_false_positive_count io);
        ("block_fetches", Io_stats.block_fetch_count io);
        ("ph_probes", Io_stats.ph_probe_count io);
        ("ph_false_hits", Io_stats.ph_false_hit_count io);
        ("view_rebuilds", Io_stats.view_rebuild_count io);
        ("view_rebuild_ns", Io_stats.view_rebuild_ns io);
        ("commit_windows", Io_stats.group_commit_count io);
        ("commit_requests", Io_stats.group_commit_request_count io);
        ("pool_cycles", Sharded.compaction_cycles st);
        ("buckets", buckets);
        ("splits", splits);
        ("compactions", compactions);
        ("memtable_probes", probes);
        ("sublevels", sublevels);
        ("alloc_words",
         int_of_float (gc.Gc.minor_words +. gc.Gc.major_words -. gc.Gc.promoted_words));
        ("minor_collections", gc.Gc.minor_collections);
        ("major_collections", gc.Gc.major_collections);
      ]
  in
  let stats_calls = Atomic.make 0 in
  let ops =
    {
      Server.get = (fun key -> span Spans.Ops_get (fun () -> Sharded.get st key));
      scan =
        (fun ~lo ~hi ~limit ->
          span Spans.Ops_scan (fun () -> Sharded.scan st ~lo ~hi ?limit ()));
      commit =
        (fun batches ->
          span ~weight:(Array.length batches) Spans.Ops_commit (fun () ->
              Sharded.commit_batches st batches));
      stats =
        (fun () ->
          let opening = Atomic.fetch_and_add stats_calls 1 = 0 in
          if tracing then Atomic.set Spans.enabled opening;
          counters ());
    }
  in
  let srv =
    Server.start ~workers:Common.server_workers ~group_commit:true
      ~stats:(Env.stats env) ~ops ()
  in
  Printf.printf "ready %d\n%!" (Server.port srv);
  let stop = Atomic.make false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set stop true));
  ignore
    (Thread.create
       (fun () ->
         (try ignore (In_channel.input_all stdin) with Sys_error _ -> ());
         Atomic.set stop true)
       ());
  while not (Atomic.get stop) do
    try Unix.sleepf 0.02 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Atomic.set Spans.enabled false;
  Server.stop srv;
  Sharded.flush st;
  Sharded.stop st;
  let final =
    ("live_bytes", Json.Num (float_of_int (Env.total_live_bytes env)))
    :: List.map (fun (k, v) -> (k, Json.Num (Int64.to_float v))) (counters ())
  in
  let spans =
    if not tracing then []
    else begin
      let total = Spans.summary () in
      let span_json n =
        let a = total n in
        ( Spans.label n,
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Num v))
               [
                 ("calls", float_of_int a.Spans.calls);
                 ("weight", float_of_int a.weight);
                 ("wdur_ns", float_of_int a.wdur);
                 ("wself_ns", float_of_int a.wself);
                 ("dur_ns", float_of_int a.dur);
                 ("p99_ns", Wip_stats.Histogram.percentile a.durs 99.0);
               ]) )
      in
      Option.iter Spans.write_raw trace_file;
      [ ("spans", Json.Obj (List.map span_json (Array.to_list Spans.names))) ]
    end
  in
  print_endline (Json.to_string (Json.Obj (("counters", Json.Obj final) :: spans)))

let () =
  let dir = ref "" and preload = ref false in
  let trace_file = ref None in
  Arg.parse
    [
      ("--dir", Arg.Set_string dir, "DIR store directory");
      ("--preload", Arg.Set preload, " preload the records before serving");
      ("--trace", Arg.String (fun f -> trace_file := Some f),
       "FILE record spans, write raw spans to FILE");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "server.exe --dir DIR [--preload] [--trace FILE]";
  if !dir = "" then (prerr_endline "server.exe: --dir is required"; exit 2);
  let engine =
    if Option.is_some !trace_file then (module Timed : ENGINE)
    else (module Wipdb.Store : ENGINE)
  in
  serve engine ~dir:!dir ~preload:!preload ~trace_file:!trace_file
