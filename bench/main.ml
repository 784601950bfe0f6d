(* Benchmark harness entry point.

   Each experiment regenerates one of the paper's tables/figures (see
   DESIGN.md's per-experiment index and EXPERIMENTS.md for paper-vs-measured
   results). With no arguments, every experiment runs at a scaled-down
   default size; pass experiment names to select, and "--ops N" to change
   the per-experiment operation count.

     dune exec bench/main.exe                    # everything, default size
     dune exec bench/main.exe -- fig6 --ops 500000
     dune exec bench/main.exe -- micro           # Bechamel microbenches

   "--exact" prints only what is deterministic on the simulated device: the
   fig6 WA and per-category byte tables (bytes in full) and the fig11
   histograms, without throughput or timings. The @io_exact alias diffs
   that output against bench/io_exact.expected. *)

let experiments =
  [
    ("fig2", "guard-position drift in LevelDB levels", fun ~ops -> Fig2.run ~ops);
    ("fig3", "MemTable structure comparison", fun ~ops -> Fig3.run ~ops);
    ("fig6", "write throughput / WA / per-level I/O", fun ~ops -> Fig6.run ~ops);
    ("fig7", "changing key distribution", fun ~ops -> Fig7.run ~ops);
    ("fig8", "mixed read/write + Table I latency", fun ~ops -> Fig8.run ~ops);
    ("fig9", "WAL size and restart time", fun ~ops -> Fig9.run ~ops);
    ("fig10", "YCSB throughput + Table II latency", fun ~ops -> Fig10.run ~ops);
    ("fig11", "file-size histograms", fun ~ops -> Fig11.run ~ops);
    ("ablation", "WA bound and scheduling-window sweeps", fun ~ops ->
      Ablation.run ~ops);
    ("mt", "sharded front-end scaling, 1..8 foreground threads", fun ~ops ->
      Mt.run ~ops);
    ("readpath", "cursor read path: point get / scan / merge-compact", fun ~ops ->
      Readpath.run ~ops);
    ("stall", "admission control on vs off: latency, stalls, pressure bound",
     fun ~ops -> Stall.run ~ops);
    ("server", "network service layer: group commit on vs off over loopback",
     fun ~ops -> Server.run ~ops);
    ("snapshot",
     "pinned-snapshot scans under churn + version-GC reclamation",
     fun ~ops -> Snapshot.run ~ops);
  ]

let default_ops =
  [
    ("fig2", 60_000);
    ("fig3", 200_000);
    ("fig6", 200_000);
    ("fig7", 120_000);
    ("fig8", 40_000);
    ("fig9", 30_000);
    ("fig10", 30_000);
    ("fig11", 60_000);
    ("ablation", 40_000);
    ("mt", 40_000);
    ("readpath", 200_000);
    ("stall", 40_000);
    ("server", 4_000);
    ("snapshot", 20_000);
  ]

let usage () =
  print_endline "usage: main.exe [experiment ...] [--ops N] [--exact]";
  print_endline "experiments:";
  List.iter (fun (name, doc, _) -> Printf.printf "  %-10s %s\n" name doc)
    experiments;
  Printf.printf "  %-10s %s\n" "micro" "Bechamel microbenchmarks";
  exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse names ops = function
    | [] -> (List.rev names, ops)
    | "--ops" :: n :: rest -> parse names (Some (int_of_string n)) rest
    | "--exact" :: rest ->
      Harness.exact := true;
      parse names ops rest
    | ("--help" | "-h") :: _ -> usage ()
    | name :: rest -> parse (name :: names) ops rest
  in
  let names, ops_override = parse [] None args in
  let names =
    if names = [] then List.map (fun (n, _, _) -> n) experiments else names
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      if name = "micro" then Micro.run ()
      else
        match List.find_opt (fun (n, _, _) -> n = name) experiments with
        | Some (_, _, run) ->
          let ops =
            match ops_override with
            | Some n -> n
            | None -> List.assoc name default_ops
          in
          (* Fresh heap per experiment: the previous experiment's garbage
             (e.g. fig3's million skip-list nodes) must not tax this one's
             wall-clock numbers. *)
          Gc.compact ();
          run ~ops ()
        | None ->
          Printf.eprintf "unknown experiment: %s\n" name;
          usage ())
    names;
  (* Run microbenches in the no-arg "everything" mode too. *)
  if args = [] then Micro.run ();
  if not !Harness.exact then
    Printf.printf "\ntotal bench time: %.1f s\n%!" (Unix.gettimeofday () -. t0)
