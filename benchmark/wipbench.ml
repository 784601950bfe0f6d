(* The load generator: closed-loop YCSB-style traffic over loopback
   against [server.exe], with every reply checked.

     wipbench.exe --workload NAME --seed N --seconds S --trace 0|1
                  [--out FILE] [--commit LABEL]

   One run: [Common.setups] fresh preloaded server set-ups (set-up time is
   their median; all but the last are killed, and fill_uniform replaces the
   last with a server on an empty store), a [Common.warmup_s] untimed
   warm-up, then an S-second measured window. Load comes from
   [Common.client_domains] domains, each owning one connection with
   [Common.pipeline] requests in flight and the record ids congruent to its
   index, so no key ever has two writes in flight and the last acknowledged
   value of every key is known. After the window the server is stopped
   with SIGTERM (a clean shutdown), each shard is recovered from the run's
   directory, and every key written in the run must read back its last
   acknowledged value.

   The last line on stdout is one JSON object: [correct], [attempted],
   [failed] and [metrics] — the end-to-end metrics, or with [--trace 1] the
   per-layer ones. [--out] writes the full result, both sets included. A
   wrong reply or a lost write exits 1. *)

module Client = Wip_server.Client
module Protocol = Wip_server.Protocol
module Rng = Wip_util.Rng
module Distribution = Wip_workload.Distribution
module Sharded = Wip_concurrent.Sharded_store.Make (Wipdb.Store)

type workload = Fill_uniform | Read_zipf_cached | Mixed_uniform | Scan_zipf

let workloads =
  [
    ("fill_uniform", Fill_uniform);
    ("read_zipf_cached", Read_zipf_cached);
    ("mixed_uniform", Mixed_uniform);
    ("scan_zipf", Scan_zipf);
  ]

let preloaded w = w <> Fill_uniform

type op_kind = Get | Put | Scan

let op_name = function Get -> "get" | Put -> "put" | Scan -> "scan"

(* ------------------------------------------------------------------ *)
(* Key choice and per-key bookkeeping, one [gen] per client domain *)

let half = Common.records / Common.client_domains

let key_end = Common.key_of_pos Common.key_space

type gen = {
  d : int;  (** this domain owns record ids and positions congruent to [d] *)
  rng : Rng.t;
  zipf : Distribution.t;  (** over this domain's [half] records *)
  issued : int array;  (** per record id: last write counter sent *)
  acked : int array;  (** per record id: last write counter acknowledged *)
  busy : bool array;  (** per record id: a write is in flight *)
  doubt : bool array;  (** per record id: a write was refused *)
  fresh : (int64, bool) Hashtbl.t;  (** fresh position -> acknowledged *)
}

let make_gen ~seed d =
  let seed = Int64.of_int ((seed * 1_000_003) + d) in
  {
    d;
    rng = Rng.create ~seed;
    zipf =
      Distribution.make
        (Distribution.Zipfian { theta = 0.99; scrambled = true })
        ~space:(Int64.of_int half) ~seed;
    issued = Array.make Common.records 0;
    acked = Array.make Common.records 0;
    busy = Array.make Common.records false;
    doubt = Array.make Common.records false;
    fresh = Hashtbl.create 4096;
  }

let own_record g j = (2 * j) + g.d

let uniform_record g = own_record g (Rng.int g.rng half)

let zipf_record g = own_record g (Int64.to_int (Distribution.next g.zipf))

(* A position no write has used: [pick] proposes, collisions re-draw. *)
let rec fresh_pos g pick =
  let p = pick () in
  if Hashtbl.mem g.fresh p then fresh_pos g pick
  else begin
    Hashtbl.replace g.fresh p false;
    p
  end

type pending = {
  kind : op_kind;
  key : string;
  rid : int;  (** record id, or -1 for a fresh key *)
  pos : int64;
  counter : int;  (** put: the counter written; get: acked when sent *)
  limit : int;  (** scan *)
  t0 : int;
}

let request p =
  match p.kind with
  | Get -> Protocol.Get { key = p.key }
  | Put -> Protocol.Put { key = p.key; value = Common.value ~key:p.key ~counter:p.counter }
  | Scan -> Protocol.Scan { lo = p.key; hi = key_end; limit = Some p.limit }

let base = { kind = Get; key = ""; rid = -1; pos = 0L; counter = 0; limit = 0; t0 = 0 }

let get_record g rid =
  { base with kind = Get; key = Common.record_key rid; rid; counter = g.acked.(rid) }

let rec put_record g pick =
  let rid = pick () in
  if g.busy.(rid) then put_record g pick
  else begin
    g.busy.(rid) <- true;
    g.issued.(rid) <- g.issued.(rid) + 1;
    { base with kind = Put; key = Common.record_key rid; rid; counter = g.issued.(rid) }
  end

let put_fresh pos = { base with kind = Put; key = Common.key_of_pos pos; pos; counter = 1 }

let next_op w g =
  let pct = Rng.int g.rng 100 in
  match w with
  | Fill_uniform ->
    put_fresh
      (fresh_pos g (fun () ->
           Int64.add (Int64.mul 2L (Rng.int64 g.rng (Int64.div Common.key_space 2L)))
             (Int64.of_int g.d)))
  | Read_zipf_cached ->
    if pct < 95 then get_record g (zipf_record g)
    else put_record g (fun () -> zipf_record g)
  | Mixed_uniform ->
    if pct < 50 then get_record g (uniform_record g)
    else put_record g (fun () -> uniform_record g)
  | Scan_zipf ->
    if pct < 95 then
      let rid = zipf_record g in
      { base with kind = Scan; key = Common.record_key rid; rid;
                  limit = 1 + Rng.int g.rng 100 }
    else
      (* Between two existing records, never on one. *)
      let stride = Int64.to_int Common.stride in
      put_fresh
        (fresh_pos g (fun () ->
             Int64.add (Common.record_pos (uniform_record g))
               (Int64.of_int (1 + Rng.int g.rng (stride - 1)))))

(* ------------------------------------------------------------------ *)
(* Reply checks *)

exception Wrong of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt

let check_scan p entries =
  let n = List.length entries in
  if n > p.limit then wrong "scan from %s returned %d > limit %d" p.key n p.limit;
  ignore
    (List.fold_left
       (fun prev (k, v) ->
         if String.compare k p.key < 0 || String.compare k key_end >= 0 then
           wrong "scan from %s returned %s outside [lo, hi)" p.key k;
         (match prev with
         | Some pk when String.compare pk k >= 0 ->
           wrong "scan from %s not ascending at %s" p.key k
         | _ -> ());
         if Option.is_none (Common.counter_of ~key:k v) then
           wrong "scan from %s: value of %s is not its own" p.key k;
         Some k)
       None entries);
  (* Records are never deleted, so a scan with enough records after its
     start key must come back full. *)
  if Common.records - p.rid >= p.limit && n <> p.limit then
    wrong "scan from %s returned %d of %d entries" p.key n p.limit

(* [true] when the request succeeded, [false] when it was refused. *)
let check g p resp =
  match (p.kind, resp) with
  | Get, Protocol.Value { value } -> (
    match Common.counter_of ~key:p.key value with
    | None -> wrong "get %s returned bytes of another key" p.key
    | Some c ->
      if c < p.counter || c > g.issued.(p.rid) then
        wrong "get %s returned write %d, acked %d, issued %d" p.key c p.counter
          g.issued.(p.rid);
      true)
  | Get, Protocol.Not_found -> wrong "get %s: not found" p.key
  | Put, Protocol.Ack ->
    if p.rid >= 0 then begin
      g.acked.(p.rid) <- p.counter;
      g.busy.(p.rid) <- false
    end
    else Hashtbl.replace g.fresh p.pos true;
    true
  | Scan, Protocol.Entries entries ->
    check_scan p entries;
    true
  | _, Protocol.Error e ->
    if p.kind = Put && p.rid >= 0 then begin
      g.busy.(p.rid) <- false;
      g.doubt.(p.rid) <- true
    end;
    prerr_endline ("refused: " ^ Protocol.wire_error_to_string e);
    false
  | _, _ ->
    wrong "%s %s: reply of the wrong shape" (op_name p.kind) p.key

(* ------------------------------------------------------------------ *)
(* One client domain *)

(* Growable int buffer for latency samples. *)
type samples = { mutable a : int array; mutable n : int }

let new_samples () = { a = Array.make 4096 0; n = 0 }

let push s v =
  if s.n = Array.length s.a then begin
    let b = Array.make (2 * s.n) 0 in
    Array.blit s.a 0 b 0 s.n;
    s.a <- b
  end;
  s.a.(s.n) <- v;
  s.n <- s.n + 1

type tally = {
  lat : samples array;  (** per op kind, ns, replies inside the window *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let kind_index = function Get -> 0 | Put -> 1 | Scan -> 2

let client_loop ~port ~w ~g ~t_start ~t_end =
  let tally =
    { lat = Array.init 3 (fun _ -> new_samples ()); attempted = 0; failed = 0;
      errors = [] }
  in
  let pending = Hashtbl.create 64 in
  (try
     let c = Client.connect ~port () in
     Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
     let send () =
       let p = { (next_op w g) with t0 = Common.now_ns () } in
       tally.attempted <- tally.attempted + 1;
       Hashtbl.replace pending (Client.send c (request p)) p
     in
     for _ = 1 to Common.pipeline do
       send ()
     done;
     while Hashtbl.length pending > 0 do
       match Client.recv c with
       | Error e -> failwith ("connection: " ^ Client.error_to_string e)
       | Ok (id, resp) ->
         let t1 = Common.now_ns () in
         let p = Hashtbl.find pending id in
         Hashtbl.remove pending id;
         if check g p resp then begin
           if t1 >= t_start && t1 < t_end then
             push tally.lat.(kind_index p.kind) (t1 - p.t0)
         end
         else tally.failed <- tally.failed + 1;
         if t1 < t_end then send ()
     done
   with
  | Wrong msg -> tally.errors <- msg :: tally.errors
  | e ->
    (* A disconnect fails everything still in flight. *)
    tally.failed <- tally.failed + Hashtbl.length pending;
    tally.errors <- Printexc.to_string e :: tally.errors);
  tally

(* ------------------------------------------------------------------ *)
(* The server child *)

type child = {
  pid : int;
  to_child : Unix.file_descr;  (** its stdin; closing it stops it *)
  from_child : Unix.file_descr;
  buf : Buffer.t;
}

let server_exe = Filename.concat (Filename.dirname Sys.executable_name) "server.exe"

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* The next line the child prints, or [None] past [timeout_s]. *)
let read_line ch ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let chunk = Bytes.create 65536 in
  let rec go () =
    let s = Buffer.contents ch.buf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear ch.buf;
      Buffer.add_string ch.buf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
    | None -> (
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then None
      else
        match Unix.select [ ch.from_child ] [] [] left with
        | [], _, _ -> go ()
        | _ ->
          let n = Unix.read ch.from_child chunk 0 (Bytes.length chunk) in
          if n = 0 then None
          else begin
            Buffer.add_subbytes ch.buf chunk 0 n;
            go ()
          end
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

let spawn ~dir ~preload ~trace_file =
  remove_tree dir;
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let args =
    [ server_exe; "--dir"; dir ]
    @ (if preload then [ "--preload" ] else [])
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let pid = Unix.create_process server_exe (Array.of_list args) in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  { pid; to_child = in_w; from_child = out_r; buf = Buffer.create 256 }

let reap ch =
  ignore (Unix.waitpid [] ch.pid);
  Unix.close ch.to_child;
  Unix.close ch.from_child

let kill ch =
  (try Unix.kill ch.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap ch

(* Spawn and wait for "ready <port>": the set-up time is spawn to ready. *)
let set_up ~dir ~preload ~trace_file =
  let t0 = Common.now_ns () in
  let ch = spawn ~dir ~preload ~trace_file in
  match read_line ch ~timeout_s:120.0 with
  | Some line when String.length line > 6 && String.sub line 0 6 = "ready " ->
    let port = int_of_string (String.sub line 6 (String.length line - 6)) in
    (ch, port, float_of_int (Common.now_ns () - t0) /. 1e9)
  | _ ->
    kill ch;
    failwith "server did not become ready"

let shut_down ch =
  Unix.kill ch.pid Sys.sigterm;
  match read_line ch ~timeout_s:120.0 with
  | Some line ->
    reap ch;
    Json.of_string line
  | None ->
    kill ch;
    failwith "server did not shut down"

(* ------------------------------------------------------------------ *)
(* Recovery check: reopen every shard from the run's directory and read
   back the last acknowledged value of every key written in the run. This
   checks recovery after a clean shutdown, not crash durability. *)

let verify_recovery dir gens =
  let env = Wip_storage.Env.posix ~root:dir in
  let st =
    Sharded.create ~pool_threads:0
      (List.mapi (fun i lo -> (lo, Wipdb.Store.recover ~env (Common.config i)))
         Common.boundaries)
  in
  let expect key counter =
    match Sharded.get st key with
    | Some v when Common.counter_of ~key v = Some counter -> ()
    | Some v ->
      wrong "after recovery %s holds write %s, last acked %d" key
        (match Common.counter_of ~key v with
        | Some c -> string_of_int c
        | None -> "of another key")
        counter
    | None -> wrong "after recovery %s is missing, last acked %d" key counter
  in
  List.iter
    (fun g ->
      Array.iteri
        (fun rid c ->
          if c > 0 && not g.doubt.(rid) then expect (Common.record_key rid) c)
        g.acked;
      Hashtbl.iter (fun pos acked -> if acked then expect (Common.key_of_pos pos) 1) g.fresh)
    gens

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted (s : samples) =
  let a = Array.sub s.a 0 s.n in
  Array.sort Int.compare a;
  a

(* Nearest-rank percentile of sorted samples. *)
let pct a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    float_of_int
      a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

let counter json name =
  match Json.to_num (Json.member name json) with
  | Some v -> v
  | None -> failwith ("missing counter " ^ name)

let wire_counters l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num (Int64.to_float v))) l)

(* ------------------------------------------------------------------ *)
(* One run *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : (string * float * string) list;
  per_op : (string * float * string) list;
  per_layer : (string * float * string) list;
  detail : (string * float * string) list;  (** traced, not in the result line *)
  errors : string list;
}

(* [_build/wipbench] of the checkout the executable was built in: inside
   the checkout, ignored by git, and outside dune's own targets. *)
let root = Filename.(concat (dirname (dirname (dirname Sys.executable_name))) "wipbench")

let run ~name ~w ~seed ~seconds ~trace =
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let trace_file =
    if trace then Some (Filename.concat root ("trace-" ^ name ^ ".json")) else None
  in
  let preload = preloaded w in
  let live = ref None in
  let stop_live () =
    Option.iter kill !live;
    live := None
  in
  Fun.protect
    ~finally:(fun () ->
      stop_live ();
      remove_tree dir)
  @@ fun () ->
  let port = ref 0 in
  let start ~preload =
    stop_live ();
    let ch, p, secs = set_up ~dir ~preload ~trace_file in
    live := Some ch;
    port := p;
    secs
  in
  (* [setup_s] always times the preloaded set-up, so it means the same on
     every workload. An empty store starts in about 3 ms, mostly process
     start, and that time drifts by half between batches of runs: too
     little work to time. fill_uniform then serves from an empty store. *)
  let setup_times = List.init Common.setups (fun _ -> start ~preload:true) in
  if not preload then ignore (start ~preload:false);
  let ch = Option.get !live and port = !port in
  let warm_ns = int_of_float (Common.warmup_s *. 1e9) in
  let t_start = Common.now_ns () + warm_ns in
  let t_end = t_start + int_of_float (seconds *. 1e9) in
  let gens = List.init Common.client_domains (make_gen ~seed) in
  let finished = Atomic.make 0 in
  let domains =
    List.map
      (fun g ->
        Domain.spawn (fun () ->
            Fun.protect ~finally:(fun () -> Atomic.incr finished) (fun () ->
                client_loop ~port ~w ~g ~t_start ~t_end)))
      gens
  in
  let sleep_until t =
    let d = float_of_int (t - Common.now_ns ()) /. 1e9 in
    if d > 0.0 then Unix.sleepf d
  in
  let stats () =
    let c = Client.connect ~port () in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
        match Client.stats c with
        | Ok l -> wire_counters l
        | Error e -> failwith ("stats: " ^ Client.error_to_string e))
  in
  sleep_until t_start;
  let c0 = stats () in
  sleep_until t_end;
  let c1 = stats () in
  (* Replies still in flight drain here; a server that stops answering is
     killed, which fails the run. *)
  let deadline = Common.now_ns () + 60_000_000_000 in
  while Atomic.get finished < List.length domains && Common.now_ns () < deadline do
    Unix.sleepf 0.01
  done;
  let drained = Atomic.get finished = List.length domains in
  if not drained then stop_live ();
  let tallies = List.map Domain.join domains in
  if not drained then failwith "the server stopped answering";
  live := None;
  let final = shut_down ch in
  let cf = Option.get (Json.member "counters" final) in
  let errors = List.concat_map (fun (t : tally) -> t.errors) tallies in
  let errors =
    if errors <> [] then errors
    else
      try
        verify_recovery dir gens;
        []
      with Wrong msg -> [ msg ]
  in
  let lat k =
    let s = new_samples () in
    List.iter
      (fun (t : tally) ->
        let x = t.lat.(kind_index k) in
        for i = 0 to x.n - 1 do
          push s x.a.(i)
        done)
      tallies;
    sorted s
  in
  let by_kind = List.map (fun k -> (k, lat k)) [ Get; Put; Scan ] in
  let all = Array.concat (List.map snd by_kind) in
  Array.sort Int.compare all;
  let ops = float_of_int (Array.length all) in
  let us a q = pct a q /. 1e3 in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  (* Counter bases: [dw] the measured window; [dq] the window through the
     shutdown quiesce, which [per_user_byte] divides by the same span's
     user bytes; [life] per user byte over the store's whole life, preload
     included. The gated [write_amp] is [life]: on the preloaded workloads
     the window writes too little for [dq] to level off (see README.md). *)
  let dw name = counter c1 name -. counter c0 name in
  let dq name = counter cf name -. counter c0 name in
  let per_user_byte name = ratio (dq name) (dq "user_bytes") in
  let life name = ratio (counter cf name) (counter cf "user_bytes") in
  let live_keys =
    (if preload then Common.records else 0)
    + List.fold_left
        (fun acc g -> Hashtbl.fold (fun _ acked n -> if acked then n + 1 else n) g.fresh acc)
        0 gens
  in
  let live_user_bytes =
    float_of_int (live_keys * (Wip_workload.Key_codec.key_bytes + Common.value_bytes))
  in
  let ops_per_s = ops /. seconds in
  let end_to_end =
    [
      ("setup_s", median setup_times, "s");
      ("ops_per_s", ops_per_s, "1/s");
      ("put_p50_us", us (List.assoc Put by_kind) 50.0, "us");
      ("write_amp", life "store_bytes", "ratio");
      ("space_amp", counter cf "live_bytes" /. live_user_bytes, "ratio");
    ]
  in
  let per_op =
    ("p50_us", us all 50.0, "us")
    :: ("p99_us", us all 99.0, "us")
    :: ("write_amp_window", per_user_byte "store_bytes", "ratio")
    :: List.concat_map
         (fun (k, a) ->
           if Array.length a = 0 then []
           else
             [
               (op_name k ^ "_ops", float_of_int (Array.length a), "count");
               (op_name k ^ "_p50_us", us a 50.0, "us");
               (op_name k ^ "_p99_us", us a 99.0, "us");
             ])
         by_kind
  in
  (* --- per layer, from the traced run --- *)
  let per_layer, detail =
    match Json.member "spans" final with
    | None -> ([], [])
    | Some spans ->
      let sp name field =
        match Json.member name spans with Some o -> counter o field | None -> 0.0
      in
      let span_us name = ratio (sp name "dur_ns") (sp name "calls") /. 1e3 in
      let mean_us a =
        ratio (Array.fold_left (fun acc x -> acc +. float_of_int x) 0.0 a)
          (float_of_int (Array.length a))
        /. 1e3
      in
      (* Per request, a store call counts once for each request waiting on
         it: the weighted means below. *)
      let roots = [ "ops.get"; "ops.scan"; "ops.commit" ] in
      let sum field = List.fold_left (fun acc r -> acc +. sp r field) 0.0 roots in
      let store_us = ratio (sum "wdur_ns") (sum "weight") /. 1e3 in
      let self_us = ratio (sum "wself_ns") (sum "weight") /. 1e3 in
      let puts = float_of_int (Array.length (List.assoc Put by_kind)) in
      let gets = float_of_int (Array.length (List.assoc Get by_kind)) in
      let flayer =
        [
          ("server.batches_per_window", ratio (dw "commit_requests") (dw "commit_windows"), "count");
          ("server.commit_call_us", span_us "ops.commit", "us");
          ("server.residual_us", mean_us all -. store_us, "us");
          ("concurrent.self_us", self_us, "us");
          ("core.us", store_us -. self_us, "us");
          ("core.write_us", span_us "core.write", "us");
          ("core.write_p99_us", sp "core.write" "p99_ns" /. 1e3, "us");
          ("core.maintenance_ms", sp "core.maintenance" "dur_ns" /. 1e6, "ms");
          ("concurrent.pool_busy_share",
           sp "core.maintenance" "dur_ns" /. (seconds *. 1e9 *. float_of_int Common.pool_threads),
           "share");
          ("concurrent.pool_cycles", dw "pool_cycles", "count");
          ("concurrent.stall_count", dw "stalls", "count");
          ("wal.sync_us", span_us "wal.sync", "us");
          ("wal.fsyncs_per_put", ratio (sp "wal.sync" "calls") puts, "count");
          ("wal.bytes_per_put", ratio (dw "wal_bytes") puts, "B");
          ("core.compactions", dq "compactions", "count");
          ("core.splits", dq "splits", "count");
          ("core.buckets", counter cf "buckets", "count");
          ("core.sublevels_mean", ratio (counter c1 "sublevels") (counter c1 "buckets"), "count");
          ("core.memtable_probes_per_op", ratio (dw "memtable_probes") ops, "count");
          ("storage.bytes_per_user_byte", per_user_byte "store_bytes", "ratio");
          ("storage.flush_bytes_per_user_byte", per_user_byte "flush_bytes", "ratio");
          ("storage.compaction_bytes_per_user_byte", per_user_byte "compaction_bytes", "ratio");
          ("storage.split_bytes_per_user_byte", per_user_byte "split_bytes", "ratio");
          ("storage.read_path_bytes_per_op", ratio (dw "read_path_bytes") ops, "B");
          ("sstable.block_fetches_per_op", ratio (dw "block_fetches") ops, "count");
          ("bloom.probes_per_op", ratio (dw "bloom_probes") ops, "count");
          ("sstable.view_rebuilds", dw "view_rebuilds", "count");
          ("gc.alloc_bytes_per_op", ratio (dw "alloc_words" *. 8.0) ops, "B");
          ("gc.minor_collections", dw "minor_collections", "count");
          ("traced.ops_per_s", ops_per_s, "1/s");
          ("traced.p99_us", us all 99.0, "us");
        ]
      in
      (* Per op type the workload issues: the client's mean latency splits
         into the server's residual (wire, decode, queue and group-commit
         wait), the sharded front's self time and the engine's time. The
         residual is a difference, so the three cover the mean unless a
         store call outlasts the client's own latency; that excess is the
         unattributed share. *)
      let per_kind (k, a) =
        if Array.length a = 0 then []
        else begin
          let root, core =
            match k with
            | Get -> ("ops.get", "core.get")
            | Scan -> ("ops.scan", "core.scan")
            | Put -> ("ops.commit", "core.write")
          in
          let store = ratio (sp root "wdur_ns") (sp root "weight") /. 1e3 in
          let self = ratio (sp root "wself_ns") (sp root "weight") /. 1e3 in
          let client = mean_us a in
          let n = op_name k in
          [
            ("client_mean_us." ^ n, client, "us");
            ("server.residual_us." ^ n, client -. store, "us");
            ("concurrent.self_us." ^ n, self, "us");
            ("core.us." ^ n, store -. self, "us");
            ("core.p99_us." ^ n, sp core "p99_ns" /. 1e3, "us");
            ("unattributed_share." ^ n, Float.max 0.0 (store -. client) /. client, "share");
          ]
        end
      in
      let dlayer =
        List.concat_map per_kind by_kind
        @ [
            ("concurrent.stall_ms", dw "stall_ns" /. 1e6, "ms");
            ("bloom.probes_per_get", ratio (dw "bloom_probes") gets, "count");
            ("bloom.negative_share", ratio (dw "bloom_negatives") (dw "bloom_probes"), "share");
            ("bloom.fp_rate",
             ratio (dw "bloom_false_positives") (dw "bloom_probes" -. dw "bloom_negatives"),
             "share");
            ("sstable.block_fetches_per_get", ratio (dw "block_fetches") gets, "count");
            ("sstable.ph_probes_per_get", ratio (dw "ph_probes") gets, "count");
            ("sstable.ph_false_hits", dw "ph_false_hits", "count");
            ("sstable.view_rebuild_ms", dw "view_rebuild_ns" /. 1e6, "ms");
            ("storage.read_path_bytes_per_get", ratio (dw "read_path_bytes") gets, "B");
            ("storage.manifest_bytes_per_user_byte", per_user_byte "manifest_bytes", "ratio");
            ("gc.major_collections", dw "major_collections", "count");
          ]
      in
      (flayer, dlayer)
  in
  {
    correct = errors = [];
    attempted = List.fold_left (fun acc (t : tally) -> acc + t.attempted) 0 tallies;
    failed = List.fold_left (fun acc (t : tally) -> acc + t.failed) 0 tallies;
    end_to_end;
    per_op;
    per_layer;
    detail;
    errors;
  }

(* ------------------------------------------------------------------ *)

let metrics_json l =
  Json.Obj
    (List.map
       (fun (name, v, unit) ->
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
       l)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 in
  let trace = ref 0 and out = ref "" and commit = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload,
       "NAME " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N seed of the request stream");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced run");
      ("--out", Arg.Set_string out, "FILE also write the full result as JSON");
      ("--commit", Arg.Set_string commit, "LABEL source revision recorded in --out");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wipbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]";
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline ("wipbench.exe: unknown workload " ^ !workload);
      exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "wipbench.exe: need --seconds > 0 and --trace 0|1";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let r =
    try run ~name:!workload ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    with e ->
      prerr_endline ("wipbench: " ^ Printexc.to_string e);
      exit 1
  in
  List.iter (fun e -> prerr_endline ("wipbench: " ^ e)) r.errors;
  List.iter
    (fun (name, v, unit) -> Printf.eprintf "%-40s %14.3f %s\n" name v unit)
    (r.end_to_end @ r.per_op @ r.per_layer @ r.detail);
  if !out <> "" then begin
    let doc =
      Json.Obj
        ([
           ("workload", Json.Str !workload);
           ("seed", Json.Num (float_of_int !seed));
           ("seconds", Json.Num !seconds);
           ("trace", Json.Bool (!trace = 1));
           ("commit", Json.Str !commit);
           ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
           ("correct", Json.Bool r.correct);
           ("attempted", Json.Num (float_of_int r.attempted));
           ("failed", Json.Num (float_of_int r.failed));
           ("end_to_end", metrics_json r.end_to_end);
           ("per_op", metrics_json r.per_op);
         ]
        @
        if !trace = 1 then
          [ ("per_layer", metrics_json r.per_layer); ("detail", metrics_json r.detail) ]
        else [])
    in
    Out_channel.with_open_bin !out (fun oc ->
        output_string oc (Json.to_string doc);
        output_char oc '\n')
  end;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool r.correct);
            ("attempted", Json.Num (float_of_int r.attempted));
            ("failed", Json.Num (float_of_int r.failed));
            ("metrics", metrics_json (if !trace = 1 then r.per_layer else r.end_to_end));
          ]));
  if not r.correct then exit 1
