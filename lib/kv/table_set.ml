module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Block_cache = Wip_storage.Block_cache
module Table = Wip_sstable.Table
module Sorted_view = Wip_sstable.Sorted_view
module Merge = Wip_sstable.Merge
module Wal = Wip_wal.Wal
module Manifest = Wip_manifest.Manifest
module Intf = Store_intf

(* A table retired while snapshots were live: the file, its reader and its
   cached blocks stay usable until every snapshot that could still be
   streaming it releases. [z_pinners] holds the ids of the snapshots that
   were live at retirement time. *)
type zombie = {
  z_meta : Table.meta;
  mutable z_pinners : int list; (* guarded_by: caller *)
}

type t = {
  env : Env.t;
  name : string;
  suffix : string;
  bits_per_key : int;
  ph_index : bool;
  sorted_view : bool;
  wal_segment_bytes : int option;
  manifest : Manifest.t;
  mutable wal : Wal.t; (* guarded_by: caller *)
  cache : Block_cache.t option;
  readers : (string, Table.Reader.t) Hashtbl.t;
  mutable next_file : int; (* guarded_by: caller *)
  mutable next_snap_id : int; (* guarded_by: caller *)
  live_snaps : (int, int64) Hashtbl.t; (* snapshot id -> pinned seq *)
  zombies : (string, zombie) Hashtbl.t; (* retired-but-pinned, by file *)
  mutable health : Intf.health; (* guarded_by: caller *)
  mutable quarantined : (string * string) list; (* guarded_by: caller *)
}

let manifest_name name = name ^ "-manifest"

let wal_prefix name = name ^ "-wal"

(* The log a reopened store holds until [recover_wal] swaps in the real
   one; its distinct prefix keeps it out of every later recovery. *)
let placeholder_prefix name = name ^ "-tmpwal"

let exists env ~name = Manifest.exists env ~name:(manifest_name name)

let create ~reopen env ~name ~suffix ?wal_segment_bytes ?(cache_bytes = 0)
    ~bits_per_key ~ph_index ~sorted_view () =
  let manifest, wal =
    if reopen then
      ( Manifest.reopen env ~name:(manifest_name name),
        Wal.create env ~prefix:(placeholder_prefix name) () )
    else
      let manifest = Manifest.create env ~name:(manifest_name name) in
      ( manifest,
        Wal.create env ~prefix:(wal_prefix name)
          ?segment_bytes:wal_segment_bytes () )
  in
  {
    env;
    name;
    suffix;
    bits_per_key;
    ph_index;
    sorted_view;
    wal_segment_bytes;
    manifest;
    wal;
    cache =
      (if cache_bytes > 0 then
         Some (Block_cache.create ~capacity_bytes:cache_bytes)
       else None);
    readers = Hashtbl.create 256;
    next_file = 1;
    next_snap_id = 0;
    live_snaps = Hashtbl.create 8;
    zombies = Hashtbl.create 8;
    health = Intf.Healthy;
    quarantined = [];
  }

let env t = t.env

let stats t = Env.stats t.env

let wal t = t.wal

(* ------------------------------------------------------------------ *)
(* Tables *)

let fresh_name t =
  let n = t.next_file in
  t.next_file <- n + 1;
  Printf.sprintf "%s-%06d%s" t.name n t.suffix

let builder t ~category ~expected_keys =
  Table.Builder.create t.env ~name:(fresh_name t) ~category
    ~bits_per_key:t.bits_per_key ~ph_index:t.ph_index ~expected_keys ()

let write_runs t ~category ~expected_keys ?(keep = fun _ ~len:_ -> true)
    ?(cut = fun ~size:_ _ ~len:_ -> false) merge =
  let outputs = ref [] and current = ref None in
  let finish () =
    Option.iter
      (fun b ->
        if Table.Builder.entry_count b > 0 then
          outputs := Table.Builder.finish b :: !outputs
        else Table.Builder.abandon b)
      !current;
    current := None
  in
  while Merge.next merge do
    let key = Merge.key_bytes merge and len = Merge.key_length merge in
    if keep key ~len then begin
      (* Versions of one user key are never cut apart: [cut] is asked at
         the first entry of each user key only. *)
      (match !current with
      | Some b when Table.Builder.shares_user b key ~len -> ()
      | Some b -> if cut ~size:(Table.Builder.estimated_size b) key ~len then finish ()
      | None -> if cut ~size:0 key ~len then finish ());
      let b =
        match !current with
        | Some b -> b
        | None ->
          let b = builder t ~category ~expected_keys in
          current := Some b;
          b
      in
      Merge.add_to b merge
    end
  done;
  finish ();
  List.rev !outputs

let reader_of t (meta : Table.meta) =
  match Hashtbl.find_opt t.readers meta.Table.name with
  | Some r -> r
  | None ->
    let r = Table.Reader.open_ ?cache:t.cache t.env ~name:meta.Table.name in
    Hashtbl.replace t.readers meta.Table.name r;
    r

let cursor t ~category meta =
  Table.Reader.Cursor.create (reader_of t meta) ~category
    ~admit:Block_cache.Bypass ()

(* A one-run view accelerates nothing: views start at two runs. *)
let build_view t runs =
  match runs with
  | [] | [ _ ] -> None
  | _ ->
    Sorted_view.build ~enabled:t.sorted_view ~stats:(stats t)
      ~cursor:(cursor t ~category:Io_stats.Read_path) runs

let extend_view t view meta =
  Sorted_view.extend ~enabled:t.sorted_view ~stats:(stats t)
    ~cursor:(cursor t ~category:Io_stats.Read_path) view meta

(* Close the reader and forget the file's cached blocks. *)
let close_table t name =
  (match Hashtbl.find_opt t.readers name with
  | Some r ->
    Table.Reader.close r;
    Hashtbl.remove t.readers name
  | None -> ());
  match t.cache with
  | Some cache -> Block_cache.evict_file cache name
  | None -> ()

let reclaim t name =
  close_table t name;
  Env.delete t.env name

let retire t (meta : Table.meta) =
  if Hashtbl.length t.live_snaps = 0 then reclaim t meta.Table.name
  else begin
    let pinners = Hashtbl.fold (fun id _ acc -> id :: acc) t.live_snaps [] in
    Hashtbl.replace t.zombies meta.Table.name
      { z_meta = meta; z_pinners = pinners }
  end

(* ------------------------------------------------------------------ *)
(* Manifest *)

let log t edit = Manifest.append t.manifest edit

let add_edit ~bucket ~level (meta : Table.meta) =
  Manifest.Add_table
    {
      bucket;
      level;
      name = meta.Table.name;
      size = meta.Table.size;
      entry_count = meta.Table.entry_count;
      smallest = meta.Table.smallest;
      largest = meta.Table.largest;
    }

let remove_edit ~bucket ~level (meta : Table.meta) =
  Manifest.Remove_table { bucket; level; name = meta.Table.name }

let log_watermark t ~seq =
  log t (Manifest.Watermark { seq; next_file = t.next_file })

let sync_manifest t = Manifest.sync t.manifest

let checkpoint t ~seq =
  Wal.sync t.wal;
  log_watermark t ~seq;
  sync_manifest t

(* ------------------------------------------------------------------ *)
(* Recovery *)

let replay_manifest t f =
  let seq = ref 0L in
  Manifest.replay t.env ~name:(manifest_name t.name) (function
    | Manifest.Watermark { seq = s; next_file } ->
      seq := s;
      t.next_file <- next_file
    | edit -> f edit);
  !seq

(* "<name>-NNNNNN<suffix>" -> NNNNNN *)
let file_number t file =
  let plen = String.length t.name + 1 in
  let len = String.length file - plen - String.length t.suffix in
  if len > 0 then int_of_string_opt (String.sub file plen len) else None

let gc_orphans t live =
  let keep = Hashtbl.create 64 in
  List.iter (fun (m : Table.meta) -> Hashtbl.replace keep m.Table.name ()) live;
  let prefix = t.name ^ "-" in
  List.iter
    (fun f ->
      if
        String.starts_with ~prefix f
        && Filename.check_suffix f t.suffix
        && not (Hashtbl.mem keep f)
      then Env.delete t.env f)
    (Env.list_files t.env)

let recover_wal t ~seq ~live replay =
  List.iter
    (fun (m : Table.meta) ->
      match file_number t m.Table.name with
      | Some n when n >= t.next_file -> t.next_file <- n + 1
      | _ -> ())
    (live ());
  t.wal <-
    Wal.recover t.env ~prefix:(wal_prefix t.name)
      ?segment_bytes:t.wal_segment_bytes ~replay ();
  Env.delete t.env (placeholder_prefix t.name ^ "-000000.log");
  gc_orphans t (live ());
  max seq (Wal.max_seq_logged t.wal)

(* ------------------------------------------------------------------ *)
(* Pinned snapshots *)

let oldest_snapshot_seq t =
  Hashtbl.fold
    (fun _ s acc -> if Int64.compare s acc < 0 then s else acc)
    t.live_snaps Int64.max_int

let live_snapshot_count t = Hashtbl.length t.live_snaps

let compaction t ~category ~drop_tombstones tables =
  Merge.compact ~drop_tombstones ~snapshot_floor:(oldest_snapshot_seq t)
    (List.map (fun m -> Merge.run (cursor t ~category:(category m) m)) tables)

let zombie_table_files t = Hashtbl.fold (fun name _ acc -> name :: acc) t.zombies []

let zombie_bytes t =
  Hashtbl.fold (fun _ z acc -> acc + z.z_meta.Table.size) t.zombies 0

let release t id =
  if Hashtbl.mem t.live_snaps id then begin
    Hashtbl.remove t.live_snaps id;
    let dead =
      Hashtbl.fold
        (fun name z acc ->
          z.z_pinners <- List.filter (fun p -> p <> id) z.z_pinners;
          if z.z_pinners = [] then name :: acc else acc)
        t.zombies []
    in
    List.iter
      (fun name ->
        Hashtbl.remove t.zombies name;
        reclaim t name)
      dead
  end

let snapshot t ~seq =
  let id = t.next_snap_id in
  t.next_snap_id <- id + 1;
  Hashtbl.replace t.live_snaps id seq;
  { Intf.snap_seq = seq; snap_id = id; snap_release = (fun () -> release t id) }

(* ------------------------------------------------------------------ *)
(* Failure model *)

let health t = t.health

let quarantined t = t.quarantined

let degrade t ~reason =
  match t.health with
  | Intf.Degraded _ -> ()
  | Intf.Healthy ->
    t.health <- Intf.Degraded { reason };
    Io_stats.(add (stats t) degraded_transitions 1)

let try_write_batches t ?(admit = fun () -> Ok ()) write batches =
  match t.health with
  | Intf.Degraded { reason } -> Error (Intf.Store_degraded { reason })
  | Intf.Healthy -> (
    if List.for_all (function [] -> true | _ :: _ -> false) batches then Ok ()
    else
      try
        match admit () with
        | Error _ as e -> e
        | Ok () ->
          write batches;
          Ok ()
      with e -> (
        match Env.io_fault_detail e with
        | Some reason ->
          degrade t ~reason;
          Error (Intf.Store_degraded { reason })
        | None -> raise e))

let ok_or_raise = function Ok () -> () | Error e -> raise (Intf.Rejected e)

let guard_durable t f =
  match t.health with
  | Intf.Degraded { reason } ->
    raise (Intf.Rejected (Intf.Store_degraded { reason }))
  | Intf.Healthy -> (
    try f ()
    with e -> (
      match Env.io_fault_detail e with
      | Some reason ->
        degrade t ~reason;
        raise (Intf.Rejected (Intf.Store_degraded { reason }))
      | None -> raise e))

let log_sync t = guard_durable t (fun () -> Wal.sync t.wal)

let probe t ~seq =
  match t.health with
  | Intf.Healthy -> Intf.Healthy
  | Intf.Degraded _ -> (
    match checkpoint t ~seq with
    | () ->
      t.health <- Intf.Healthy;
      t.health
    | exception e -> (
      match Env.io_fault_detail e with
      | Some reason ->
        t.health <- Intf.Degraded { reason };
        t.health
      | None -> raise e))

let without ~file tables =
  List.filter (fun (m : Table.meta) -> not (String.equal m.Table.name file)) tables

let take ~file tables =
  match
    List.partition (fun (m : Table.meta) -> String.equal m.Table.name file) tables
  with
  | meta :: _, rest -> Some (meta, rest)
  | [], _ -> None

(* Returns [true] when [drop] found the table, guaranteeing the caller's
   retry makes progress. *)
let quarantine t ~drop ~file ~detail =
  drop file
  && begin
       sync_manifest t;
       close_table t file;
       (try Env.rename t.env ~src:file ~dst:(file ^ ".quarantined")
        with Not_found -> ());
       t.quarantined <- (file, detail) :: t.quarantined;
       true
     end

let rec with_quarantine t ~drop f =
  try f ()
  with e -> (
    match Env.corruption_detail e with
    | Some (file, detail) when quarantine t ~drop ~file ~detail ->
      with_quarantine t ~drop f
    | _ -> raise e)
