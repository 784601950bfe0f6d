exception Io_fault of { op : string; file : string; retryable : bool }

exception Corruption of { file : string; detail : string }

(* Exception classifiers. R6 restricts handlers that *match* Io_fault to
   lib/storage and Wip_util.Retry; upper layers catch generically and consult
   these, so the fault vocabulary stays defined in one place. *)
let io_fault_retryable = function
  | Io_fault { retryable; _ } -> retryable
  | _ -> false

let io_fault_detail = function
  | Io_fault { op; file; _ } -> Some (Printf.sprintf "%s on %s" op file)
  | _ -> None

let corruption_detail = function
  | Corruption { file; detail } -> Some (file, detail)
  | _ -> None

(* A custom backend is a vtable of closures: the hook Fault_env (and any
   future backend) uses to sit underneath every byte the store moves. *)
type custom = {
  c_create : string -> custom_writer;
  c_open : string -> custom_reader; (* raises Not_found *)
  c_exists : string -> bool;
  c_delete : string -> unit;
  c_rename : src:string -> dst:string -> unit;
  c_list : unit -> string list;
  c_live_bytes : unit -> int;
}

and custom_writer = {
  cw_append : string -> unit;
  cw_sync : unit -> unit;
  cw_close : unit -> unit;
}

and custom_reader = {
  cr_size : int;
  cr_read : pos:int -> len:int -> string;
  cr_close : unit -> unit;
}

type backend =
  | Mem of (string, Buffer.t) Hashtbl.t
  | Posix of string (* root directory *)
  | Custom of custom

(* Retry configuration attached by [with_retry]. The op counter seeds a
   fresh Rng per durable operation, so backoff schedules are deterministic
   from [r_seed] yet uncorrelated across ops, with no shared Rng lock. *)
type retry_state = {
  r_policy : Wip_util.Retry.policy;
  r_seed : int64;
  r_sleep_ns : int -> unit;
  r_ops : int Atomic.t;
}

(* [lock] guards the Mem backend's file table: one in-memory Env may back
   several shard stores driven from parallel threads, and Hashtbl mutations
   race without it. Posix and Custom backends rely on the OS / the custom
   implementation for their own metadata atomicity. File *contents* need no
   lock here: distinct files own distinct buffers, and each store serializes
   access to its own files. *)
type t = {
  backend : backend;
  stats : Io_stats.t;
  lock : Wip_util.Sync.t;
  retry : retry_state option;
}

type writer = {
  w_env : t;
  w_name : string;
  (* A writer belongs to one producing store; [Sharded_store] serializes
     all appends under the owning shard lock. *)
  mutable w_off : int; (* guarded_by: caller *)
  w_impl : w_impl;
}

and w_impl = W_mem of Buffer.t | W_posix of out_channel | W_custom of custom_writer

type reader = {
  r_env : t;
  r_size : int;
  r_impl : r_impl;
}

(* A posix reader is shared by every read of one table; [pread] holds its
   leaf lock across the seek and the read loop so concurrent reads of one
   reader never interleave. *)
and r_impl =
  | R_mem of string
  | R_posix of { fd : Unix.file_descr; pread : Wip_util.Sync.t }
  | R_custom of custom_reader

let in_memory () =
  {
    backend = Mem (Hashtbl.create 64);
    stats = Io_stats.create ();
    lock = Wip_util.Sync.create ~name:"env" ();
    retry = None;
  }

let custom c =
  {
    backend = Custom c;
    stats = Io_stats.create ();
    lock = Wip_util.Sync.create ~name:"env" ();
    retry = None;
  }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let posix ~root =
  mkdir_p root;
  {
    backend = Posix root;
    stats = Io_stats.create ();
    lock = Wip_util.Sync.create ~name:"env" ();
    retry = None;
  }

let stats t = t.stats

let default_sleep_ns ns = if ns > 0 then Unix.sleepf (float_of_int ns /. 1e9)

let with_retry ?(policy = Wip_util.Retry.default_policy)
    ?(sleep_ns = default_sleep_ns) ~seed t =
  (match Wip_util.Retry.validate policy with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Env.with_retry: " ^ msg));
  {
    t with
    retry =
      Some { r_policy = policy; r_seed = seed; r_sleep_ns = sleep_ns;
             r_ops = Atomic.make 0 };
  }

(* Run one durable operation under the env's retry policy, if any. Only
   transient faults ([Io_fault] with [retryable = true]) are re-attempted;
   the Io_fault contract — the failed op had no effect — is what makes the
   blind re-run sound. Each re-attempt is counted in [Io_stats.retry_count]. *)
let retried t f =
  match t.retry with
  | None -> f ()
  | Some r ->
    let op = Atomic.fetch_and_add r.r_ops 1 in
    let rng =
      Wip_util.Rng.create
        ~seed:
          (Int64.logxor r.r_seed
             (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (op + 1))))
    in
    Wip_util.Retry.run ~policy:r.r_policy ~rng ~sleep_ns:r.r_sleep_ns
      ~is_retryable:io_fault_retryable
      ~on_retry:(fun ~attempt:_ ~delay_ns:_ -> Io_stats.record_retry t.stats)
      f

let locked t f = Wip_util.Sync.with_lock t.lock f

let posix_path root name =
  (* Flatten any separators so the namespace stays flat on disk. *)
  let flat = String.map (fun c -> if c = '/' then '_' else c) name in
  Filename.concat root flat

(* Creations, renames and deletes only survive a power failure once the
   containing directory is fsynced — same discipline as LevelDB's env. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd
  | exception Unix.Unix_error _ -> ()

let create_file t name =
  retried t (fun () ->
      match t.backend with
      | Mem files ->
        let buf = Buffer.create 4096 in
        locked t (fun () -> Hashtbl.replace files name buf);
        { w_env = t; w_name = name; w_off = 0; w_impl = W_mem buf }
      | Posix root ->
        let oc = open_out_bin (posix_path root name) in
        fsync_dir root;
        { w_env = t; w_name = name; w_off = 0; w_impl = W_posix oc }
      | Custom c ->
        { w_env = t; w_name = name; w_off = 0;
          w_impl = W_custom (c.c_create name) })

let append w ~category s =
  retried w.w_env (fun () ->
      match w.w_impl with
      | W_mem buf -> Buffer.add_string buf s
      | W_posix oc -> output_string oc s
      | W_custom cw -> cw.cw_append s);
  Io_stats.record_write w.w_env.stats category (String.length s);
  w.w_off <- w.w_off + String.length s

let writer_offset w = w.w_off

let sync w =
  Io_stats.record_sync w.w_env.stats;
  retried w.w_env (fun () ->
      match w.w_impl with
      | W_mem _ -> ()
      | W_posix oc ->
        flush oc;
        (try Unix.fsync (Unix.descr_of_out_channel oc)
         with Unix.Unix_error _ -> ())
      | W_custom cw -> cw.cw_sync ())

let close_writer w =
  match w.w_impl with
  | W_mem _ -> ()
  | W_posix oc -> close_out oc
  | W_custom cw -> cw.cw_close ()

let open_file t name =
  match t.backend with
  | Mem files ->
    let buf =
      locked t (fun () ->
          try Hashtbl.find files name with Not_found -> raise Not_found)
    in
    let contents = Buffer.contents buf in
    { r_env = t; r_size = String.length contents; r_impl = R_mem contents }
  | Posix root ->
    let path = posix_path root name in
    if not (Sys.file_exists path) then raise Not_found;
    let fd = Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
    let pread = Wip_util.Sync.create ~name:"env-reader" () in
    { r_env = t; r_size = (Unix.fstat fd).Unix.st_size;
      r_impl = R_posix { fd; pread } }
  | Custom c ->
    let cr = c.c_open name in
    { r_env = t; r_size = cr.cr_size; r_impl = R_custom cr }

let read r ~category ~pos ~len =
  if pos < 0 || len < 0 || pos + len > r.r_size then
    invalid_arg
      (Printf.sprintf "Env.read: range [%d, %d+%d) out of bounds (size %d)"
         pos pos len r.r_size);
  Io_stats.record_read r.r_env.stats category len;
  match r.r_impl with
  | R_mem s -> String.sub s pos len
  | R_posix { fd; pread } ->
    (* Exactly [len] bytes from the file, no buffering in between: a random
       block read costs one small read, not a refill of a 64 KiB buffer. *)
    let buf = Bytes.create len in
    Wip_util.Sync.with_lock pread (fun () ->
        ignore (Unix.lseek fd pos Unix.SEEK_SET);
        let rec fill off =
          if off < len then
            match Unix.read fd buf off (len - off) with
            | 0 -> raise End_of_file
            | n -> fill (off + n)
        in
        fill 0);
    Bytes.unsafe_to_string buf
  | R_custom cr -> cr.cr_read ~pos ~len

let read_all r ~category = read r ~category ~pos:0 ~len:r.r_size

let file_size r = r.r_size

let close_reader r =
  match r.r_impl with
  | R_mem _ -> ()
  | R_posix { fd; _ } -> Unix.close fd
  | R_custom cr -> cr.cr_close ()

let exists t name =
  match t.backend with
  | Mem files -> locked t (fun () -> Hashtbl.mem files name)
  | Posix root -> Sys.file_exists (posix_path root name)
  | Custom c -> c.c_exists name

let delete t name =
  retried t (fun () ->
      match t.backend with
      | Mem files -> locked t (fun () -> Hashtbl.remove files name)
      | Posix root ->
        let path = posix_path root name in
        if Sys.file_exists path then begin
          Sys.remove path;
          fsync_dir root
        end
      | Custom c -> c.c_delete name)

let rename t ~src ~dst =
  retried t (fun () ->
      match t.backend with
      | Mem files ->
        locked t (fun () ->
            match Hashtbl.find_opt files src with
            | None -> raise Not_found
            | Some buf ->
              Hashtbl.remove files src;
              Hashtbl.replace files dst buf)
      | Posix root ->
        Sys.rename (posix_path root src) (posix_path root dst);
        fsync_dir root
      | Custom c -> c.c_rename ~src ~dst)

let list_files t =
  match t.backend with
  | Mem files ->
    locked t (fun () -> Hashtbl.fold (fun name _ acc -> name :: acc) files [])
    |> List.sort String.compare
  | Posix root ->
    Sys.readdir root |> Array.to_list |> List.sort String.compare
  | Custom c -> List.sort String.compare (c.c_list ())

let total_live_bytes t =
  match t.backend with
  | Mem files ->
    locked t (fun () ->
        Hashtbl.fold (fun _ buf acc -> acc + Buffer.length buf) files 0)
  | Posix root ->
    Sys.readdir root |> Array.to_list
    |> List.fold_left
         (fun acc name ->
           acc + (Unix.stat (Filename.concat root name)).Unix.st_size)
         0
  | Custom c -> c.c_live_bytes ()
