exception Crashed

(* Growable byte array: Buffer has no in-place mutation, which bit-flip
   corruption needs. *)
(* Every mutable field below is caller-serialized — a fault env is driven
   by one store (or one test thread) at a time; chaos tests serialize crash
   injection with the store's own shard lock before touching plans. *)
type file = {
  mutable data : Bytes.t; (* guarded_by: caller *)
  mutable len : int; (* guarded_by: caller *)
  mutable synced : int; (* durable prefix length, <= len; guarded_by: caller *)
}

type fault = Crash of { torn : int } | Fail of { retryable : bool }

type t = {
  files : (string, file) Hashtbl.t;
  mutable durable_plan : (int * fault) list; (* guarded_by: caller *)
  mutable read_plan : int list; (* guarded_by: caller *)
  mutable storms : (int * int) list; (* durable-op windows; guarded_by: caller *)
  mutable space_budget : int option; (* None = infinite; guarded_by: caller *)
  mutable appended : int; (* bytes appended so far; guarded_by: caller *)
  mutable latency_ns : int; (* delay per durable op; guarded_by: caller *)
  mutable durable_ops : int; (* guarded_by: caller *)
  mutable read_ops : int; (* guarded_by: caller *)
  mutable captured : (string * string) list option; (* guarded_by: caller *)
  mutable wrapped : Env.t option; (* guarded_by: caller *)
}

let create_file_state () = { data = Bytes.create 256; len = 0; synced = 0 }

let ensure_capacity f extra =
  let need = f.len + extra in
  if need > Bytes.length f.data then begin
    let bigger = Bytes.create (max need (2 * Bytes.length f.data)) in
    Bytes.blit f.data 0 bigger 0 f.len;
    f.data <- bigger
  end

let contents f = Bytes.sub_string f.data 0 f.len

let find_file t name =
  match Hashtbl.find_opt t.files name with
  | Some f -> f
  | None -> raise Not_found

let stats t =
  match t.wrapped with Some env -> Env.stats env | None -> assert false

(* Capture the durable view: each file cut to its synced prefix, except
   [torn_file] which keeps [torn] extra unsynced bytes (a torn write).
   [buffered] is the extent of valid bytes in the torn file's buffer —
   during an append crash the in-flight bytes sit beyond [f.len]. *)
let capture t ~torn_file ~torn ~buffered =
  let image =
    Hashtbl.fold
      (fun name f acc ->
        let keep =
          if String.equal name torn_file then min buffered (f.synced + torn)
          else f.synced
        in
        (name, Bytes.sub_string f.data 0 keep) :: acc)
      t.files []
  in
  t.captured <- Some image

let in_storm t =
  List.exists (fun (lo, hi) -> t.durable_ops >= lo && t.durable_ops < hi)
    t.storms

(* One durable op: consult the plan, then run [apply]. A crash captures the
   image with the op's bytes already buffered, so [torn] can expose any
   prefix of them. Each attempt — including a retry of a failed op — counts
   as a fresh op, so a storm window [i, j) fails every attempt made while
   the window lasts and lets a later retry through. *)
let durable_op t ~op_name ~file ~torn_file ~buffered ~apply =
  t.durable_ops <- t.durable_ops + 1;
  if t.latency_ns > 0 then Unix.sleepf (float_of_int t.latency_ns /. 1e9);
  match List.assoc_opt t.durable_ops t.durable_plan with
  | Some (Crash { torn }) ->
    Io_stats.(add (stats t) faults 1);
    capture t ~torn_file ~torn ~buffered;
    raise Crashed
  | Some (Fail { retryable }) ->
    Io_stats.(add (stats t) faults 1);
    raise (Env.Io_fault { op = op_name; file; retryable })
  | None ->
    if in_storm t then begin
      Io_stats.(add (stats t) faults 1);
      raise (Env.Io_fault { op = op_name; file; retryable = true })
    end;
    apply ()

let backend t =
  let create name =
    let f = create_file_state () in
    Hashtbl.replace t.files name f;
    {
      Env.cw_append =
        (fun s ->
          (* Disk full is permanent: checked before the op is even numbered,
             raised with [retryable = false] so no retry loop spins on it. *)
          (match t.space_budget with
          | Some budget when t.appended + String.length s > budget ->
            Io_stats.(add (stats t) faults 1);
            raise (Env.Io_fault { op = "no_space"; file = name;
                                  retryable = false })
          | _ -> ());
          (* Buffer the bytes first so a crash here can tear them. *)
          ensure_capacity f (String.length s);
          Bytes.blit_string s 0 f.data f.len (String.length s);
          let before = f.len in
          durable_op t ~op_name:"append" ~file:name ~torn_file:name
            ~buffered:(before + String.length s)
            ~apply:(fun () ->
              f.len <- before + String.length s;
              t.appended <- t.appended + String.length s));
      cw_sync =
        (fun () ->
          (* The tail being persisted is still unsynced if we crash here. *)
          durable_op t ~op_name:"sync" ~file:name ~torn_file:name
            ~buffered:f.len
            ~apply:(fun () -> f.synced <- f.len));
      cw_close = (fun () -> ());
    }
  in
  let open_ name =
    let f = find_file t name in
    let snapshot = contents f in
    {
      Env.cr_size = String.length snapshot;
      cr_read =
        (fun ~pos ~len ->
          t.read_ops <- t.read_ops + 1;
          if List.mem t.read_ops t.read_plan then begin
            Io_stats.(add (stats t) faults 1);
            (* Read faults are never retried by the env (reads fail the one
               lookup, typed); retryable = false keeps that explicit. *)
            raise (Env.Io_fault { op = "read"; file = name;
                                  retryable = false })
          end;
          String.sub snapshot pos len);
      cr_close = (fun () -> ());
    }
  in
  {
    Env.c_create = create;
    c_open = open_;
    c_exists = (fun name -> Hashtbl.mem t.files name);
    c_delete = (fun name -> Hashtbl.remove t.files name);
    c_rename =
      (fun ~src ~dst ->
        let f = find_file t src in
        Hashtbl.remove t.files src;
        Hashtbl.replace t.files dst f);
    c_list = (fun () -> Hashtbl.fold (fun name _ acc -> name :: acc) t.files []);
    c_live_bytes = (fun () -> Hashtbl.fold (fun _ f acc -> acc + f.len) t.files 0);
  }

let create () =
  let t =
    {
      files = Hashtbl.create 64;
      durable_plan = [];
      read_plan = [];
      storms = [];
      space_budget = None;
      appended = 0;
      latency_ns = 0;
      durable_ops = 0;
      read_ops = 0;
      captured = None;
      wrapped = None;
    }
  in
  t.wrapped <- Some (Env.custom (backend t));
  t

let env t = match t.wrapped with Some e -> e | None -> assert false

let crash_at t ~op ?(torn = 0) () =
  t.durable_plan <- (op, Crash { torn }) :: t.durable_plan

let fail_write_at t ?(retryable = true) ~op () =
  t.durable_plan <- (op, Fail { retryable }) :: t.durable_plan

let fail_read_at t ~op = t.read_plan <- op :: t.read_plan

let storm t ~first_op ~last_op =
  if first_op < 1 || last_op < first_op then
    invalid_arg "Fault_env.storm: need 1 <= first_op <= last_op";
  t.storms <- (first_op, last_op) :: t.storms

let set_space_budget t ~bytes = t.space_budget <- bytes

let set_latency t ~durable_ns =
  if durable_ns < 0 then invalid_arg "Fault_env.set_latency: negative";
  t.latency_ns <- durable_ns


let flip_bit t ~file ~bit =
  let f = find_file t file in
  let pos = bit / 8 in
  if pos >= f.len then
    invalid_arg
      (Printf.sprintf "Fault_env.flip_bit: bit %d outside %s (%d bytes)" bit
         file f.len);
  Io_stats.(add (stats t) faults 1);
  Bytes.set f.data pos
    (Char.chr (Char.code (Bytes.get f.data pos) lxor (1 lsl (bit mod 8))))

let durable_ops t = t.durable_ops

let read_ops t = t.read_ops

let file_size t name = (find_file t name).len

let build_env files =
  let env = Env.in_memory () in
  List.iter
    (fun (name, data) ->
      let w = Env.create_file env name in
      Env.append w ~category:Io_stats.Manifest data;
      Env.close_writer w)
    files;
  Io_stats.reset (Env.stats env);
  env

let image t =
  match t.captured with
  | Some files -> build_env files
  | None -> invalid_arg "Fault_env.image: no scripted crash has fired"

let durable_image t =
  build_env
    (Hashtbl.fold
       (fun name f acc -> (name, Bytes.sub_string f.data 0 f.synced) :: acc)
       t.files [])

let snapshot_env ?truncate t =
  build_env
    (Hashtbl.fold
       (fun name f acc ->
         let keep =
           match truncate with
           | Some (file, cut) when String.equal file name -> min cut f.len
           | _ -> f.len
         in
         (name, Bytes.sub_string f.data 0 keep) :: acc)
       t.files [])
