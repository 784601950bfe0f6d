module Sync = Wip_util.Sync
module Ikey = Wip_util.Ikey
module Intf = Wip_kv.Store_intf

type store_ops = {
  get : string -> string option;
  scan :
    lo:string -> hi:string -> limit:int option -> (string * string) list;
  commit :
    (Ikey.kind * string * string) list array ->
    (unit, Intf.write_error) result array;
  stats : unit -> (string * int64) list;
}

type conn = {
  fd : Unix.file_descr;
  write_lock : Sync.t; (* leaf: held only across one frame write *)
  mutable closed : bool; (* guarded_by: write_lock *)
  mutable outstanding : int; (* queued + executing jobs; guarded_by: qlock *)
}

type job = { conn : conn; id : int; req : Protocol.request }

(* Below the group-commit lock (500): a worker holding nothing calls
   Group_commit.submit, and the queue lock is never held across a job. *)
let rank_queue = 400

type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  ops : store_ops;
  gc : Group_commit.t;
  pipeline_depth : int;
  stopping : bool Atomic.t;
  qlock : Sync.t;
  have_jobs : Sync.Cond.cond; (* signaled on push and on stop *)
  have_space : Sync.Cond.cond; (* signaled when a job completes *)
  jobs : job Queue.t; (* guarded_by: qlock *)
  mutable conns : conn list; (* guarded_by: qlock *)
  (* The two lifecycle fields are written in [start] before the handle
     escapes and in [stop] (idempotent via the [stopping] exchange). *)
  mutable workers : unit Domain.t list; (* guarded_by: none *)
  mutable acceptor : Thread.t option; (* guarded_by: none *)
}

let port t = t.bound_port

let group t = t.gc

(* ------------------------------------------------------------------ *)
(* Responses *)

let respond conn ~id resp =
  let frame = Protocol.encode_response ~id resp in
  Sync.with_lock conn.write_lock (fun () ->
      if not conn.closed then
        (* Deliberate leaf-lock flush: [write_lock] is held only across this
           one frame write, serializing concurrent responders per socket.
           lint: allow R9 — leaf write_lock, one frame per hold *)
        try Netio.write_all conn.fd frame
        with Unix.Unix_error _ ->
          (* Peer is gone; the reader thread owns the cleanup. *)
          conn.closed <- true)

let execute t req =
  let commit items =
    match Group_commit.submit t.gc items with
    | Ok () -> Protocol.Ack
    | Error e -> Protocol.Error (Protocol.write_error_to_wire e)
  in
  match req with
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Get { key } -> (
    match t.ops.get key with
    | Some value -> Protocol.Value { value }
    | None -> Protocol.Not_found)
  | Protocol.Put { key; value } -> commit [ (Ikey.Value, key, value) ]
  | Protocol.Delete { key } -> commit [ (Ikey.Deletion, key, "") ]
  | Protocol.Write_batch items -> commit items
  | Protocol.Scan { limit = Some l; _ } when l < 0 ->
    (* Decode already rejects negative wire limits; this guards direct
       [store_ops] callers so a bad limit yields a typed error on this
       request instead of an exception in the worker. *)
    Protocol.Error (Protocol.Bad_request { message = "negative scan limit" })
  | Protocol.Scan { lo; hi; limit } ->
    Protocol.Entries (t.ops.scan ~lo ~hi ~limit)
  | Protocol.Stats -> Protocol.Stats_reply (t.ops.stats ())

let handle t { conn; id; req } =
  let resp =
    try execute t req
    with
    | Intf.Rejected e -> Protocol.Error (Protocol.write_error_to_wire e)
    | e ->
      (* A worker must survive anything a store can throw; the client gets
         a typed error instead of a hung request. *)
      Protocol.Error
        (Protocol.Store_degraded { reason = Printexc.to_string e })
  in
  respond conn ~id resp

(* ------------------------------------------------------------------ *)
(* Worker domains *)

let worker_loop t () =
  let rec next () =
    let job =
      Sync.with_lock t.qlock (fun () ->
          let rec take () =
            if not (Queue.is_empty t.jobs) then Some (Queue.pop t.jobs)
            else if Atomic.get t.stopping then None
            else begin
              Sync.Cond.wait t.have_jobs;
              take ()
            end
          in
          take ())
    in
    match job with
    | None -> ()
    | Some job ->
      handle t job;
      Sync.with_lock t.qlock (fun () ->
          job.conn.outstanding <- job.conn.outstanding - 1;
          Sync.Cond.broadcast t.have_space);
      next ()
  in
  next ()

(* ------------------------------------------------------------------ *)
(* Per-connection reader *)

let enqueue t conn ~id req =
  Sync.with_lock t.qlock (fun () ->
      (* Pipeline bound: past [pipeline_depth] outstanding requests the
         reader parks here, stops draining the socket, and the client
         feels TCP backpressure. *)
      let rec wait_space () =
        if
          (not (Atomic.get t.stopping))
          && conn.outstanding >= t.pipeline_depth
        then begin
          Sync.Cond.wait t.have_space;
          wait_space ()
        end
      in
      wait_space ();
      Sync.check_guard t.qlock ~field:"outstanding";
      if not (Atomic.get t.stopping) then begin
        conn.outstanding <- conn.outstanding + 1;
        Queue.push { conn; id; req } t.jobs;
        Sync.Cond.signal t.have_jobs
      end)

let unregister t conn =
  Sync.with_lock conn.write_lock (fun () ->
      if not conn.closed then begin
        conn.closed <- true;
        Netio.close_quietly conn.fd
      end);
  Sync.with_lock t.qlock (fun () ->
      t.conns <- List.filter (fun c -> not (c == conn)) t.conns)

let reader t conn () =
  let inbox = Netio.inbox () in
  let read = Netio.read_fd conn.fd in
  let rec loop () =
    match Netio.next_frame inbox ~read ~decode:Protocol.decode_request with
    | Protocol.Frame { id; payload; _ } ->
      enqueue t conn ~id payload;
      loop ()
    | Protocol.Fail e ->
      (* Typed decode failure. The stream is unsynchronized from here, so
         answer (id 0 — the frame's own id may be the corrupt part) and
         hang up. *)
      respond conn ~id:0
        (Protocol.Error
           (Protocol.Bad_request
              { message = Protocol.protocol_error_to_string e }))
    | Protocol.Need_more -> ()
  in
  (try loop () with Unix.Unix_error _ -> ());
  unregister t conn

(* ------------------------------------------------------------------ *)
(* Acceptor + lifecycle *)

let acceptor_loop t () =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      match Unix.accept t.listen_fd with
      | fd, _ ->
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let conn =
          {
            fd;
            write_lock = Sync.create ~name:"conn-write" ();
            closed = false;
            outstanding = 0;
          }
        in
        Sync.with_lock t.qlock (fun () -> t.conns <- conn :: t.conns);
        ignore (Thread.create (reader t conn) ());
        loop ()
      | exception Unix.Unix_error _ ->
        (* stop closed the listening socket *)
        ()
    end
  in
  loop ()

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* [shutdown], not [close]: a close alone leaves the acceptor blocked
       in [accept] forever on Linux. *)
    Netio.shutdown_quietly t.listen_fd;
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    Netio.close_quietly t.listen_fd;
    (* Shut down every live connection: its blocked reader wakes on EOF,
       runs [unregister], and closes the descriptor itself. *)
    let conns = Sync.with_lock t.qlock (fun () -> t.conns) in
    List.iter (fun conn -> Netio.shutdown_quietly conn.fd) conns;
    (* Wake parked workers and readers so they observe [stopping]. *)
    Sync.with_lock t.qlock (fun () ->
        Sync.Cond.broadcast t.have_jobs;
        Sync.Cond.broadcast t.have_space);
    List.iter Domain.join t.workers;
    t.workers <- [];
    Group_commit.stop t.gc
  end

let start ?(addr = "127.0.0.1") ?(port = 0) ?(workers = 4)
    ?(pipeline_depth = 64) ?(group_commit = true)
    ?(max_batch_bytes = 1024 * 1024) ?(max_delay_s = 0.002) ?stats ~ops () =
  if workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if pipeline_depth < 1 then
    invalid_arg "Server.start: pipeline_depth must be >= 1";
  let gc =
    Group_commit.create ~max_batch_bytes ~max_delay_s ~coalesce:group_commit
      ?stats ~commit:ops.commit ()
  in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  (try
     Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.listen listen_fd 128
   with e ->
     Netio.close_quietly listen_fd;
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let qlock = Sync.create ~rank:rank_queue ~name:"server-queue" () in
  let t =
    {
      listen_fd;
      bound_port;
      ops;
      gc;
      pipeline_depth;
      stopping = Atomic.make false;
      qlock;
      have_jobs = Sync.Cond.create qlock;
      have_space = Sync.Cond.create qlock;
      jobs = Queue.create ();
      conns = [];
      workers = [];
      acceptor = None;
    }
  in
  t.workers <- List.init workers (fun _ -> Domain.spawn (worker_loop t));
  t.acceptor <- Some (Thread.create (acceptor_loop t) ());
  (* A server left running at process exit would keep the program alive. *)
  at_exit (fun () -> stop t);
  t
