module Sync = Wip_util.Sync
module Io_stats = Wip_storage.Io_stats
module Intf = Wip_kv.Store_intf

type pending = {
  items : (Wip_util.Ikey.kind * string * string) list;
  submitted_at : float;
  mutable verdict : (unit, Intf.write_error) result option; (* guarded_by: lock *)
}

type t = {
  lock : Sync.t;
  done_c : Sync.Cond.cond;
  mutable queue : pending list; (* newest first; guarded_by: lock *)
  mutable queued_bytes : int; (* guarded_by: lock *)
  mutable leader_active : bool; (* guarded_by: lock *)
  mutable stopping : bool; (* guarded_by: lock *)
  mutable window_count : int; (* guarded_by: lock *)
  mutable request_count : int; (* guarded_by: lock *)
  max_batch_bytes : int;
  max_delay_s : float;
  coalesce : bool;
  stats : Io_stats.t option;
  commit :
    (Wip_util.Ikey.kind * string * string) list array ->
    (unit, Intf.write_error) result array;
}

(* Below the shard locks (rank_shard_base = 1000) so a commit could even
   run with this lock held; above the pool. In practice the commit runs
   with no group-commit lock held at all — see [lead]. *)
let rank_group_commit = 500

let create ?(max_batch_bytes = 1024 * 1024) ?(max_delay_s = 0.002)
    ?(coalesce = true) ?stats ~commit () =
  if max_batch_bytes < 1 then
    invalid_arg "Group_commit.create: max_batch_bytes must be >= 1";
  if max_delay_s <= 0.0 then
    invalid_arg "Group_commit.create: max_delay_s must be > 0";
  let lock = Sync.create ~rank:rank_group_commit ~name:"group-commit" () in
  {
    lock;
    done_c = Sync.Cond.create lock;
    queue = [];
    queued_bytes = 0;
    leader_active = false;
    stopping = false;
    window_count = 0;
    request_count = 0;
    max_batch_bytes;
    max_delay_s;
    coalesce;
    stats;
    commit;
  }

let batch_bytes items =
  List.fold_left
    (fun acc (_, key, value) -> acc + String.length key + String.length value)
    0 items

let refused = Error (Intf.Store_degraded { reason = "group commit stopped" })

let record t ~requests ~started =
  match t.stats with
  | None -> ()
  | Some stats ->
    let ns = int_of_float ((Unix.gettimeofday () -. started) *. 1e9) in
    Io_stats.(
      add_many stats
        [ (commit_windows, 1); (commit_requests, requests); (commit_time, ns) ])

(* Deliver verdicts to a window and hand the leader slot back. Always
   broadcasts — followers must never stay parked, least of all when the
   commit raised. *)
let finish t window ~count verdict_of =
  Sync.with_lock t.lock (fun () ->
      List.iteri (fun idx q -> q.verdict <- Some (verdict_of idx)) window;
      t.leader_active <- false;
      if count then begin
        t.window_count <- t.window_count + 1;
        t.request_count <- t.request_count + List.length window
      end;
      Sync.Cond.broadcast t.done_c)

(* Leader: drive [window] through the commit function with no group-commit
   lock held, so the next window accumulates during this one's fsync. *)
let lead t p window =
  let batches = Array.of_list (List.map (fun q -> q.items) window) in
  let verdicts =
    try t.commit batches
    with e ->
      let reason =
        Printf.sprintf "group commit window failed: %s" (Printexc.to_string e)
      in
      finish t window ~count:false (fun _ ->
          Error (Intf.Store_degraded { reason }));
      raise e
  in
  finish t window ~count:true (fun idx -> verdicts.(idx));
  let first =
    match window with q :: _ -> q.submitted_at | [] -> p.submitted_at
  in
  record t ~requests:(Array.length batches) ~started:first;
  (* [finish] published the verdict under the lock before broadcasting, and
     the leader's own pending entry is never reset once set.
     lint: allow R8 — leader reads its own just-published verdict *)
  match p.verdict with Some v -> v | None -> assert false

let submit t items =
  if items = [] then Ok ()
  else begin
    let p =
      { items; submitted_at = Unix.gettimeofday (); verdict = None }
    in
    let role =
      Sync.with_lock t.lock (fun () ->
          Sync.check_guard t.lock ~field:"queue";
          if t.stopping then `Refused
          else begin
            t.queue <- p :: t.queue;
            t.queued_bytes <- t.queued_bytes + batch_bytes items;
            let rec wait () =
              match p.verdict with
              | Some v -> `Done v
              | None ->
                if t.leader_active then begin
                  Sync.Cond.wait t.done_c;
                  wait ()
                end
                else begin
                  t.leader_active <- true;
                  if t.coalesce then begin
                    (* Fill the window: poll until the burst settles (one
                       quantum with no new arrivals — the natural case,
                       since anything queued now arrived during the
                       previous window's fsync), the bytes cap is hit, or
                       the max-delay clock from this submission expires.
                       A lone submitter pays one quantum, not the full
                       delay. *)
                    let last_len = ref (-1) in
                    ignore
                      (Sync.await t.lock ~quantum_s:0.00005
                         ~deadline:(p.submitted_at +. t.max_delay_s)
                         (fun () ->
                           (* The await contract runs the predicate with
                              [lock] held; the linter models the body as
                              released because the lock drops between polls.
                              lint: allow R8 — await pred holds the lock *)
                           let n = List.length t.queue in
                           let settled = n = !last_len in
                           last_len := n;
                           (* lint: allow R8 — await pred holds the lock *)
                           t.queued_bytes >= t.max_batch_bytes || t.stopping
                           || settled));
                    let window = List.rev t.queue in
                    t.queue <- [];
                    t.queued_bytes <- 0;
                    `Lead window
                  end
                  else begin
                    (* Baseline mode: the same serialized leader path, but
                       the window is forced to this one batch — one commit
                       (one append + fsync per touched shard) per request.
                       Anything else queued waits for the next leader. *)
                    t.queue <- List.filter (fun q -> not (q == p)) t.queue;
                    t.queued_bytes <- t.queued_bytes - batch_bytes p.items;
                    `Lead [ p ]
                  end
                end
            in
            wait ()
          end)
    in
    match role with
    | `Refused -> refused
    | `Done v -> v
    | `Lead window -> lead t p window
  end

let stop t =
  Sync.with_lock t.lock (fun () ->
      t.stopping <- true;
      let deadline = Unix.gettimeofday () +. 10.0 in
      ignore
        (Sync.await t.lock ~deadline (fun () ->
             (* lint: allow R8 — await pred holds the lock *)
             match t.queue with [] -> not t.leader_active | _ -> false)))

let windows t = Sync.with_lock t.lock (fun () -> t.window_count)

let requests t = Sync.with_lock t.lock (fun () -> t.request_count)
