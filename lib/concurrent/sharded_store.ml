module Sync = Wip_util.Sync
module Io_stats = Wip_storage.Io_stats
module Intf = Wip_kv.Store_intf

module Make (S : Wip_kv.Store_intf.S) = struct
  type shard = {
    lo : string; (* inclusive lower key bound; "" for the first shard *)
    store : S.t;
    lock : Sync.t;
    mutable claimed : bool; (* held by a pool worker; guarded_by: pool_lock *)
    mutable inflight : int; (* guarded_by: lock — bytes admitted since the
           pool last serviced this shard (priority reads it racily, advisory) *)
  }

  type t = {
    shards : shard array; (* sorted by lo *)
    budget : int;
    idle_sleep : float;
    stopping : bool Atomic.t;
    cycles : int Atomic.t;
    pool_lock : Sync.t;
    (* Written in [create] before the front is shared and in [stop] (idempotent
       via the [stopping] exchange); never touched concurrently. *)
    mutable workers : unit Domain.t list; (* guarded_by: none *)
    (* Admission control over per-shard write debt. *)
    admission : bool;
    slowdown_mark : int;
    stop_mark : int;
    inflight_limit : int;
    stall_deadline_s : float;
  }

  let shard_count t = Array.length t.shards

  let pool_size t = List.length t.workers

  let compaction_cycles t = Atomic.get t.cycles

  let locked_shard sh f = Sync.with_lock sh.lock (fun () -> f sh.store)

  (* Rightmost shard whose lower bound <= key (same rule as the engine's own
     bucket directory). *)
  let shard_index t key =
    let arr = t.shards in
    let rec bs lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if String.compare arr.(mid).lo key <= 0 then bs mid hi else bs lo mid
    in
    bs 0 (Array.length arr)

  (* ---------------------------------------------------------------- *)
  (* Compaction pool: workers pull per-shard maintenance work, always
     serving the shard with the largest pending-work estimate that no other
     worker holds. The estimate is read WITHOUT the shard lock (the
     Store_intf.maintenance_pending contract) so scanning never stalls
     behind foreground traffic; staleness only misprioritizes a cycle. *)

  let claim_shard t =
    Sync.with_lock t.pool_lock (fun () ->
        let best = ref None in
        Array.iter
          (fun sh ->
            if not sh.claimed then begin
              (* In-flight bytes count toward priority so the pool also
                 visits shards whose engines are quiescent but whose debt
                 budget needs resetting (racy read — advisory, like the
                 pending estimate). *)
              (* Advisory racy read, declared in the field's contract:
                 staleness only misprioritizes one pool cycle.
                 lint: allow R8 — racy advisory priority read *)
              let p = S.maintenance_pending sh.store + sh.inflight in
              if p > 0 then
                match !best with
                | Some (_, bp) when bp >= p -> ()
                | _ -> best := Some (sh, p)
            end)
          t.shards;
        (match !best with Some (sh, _) -> sh.claimed <- true | None -> ());
        Option.map fst !best)

  let release_shard t sh =
    Sync.with_lock t.pool_lock (fun () -> sh.claimed <- false)

  let worker t () =
    while not (Atomic.get t.stopping) do
      match claim_shard t with
      | Some sh ->
        Fun.protect
          ~finally:(fun () -> release_shard t sh)
          (fun () ->
            (* Engines only raise on injected faults; the pool is not meant
               to drive fault-injection envs, so a failed cycle is dropped
               rather than taking the whole pool down. A completed cycle
               resets the shard's in-flight byte budget: the pool has
               serviced it, so stalled writers may proceed. *)
            try
              Sync.with_lock sh.lock (fun () ->
                  S.maintenance sh.store ~budget_bytes:t.budget ();
                  sh.inflight <- 0)
            with _ -> ());
        Atomic.incr t.cycles;
        (* Yield so foreground threads can take the shard lock. *)
        Unix.sleepf t.idle_sleep
      | None -> Unix.sleepf (t.idle_sleep *. 10.0)
    done

  (* ---------------------------------------------------------------- *)
  (* Lifecycle *)

  let maintenance t ?budget_bytes () =
    Array.iter
      (fun sh ->
        Sync.with_lock sh.lock (fun () ->
            S.maintenance sh.store ?budget_bytes ();
            sh.inflight <- 0))
      t.shards

  let stop t =
    if not (Atomic.exchange t.stopping true) then begin
      List.iter Domain.join t.workers;
      t.workers <- [];
      (* Drain to quiescence so post-stop reads see fully-compacted state.
         A degraded shard refuses maintenance — leave it be; its reads
         still serve from the runs it already has. *)
      Array.iter
        (fun sh ->
          try
            Sync.with_lock sh.lock (fun () ->
                S.maintenance sh.store ();
                sh.inflight <- 0)
          with Intf.Rejected _ -> ())
        t.shards
    end

  let create ?(pool_threads = 7) ?(budget_per_cycle = 1024 * 1024)
      ?(idle_sleep = 0.001) ?(admission = true)
      ?(slowdown_watermark_bytes = 2 * 1024 * 1024)
      ?(stop_watermark_bytes = 4 * 1024 * 1024)
      ?(inflight_limit_bytes = 4 * 1024 * 1024) ?(stall_deadline_s = 1.0)
      shards =
    if slowdown_watermark_bytes < 1 || stop_watermark_bytes < slowdown_watermark_bytes
    then
      invalid_arg
        "Sharded_store.create: need 1 <= slowdown_watermark_bytes <= \
         stop_watermark_bytes";
    if inflight_limit_bytes < 1 then
      invalid_arg "Sharded_store.create: inflight_limit_bytes must be >= 1";
    if stall_deadline_s <= 0.0 then
      invalid_arg "Sharded_store.create: stall_deadline_s must be > 0";
    (match shards with
    | [] -> invalid_arg "Sharded_store.create: at least one shard"
    | (lo0, _) :: _ ->
      if lo0 <> "" then
        invalid_arg "Sharded_store.create: first shard's lower bound must be \"\"");
    let rec check_sorted = function
      | (a, _) :: ((b, _) :: _ as rest) ->
        if String.compare a b >= 0 then
          invalid_arg
            "Sharded_store.create: shard lower bounds must be strictly increasing";
        check_sorted rest
      | _ -> ()
    in
    check_sorted shards;
    let t =
      {
        shards =
          Array.of_list
            (List.mapi
               (fun i (lo, store) ->
                 {
                   lo;
                   store;
                   (* Rank = shard index: cross-shard operations acquire in
                      ascending shard order, which the debug validator can
                      then check as ascending ranks. *)
                   lock =
                     Sync.create
                       ~rank:(Sync.rank_shard_base + i)
                       ~name:(Printf.sprintf "shard-%d" i)
                       ();
                   claimed = false;
                   inflight = 0;
                 })
               shards);
        budget = budget_per_cycle;
        idle_sleep;
        stopping = Atomic.make false;
        cycles = Atomic.make 0;
        pool_lock = Sync.create ~rank:Sync.rank_pool ~name:"pool" ();
        workers = [];
        admission;
        slowdown_mark = slowdown_watermark_bytes;
        stop_mark = stop_watermark_bytes;
        inflight_limit = inflight_limit_bytes;
        stall_deadline_s;
      }
    in
    t.workers <- List.init (max 0 pool_threads) (fun _ -> Domain.spawn (worker t));
    (* A pool left running at process exit would keep the program alive;
       tests and benches that fail mid-flight still shut down cleanly. *)
    if t.workers <> [] then at_exit (fun () -> stop t);
    t

  (* ---------------------------------------------------------------- *)
  (* Admission control.

     Each shard carries a write-debt estimate: the engine's advisory
     [maintenance_pending] plus the in-flight bytes admitted since the pool
     last serviced the shard. A writer whose batch would push the debt past
     the stop watermark (or the in-flight bytes past their budget) stalls in
     {!Sync.await} — the shard lock is released between checks, so a pool
     worker can claim the shard and drain — until the debt recedes or the
     stall deadline passes, at which point the write is refused with a
     typed [Backpressure] rather than hanging. The slowdown band waits
     briefly and then admits regardless. *)

  let slowdown_wait_s = 0.005

  (* requires: lock *)
  let admit t i sh ~bytes =
    if not t.admission then Ok ()
    else begin
      (* A quiescent engine has no residual debt; refresh the budget so
         eager-compacting engines (and pool-less fronts) never stall on
         bytes that were drained inline. *)
      if S.maintenance_pending sh.store = 0 then sh.inflight <- 0;
      let debt () = S.maintenance_pending sh.store + sh.inflight in
      let fits () =
        debt () + bytes <= t.stop_mark
        && sh.inflight + bytes <= t.inflight_limit
      in
      if fits () && debt () <= t.slowdown_mark then Ok ()
      else begin
        let started = Unix.gettimeofday () in
        let deadline = started +. t.stall_deadline_s in
        let admitted =
          if fits () then begin
            (* Slowdown band: give the pool a moment, then admit anyway. *)
            ignore
              (Sync.await sh.lock
                 ~deadline:(min deadline (started +. slowdown_wait_s))
                 (fun () -> debt () <= t.slowdown_mark));
            true
          end
          else Sync.await sh.lock ~deadline fits
        in
        Io_stats.record_stall (S.io_stats sh.store)
          ~ns:(int_of_float ((Unix.gettimeofday () -. started) *. 1e9));
        if admitted then Ok ()
        else Error (Intf.Backpressure { shard = i; debt_bytes = debt () })
      end
    end

  let batch_bytes items =
    List.fold_left
      (fun acc (_, key, value) ->
        acc + String.length key + String.length value)
      0 items

  (* Re-tag an engine-level refusal with the front end's shard index. *)
  let retag i = function
    | Intf.Backpressure { debt_bytes; _ } ->
      Intf.Backpressure { shard = i; debt_bytes }
    | (Intf.Store_degraded _ | Intf.Txn_conflict _) as e -> e

  (* Admission, then the engine's own guarded write path.
     requires: lock *)
  let sub_batch t i sh items =
    match S.health sh.store with
    | Intf.Degraded { reason } -> Error (Intf.Store_degraded { reason })
    | Intf.Healthy -> (
      let bytes = batch_bytes items in
      match admit t i sh ~bytes with
      | Error _ as e -> e
      | Ok () -> (
        (* Debug witness that the [requires] precondition really held. *)
        Sync.check_guard sh.lock ~field:"inflight";
        match S.try_write_batch sh.store items with
        | Ok () ->
          sh.inflight <- sh.inflight + bytes;
          Ok ()
        | Error e -> Error (retag i e)))

  (* ---------------------------------------------------------------- *)
  (* Single-shard operations *)

  let get t key = locked_shard t.shards.(shard_index t key) (fun s -> S.get s key)

  let with_shard t ~key f = locked_shard t.shards.(shard_index t key) f

  let fold_shards t ~init ~f =
    Array.fold_left (fun acc sh -> locked_shard sh (f acc)) init t.shards

  let maintenance_pending t =
    Array.fold_left
      (fun acc sh -> acc + S.maintenance_pending sh.store)
      0 t.shards

  let flush t = Array.iter (fun sh -> locked_shard sh S.flush) t.shards

  (* ---------------------------------------------------------------- *)
  (* Cross-shard operations. Whenever more than one shard lock is needed,
     locks are taken in ascending shard order — one canonical order across
     all writers, readers and pool workers (which take a single lock), so no
     lock cycle can form. *)

  let lock_range t i0 i1 f =
    let locks = List.init (i1 - i0 + 1) (fun k -> t.shards.(i0 + k).lock) in
    Sync.with_locks_ordered locks f

  let try_write_batch t items =
    if items = [] then Ok ()
    else begin
      let n = Array.length t.shards in
      let groups = Array.make n [] in
      List.iter
        (fun ((_, key, _) as item) ->
          let i = shard_index t key in
          groups.(i) <- item :: groups.(i))
        items;
      let touched = ref [] in
      for i = n - 1 downto 0 do
        if groups.(i) <> [] then begin
          groups.(i) <- List.rev groups.(i);
          touched := i :: !touched
        end
      done;
      match !touched with
      | [] -> Ok ()
      | [ i ] ->
        let sh = t.shards.(i) in
        Sync.with_lock sh.lock (fun () -> sub_batch t i sh groups.(i))
      | is ->
        (* The batch is atomic per shard (each sub-batch is one WAL record
           in its shard's engine) and isolated across shards: all involved
           locks are held for the whole application, so no reader observes
           a half-applied batch. *)
        let i0 = List.hd is and i1 = List.nth is (List.length is - 1) in
        lock_range t i0 i1 (fun () ->
            (* Admission across several held locks cannot stall: awaiting
               would release only one of them. Check every shard's debt up
               front and fail fast; only when all admit does anything apply. *)
            let refused =
              List.find_map
                (fun i ->
                  let sh = t.shards.(i) in
                  match S.health sh.store with
                  | Intf.Degraded { reason } ->
                    Some (Intf.Store_degraded { reason })
                  | Intf.Healthy ->
                    if not t.admission then None
                    else begin
                      if S.maintenance_pending sh.store = 0 then
                        sh.inflight <- 0;
                      let bytes = batch_bytes groups.(i) in
                      let debt =
                        S.maintenance_pending sh.store + sh.inflight
                      in
                      if
                        debt + bytes > t.stop_mark
                        || sh.inflight + bytes > t.inflight_limit
                      then
                        Some (Intf.Backpressure { shard = i; debt_bytes = debt })
                      else None
                    end)
                is
            in
            match refused with
            | Some e -> Error e
            | None ->
              (* A failure mid-application leaves earlier sub-batches
                 applied: the documented contract is atomic per shard, not
                 across shards, and the failing shard's engine has already
                 flipped itself Degraded. *)
              let rec apply = function
                | [] -> Ok ()
                | i :: rest -> (
                  let sh = t.shards.(i) in
                  match S.try_write_batch sh.store groups.(i) with
                  | Ok () ->
                    sh.inflight <- sh.inflight + batch_bytes groups.(i);
                    apply rest
                  | Error e -> Error (retag i e))
              in
              apply is)
    end

  (* ---------------------------------------------------------------- *)
  (* Group commit: several independent logical batches committed as one
     unit — per shard, one WAL append carrying one record per batch
     (S.try_write_batches) followed by one durability barrier (S.log_sync).
     Each batch gets its own verdict: a batch fails if any shard it touches
     refuses admission, fails to apply, or fails to sync — an [Ok] result
     therefore means "durable", which is what lets the server ack it. As
     with [try_write_batch], a batch is atomic per shard, not across
     shards. *)

  let commit_batches t batches =
    let nb = Array.length batches in
    let results = Array.make nb (Ok ()) in
    if nb = 0 then results
    else begin
      let n = Array.length t.shards in
      (* groups.(i).(j): batch [j]'s items routed to shard [i] (reversed). *)
      let groups = Array.make_matrix n nb [] in
      let batch_shards = Array.make nb [] in
      Array.iteri
        (fun j items ->
          List.iter
            (fun ((_, key, _) as item) ->
              let i = shard_index t key in
              if groups.(i).(j) = [] then
                batch_shards.(j) <- i :: batch_shards.(j);
              groups.(i).(j) <- item :: groups.(i).(j))
            items)
        batches;
      let touched = ref [] in
      for i = n - 1 downto 0 do
        if Array.exists (fun g -> g <> []) groups.(i) then begin
          for j = 0 to nb - 1 do
            groups.(i).(j) <- List.rev groups.(i).(j)
          done;
          touched := i :: !touched
        end
      done;
      match !touched with
      | [] -> results
      | is ->
        let shard_err = Array.make n None in
        let shard_bytes i =
          Array.fold_left
            (fun acc g -> acc + batch_bytes g)
            0 groups.(i)
        in
        let locks = List.map (fun i -> t.shards.(i).lock) is in
        Sync.with_locks_ordered locks (fun () ->
            (* Health + admission per shard, over the window's merged
               bytes. With a single shard involved the stall-capable path
               applies (only its own lock is held, so awaiting is safe);
               with several locks held, fail fast like try_write_batch. *)
            List.iter
              (fun i ->
                let sh = t.shards.(i) in
                match S.health sh.store with
                | Intf.Degraded { reason } ->
                  shard_err.(i) <- Some (Intf.Store_degraded { reason })
                | Intf.Healthy -> (
                  let bytes = shard_bytes i in
                  match is with
                  | [ _ ] -> (
                    match admit t i sh ~bytes with
                    | Ok () -> ()
                    | Error e -> shard_err.(i) <- Some e)
                  | _ ->
                    if t.admission then begin
                      if S.maintenance_pending sh.store = 0 then
                        sh.inflight <- 0;
                      let debt =
                        S.maintenance_pending sh.store + sh.inflight
                      in
                      if
                        debt + bytes > t.stop_mark
                        || sh.inflight + bytes > t.inflight_limit
                      then
                        shard_err.(i) <-
                          Some
                            (Intf.Backpressure { shard = i; debt_bytes = debt })
                    end))
              is;
            (* A batch touching a refusing shard is out of the window. *)
            Array.iteri
              (fun j is_j ->
                match
                  List.find_map (fun i -> shard_err.(i)) is_j
                with
                | Some e -> results.(j) <- Error e
                | None -> ())
              batch_shards;
            (* Apply: per shard, surviving batches as one commit unit. *)
            List.iter
              (fun i ->
                if shard_err.(i) = None then begin
                  let sh = t.shards.(i) in
                  let subs = ref [] in
                  let bytes = ref 0 in
                  for j = nb - 1 downto 0 do
                    if results.(j) = Ok () && groups.(i).(j) <> [] then begin
                      subs := groups.(i).(j) :: !subs;
                      bytes := !bytes + batch_bytes groups.(i).(j)
                    end
                  done;
                  if !subs <> [] then
                    match S.try_write_batches sh.store !subs with
                    | Ok () -> sh.inflight <- sh.inflight + !bytes
                    | Error e -> shard_err.(i) <- Some (retag i e)
                end)
              is;
            (* Durability barrier, one per touched shard that applied
               anything. A sync failure poisons every batch on that shard:
               nothing un-synced may be acked. *)
            List.iter
              (fun i ->
                if shard_err.(i) = None then
                  let sh = t.shards.(i) in
                  let applied =
                    Array.exists2
                      (fun r g -> r = Ok () && g <> [])
                      results groups.(i)
                  in
                  if applied then
                    try S.log_sync sh.store
                    with Intf.Rejected e -> shard_err.(i) <- Some (retag i e))
              is;
            Array.iteri
              (fun j is_j ->
                if results.(j) = Ok () then
                  match List.find_map (fun i -> shard_err.(i)) is_j with
                  | Some e -> results.(j) <- Error e
                  | None -> ())
              batch_shards;
            results)
    end

  let write_batch t items =
    match try_write_batch t items with
    | Ok () -> ()
    | Error e -> raise (Intf.Rejected e)

  let put t ~key ~value =
    write_batch t [ (Wip_util.Ikey.Value, key, value) ]

  let delete t ~key = write_batch t [ (Wip_util.Ikey.Deletion, key, "") ]

  (* ---------------------------------------------------------------- *)
  (* Health aggregation: the front is degraded as soon as any shard is. *)

  let health t =
    let deg = ref None in
    Array.iter
      (fun sh ->
        if Option.is_none !deg then
          match Sync.with_lock sh.lock (fun () -> S.health sh.store) with
          | Intf.Healthy -> ()
          | Intf.Degraded _ as d -> deg := Some d)
      t.shards;
    Option.value !deg ~default:Intf.Healthy

  let probe t =
    let deg = ref None in
    Array.iter
      (fun sh ->
        match Sync.with_lock sh.lock (fun () -> S.probe sh.store) with
        | Intf.Healthy -> ()
        | Intf.Degraded _ as d -> if Option.is_none !deg then deg := Some d)
      t.shards;
    Option.value !deg ~default:Intf.Healthy

  let inflight_bytes t =
    Array.fold_left
      (fun acc sh -> acc + Sync.with_lock sh.lock (fun () -> sh.inflight))
      0 t.shards

  (* Shards overlapping [lo, hi), visited lazily in ascending order: shard
     [i + 1] is locked and asked only when the rows so far fall short of
     [limit], and only for the remainder. Shard ranges are disjoint, so the
     per-shard lists concatenate in key order. With [~hold] every lock taken
     stays held until the scan ends; ranks ascend, so this is the canonical
     cross-shard order, and the rows form one consistent cut: each visited
     shard is frozen from its read until the last lock is taken, so the
     result is the state of all of them at that last acquisition. *)
  let visit_shards t ~lo ~hi ~limit ~hold read =
    let n = Array.length t.shards in
    let rec visit i limit =
      if i >= n || limit = Some 0 || String.compare t.shards.(i).lo hi >= 0
      then []
      else begin
        let sh = t.shards.(i) in
        (* [rows] is copied only when a later shard contributes. *)
        let with_rest rows =
          match
            visit (i + 1) (Option.map (fun l -> l - List.length rows) limit)
          with
          | [] -> rows
          | more -> rows @ more
        in
        if hold then
          Sync.with_lock sh.lock (fun () -> with_rest (read i sh.store limit))
        else
          with_rest (Sync.with_lock sh.lock (fun () -> read i sh.store limit))
      end
    in
    if String.compare lo hi >= 0 then []
    else visit (shard_index t lo) (Option.map (max 0) limit)

  let scan t ~lo ~hi ?limit () =
    visit_shards t ~lo ~hi ~limit ~hold:true (fun _ s limit ->
        S.scan s ~lo ~hi ?limit ())

  (* ---------------------------------------------------------------- *)
  (* Pinned snapshots. One engine snapshot per shard, all acquired while
     holding every shard lock in canonical ascending order, so the
     per-shard pinned sequence numbers form one consistent cut: no write
     can land between two shards' pins. Reads at the snapshot afterwards
     lock shards one at a time — consistency survives the locks dropping
     because each shard's engine pins its own sequence number (and keeps
     retired tables readable) until release. *)

  type snapshot = Intf.snapshot array (* one per shard, in shard order *)

  let snapshot t =
    let locks = Array.to_list (Array.map (fun sh -> sh.lock) t.shards) in
    Sync.with_locks_ordered locks (fun () ->
        Array.map (fun sh -> S.snapshot sh.store) t.shards)

  let release t (snap : snapshot) =
    (* Engine-level release is idempotent, so releasing a sharded snapshot
       twice is harmless. One lock at a time: release never needs a
       cross-shard cut. *)
    Array.iteri
      (fun i s ->
        Sync.with_lock t.shards.(i).lock (fun () -> Intf.release s))
      snap

  let snapshot_seqs (snap : snapshot) = Array.map Intf.snapshot_seq snap

  let get_at t key ~snapshot:(snap : snapshot) =
    let i = shard_index t key in
    locked_shard t.shards.(i) (fun s -> S.get_at s key ~snapshot:snap.(i))

  (* Unlike [scan], each shard's lock is dropped before the next is taken:
     the pinned per-shard snapshots already fix what each shard may return,
     so holding locks across the collection would buy nothing. *)
  let scan_at t ~lo ~hi ?limit ~snapshot:(snap : snapshot) () =
    visit_shards t ~lo ~hi ~limit ~hold:false (fun i s limit ->
        S.scan_at s ~lo ~hi ?limit ~snapshot:snap.(i) ())
end
