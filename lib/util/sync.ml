(* lint: allow-file R3 — Sync is the one module allowed to touch Mutex;
   every other critical section enters through with_lock below. *)

type t = { mutex : Mutex.t; lock_rank : int; lock_name : string }

exception Order_violation of string

let rank_pool = 100

let rank_shard_base = 1_000

let rank_leaf = 1_000_000

let debug =
  Atomic.make
    (match Sys.getenv_opt "WIPDB_LOCK_DEBUG" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false)

let set_debug b = Atomic.set debug b


let violations = Atomic.make 0

let violation_count () = Atomic.get violations

(* Per-systhread stack of held locks, innermost first. Only maintained in
   debug mode. Domain.DLS would be wrong here: sys-threads within a domain
   share its DLS, so one thread's held lock would corrupt another's order
   check the moment a critical section spans a blocking point (a socket
   write, say). The registry is keyed by (domain, thread) under a raw
   mutex — Sync itself is the one module allowed to hold one. *)
let held_mu = Mutex.create ()

let held_tbl : (int * int, t list ref) Hashtbl.t = Hashtbl.create 64

let held_stack () =
  let key = ((Domain.self () :> int), Thread.id (Thread.self ())) in
  Mutex.lock held_mu;
  let r =
    match Hashtbl.find_opt held_tbl key with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace held_tbl key r;
      r
  in
  Mutex.unlock held_mu;
  r

let held_count () = List.length !(held_stack ())

let create ?(rank = rank_leaf) ?(name = "lock") () =
  { mutex = Mutex.create (); lock_rank = rank; lock_name = name }

let rank t = t.lock_rank

let name t = t.lock_name

let violate msg =
  Atomic.incr violations;
  raise (Order_violation msg)

let check_order t =
  match !(held_stack ()) with
  | top :: _ when t.lock_rank <= top.lock_rank ->
    violate
      (Printf.sprintf
         "acquiring %s (rank %d) while holding %s (rank %d): lock ranks \
          must strictly ascend"
         t.lock_name t.lock_rank top.lock_name top.lock_rank)
  | _ -> ()

let acquire t =
  if Atomic.get debug then begin
    check_order t;
    Mutex.lock t.mutex;
    let stack = held_stack () in
    stack := t :: !stack
  end
  else Mutex.lock t.mutex

let release t =
  if Atomic.get debug then begin
    let stack = held_stack () in
    (* Releases must mirror acquisitions; with_lock guarantees this, so a
       mismatch means the stack was corrupted by a leaked acquisition. *)
    match !stack with
    | top :: rest when top == t ->
      stack := rest;
      Mutex.unlock t.mutex
    | _ ->
      Mutex.unlock t.mutex;
      violate
        (Printf.sprintf "releasing %s out of acquisition order" t.lock_name)
  end
  else Mutex.unlock t.mutex

let with_lock t f =
  acquire t;
  Fun.protect ~finally:(fun () -> release t) f

(* Deadline-bounded wait-for-condition. Stdlib Condition has no timed wait,
   so this polls: release, sleep one quantum, reacquire, re-check. The
   release/acquire pair keeps the debug-mode held stack exact, and the
   quantum bounds how stale a satisfied predicate can go unnoticed. Callers
   must already hold [t] (with_lock) and must treat a [false] return as a
   hard timeout — the predicate may of course become true immediately
   after. *)
let await t ?(quantum_s = 0.0002) ~deadline pred =
  let rec loop () =
    if pred () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      release t;
      Unix.sleepf quantum_s;
      acquire t;
      loop ()
    end
  in
  loop ()

(* Real condition variables, tied to a Sync lock. Condition.wait atomically
   releases the mutex and reacquires it on wakeup; in debug mode the held
   stack must mirror that, so the lock is popped before the wait and pushed
   back after. Waiters must already hold the lock (with_lock). *)
module Cond = struct
  type nonrec cond = { cv : Condition.t; lock : t }

  let create lock = { cv = Condition.create (); lock }

  let wait c =
    if Atomic.get debug then begin
      let stack = held_stack () in
      (match !stack with
      | top :: rest when top == c.lock -> stack := rest
      | _ ->
        violate
          (Printf.sprintf "Cond.wait on %s without holding it innermost"
             c.lock.lock_name));
      Condition.wait c.cv c.lock.mutex;
      stack := c.lock :: !stack
    end
    else Condition.wait c.cv c.lock.mutex

  let signal c = Condition.signal c.cv

  let broadcast c = Condition.broadcast c.cv
end

(* --------------------------------------------------------------------- *)
(* Guarded-by witness: the runtime end of the static R8 analysis. A module
   places [check_guard lock ~field] next to an access the linter proved to
   run under [lock]; in debug mode the call verifies the lock really is in
   this thread's held stack and records a contradiction otherwise — evidence
   that a guarded_by annotation (and hence the static lock-set model) has
   rotted. Contradictions are recorded, not raised: a witness firing inside
   a storm of concurrent work should not turn into an unrelated crash; tests
   assert the counter is zero at their sync points. *)

let guard_contras : (string * string) list ref = ref []

let check_guard t ~field =
  if Atomic.get debug then begin
    let held = List.exists (fun l -> l == t) !(held_stack ()) in
    if not held then begin
      Mutex.lock held_mu;
      guard_contras := (field, t.lock_name) :: !guard_contras;
      Mutex.unlock held_mu
    end
  end

let guard_contradictions () =
  Mutex.lock held_mu;
  let l = List.rev !guard_contras in
  Mutex.unlock held_mu;
  l

let guard_contradiction_count () = List.length (guard_contradictions ())

let reset_guard_contradictions () =
  Mutex.lock held_mu;
  guard_contras := [];
  Mutex.unlock held_mu

let rec check_ascending = function
  | a :: (b :: _ as rest) ->
    if b.lock_rank <= a.lock_rank then
      violate
        (Printf.sprintf
           "with_locks_ordered: %s (rank %d) does not ascend from %s (rank \
            %d)"
           b.lock_name b.lock_rank a.lock_name a.lock_rank);
    check_ascending rest
  | _ -> ()

let with_locks_ordered locks f =
  if Atomic.get debug then check_ascending locks;
  (* Acquire one at a time; whatever prefix is held when an exception
     escapes (from [f] or from a later acquisition) unwinds in reverse
     order through the nested protects. *)
  let rec go = function
    | [] -> f ()
    | l :: rest ->
      acquire l;
      Fun.protect ~finally:(fun () -> release l) (fun () -> go rest)
  in
  go locks
