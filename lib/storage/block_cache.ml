(* Segmented LRU: a hash table from key to a doubly-linked node, each node on
   one of two recency lists (head = most recent). The protected list holds
   point-read blocks and scan blocks hit twice, up to [protected_share] of
   the capacity; its overflow is demoted to the head of the probation list,
   which also takes first-time scan blocks and is evicted first. A single
   internal mutex makes every operation atomic — the cache is shared by all
   of a store's tables and, in the sharded front, probed from many threads,
   and even [find] mutates (hit counters, recency lists). *)

type key = { file : string; offset : int }

type admission = Point | Scan | Bypass

type node = {
  key : key;
  value : string;
  charge : int; (* bytes counted against capacity *)
  mutable protected : bool; (* which segment holds it; guarded_by: lock *)
  mutable prev : node option; (* guarded_by: lock *)
  mutable next : node option; (* guarded_by: lock *)
}

type segment = {
  mutable head : node option; (* guarded_by: lock *)
  mutable tail : node option; (* guarded_by: lock *)
  mutable bytes : int; (* guarded_by: lock *)
}

module Sync = Wip_util.Sync

type t = {
  lock : Sync.t;
  capacity : int;
  table : (key, node) Hashtbl.t; (* guarded_by: lock *)
  prot : segment; (* guarded_by: lock *)
  prob : segment; (* guarded_by: lock *)
  mutable hits : int; (* guarded_by: lock *)
  mutable misses : int; (* guarded_by: lock *)
  mutable bypasses : int; (* bypass probes that missed; guarded_by: lock *)
  mutable rejections : int; (* capacity-exceeding inserts; guarded_by: lock *)
}

(* Share of the capacity the protected segment may fill before demoting:
   probation always keeps at least the rest for scans to cycle through. *)
let protected_share = 0.8

let segment () = { head = None; tail = None; bytes = 0 }

let create ~capacity_bytes =
  {
    lock = Sync.create ~name:"block_cache" ();
    capacity = max 0 capacity_bytes;
    table = Hashtbl.create 256;
    prot = segment ();
    prob = segment ();
    hits = 0;
    misses = 0;
    bypasses = 0;
    rejections = 0;
  }

let locked t f = Sync.with_lock t.lock f

(* requires: lock *)
let seg_of t node = if node.protected then t.prot else t.prob

(* requires: lock *)
let unlink t node =
  let seg = seg_of t node in
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> seg.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> seg.tail <- node.prev);
  node.prev <- None;
  node.next <- None;
  seg.bytes <- seg.bytes - node.charge

(* requires: lock *)
let push_front t ~protected node =
  node.protected <- protected;
  let seg = seg_of t node in
  node.next <- seg.head;
  node.prev <- None;
  (match seg.head with
  | Some h -> h.prev <- Some node
  | None -> seg.tail <- Some node);
  seg.head <- Some node;
  seg.bytes <- seg.bytes + node.charge

(* Most-recently-used protected, demoting the protected tail to the head of
   probation while the segment is over its share: the concatenated order
   is unchanged by a demotion, so point-only traffic sees one LRU list. *)
(* requires: lock *)
let protect t node =
  push_front t ~protected:true node;
  let limit = int_of_float (protected_share *. float_of_int t.capacity) in
  let rec demote () =
    match t.prot.tail with
    | Some victim when t.prot.bytes > limit ->
      unlink t victim;
      push_front t ~protected:false victim;
      demote ()
    | _ -> ()
  in
  demote ()

(* requires: lock *)
let remove t node =
  unlink t node;
  Hashtbl.remove t.table node.key

let find ?(admit = Point) t ~file ~offset =
  locked t (fun () ->
      (* Debug witness for the guarded_by annotations above. *)
      Sync.check_guard t.lock ~field:"hits";
      match (Hashtbl.find_opt t.table { file; offset }, admit) with
      | Some node, Bypass ->
        t.hits <- t.hits + 1;
        Some node.value
      | Some node, (Point | Scan) ->
        t.hits <- t.hits + 1;
        unlink t node;
        protect t node;
        Some node.value
      | None, Bypass ->
        t.bypasses <- t.bypasses + 1;
        None
      | None, (Point | Scan) ->
        t.misses <- t.misses + 1;
        None)

(* requires: lock *)
let rec evict_until_fits t =
  if t.prot.bytes + t.prob.bytes > t.capacity then
    match (t.prob.tail, t.prot.tail) with
    | Some node, _ | None, Some node ->
      remove t node;
      evict_until_fits t
    | None, None -> ()

let add ?(admit = Point) t ~file ~offset ?charge value =
  let charge = Option.value charge ~default:(String.length value) in
  if admit = Bypass then ()
  else if charge > t.capacity then
    locked t (fun () -> t.rejections <- t.rejections + 1)
  else
    locked t (fun () ->
        let key = { file; offset } in
        (match Hashtbl.find_opt t.table key with
        | Some old -> remove t old
        | None -> ());
        let node =
          { key; value; charge; protected = false; prev = None; next = None }
        in
        Hashtbl.replace t.table key node;
        if admit = Point then protect t node
        else push_front t ~protected:false node;
        evict_until_fits t)

let evict_file t file =
  locked t (fun () ->
      let victims =
        Hashtbl.fold
          (fun key node acc ->
            if String.equal key.file file then node :: acc else acc)
          t.table []
      in
      List.iter (remove t) victims)

type counters = {
  c_hits : int;
  c_misses : int;
  c_bypasses : int;
  c_rejections : int;
  c_used_bytes : int;
  c_entries : int;
}

(* One acquisition for the whole set: reading counters one getter at a time
   while writers run yields values from different instants (a torn pair —
   e.g. hits + misses no longer equals lookups). Reporting paths snapshot. *)
let counters t =
  locked t (fun () ->
      {
        c_hits = t.hits;
        c_misses = t.misses;
        c_bypasses = t.bypasses;
        c_rejections = t.rejections;
        c_used_bytes = t.prot.bytes + t.prob.bytes;
        c_entries = Hashtbl.length t.table;
      })

let hits t = locked t (fun () -> t.hits)

let misses t = locked t (fun () -> t.misses)

let bypasses t = locked t (fun () -> t.bypasses)

let rejections t = locked t (fun () -> t.rejections)

let used_bytes t = locked t (fun () -> t.prot.bytes + t.prob.bytes)

let entry_count t = locked t (fun () -> Hashtbl.length t.table)
