(* Classic LRU: a hash table from key to a doubly-linked node; the list head
   is most recent, the tail gets evicted. A single internal mutex makes every
   operation atomic — the cache is shared by all of a store's tables and, in
   the sharded front, probed from many threads, and even [find] mutates (hit
   counters, recency list). *)

type key = { file : string; offset : int }

type node = {
  key : key;
  value : string;
  charge : int; (* bytes counted against capacity *)
  mutable prev : node option; (* guarded_by: lock *)
  mutable next : node option; (* guarded_by: lock *)
}

module Sync = Wip_util.Sync

type t = {
  lock : Sync.t;
  capacity : int;
  table : (key, node) Hashtbl.t; (* guarded_by: lock *)
  mutable head : node option; (* guarded_by: lock *)
  mutable tail : node option; (* guarded_by: lock *)
  mutable used : int; (* guarded_by: lock *)
  mutable hits : int; (* guarded_by: lock *)
  mutable misses : int; (* guarded_by: lock *)
  mutable bypasses : int; (* no-fill probes that missed; guarded_by: lock *)
  mutable rejections : int; (* capacity-exceeding inserts; guarded_by: lock *)
}

let create ~capacity_bytes =
  {
    lock = Sync.create ~name:"block_cache" ();
    capacity = max 0 capacity_bytes;
    table = Hashtbl.create 256;
    head = None;
    tail = None;
    used = 0;
    hits = 0;
    misses = 0;
    bypasses = 0;
    rejections = 0;
  }

let locked t f = Sync.with_lock t.lock f

(* requires: lock *)
let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.head <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.tail <- node.prev);
  node.prev <- None;
  node.next <- None

(* requires: lock *)
let push_front t node =
  node.next <- t.head;
  node.prev <- None;
  (match t.head with Some h -> h.prev <- Some node | None -> t.tail <- Some node);
  t.head <- Some node

(* requires: lock *)
let remove t node =
  unlink t node;
  Hashtbl.remove t.table node.key;
  t.used <- t.used - node.charge

let find t ~file ~offset =
  locked t (fun () ->
      (* Debug witness for the guarded_by annotations above. *)
      Sync.check_guard t.lock ~field:"hits";
      match Hashtbl.find_opt t.table { file; offset } with
      | Some node ->
        t.hits <- t.hits + 1;
        unlink t node;
        push_front t node;
        Some node.value
      | None ->
        t.misses <- t.misses + 1;
        None)

(* Scan-resistant probe for sequential readers (compaction, splits, range
   scans): a hit is served without promoting the entry, a miss is counted as
   a bypass — not a miss — and the caller is expected not to insert the
   block it then fetches, so one pass over a table cannot evict the
   point-read working set. *)
let find_no_fill t ~file ~offset =
  locked t (fun () ->
      match Hashtbl.find_opt t.table { file; offset } with
      | Some node ->
        t.hits <- t.hits + 1;
        Some node.value
      | None ->
        t.bypasses <- t.bypasses + 1;
        None)

(* requires: lock *)
let rec evict_until_fits t =
  if t.used > t.capacity then
    match t.tail with
    | Some node ->
      remove t node;
      evict_until_fits t
    | None -> ()

let add t ~file ~offset ?charge value =
  let charge = Option.value charge ~default:(String.length value) in
  if charge > t.capacity then
    locked t (fun () -> t.rejections <- t.rejections + 1)
  else
    locked t (fun () ->
        let key = { file; offset } in
        (match Hashtbl.find_opt t.table key with
        | Some old -> remove t old
        | None -> ());
        let node = { key; value; charge; prev = None; next = None } in
        Hashtbl.replace t.table key node;
        push_front t node;
        t.used <- t.used + charge;
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
        c_used_bytes = t.used;
        c_entries = Hashtbl.length t.table;
      })

let hits t = locked t (fun () -> t.hits)

let misses t = locked t (fun () -> t.misses)

let bypasses t = locked t (fun () -> t.bypasses)

let rejections t = locked t (fun () -> t.rejections)

let used_bytes t = locked t (fun () -> t.used)

let entry_count t = locked t (fun () -> Hashtbl.length t.table)
