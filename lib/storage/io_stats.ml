type category =
  | User_write
  | Wal
  | Flush
  | Compaction of int
  | Compaction_read of int
  | Split
  | Read_path
  | Manifest
  | Table_meta

module Sync = Wip_util.Sync

(* Counter registry: a counter is its slot in [counts], named once. *)

type counter = int

(* Names, newest first; only the registrations below extend it. *)
let registered = ref []

let counter name =
  registered := name :: !registered;
  List.length !registered - 1

let syncs = counter "syncs"
let faults = counter "faults"
let stalls = counter "stalls"
let stall_time = counter "stall_ns"
let retries = counter "retries"
let degraded_transitions = counter "degraded_transitions"
let bloom_probes = counter "bloom_probes"
let bloom_negatives = counter "bloom_negatives"
let bloom_false_positives = counter "bloom_false_positives"
let block_fetches = counter "block_fetches"
let commit_windows = counter "commit_windows"
let commit_requests = counter "commit_requests"
let commit_time = counter "commit_ns"
let ph_probes = counter "ph_probes"
let ph_false_hits = counter "ph_false_hits"
let ph_fallbacks = counter "ph_fallbacks"
let view_rebuilds = counter "view_rebuilds"
let view_rebuild_time = counter "view_rebuild_ns"

let names = Array.of_list (List.rev !registered)

(* Byte table: two slots per category, written then read. The scalar
   categories take slots 0-6, named here in slot order; compaction traffic
   of level [l] takes slot [7 + l], so the table grows with the deepest
   level seen. *)

let scalar_names =
  [| "user"; "wal"; "flush"; "split"; "read_path"; "manifest"; "table_meta" |]

let first_level = Array.length scalar_names

let category_slot = function
  | User_write -> 0
  | Wal -> 1
  | Flush -> 2
  | Split -> 3
  | Read_path -> 4
  | Manifest -> 5
  | Table_meta -> 6
  | Compaction l | Compaction_read l -> first_level + l

(* User payload has one slot for both directions, and compaction reads of a
   level land in its read slot whichever side records them. *)
let byte_slot cat ~read =
  let read =
    match cat with User_write -> false | Compaction_read _ -> true | _ -> read
  in
  (2 * category_slot cat) + Bool.to_int read

(* One leaf lock makes every recorder and reader atomic: one Env (and thus
   one stats record) may be shared by several shard stores written from
   parallel threads. *)
type t = {
  lock : Sync.t;
  counts : int array; (* one slot per registered counter; guarded_by: lock *)
  mutable bytes : int array; (* byte table, see [byte_slot]; guarded_by: lock *)
}

let create () =
  {
    lock = Sync.create ~name:"io_stats" ();
    counts = Array.make (Array.length names) 0;
    bytes = Array.make (2 * (first_level + 8)) 0;
  }

let locked t f = Sync.with_lock t.lock f

(* requires: lock *)
let bump t c n =
  (* Debug witness for the guarded_by annotations above. *)
  Sync.check_guard t.lock ~field:"counts";
  t.counts.(c) <- t.counts.(c) + max 0 n

let add t c n = locked t (fun () -> bump t c n)
let add_many t cs =
  locked t (fun () -> List.iter (fun (c, n) -> bump t c n) cs)

let count t c = locked t (fun () -> t.counts.(c))

let record t i n =
  locked t (fun () ->
      let len = Array.length t.bytes in
      if i >= len then begin
        let bigger = Array.make (max (2 * ((i / 2) + 1)) (2 * len)) 0 in
        Array.blit t.bytes 0 bigger 0 len;
        t.bytes <- bigger
      end;
      t.bytes.(i) <- t.bytes.(i) + n)

let record_write t cat n = record t (byte_slot cat ~read:false) n
let record_read t cat n = record t (byte_slot cat ~read:true) n

let byte t i =
  locked t (fun () -> if i < Array.length t.bytes then t.bytes.(i) else 0)

let written_by t cat = byte t (byte_slot cat ~read:false)
let read_by t cat = byte t (byte_slot cat ~read:true)
let user_bytes t = written_by t User_write

(* Device bytes moved in one direction: every slot but the user payload's,
   and on the write side not the read path's either. *)
let total bytes ~read =
  let acc = ref 0 in
  for s = 1 to (Array.length bytes / 2) - 1 do
    if read || s <> category_slot Read_path then
      acc := !acc + bytes.((2 * s) + Bool.to_int read)
  done;
  !acc

let store_bytes bytes =
  total bytes ~read:false - bytes.(byte_slot Wal ~read:false)

let bytes_written t = locked t (fun () -> total t.bytes ~read:false)
let bytes_read t = locked t (fun () -> total t.bytes ~read:true)
let store_bytes_written t = locked t (fun () -> store_bytes t.bytes)

let write_amplification t =
  locked t (fun () ->
      let user = t.bytes.(byte_slot User_write ~read:false) in
      if user = 0 then 0.0
      else float_of_int (store_bytes t.bytes) /. float_of_int user)

let per_level bytes ~read =
  let acc = ref [] in
  for l = (Array.length bytes / 2) - first_level - 1 downto 0 do
    let n = bytes.(byte_slot (Compaction l) ~read) in
    if n > 0 then acc := (l, n) :: !acc
  done;
  !acc

let per_level_write t = locked t (fun () -> per_level t.bytes ~read:false)
let per_level_read t = locked t (fun () -> per_level t.bytes ~read:true)

let to_list t =
  locked t (fun () ->
      (* Slot 1, the user payload's read side, is always 0: skip it. *)
      let bytes = ref [] in
      for i = Array.length t.bytes - 1 downto 2 do
        let s = i / 2 in
        if s < first_level || t.bytes.(i) > 0 then
          bytes :=
            ( Printf.sprintf "%s_bytes_%s"
                (if s < first_level then scalar_names.(s)
                 else Printf.sprintf "level%d" (s - first_level))
                (if i mod 2 = 1 then "read" else "written"),
              t.bytes.(i) )
            :: !bytes
      done;
      List.mapi (fun i name -> (name, t.counts.(i))) (Array.to_list names)
      @ ("user_bytes", t.bytes.(0)) :: !bytes)

let reset t =
  locked t (fun () ->
      Array.fill t.counts 0 (Array.length t.counts) 0;
      Array.fill t.bytes 0 (Array.length t.bytes) 0)

let snapshot t =
  locked t (fun () ->
      {
        lock = Sync.create ~name:"io_stats" ();
        counts = Array.copy t.counts;
        bytes = Array.copy t.bytes;
      })

(* [diff] reads only private snapshot copies — its own [snapshot cur] and a
   caller-held base snapshot — never the live shared record, so the
   guarded-by discipline does not apply to its field reads.
   lint: allow-fun R8 — fields of private snapshot copies *)
let diff cur base =
  (* [base] is normally a private {!snapshot}; take an atomic copy of [cur]
     first so the subtraction sees one consistent state. *)
  let cur = snapshot cur in
  let sub a b =
    Array.init
      (max (Array.length a) (Array.length b))
      (fun i ->
        (if i < Array.length a then a.(i) else 0)
        - if i < Array.length b then b.(i) else 0)
  in
  {
    lock = Sync.create ~name:"io_stats" ();
    counts = sub cur.counts base.counts;
    bytes = sub cur.bytes base.bytes;
  }

(* Readers that benchmark/server.ml calls by name. That directory is the
   benchmark's and stays as it is, so these stay; new code uses [count]. *)
let sync_count t = count t syncs
let stall_count t = count t stalls
let stall_ns t = count t stall_time
let bloom_probe_count t = count t bloom_probes
let bloom_negative_count t = count t bloom_negatives
let bloom_false_positive_count t = count t bloom_false_positives
let block_fetch_count t = count t block_fetches
let ph_probe_count t = count t ph_probes
let ph_false_hit_count t = count t ph_false_hits
let view_rebuild_count t = count t view_rebuilds
let view_rebuild_ns t = count t view_rebuild_time
let group_commit_count t = count t commit_windows
let group_commit_request_count t = count t commit_requests
