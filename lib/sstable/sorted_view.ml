(* REMIX-style cross-run sorted view (PAPERS.md).

   A bucket's run set is tiered and overlapping, so every scan normally pays
   a k-way pairing-heap merge: O(log k) comparisons per emitted entry plus a
   heap node allocation per step. The view freezes the outcome of that merge
   once and replays it for free: it stores, for the concatenation of all
   runs in sorted order, one byte per entry naming the source run (the
   selector array) and one full encoded key every [seg_size] entries (the
   anchor array). A walk then binary-searches the anchors, opens one cursor
   stream per run positioned at the segment anchor, and pops streams in
   selector order — zero comparisons per entry after the bounded skip into
   the first segment.

   Anchor positioning is sound because encoded internal keys are unique
   within a store (the sequence trailer differs even for rewrites of one
   user key): every entry ordered before a segment's first entry is strictly
   below its anchor, so seeking each run to the anchor skips exactly the
   entries the selector prefix already consumed.

   The view holds no cursors and no table handles — only anchors, selectors
   and a run count. Callers own the mapping from run index to a stream
   (engines close over [Table.Reader.stream] on the run set the view was
   built against) and must invalidate the view whenever that run set
   changes; [walk] raises [Stale_view] if a run ends before the selectors
   say it should, which only happens on a missed invalidation.

   Cost: 1 byte/entry + ~key_size/seg_size bytes/entry. A build is one heap
   merge of the runs (the same work a single full scan pays today); add_run
   is a 2-way merge of the existing view's replay against the new run. *)

exception Stale_view

type t = {
  anchors : string array; (* anchors.(s) = encoded key of entry s*seg_size *)
  selectors : Bytes.t; (* selectors.(i) = run index of entry i *)
  count : int;
  run_count : int;
}

(* Small segments bound the skip a positioned walk pays before its first
   entry (every skipped entry is materialised and may fetch a block); the
   price is one anchor key per segment. *)
let seg_size = 32

let max_runs = 255

let entry_count t = t.count

let run_count t = t.run_count

let byte_size t =
  Bytes.length t.selectors
  + Array.fold_left (fun a k -> a + String.length k + 8) 0 t.anchors

(* Build from a merged (key, run_index) sequence. *)
let of_tagged ~run_count tagged =
  let selectors = Buffer.create 4096 in
  let anchors = ref [] in
  let count = ref 0 in
  Seq.iter
    (fun (key, run) ->
      if !count mod seg_size = 0 then anchors := key :: !anchors;
      Buffer.add_char selectors (Char.chr run);
      incr count)
    tagged;
  {
    anchors = Array.of_list (List.rev !anchors);
    selectors = Buffer.to_bytes selectors;
    count = !count;
    run_count;
  }

let tag run seq = Seq.map (fun (k, _v) -> (k, run)) seq

let build runs =
  let k = Array.length runs in
  if k > max_runs then invalid_arg "Sorted_view.build: too many runs";
  of_tagged ~run_count:k
    (Merge_iter.merge_by ~compare:String.compare
       (List.init k (fun r -> tag r runs.(r))))

(* Replay the view as a (key, run) sequence by popping the runs' own
   streams in selector order — the primitive under both [walk] and
   [add_run]. [start] is an entry index whose key is >= the position every
   stream in [streams] is seeked to. *)
let replay t ~streams ~start =
  let pop r =
    match !(streams.(r)) () with
    | Seq.Nil -> raise Stale_view
    | Seq.Cons (kv, tail) ->
      streams.(r) := tail;
      kv
  in
  let rec go i () =
    if i >= t.count then Seq.Nil
    else
      let r = Bytes.get_uint8 t.selectors i in
      Seq.Cons ((pop r, r), go (i + 1))
  in
  go start

(* Greatest segment whose anchor is <= target (0 if none). *)
let seek_segment t target =
  let n = Array.length t.anchors in
  if n = 0 || String.compare t.anchors.(0) target >= 0 then 0
  else begin
    let rec bs lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if String.compare t.anchors.(mid) target <= 0 then bs mid hi
        else bs lo mid
    in
    bs 0 n
  end

let walk t ~from ~open_run =
  if t.count = 0 then Seq.empty
  else
    (* Delay stream creation until the walk is actually consumed, matching
       the laziness of the heap-merge path it replaces. The replay here is
       fused rather than layered over [replay]: the per-entry cost is the
       whole point of the view, and a tag tuple plus a [Seq.map fst] node
       per entry would give a third of the heap merge's work back. *)
    fun () ->
     let seg = seek_segment t from in
     let anchor = t.anchors.(seg) in
     let streams =
       Array.init t.run_count (fun r -> ref (open_run r ~from:anchor))
     in
     let pop r =
       match !(streams.(r)) () with
       | Seq.Nil -> raise Stale_view
       | Seq.Cons (kv, tail) ->
         streams.(r) := tail;
         kv
     in
     let rec go i () =
       if i >= t.count then Seq.Nil
       else Seq.Cons (pop (Bytes.get_uint8 t.selectors i), go (i + 1))
     in
     (* At most seg_size entries precede [from] within the segment. *)
     let rec skip i =
       if i >= t.count then Seq.Nil
       else
         let kv = pop (Bytes.get_uint8 t.selectors i) in
         if String.compare (fst kv) from >= 0 then Seq.Cons (kv, go (i + 1))
         else skip (i + 1)
     in
     skip (seg * seg_size)

let add_run t ~open_run run =
  if t.run_count >= max_runs then invalid_arg "Sorted_view.add_run: full";
  let existing () =
    let streams =
      Array.init t.run_count (fun r -> ref (open_run r ~from:""))
    in
    replay t ~streams ~start:0 ()
  in
  let existing = Seq.map (fun (kv, r) -> (fst kv, r)) existing in
  of_tagged ~run_count:(t.run_count + 1)
    (Merge_iter.merge_by ~compare:String.compare
       [ existing; tag t.run_count run ])
