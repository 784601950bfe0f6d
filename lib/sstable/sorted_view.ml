(* REMIX-style cross-run sorted view (PAPERS.md).

   A bucket's run set is tiered and overlapping, so every scan normally pays
   a k-way pairing-heap merge: O(log k) comparisons per emitted entry plus a
   heap node allocation per step. The view freezes the outcome of that merge
   once and replays it for free: it stores, for the concatenation of all
   runs in sorted order, one byte per entry naming the source run (the
   selector array) and one full encoded key every [seg_size] entries (the
   anchor array). A walk then binary-searches the anchors, seeks one cursor
   per run to the segment anchor, and pops cursors in selector order — zero
   comparisons per entry after the bounded skip into the first segment.

   Anchor positioning is sound because encoded internal keys are unique
   within a store (the sequence trailer differs even for rewrites of one
   user key): every entry ordered before a segment's first entry is strictly
   below its anchor, so seeking each run to the anchor skips exactly the
   entries the selector prefix already consumed.

   The view holds no cursors and no table handles — only anchors, selectors
   and a run count. Callers own the mapping from run index to a table (the
   run set the view was built against) and must invalidate the view
   whenever that run set changes; the walk ({!Range_reader}) raises
   [Stale_view] if a run ends before the selectors say it should, which
   only happens on a missed invalidation.

   Cost: 1 byte/entry + ~key_size/seg_size bytes/entry. *)

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

(* One heap merge of the runs' whole streams, tagged by run. *)
let of_streams streams =
  of_tagged ~run_count:(Array.length streams)
    (Merge_iter.merge (List.mapi tag (Array.to_list streams)))

(* Where a walk toward [from] starts: the first entry of the greatest
   segment whose anchor is <= [from] (0 if none), and that anchor — every
   run seeks to it, and at most [seg_size] entries precede [from]. *)
let position t ~from =
  let rec bs lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if String.compare t.anchors.(mid) from <= 0 then bs mid hi else bs lo mid
  in
  if t.count = 0 then (0, "")
  else
    let seg = bs 0 (Array.length t.anchors) in
    (seg * seg_size, t.anchors.(seg))

let selector t i = Bytes.get_uint8 t.selectors i

(* Extend with one run: replay the view — pop the old runs' streams in
   selector order, no comparisons — and 2-way merge that against the new
   run's stream. *)
let add_run t streams run =
  let streams = Array.map ref streams in
  let pop r =
    match !(streams.(r)) () with
    | Seq.Nil -> raise Stale_view
    | Seq.Cons ((k, _), tail) ->
      streams.(r) := tail;
      k
  in
  let rec existing i () =
    if i >= t.count then Seq.Nil
    else
      let r = Bytes.get_uint8 t.selectors i in
      Seq.Cons ((pop r, r), existing (i + 1))
  in
  of_tagged ~run_count:(t.run_count + 1)
    (Merge_iter.merge [ existing 0; tag t.run_count run ])

(* ------------------------------------------------------------------ *)
(* An engine's cached view: the view plus the run set it was built over.
   Building or extending replays whole runs through [stream] (the engine's
   cache-bypassing table stream) and is timed into the env's stats. *)

let timed stats f =
  let started = Unix.gettimeofday () in
  let v = f () in
  Wip_storage.Io_stats.record_view_rebuild stats
    ~ns:(int_of_float ((Unix.gettimeofday () -. started) *. 1e9));
  v

let build ~enabled ~min_runs ~stats ~stream tables =
  let n = List.length tables in
  if (not enabled) || n < min_runs || n > max_runs then None
  else
    let runs = Array.of_list tables in
    Some (timed stats (fun () -> of_streams (Array.map stream runs)), runs)

let extend ~enabled ~stats ~stream cached meta =
  match cached with
  | None -> None
  | Some (view, runs) ->
    if (not enabled) || run_count view >= max_runs then None
    else
      Some
        ( timed stats (fun () ->
              add_run view (Array.map (fun m -> stream m) runs) (stream meta)),
          Array.append runs [| meta |] )
