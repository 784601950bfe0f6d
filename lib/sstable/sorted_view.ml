(* REMIX-style cross-run sorted view (PAPERS.md).

   A bucket's run set is tiered and overlapping, so every scan normally pays
   a k-way heap merge: O(log k) comparisons per emitted entry. The view
   freezes the outcome of that merge once and replays it for free: it
   stores, for the concatenation of all runs in sorted order, one byte per
   entry naming the source run (the selector array) and one full encoded
   key every [seg_size] entries (the anchor array). A walk then
   binary-searches the anchors, seeks one cursor per run to the segment
   anchor, and pops cursors in selector order — zero comparisons per entry
   after the bounded skip into the first segment.

   Anchor positioning is sound because a segment only starts at an entry
   strictly above the one before it: every entry ordered before a
   segment's first entry is strictly below its anchor, so seeking each run
   to the anchor skips exactly the entries the selector prefix already
   consumed. Encoded internal keys are unique per write (the sequence
   trailer differs even for rewrites of one user key), but one write can
   sit in two runs — a WAL replay re-ingests what a flush had already
   persisted — so a segment boundary that would split two equal keys moves
   past them.

   The view holds no cursors and no table handles — only anchors, selectors
   and a run count. Callers own the mapping from run index to a table (the
   run set the view was built against) and must invalidate the view
   whenever that run set changes; the walk ({!Range_reader}) raises
   [Stale_view] if a run ends before the selectors say it should, which
   only happens on a missed invalidation.

   Cost: 1 byte/entry + ~key_size/seg_size bytes/entry. *)

exception Stale_view = Merge.Stale_view

type t = {
  anchors : string array; (* anchors.(s) = encoded key of entry starts.(s) *)
  starts : int array; (* first entry of each segment, ascending *)
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

(* Freeze a merge: the run of every entry, and a segment start every
   [seg_size] entries — moved past any entry equal to the one before it.
   [prev] holds the previous key while the next entry may start a
   segment. *)
let of_merge ~run_count m =
  let selectors = Buffer.create 4096 in
  let anchors = ref [] and starts = ref [] in
  let count = ref 0 and due = ref true in
  let prev = ref (Bytes.create 64) and prev_len = ref 0 in
  while Merge.next m do
    let key = Merge.key_bytes m and len = Merge.key_length m in
    if !count mod seg_size = 0 then due := true;
    if
      !due
      && not (!count > 0 && len = !prev_len && Block.equal_prefix !prev key len)
    then begin
      anchors := Bytes.sub_string key 0 len :: !anchors;
      starts := !count :: !starts;
      due := false
    end;
    if !due || (!count + 1) mod seg_size = 0 then begin
      if Bytes.length !prev < len then prev := Bytes.create (2 * len);
      Bytes.blit key 0 !prev 0 len;
      prev_len := len
    end;
    Buffer.add_char selectors (Char.unsafe_chr (Merge.tag m));
    incr count
  done;
  {
    anchors = Array.of_list (List.rev !anchors);
    starts = Array.of_list (List.rev !starts);
    selectors = Buffer.to_bytes selectors;
    count = !count;
    run_count;
  }

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
    (t.starts.(seg), t.anchors.(seg))

let selectors t = t.selectors

(* Extend with one run: replay the view — pop the old runs in selector
   order, no comparisons — merged against the new run. *)
let add_run t runs run =
  of_merge ~run_count:(t.run_count + 1)
    (Merge.create
       ((if Array.length runs = 0 then []
         else
           [ Merge.walk ~selectors:t.selectors ~count:t.count ~start:0 ~from:"" runs ])
       @ [ Merge.run ~tag:t.run_count run ]))

(* ------------------------------------------------------------------ *)
(* An engine's cached view: the view plus the run set it was built over.
   Building or extending replays whole runs through [cursor] (the engine's
   cache-bypassing whole-table cursor) and is timed into the env's stats. *)

let timed stats f =
  let started = Unix.gettimeofday () in
  let v = f () in
  let ns = int_of_float ((Unix.gettimeofday () -. started) *. 1e9) in
  Wip_storage.Io_stats.(
    add_many stats [ (view_rebuilds, 1); (view_rebuild_time, ns) ]);
  v

let build ~enabled ~stats ~cursor tables =
  let n = List.length tables in
  if (not enabled) || n = 0 || n > max_runs then None
  else
    let runs = Array.of_list tables in
    let merge () =
      Merge.create (List.mapi (fun tag m -> Merge.run ~tag (cursor m)) tables)
    in
    Some (timed stats (fun () -> of_merge ~run_count:n (merge ())), runs)

let extend ~enabled ~stats ~cursor cached meta =
  match cached with
  | None -> None
  | Some (view, runs) ->
    if (not enabled) || run_count view >= max_runs then None
    else
      Some
        ( timed stats (fun () ->
              add_run view (Array.map cursor runs) (cursor meta)),
          Array.append runs [| meta |] )
