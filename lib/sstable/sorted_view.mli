(** REMIX-style cross-run sorted view: a frozen k-way merge of a run set.

    One byte per entry selects the source run; one anchor key per
    [seg_size] entries allows positioned walks. Scans ({!Range_reader})
    replay the merge by popping per-run cursors in selector order — no
    heap, no per-entry comparisons. See sorted_view.ml and DESIGN.md "Read
    acceleration" for layout and soundness. *)

type t

exception Stale_view
(** Raised by a walk whose run cursors end before the selectors do — i.e.
    the run set changed under a view that was not invalidated. Engines must
    drop the view at every flush/compaction/split/retirement site. *)

val seg_size : int

val position : t -> from:string -> int * string
(** Where a walk toward the encoded key [from] starts: the first entry of
    the last segment whose anchor is [<= from] (0 if none), and that
    anchor. Runs seeked to the anchor and popped in selector order from
    there replay the merge; at most [seg_size] entries precede [from]. *)

val selector : t -> int -> int
(** [selector t i] is the run that holds merged entry [i]. *)

val entry_count : t -> int

val run_count : t -> int

(** {1 An engine's cached view}

    Engines keep [(view, runs)], the tables in run order. [stream m] is the
    engine's cache-bypassing stream over table [m]. A build is one heap
    merge of the runs; an extension 2-way merges the view's replay against
    the new run. Both are timed into [stats] as view rebuilds. *)

val build :
  enabled:bool ->
  min_runs:int ->
  stats:Wip_storage.Io_stats.t ->
  stream:(Table.meta -> (string * string) Seq.t) ->
  Table.meta list ->
  (t * Table.meta array) option
(** A view over [tables] when views are enabled and there are [min_runs]
    to 255 of them (selectors are one byte); [None] otherwise. *)

val extend :
  enabled:bool ->
  stats:Wip_storage.Io_stats.t ->
  stream:(Table.meta -> (string * string) Seq.t) ->
  (t * Table.meta array) option ->
  Table.meta ->
  (t * Table.meta array) option
(** Flush site: the cached view extended with the new run; [None] when
    there is none, views are disabled or the view is full. *)
