(** Group commit: coalesce concurrent logical commits into one WAL
    append + fsync window.

    Workers call {!submit} with one logical batch each. The first
    submitter to find no window leader becomes the {e leader}: it takes
    the queue as one window — closing it as soon as the arrival burst
    settles (one poll quantum with no growth), the queue holds
    [max_batch_bytes], or [max_delay_s] has passed since its own
    arrival, whichever comes first — and drives it through the [commit]
    function (for the sharded front,
    {!Wip_concurrent.Sharded_store.Make.commit_batches} — one WAL append
    and one fsync per touched shard for the entire window). Every other
    submitter whose batch lands in an active window parks on a
    {!Wip_util.Sync.Cond} condition and is handed its own typed verdict
    when the window completes — leader/follower handoff, no polling.
    Most coalescing is {e natural}: batches that arrive while a window is
    inside its fsync queue up and ship together in the next one, so a
    lone submitter pays one quantum of fill wait, never the full delay.

    [submit] returning [Ok ()] means the batch is {e durable} (applied
    and fsynced); a server may acknowledge it. The commit runs with no
    group-commit lock held, so the next window fills while the current
    one is inside its fsync — the dynamic that makes window size track
    device latency. If the commit function raises (a crash in
    fault-injection runs), followers of the in-flight window are failed
    with a typed [Store_degraded] verdict — never left parked — and the
    exception propagates out of the leader's [submit].

    With [coalesce:false] every submit commits alone (one append + fsync
    per request) through the same serialized leader path: the baseline
    the group-commit benchmark compares against. *)

type t

val create :
  ?max_batch_bytes:int ->
  ?max_delay_s:float ->
  ?coalesce:bool ->
  ?stats:Wip_storage.Io_stats.t ->
  commit:
    ((Wip_util.Ikey.kind * string * string) list array ->
    (unit, Wip_kv.Store_intf.write_error) result array) ->
  unit ->
  t
(** [commit] receives the window's batches in submission order and must
    return one verdict per batch, in order, where [Ok] implies durable.
    [max_batch_bytes] (default 1 MiB) closes a window early;
    [max_delay_s] (default 2 ms) is the hard ceiling on the leader's fill
    wait (the window usually closes much sooner, when arrivals settle).
    [stats] counts each window in {!Wip_storage.Io_stats.commit_windows},
    with its requests and latency. *)

val submit :
  t ->
  (Wip_util.Ikey.kind * string * string) list ->
  (unit, Wip_kv.Store_intf.write_error) result
(** Blocks until the window holding this batch commits (bounded by the
    window clock plus the commit itself). [Ok ()] = durable. After
    {!stop}, returns [Store_degraded]. *)

val stop : t -> unit
(** Refuse new submissions and wait for in-flight windows to drain. *)

val windows : t -> int
(** Windows committed so far (each cost one commit-function call). *)

val requests : t -> int
(** Logical batches carried by those windows; [requests - windows] is the
    number of commit calls (and their fsyncs) coalescing saved. *)
