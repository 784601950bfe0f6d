(** Bounded retry with exponential backoff and deterministic jitter.

    The one sanctioned place an operation may be re-attempted after a
    transient failure. [run] is generic over the failure classification —
    callers pass [is_retryable], so this module needs no knowledge of any
    particular exception — and over time itself: the backoff schedule is a
    pure function of the caller's {!Rng} seed and the attempt number, and
    sleeping is delegated to [sleep_ns], so tests can replace real delays
    with a recording stub and replay identical schedules from a seed.

    Lint rule R6 leans on this module: matching [Env.Io_fault] in an
    exception handler is only legal here and under [lib/storage] — every
    other layer must either let the fault propagate or go through [run]. *)

type policy = {
  max_attempts : int;  (** total attempts including the first; >= 1 *)
  base_delay_ns : int;  (** delay before the first retry *)
  max_delay_ns : int;  (** cap on the exponential growth *)
  jitter : float;
      (** fraction of each delay randomized away (in [0, 1]): the slept
          delay is [d * (1 - jitter * u)] for uniform [u] — jitter shrinks
          delays, so [max_delay_ns] stays a hard upper bound *)
}

val default_policy : policy
(** 4 attempts, 1 ms base doubling to a 100 ms cap, 0.5 jitter. *)


val validate : policy -> (unit, string) result

val delay_ns : policy -> rng:Rng.t -> attempt:int -> int
(** The delay slept after failed attempt [attempt] (1-based). Exposed for
    tests asserting the schedule; advances [rng]. *)

val run :
  ?policy:policy ->
  rng:Rng.t ->
  sleep_ns:(int -> unit) ->
  is_retryable:(exn -> bool) ->
  ?on_retry:(attempt:int -> delay_ns:int -> unit) ->
  (unit -> 'a) ->
  'a
(** [run ~rng ~sleep_ns ~is_retryable f] runs [f], re-attempting after any
    exception [e] with [is_retryable e = true] until [policy.max_attempts]
    attempts have been made; the last failure (or any non-retryable one)
    propagates unchanged. [on_retry] fires before each backoff sleep.
    @raise Invalid_argument if the policy fails {!validate}. *)
