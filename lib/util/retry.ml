type policy = {
  max_attempts : int;
  base_delay_ns : int;
  max_delay_ns : int;
  jitter : float;
}

let default_policy =
  {
    max_attempts = 4;
    base_delay_ns = 1_000_000 (* 1 ms *);
    max_delay_ns = 100_000_000 (* 100 ms *);
    jitter = 0.5;
  }


let validate p =
  if p.max_attempts < 1 then Error "max_attempts must be >= 1"
  else if p.base_delay_ns < 0 then Error "base_delay_ns must be >= 0"
  else if p.max_delay_ns < p.base_delay_ns then
    Error "max_delay_ns must be >= base_delay_ns"
  else if p.jitter < 0.0 || p.jitter > 1.0 then
    Error "jitter must be in [0, 1]"
  else Ok ()

(* Exponential growth capped at max_delay_ns, then jittered DOWN by up to
   [jitter] of itself: delay * (1 - jitter * u). Shrinking (rather than
   growing) keeps the cap a true upper bound, and drawing u from the caller's
   Rng keeps the whole schedule a pure function of the seed. *)
let delay_ns p ~rng ~attempt =
  if p.base_delay_ns = 0 then 0
  else begin
    let exp = min (attempt - 1) 30 in
    let raw =
      if p.base_delay_ns > p.max_delay_ns lsr exp then p.max_delay_ns
      else p.base_delay_ns lsl exp
    in
    let raw = min raw p.max_delay_ns in
    let u = Rng.float rng in
    let scaled = float_of_int raw *. (1.0 -. (p.jitter *. u)) in
    int_of_float scaled
  end

let run ?(policy = default_policy) ~rng ~sleep_ns ~is_retryable
    ?(on_retry = fun ~attempt:_ ~delay_ns:_ -> ()) f =
  (match validate policy with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Retry.run: " ^ msg));
  let rec attempt_no n =
    try f ()
    with e when n < policy.max_attempts && is_retryable e ->
      let d = delay_ns policy ~rng ~attempt:n in
      on_retry ~attempt:n ~delay_ns:d;
      if d > 0 then sleep_ns d;
      attempt_no (n + 1)
  in
  attempt_no 1
