(* Spans for the traced run, recorded from outside the library: around the
   server's store calls (which are the sharded front's entry points) and
   around every engine entry point the sharded front calls (see [Timed]).

   Each domain keeps its own span stack, so an engine call nests under the
   store call that made it, and its own accumulators, so recording takes
   no lock. A span's self time is its duration minus the time its children
   cover. A root span carries a weight — the number of requests it serves,
   e.g. the batches of one group-commit window — and its children inherit
   it, so per-request means weight each call by the requests waiting on
   it. Spans are recorded only while [enabled] is set: the measured window. *)

type name =
  | Ops_get
  | Ops_scan
  | Ops_commit
  | Core_get
  | Core_scan
  | Core_write
  | Wal_sync
  | Core_flush
  | Core_maintenance

let names =
  [| Ops_get; Ops_scan; Ops_commit; Core_get; Core_scan; Core_write; Wal_sync;
     Core_flush; Core_maintenance |]

let index = function
  | Ops_get -> 0
  | Ops_scan -> 1
  | Ops_commit -> 2
  | Core_get -> 3
  | Core_scan -> 4
  | Core_write -> 5
  | Wal_sync -> 6
  | Core_flush -> 7
  | Core_maintenance -> 8

let label = function
  | Ops_get -> "ops.get"
  | Ops_scan -> "ops.scan"
  | Ops_commit -> "ops.commit"
  | Core_get -> "core.get"
  | Core_scan -> "core.scan"
  | Core_write -> "core.write"
  | Wal_sync -> "wal.sync"
  | Core_flush -> "core.flush"
  | Core_maintenance -> "core.maintenance"

type acc = {
  mutable calls : int;
  mutable weight : int;  (** sum of weights *)
  mutable wdur : int;  (** sum of weight * duration, ns *)
  mutable wself : int;  (** sum of weight * self time, ns *)
  mutable dur : int;  (** sum of durations, ns *)
  durs : Wip_stats.Histogram.t;  (** durations, ns *)
}

let new_acc () =
  { calls = 0; weight = 0; wdur = 0; wself = 0; dur = 0;
    durs = Wip_stats.Histogram.create () }

type frame = {
  mutable name : int;
  mutable start : int;
  mutable children : int;
  mutable w : int;
}

let max_depth = 8

(* Raw spans kept per domain for [write_raw]; later ones are counted. *)
let max_raw = 200_000

type domain_state = {
  stack : frame array;
  mutable depth : int;
  accs : acc array;
  raw : int array;  (** per kept span: name, start, duration, depth *)
  mutable kept : int;
  mutable dropped : int;
}

let enabled = Atomic.make false

let registry_lock = Mutex.create ()

let registry = ref []

let key =
  Domain.DLS.new_key (fun () ->
      let st =
        {
          stack =
            Array.init max_depth (fun _ ->
                { name = 0; start = 0; children = 0; w = 0 });
          depth = 0;
          accs = Array.init (Array.length names) (fun _ -> new_acc ());
          raw = Array.make (4 * max_raw) 0;
          kept = 0;
          dropped = 0;
        }
      in
      Mutex.protect registry_lock (fun () -> registry := st :: !registry);
      st)

let finish st =
  let now = Common.now_ns () in
  st.depth <- st.depth - 1;
  let fr = st.stack.(st.depth) in
  let dur = now - fr.start in
  let self = dur - fr.children in
  if st.depth > 0 then begin
    let parent = st.stack.(st.depth - 1) in
    parent.children <- parent.children + dur
  end;
  let a = st.accs.(fr.name) in
  a.calls <- a.calls + 1;
  a.weight <- a.weight + fr.w;
  a.wdur <- a.wdur + (fr.w * dur);
  a.wself <- a.wself + (fr.w * self);
  a.dur <- a.dur + dur;
  Wip_stats.Histogram.add a.durs (float_of_int dur);
  if st.kept < max_raw then begin
    let o = 4 * st.kept in
    st.raw.(o) <- fr.name;
    st.raw.(o + 1) <- fr.start;
    st.raw.(o + 2) <- dur;
    st.raw.(o + 3) <- st.depth;
    st.kept <- st.kept + 1
  end
  else st.dropped <- st.dropped + 1

let with_span ?(weight = 1) name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let st = Domain.DLS.get key in
    if st.depth >= max_depth then f ()
    else begin
      let fr = st.stack.(st.depth) in
      fr.name <- index name;
      fr.children <- 0;
      fr.w <- (if st.depth > 0 then st.stack.(st.depth - 1).w else weight);
      st.depth <- st.depth + 1;
      fr.start <- Common.now_ns ();
      Fun.protect ~finally:(fun () -> finish st) f
    end
  end

let states () = Mutex.protect registry_lock (fun () -> !registry)

(* Every domain's accumulators merged, per name. Call once the recording
   domains have been joined. *)
let summary () =
  let total = Array.init (Array.length names) (fun _ -> new_acc ()) in
  List.iter
    (fun st ->
      Array.iteri
        (fun i a ->
          let t = total.(i) in
          t.calls <- t.calls + a.calls;
          t.weight <- t.weight + a.weight;
          t.wdur <- t.wdur + a.wdur;
          t.wself <- t.wself + a.wself;
          t.dur <- t.dur + a.dur;
          Wip_stats.Histogram.merge t.durs a.durs)
        st.accs)
    (states ());
  fun name -> total.(index name)

let write_raw path =
  let sts = states () in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\"names\": [%s],\n \"fields\": [\"name\", \"start_ns\", \"duration_ns\", \"depth\"],\n \"domains\": ["
        (String.concat ", "
           (Array.to_list (Array.map (fun n -> "\"" ^ label n ^ "\"") names)));
      List.iteri
        (fun d st ->
          if d > 0 then output_string oc ",";
          Printf.fprintf oc "\n  {\"dropped\": %d, \"spans\": [" st.dropped;
          for i = 0 to st.kept - 1 do
            let o = 4 * i in
            Printf.fprintf oc "%s[%d,%d,%d,%d]"
              (if i > 0 then "," else "")
              st.raw.(o) st.raw.(o + 1) st.raw.(o + 2) st.raw.(o + 3)
          done;
          output_string oc "]}")
        sts;
      output_string oc "]}\n")
