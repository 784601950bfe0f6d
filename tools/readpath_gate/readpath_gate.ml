(* Readpath regression gate.

   Compares a fresh BENCH_readpath.json against the committed baseline
   (bench/readpath_baseline.json) and fails if the read-path accelerators
   regressed. CI machines differ wildly in raw ns, so only
   machine-independent signals gate:

     - probes/op: restart-interval probe counts are a pure function of the
       workload and table layout. The perfect-hash index pins point gets at
       ~0 probes; a regression here means the PH build or lookup broke and
       gets silently fell back to binary search. Budget: baseline * 1.1
       plus a 0.05 absolute floor (a 0 baseline must not forbid noise).
     - scan_speedup (per engine): the on/off ratio cancels the machine's
       per-entry cost; it falls only if the sorted-view replay stopped
       beating the heap merge. Budget: baseline * 0.9.
     - short_scan_read_path_bytes_per_scan: device bytes per short zipfian
       scan over a cached store, an exact count on the in-memory Env; it
       rises only if the block cache stopped keeping what scans read.
       Budget: baseline * 1.1 plus 64 bytes.
     - short_scan_alloc_bytes_per_row: bytes allocated by the same scans
       per returned row, exact in the single-threaded bench; it rises only
       if the range reader copies entries it does not return. Same
       budget.
     - compact_write_alloc_bytes_per_entry: bytes allocated per entry by a
       4-run compaction merge written out through the table builder on the
       in-memory Env, exact in the same way; it rises if compaction copies
       entries into strings again or the builder stops reusing its block
       buffer. Same budget.

   Usage: readpath_gate BASELINE.json FRESH.json *)

(* Minimal JSON reader for the bench's own output: objects, numbers,
   strings, and whatever else appears get tokenized enough to extract
   number fields by path. Not a general parser — input is trusted. *)

type json =
  | Obj of (string * json) list
  | Num of float
  | Str of string
  | Other

exception Parse of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> raise (Parse (Printf.sprintf "expected %c at %d" c !pos))
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some c ->
          advance ();
          Buffer.add_char b c
        | None -> raise (Parse "eof in string"));
        go ()
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
      | None -> raise (Parse "eof in string")
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> raise (Parse "expected , or } in object")
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '"' -> Str (parse_string ())
    | Some ('-' | '0' .. '9') ->
      let start = !pos in
      let rec num () =
        match peek () with
        | Some ('-' | '+' | '.' | 'e' | 'E' | '0' .. '9') ->
          advance ();
          num ()
        | _ -> ()
      in
      num ();
      Num (float_of_string (String.sub s start (!pos - start)))
    | Some 't' ->
      pos := !pos + 4;
      Other
    | Some 'f' ->
      pos := !pos + 5;
      Other
    | Some 'n' ->
      pos := !pos + 4;
      Other
    | _ -> raise (Parse (Printf.sprintf "unexpected input at %d" !pos))
  in
  let v = parse_value () in
  skip_ws ();
  v

let load file =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  try parse_json s
  with Parse m -> failwith (Printf.sprintf "%s: bad JSON (%s)" file m)

let field j k =
  match j with Obj fields -> List.assoc_opt k fields | _ -> None

let num_at j path =
  let rec go j = function
    | [] -> ( match j with Num f -> Some f | _ -> None)
    | k :: rest -> ( match field j k with Some v -> go v rest | None -> None)
  in
  go j path

let engine_names j =
  match field j "engines" with
  | Some (Obj fields) -> List.map fst fields
  | _ -> []

let failures = ref 0

let check ~what ~baseline ~fresh ~ok ~budget =
  let pass = ok in
  Printf.printf "%-46s baseline %8.3f  fresh %8.3f  budget %-14s %s\n" what
    baseline fresh budget
    (if pass then "ok" else "REGRESSED");
  if not pass then incr failures

(* probes/op may not regress past baseline * 1.1 (+0.05 absolute so a 0.00
   baseline still tolerates float noise). *)
let gate_probes ~what b f =
  match (b, f) with
  | Some b, Some f ->
    check ~what ~baseline:b ~fresh:f
      ~ok:(f <= (b *. 1.1) +. 0.05)
      ~budget:"<= 1.1x + 0.05"
  | _ ->
    Printf.printf "%-46s missing field\n" what;
    incr failures

(* Short-scan device and allocated bytes, and compaction's allocated bytes
   per entry, may not exceed baseline * 1.1 + 64. *)
let gate_bytes ~what b f =
  match (b, f) with
  | Some b, Some f ->
    check ~what ~baseline:b ~fresh:f
      ~ok:(f <= (b *. 1.1) +. 64.0)
      ~budget:"<= 1.1x + 64"
  | _ ->
    Printf.printf "%-46s missing field\n" what;
    incr failures

(* scan_speedup may not fall below baseline * 0.9. *)
let gate_speedup ~what b f =
  match (b, f) with
  | Some b, Some f ->
    check ~what ~baseline:b ~fresh:f ~ok:(f >= b *. 0.9) ~budget:">= 0.9x"
  | _ ->
    Printf.printf "%-46s missing field\n" what;
    incr failures

let () =
  let baseline_file, fresh_file =
    match Sys.argv with
    | [| _; b; f |] -> (b, f)
    | _ ->
      prerr_endline "usage: readpath_gate BASELINE.json FRESH.json";
      exit 2
  in
  let b = load baseline_file and f = load fresh_file in
  gate_probes ~what:"point_get_hot_probes_per_op"
    (num_at b [ "point_get_hot_probes_per_op" ])
    (num_at f [ "point_get_hot_probes_per_op" ]);
  gate_probes ~what:"point_get_cold_probes_per_op"
    (num_at b [ "point_get_cold_probes_per_op" ])
    (num_at f [ "point_get_cold_probes_per_op" ]);
  List.iter
    (fun what -> gate_bytes ~what (num_at b [ what ]) (num_at f [ what ]))
    [
      "short_scan_read_path_bytes_per_scan";
      "short_scan_alloc_bytes_per_row";
      "compact_write_alloc_bytes_per_entry";
    ];
  let engines = engine_names b in
  if engines = [] then begin
    Printf.printf "baseline has no engines object\n";
    incr failures
  end;
  List.iter
    (fun e ->
      gate_probes
        ~what:(Printf.sprintf "engines.%s.get_probes_per_op_on" e)
        (num_at b [ "engines"; e; "get_probes_per_op_on" ])
        (num_at f [ "engines"; e; "get_probes_per_op_on" ]);
      gate_speedup
        ~what:(Printf.sprintf "engines.%s.scan_speedup" e)
        (num_at b [ "engines"; e; "scan_speedup" ])
        (num_at f [ "engines"; e; "scan_speedup" ]))
    engines;
  if !failures > 0 then begin
    Printf.printf "readpath_gate: %d regression(s)\n" !failures;
    exit 1
  end;
  Printf.printf "readpath_gate: all read-path acceleration gates hold\n"
