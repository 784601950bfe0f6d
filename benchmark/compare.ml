(* Compare two sets of benchmark results, metric by metric.

     compare.exe A_DIR B_DIR

   Each directory holds result files written by [wipbench.exe --out]; traced
   runs are skipped. For every workload and every end-to-end metric named
   in BENCHMARK.json (read from the working directory), it prints both
   sets' medians and quartiles and a verdict, taking A as the base:

   - unresolved: either set's spread (quartile distance over median) is
     wider than the metric's bound, and B does not beat A on every run;
   - worse / better: B's median moved the metric's wrong / right way by
     more than the bound;
   - same: otherwise.

   Exits 1 when any verdict is worse or unresolved. *)

type spec = { name : string; lower_is_better : bool; bound : float }

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("compare: " ^ s); exit 2) fmt

let read_spec path =
  let json = try Json.read_file path with e -> fail "%s: %s" path (Printexc.to_string e) in
  match Json.member "end_to_end" json with
  | Some (Json.Arr metrics) ->
    List.map
      (fun m ->
        match
          ( Json.to_str (Json.member "name" m),
            Json.to_str (Json.member "better" m),
            Json.to_num (Json.member "bound" m) )
        with
        | Some name, Some better, Some bound ->
          { name; lower_is_better = better = "lower"; bound }
        | _ -> fail "%s: malformed end_to_end entry" path)
      metrics
  | _ -> fail "%s: no end_to_end list" path

(* workload -> metric -> values, from the untraced result files in [dir]. *)
let read_results dir =
  let table = Hashtbl.create 8 in
  let files =
    try Sys.readdir dir with Sys_error e -> fail "%s" e
  in
  Array.sort String.compare files;
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".json" then begin
        let json = Json.read_file (Filename.concat dir f) in
        let traced = Json.member "trace" json = Some (Json.Bool true) in
        match (traced, Json.to_str (Json.member "workload" json), Json.member "end_to_end" json) with
        | false, Some w, Some (Json.Obj metrics) ->
          List.iter
            (fun (name, m) ->
              match Json.to_num (Json.member "value" m) with
              | Some v ->
                let key = (w, name) in
                Hashtbl.replace table key
                  (v :: Option.value (Hashtbl.find_opt table key) ~default:[])
              | None -> ())
            metrics
        | _ -> ()
      end)
    files;
  table

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (the default, exclusive method). *)
let quartiles values =
  let d = Array.of_list values in
  Array.sort Float.compare d;
  let len = Array.length d in
  let m = len + 1 in
  let q i =
    let j = max 1 (min (len - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
  in
  if len = 1 then (d.(0), d.(0), d.(0)) else (q 1, q 2, q 3)

let () =
  let a_dir, b_dir =
    match Sys.argv with
    | [| _; a; b |] -> (a, b)
    | _ -> fail "usage: compare.exe A_DIR B_DIR"
  in
  let specs = read_spec "BENCHMARK.json" in
  let a = read_results a_dir and b = read_results b_dir in
  let workloads =
    Hashtbl.fold (fun (w, _) _ acc -> if List.mem w acc then acc else w :: acc) a []
    |> List.sort String.compare
  in
  if workloads = [] then fail "%s holds no untraced results" a_dir;
  Printf.printf "%-17s %-11s %26s %26s %8s %6s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "bound" "verdict";
  let bad = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          let get t = Option.value (Hashtbl.find_opt t (w, s.name)) ~default:[] in
          let av = get a and bv = get b in
          let verdict, line =
            if List.length av < 2 || List.length bv < 2 then
              ("unresolved", Printf.sprintf "%d vs %d runs" (List.length av) (List.length bv))
            else begin
              let a1, am, a3 = quartiles av and b1, bm, b3 = quartiles bv in
              let spread = Float.max ((a3 -. a1) /. am) ((b3 -. b1) /. bm) in
              let change = (bm -. am) /. am in
              let worse_by = if s.lower_is_better then change else -.change in
              let beats x y = if s.lower_is_better then x < y else x > y in
              let b_wins_all =
                List.for_all (fun x -> List.for_all (fun y -> beats x y) av) bv
              in
              let verdict =
                if spread > s.bound then if b_wins_all then "better" else "unresolved"
                else if worse_by > s.bound then "worse"
                else if worse_by < -.s.bound then "better"
                else "same"
              in
              ( verdict,
                Printf.sprintf "%26s %26s %+7.1f%% %5.0f%%"
                  (Printf.sprintf "%.4g [%.4g, %.4g]" am a1 a3)
                  (Printf.sprintf "%.4g [%.4g, %.4g]" bm b1 b3)
                  (100.0 *. change) (100.0 *. s.bound) )
            end
          in
          if verdict = "worse" || verdict = "unresolved" then incr bad;
          Printf.printf "%-17s %-11s %s  %s\n" w s.name line verdict)
        specs)
    workloads;
  if !bad > 0 then exit 1
