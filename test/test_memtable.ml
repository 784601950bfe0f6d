(* Tests for wip_memtable: skiplist, the paper's hash memtable, and the
   unified front, checked against a reference model. *)

module Ikey = Wip_util.Ikey
module Skiplist = Wip_memtable.Skiplist
module Hash_memtable = Wip_memtable.Hash_memtable
module Memtable = Wip_memtable.Memtable

module Model = Map.Make (String)

let ik ?(kind = Ikey.Value) key seq = Ikey.make ~kind key ~seq:(Int64.of_int seq)

(* ------------------------------------------------------------------ *)
(* Skiplist *)

let test_skiplist_basic () =
  let s = Skiplist.create () in
  Skiplist.add s (ik "b" 1) "vb";
  Skiplist.add s (ik "a" 2) "va";
  Skiplist.add s (ik "c" 3) "vc";
  Alcotest.(check int) "count" 3 (Skiplist.count s);
  (match Skiplist.find s "a" ~snapshot:10L with
  | Some (Ikey.Value, v) -> Alcotest.(check string) "a" "va" v
  | _ -> Alcotest.fail "a not found");
  Alcotest.(check bool) "missing" true (Skiplist.find s "zz" ~snapshot:10L = None)

let test_skiplist_versions_and_snapshots () =
  let s = Skiplist.create () in
  Skiplist.add s (ik "k" 1) "v1";
  Skiplist.add s (ik "k" 5) "v5";
  Skiplist.add s (ik ~kind:Ikey.Deletion "k" 8) "";
  (match Skiplist.find s "k" ~snapshot:10L with
  | Some (Ikey.Deletion, _) -> ()
  | _ -> Alcotest.fail "newest is the tombstone");
  (match Skiplist.find s "k" ~snapshot:6L with
  | Some (Ikey.Value, v) -> Alcotest.(check string) "snapshot 6" "v5" v
  | _ -> Alcotest.fail "v5 expected");
  (match Skiplist.find s "k" ~snapshot:1L with
  | Some (Ikey.Value, v) -> Alcotest.(check string) "snapshot 1" "v1" v
  | _ -> Alcotest.fail "v1 expected");
  Alcotest.(check bool) "before any write" true
    (Skiplist.find s "k" ~snapshot:0L = None)

let test_skiplist_sorted_iteration () =
  let s = Skiplist.create () in
  let rng = Wip_util.Rng.create ~seed:5L in
  for i = 1 to 500 do
    let key = Printf.sprintf "%05d" (Wip_util.Rng.int rng 1000) in
    Skiplist.add s (ik key i) "v"
  done;
  let entries = List.of_seq (Skiplist.to_sorted_seq s) in
  Alcotest.(check int) "all entries" 500 (List.length entries);
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      Ikey.compare a b < 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by internal key" true (sorted entries)

(* Newest visible version per user key in [lo, hi) at [snapshot], from an
   internal-key-ordered sequence: the visibility rule a scan applies on top
   of the memtable's positioned order. *)
let newest_visible ~hi ~snapshot entries =
  let rec go last seq =
    match seq () with
    | Seq.Nil -> []
    | Seq.Cons (((k : Ikey.t), v), rest) ->
      if Ikey.compare_user k.Ikey.user_key hi >= 0 then []
      else if Int64.compare k.Ikey.seq snapshot > 0 then go last rest
      else if last = Some k.Ikey.user_key then go last rest
      else (k.Ikey.user_key, (k.Ikey.kind, v)) :: go (Some k.Ikey.user_key) rest
  in
  go None entries

let values =
  List.filter_map (fun (k, (kind, v)) ->
      if kind = Ikey.Value then Some (k, v) else None)

let test_skiplist_range () =
  let s = Skiplist.create () in
  Skiplist.add s (ik "0" 6) "below lo";
  Skiplist.add s (ik "a" 1) "va";
  Skiplist.add s (ik "b" 2) "vb-old";
  Skiplist.add s (ik "b" 3) "vb-new";
  Skiplist.add s (ik ~kind:Ikey.Deletion "c" 4) "";
  Skiplist.add s (ik "d" 5) "vd";
  let range snapshot =
    values (newest_visible ~hi:"d" ~snapshot (Skiplist.to_sorted_seq ~lo:"a" s))
  in
  Alcotest.(check (list (pair string string)))
    "newest visible, tombstones dropped"
    [ ("a", "va"); ("b", "vb-new") ]
    (range 10L);
  Alcotest.(check (list (pair string string)))
    "old snapshot sees old version"
    [ ("a", "va"); ("b", "vb-old") ]
    (range 2L);
  Alcotest.(check int) "seek lands on lo's newest version" 3
    (match Skiplist.to_sorted_seq ~lo:"b" s () with
    | Seq.Cons ((k, _), _) -> Int64.to_int k.Ikey.seq
    | Seq.Nil -> -1)

(* ------------------------------------------------------------------ *)
(* Hash memtable *)

let test_hash_basic () =
  let h = Hash_memtable.create ~capacity_items:100 in
  Alcotest.(check bool) "add" true (Hash_memtable.try_add h (ik "x" 1) "vx");
  Alcotest.(check bool) "add" true (Hash_memtable.try_add h (ik "y" 2) "vy");
  (match Hash_memtable.find h "x" ~snapshot:10L with
  | Some (Ikey.Value, v) -> Alcotest.(check string) "x" "vx" v
  | _ -> Alcotest.fail "x missing");
  Alcotest.(check bool) "absent" true (Hash_memtable.find h "z" ~snapshot:10L = None)

let test_hash_newest_wins () =
  let h = Hash_memtable.create ~capacity_items:100 in
  ignore (Hash_memtable.try_add h (ik "k" 1) "old");
  ignore (Hash_memtable.try_add h (ik "k" 2) "new");
  (match Hash_memtable.find h "k" ~snapshot:10L with
  | Some (Ikey.Value, v) -> Alcotest.(check string) "newest" "new" v
  | _ -> Alcotest.fail "missing");
  (match Hash_memtable.find h "k" ~snapshot:1L with
  | Some (Ikey.Value, v) -> Alcotest.(check string) "snapshot sees old" "old" v
  | _ -> Alcotest.fail "missing")

let test_hash_capacity_full () =
  let h = Hash_memtable.create ~capacity_items:8 in
  let added = ref 0 in
  (try
     for i = 0 to 100 do
       if Hash_memtable.try_add h (ik (Printf.sprintf "key%d" i) i) "v" then
         incr added
       else raise Exit
     done
   with Exit -> ());
  Alcotest.(check int) "stops at capacity" 8 !added

let test_hash_entry_overflow_freezes () =
  (* With a big arena but only 2 directory entries (capacity 8 -> 2 entries),
     nine keys hashing anywhere must overflow some 8-slot entry before 17
     insertions; the table reports full rather than relocating. *)
  let h = Hash_memtable.create ~capacity_items:1000 in
  let full = ref false in
  (try
     for i = 0 to 999 do
       if not (Hash_memtable.try_add h (ik (Printf.sprintf "key%d" i) i) "v")
       then begin
         full := true;
         raise Exit
       end
     done
   with Exit -> ());
  (* 1000-item capacity gives 256 entries * 8 slots = 2048 slots, but uneven
     hashing can overflow one entry early; either way it must not crash and
     sorted output must contain exactly what was accepted. *)
  let entries = Hash_memtable.sorted h in
  Alcotest.(check int) "sorted output size" (Hash_memtable.count h)
    (Array.length entries);
  ignore !full

let test_hash_sorted_entries () =
  let h = Hash_memtable.create ~capacity_items:512 in
  let rng = Wip_util.Rng.create ~seed:9L in
  let n = 300 in
  for i = 1 to n do
    ignore
      (Hash_memtable.try_add h
         (ik (Printf.sprintf "%06d" (Wip_util.Rng.int rng 100000)) i)
         ("v" ^ string_of_int i))
  done;
  let entries = Hash_memtable.sorted h in
  Alcotest.(check int) "count" n (Array.length entries);
  for i = 1 to Array.length entries - 1 do
    if
      Ikey.compare
        (Ikey.decode (fst entries.(i - 1)))
        (Ikey.decode (fst entries.(i)))
      >= 0
    then Alcotest.fail "not sorted"
  done

(* ------------------------------------------------------------------ *)
(* Unified memtable, model-based *)

let model_check structure =
  let mt =
    Memtable.create ~structure ~capacity_items:10_000
      ~capacity_bytes:(1 lsl 30)
  in
  let model = ref Model.empty in
  let rng = Wip_util.Rng.create ~seed:77L in
  for seq = 1 to 2000 do
    let key = Printf.sprintf "%04d" (Wip_util.Rng.int rng 300) in
    (* A rejected insert (hash-entry overflow) means the table is full in
       real use; the model must not record it. *)
    if Wip_util.Rng.int rng 10 = 0 then begin
      if Memtable.try_add mt (ik ~kind:Ikey.Deletion key seq) "" then
        model := Model.add key None !model
    end
    else begin
      let v = Printf.sprintf "v%d" seq in
      if Memtable.try_add mt (ik key seq) v then
        model := Model.add key (Some v) !model
    end
  done;
  Model.iter
    (fun key expected ->
      match (Memtable.find mt key ~snapshot:Int64.max_int, expected) with
      | Some (Ikey.Value, v), Some v' when String.equal v v' -> ()
      | Some (Ikey.Deletion, _), None -> ()
      | got, _ ->
        Alcotest.failf "mismatch on %s (got %s)" key
          (match got with
          | None -> "none"
          | Some (Ikey.Value, v) -> "value " ^ v
          | Some (Ikey.Deletion, _) -> "tombstone"))
    !model

let test_memtable_model_hash () = model_check Memtable.Hash

let test_memtable_model_sorted () = model_check Memtable.Sorted

let test_memtable_min_seq () =
  let mt =
    Memtable.create ~structure:Memtable.Hash ~capacity_items:100
      ~capacity_bytes:(1 lsl 20)
  in
  Alcotest.(check bool) "empty" true (Memtable.min_seq mt = None);
  ignore (Memtable.try_add mt (ik "a" 5) "v");
  ignore (Memtable.try_add mt (ik "b" 3) "v");
  ignore (Memtable.try_add mt (ik "c" 9) "v");
  Alcotest.(check bool) "min is 3" true (Memtable.min_seq mt = Some 3L)

let test_memtable_capacity_bytes () =
  let mt =
    Memtable.create ~structure:Memtable.Sorted ~capacity_items:1_000_000
      ~capacity_bytes:100
  in
  let accepted = ref 0 in
  (try
     for i = 1 to 100 do
       if Memtable.try_add mt (ik (Printf.sprintf "%05d" i) i) "0123456789" then
         incr accepted
       else raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool) "byte capacity enforced" true (!accepted < 100)

let test_memtable_range_includes_tombstones () =
  let mt =
    Memtable.create ~structure:Memtable.Hash ~capacity_items:100
      ~capacity_bytes:(1 lsl 20)
  in
  ignore (Memtable.try_add mt (ik "a" 1) "va");
  ignore (Memtable.try_add mt (ik ~kind:Ikey.Deletion "b" 2) "");
  let r =
    newest_visible ~hi:"z" ~snapshot:10L
      (Memtable.entries ~lo:"a" mt |> Seq.map (fun (k, v) -> (Ikey.decode k, v)))
  in
  Alcotest.(check int) "two results incl tombstone" 2 (List.length r);
  (match List.assoc "b" r with
  | Ikey.Deletion, _ -> ()
  | _ -> Alcotest.fail "b should be a tombstone")

(* The sort-to-buffer against a model: the entries inserted so far, sorted
   afresh. Ops are (0, k) = read from lo = key k, otherwise insert key k
   (op 1 writes a tombstone). *)
let buffer_ops =
  QCheck.(list_of_size Gen.(0 -- 80) (pair (int_bound 3) (int_bound 40)))

let key_of k = Printf.sprintf "%03d" k

let run_buffer_ops structure ops ~on_read =
  let mt =
    Memtable.create ~structure ~capacity_items:10_000 ~capacity_bytes:(1 lsl 30)
  in
  let model = ref [] in
  List.iteri
    (fun i (op, k) ->
      if op = 0 then on_read mt (key_of k) !model
      else begin
        let kind = if op = 1 then Ikey.Deletion else Ikey.Value in
        let ikey = ik ~kind (key_of k) (i + 1) and v = "v" ^ string_of_int i in
        if Memtable.try_add mt ikey v then
          model := (Ikey.encode ikey, v) :: !model
      end)
    ops;
  mt

let fresh_sort model ~lo =
  List.sort (fun (a, _) (b, _) -> String.compare a b) model
  |> List.filter (fun (k, _) ->
         Ikey.compare_user (Ikey.user_key_of_encoded k) lo >= 0)

let qcheck_buffer_reads_equal_fresh_sort =
  QCheck.Test.make ~name:"buffered reads equal a fresh sort" ~count:200
    buffer_ops (fun ops ->
      List.iter
        (fun structure ->
          ignore
            (run_buffer_ops structure ops ~on_read:(fun mt lo model ->
                 if List.of_seq (Memtable.entries ~lo mt) <> fresh_sort model ~lo
                 then QCheck.Test.fail_reportf "read from %s differs" lo)))
        [ Memtable.Hash; Memtable.Sorted ];
      true)

let qcheck_one_sort_per_version =
  QCheck.Test.make ~name:"one sort per memtable version" ~count:200 buffer_ops
    (fun ops ->
      (* A version is the table between two inserts; count those read.
         Each read is a positioned scan plus a whole-table pass, as a flush
         or split takes it. *)
      let versions = ref 0 and last_read = ref (-1) in
      let mt =
        run_buffer_ops Memtable.Hash ops ~on_read:(fun mt lo model ->
            ignore (Seq.length (Memtable.entries ~lo mt));
            ignore (Seq.length (Memtable.entries mt));
            if List.length model <> !last_read then begin
              incr versions;
              last_read := List.length model
            end)
      in
      Memtable.sorts mt = !versions)

let qcheck_sequence_keeps_its_version =
  QCheck.Test.make ~name:"a taken sequence keeps its version" ~count:200
    QCheck.(pair buffer_ops buffer_ops)
    (fun (before, after) ->
      let mt = run_buffer_ops Memtable.Hash before ~on_read:(fun _ _ _ -> ()) in
      let taken = Memtable.entries ~lo:"010" mt in
      let want = List.of_seq (Memtable.entries ~lo:"010" mt) in
      (* Force one entry, then write more into the same table. *)
      let rest =
        match taken () with Seq.Nil -> Seq.empty | Seq.Cons (e, rest) -> Seq.cons e rest
      in
      List.iteri
        (fun i (_, k) ->
          ignore (Memtable.try_add mt (ik (key_of k) (10_000 + i)) "later"))
        after;
      List.of_seq rest = want)

let qcheck_hash_vs_skiplist =
  QCheck.Test.make ~name:"hash and skiplist memtables agree" ~count:50
    QCheck.(small_list (pair (int_bound 50) (int_bound 2)))
    (fun ops ->
      let h =
        Memtable.create ~structure:Memtable.Hash ~capacity_items:10_000
          ~capacity_bytes:(1 lsl 30)
      and s =
        Memtable.create ~structure:Memtable.Sorted ~capacity_items:10_000
          ~capacity_bytes:(1 lsl 30)
      in
      List.iteri
        (fun i (k, op) ->
          let key = Printf.sprintf "%03d" k in
          let kind = if op = 0 then Ikey.Deletion else Ikey.Value in
          let ikey = ik ~kind key (i + 1) in
          let v = "v" ^ string_of_int i in
          (* Keep the two tables in lockstep: skip the skiplist insert when
             the hash table rejects (overflow). *)
          if Memtable.try_add h ikey v then ignore (Memtable.try_add s ikey v))
        ops;
      List.for_all
        (fun (k, _) ->
          let key = Printf.sprintf "%03d" k in
          Memtable.find h key ~snapshot:Int64.max_int
          = Memtable.find s key ~snapshot:Int64.max_int)
        ops)

let suite =
  [
    Alcotest.test_case "skiplist basic" `Quick test_skiplist_basic;
    Alcotest.test_case "skiplist versions" `Quick
      test_skiplist_versions_and_snapshots;
    Alcotest.test_case "skiplist sorted" `Quick test_skiplist_sorted_iteration;
    Alcotest.test_case "skiplist range" `Quick test_skiplist_range;
    Alcotest.test_case "hash basic" `Quick test_hash_basic;
    Alcotest.test_case "hash newest wins" `Quick test_hash_newest_wins;
    Alcotest.test_case "hash capacity" `Quick test_hash_capacity_full;
    Alcotest.test_case "hash overflow freeze" `Quick
      test_hash_entry_overflow_freezes;
    Alcotest.test_case "hash sorted entries" `Quick test_hash_sorted_entries;
    Alcotest.test_case "memtable model (hash)" `Quick test_memtable_model_hash;
    Alcotest.test_case "memtable model (sorted)" `Quick
      test_memtable_model_sorted;
    Alcotest.test_case "memtable min_seq" `Quick test_memtable_min_seq;
    Alcotest.test_case "memtable byte capacity" `Quick
      test_memtable_capacity_bytes;
    Alcotest.test_case "memtable range tombstones" `Quick
      test_memtable_range_includes_tombstones;
    QCheck_alcotest.to_alcotest qcheck_hash_vs_skiplist;
    QCheck_alcotest.to_alcotest qcheck_buffer_reads_equal_fresh_sort;
    QCheck_alcotest.to_alcotest qcheck_one_sort_per_version;
    QCheck_alcotest.to_alcotest qcheck_sequence_keeps_its_version;
  ]
