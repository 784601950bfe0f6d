module Ikey = Wip_util.Ikey
module Io_stats = Wip_storage.Io_stats
module Table = Wip_sstable.Table
module Merge = Wip_sstable.Merge
module Manifest = Wip_manifest.Manifest
module Table_set = Wip_kv.Table_set

type config = {
  memtable_bytes : int;
  max_files_per_guard : int;
  top_level_bits : int;
  bits_decrement : int;
  max_levels : int;
  bits_per_key : int;
  sorted_view : bool;
  ph_index : bool;
  name : string;
}

let default_config ~scale =
  {
    memtable_bytes = 64 * 1024 * scale;
    max_files_per_guard = 4;
    (* Scaled-down analogue of PebblesDB's top_level_bits: at our store
       sizes, requiring ~14 trailing zero bits at level 1 yields a guard
       population comparable in proportion to the paper's setup. *)
    top_level_bits = 14;
    bits_decrement = 2;
    max_levels = 5;
    bits_per_key = 10;
    sorted_view = true;
    ph_index = true;
    name = "PebblesDB";
  }

(* A guard span: fragments between [guard] (inclusive lower bound) and the
   next guard. The span before the first guard has guard = "". *)
type span = {
  guard : string;
  mutable fragments : Table.meta list; (* newest first; guarded_by: caller *)
}

(* The span of a level's [spans] holding [key]: the last whose guard is
   <= key (the first span's guard is "", so there always is one). *)
let span_for spans key =
  let rec pick best = function
    | span :: rest when String.compare span.guard key <= 0 -> pick span rest
    | _ -> best
  in
  match spans with first :: rest -> pick first rest | [] -> assert false

let straddles g (m : Table.meta) =
  String.compare m.Table.smallest g < 0 && String.compare g m.Table.largest <= 0

(* Land a new guard [g] in its span: the fragments starting at or past [g]
   move, in order, to a new span right after it. No fragment may straddle
   [g]. *)
let add_guard levels level g =
  let span = span_for levels.(level) g in
  let left, right =
    List.partition
      (fun (m : Table.meta) -> String.compare m.Table.smallest g < 0)
      span.fragments
  in
  span.fragments <- left;
  let rec insert = function
    | s :: rest when s == span -> s :: { guard = g; fragments = right } :: rest
    | s :: rest -> s :: insert rest
    | [] -> []
  in
  levels.(level) <- insert levels.(level)

let rec trailing_zeros ?(n = 0) h =
  if n = 64 || Int64.logand h 1L = 1L then n
  else trailing_zeros ~n:(n + 1) (Int64.shift_right_logical h 1)

let guard_bits cfg level =
  max 1 (cfg.top_level_bits - (cfg.bits_decrement * (level - 1)))

module Policy = struct
  type nonrec config = config

  type layout = {
    cfg : config;
    levels : span list array;
        (* index 1..max_levels-1 used, each level's spans sorted by guard *)
    pending_guards : (int, string list) Hashtbl.t;
        (* guards observed from inserted keys but not yet committed *)
    (* Replay only: a logged guard at a level, the fragments straddling
       it that still await their removal edits (named in span order), and
       the first one's halves logged so far, newest edit first. *)
    (* guarded_by: caller *)
    mutable splitting : (int * string * string list * Table.meta list) option;
  }

  type job = L0 | Span of int * span

  let settings (c : config) =
    {
      Lsm_engine.name = c.name;
      memtable_bytes = c.memtable_bytes;
      max_levels = c.max_levels;
      bits_per_key = c.bits_per_key;
      ph_index = c.ph_index;
      sorted_view = c.sorted_view;
    }

  let create cfg =
    {
      cfg;
      levels =
        Array.init cfg.max_levels (fun _ -> [ { guard = ""; fragments = [] } ]);
      pending_guards = Hashtbl.create 8;
      splitting = None;
    }

  (* Manifest edits: the [bucket] field carries the level a fragment lives
     in (0 = the unguarded L0); guards are logged as [Add_bucket { id =
     level; lo = guard }]. *)
  let bucket ~level = level

  let tables lay =
    List.concat_map
      (List.concat_map (fun s -> s.fragments))
      (Array.to_list lay.levels)

  let candidates lay ~level key = (span_for lay.levels.(level) key).fragments

  (* Guards are picked by hashing every inserted key: record [key] as a
     pending guard for every level whose requirement it meets. Meeting
     level i's requirement implies meeting every deeper level's (bits
     decrease with depth). *)
  let observe_key lay key =
    let z = trailing_zeros (Wip_util.Hashing.hash64 ~seed:0x9172L key) in
    for level = 1 to lay.cfg.max_levels - 1 do
      if z >= guard_bits lay.cfg level then
        Hashtbl.replace lay.pending_guards level
          (key
          :: Option.value ~default:[]
               (Hashtbl.find_opt lay.pending_guards level))
    done

  (* Split a fragment straddling guard [at] into the part below it and the
     part at or above it. Fragment splitting rewrites data in place —
     charged as Split I/O (the PebblesDB cost the paper calls out). *)
  let split_fragment ts (meta : Table.meta) ~at =
    let at_enc = Ikey.encode_user at in
    let build keep =
      Table_set.write_runs ts ~category:Io_stats.Split
        ~expected_keys:(max 64 meta.Table.entry_count)
        ~keep:(fun key ~len ->
          keep (Ikey.compare_encoded_user_bytes at_enc key ~len))
        (Merge.create
           [ Merge.run (Table_set.cursor ts ~category:Io_stats.Split meta) ])
    in
    let left = build (fun c -> c > 0) in
    left @ build (fun c -> c <= 0)

  (* Replace each fragment straddling guard [g] of [level], in its place,
     by its two halves. Returns the edits, each fragment's halves before
     its removal, so no manifest prefix loses its data and replay puts
     them back in the same place (see [replay]), and the replaced
     fragments. *)
  let split_straddlers ts lay level g =
    let span = span_for lay.levels.(level) g in
    let split =
      List.map
        (fun m ->
          (m, if straddles g m then Some (split_fragment ts m ~at:g) else None))
        span.fragments
    in
    span.fragments <-
      List.concat_map
        (fun (m, halves) -> Option.value halves ~default:[ m ])
        split;
    List.fold_right
      (fun (m, halves) (edits, replaced) ->
        match halves with
        | None -> (edits, replaced)
        | Some halves ->
          ( List.map (Table_set.add_edit ~bucket:level ~level) halves
            @ (Table_set.remove_edit ~bucket:level ~level m :: edits),
            m :: replaced ))
      split ([], [])

  (* Guard edits that replaced no fragment become durable with the
     compaction that follows; otherwise the removals must be durable
     before the files go. *)
  let commit ts (edits, replaced) =
    match replaced with
    | [] -> List.iter (Table_set.log ts) edits
    | _ -> Lsm_engine.install ts edits ~retired:replaced

  (* Commit the pending guards of [level]. *)
  let commit_guards ts lay level =
    match Hashtbl.find_opt lay.pending_guards level with
    | None | Some [] -> ()
    | Some keys ->
      Hashtbl.remove lay.pending_guards level;
      let existing = List.map (fun s -> s.guard) lay.levels.(level) in
      List.sort_uniq String.compare keys
      |> List.filter (fun g -> not (List.mem g existing))
      |> List.map (fun g ->
             let edits, replaced = split_straddlers ts lay level g in
             add_guard lay.levels level g;
             (Manifest.Add_bucket { id = level; lo = g } :: edits, replaced))
      |> List.split
      |> (fun (edits, replaced) -> (List.concat edits, List.concat replaced))
      |> commit ts

  let deepest_nonempty lay =
    let rec check l =
      if l <= 0 then 0
      else if List.exists (fun s -> s.fragments <> []) lay.levels.(l)
      then l
      else check (l - 1)
    in
    check (lay.cfg.max_levels - 1)

  (* Merge [inputs] — L0, or one guard span of [level] — into [level + 1]:
     the output is partitioned by that level's guards, one fragment
     appended per span, without rewriting next-level data (tiering). *)
  let compact_into ts lay level inputs =
    let entries =
      Table_set.compaction ts
        ~category:(fun _ -> Io_stats.Compaction_read level)
        ~drop_tombstones:(deepest_nonempty lay <= level) inputs
    in
    let target = level + 1 in
    commit_guards ts lay target;
    let spans = lay.levels.(target) in
    (* Guards encoded once; the per-entry span test then runs on raw
       bytes. *)
    let guard_enc =
      Array.of_list (List.map (fun s -> Ikey.encode_user s.guard) spans)
    in
    let n = Array.length guard_enc in
    let current = ref 0 in
    (* A fragment ends where the key enters a later span: the largest span
       index whose guard <= key. Linear advance suffices because entries
       arrive in key order. *)
    let cut ~size:_ key ~len =
      let rec advance i =
        if
          i + 1 < n
          && Ikey.compare_encoded_user_bytes guard_enc.(i + 1) key ~len <= 0
        then advance (i + 1)
        else i
      in
      let next = advance !current in
      let crossed = next <> !current in
      current := next;
      crossed
    in
    let expected =
      List.fold_left
        (fun acc (m : Table.meta) -> acc + m.Table.entry_count)
        0 inputs
    in
    ( List.map
        (fun (meta : Table.meta) ->
          let span = span_for spans meta.Table.smallest in
          span.fragments <- meta :: span.fragments;
          Table_set.add_edit ~bucket:target ~level:target meta)
        (Table_set.write_runs ts ~category:(Io_stats.Compaction target)
           ~expected_keys:(max 64 expected) ~cut entries),
      List.map (fun m -> (level, m)) inputs )

  let compact ts lay ~l0 = function
    | L0 -> compact_into ts lay 0 l0
    | Span (level, span) ->
      let result = compact_into ts lay level span.fragments in
      span.fragments <- [];
      result

  (* [f job inputs] for every over-full run list that can compact deeper:
     L0, then each guard span above the last level. *)
  let due lay ~l0 f =
    let full files = List.length files >= lay.cfg.max_files_per_guard in
    if full l0 then f L0 l0;
    for level = 1 to lay.cfg.max_levels - 2 do
      List.iter
        (fun span ->
          if full span.fragments then f (Span (level, span)) span.fragments)
        lay.levels.(level)
    done

  (* L0 first, else the span holding the most fragments. *)
  let pick lay ~l0 =
    let best = ref None in
    due lay ~l0 (fun job inputs ->
        let n = List.length inputs in
        match !best with
        | Some (L0, _) -> ()
        | Some (_, m) when m >= n -> ()
        | _ -> best := Some (job, n));
    Option.map fst !best

  (* Input bytes of L0 and of every over-full guard span. *)
  let pending lay ~l0 =
    let pending = ref 0 in
    due lay ~l0 (fun _ inputs ->
        pending :=
          !pending
          + max 1
              (List.fold_left (fun acc (m : Table.meta) -> acc + m.Table.size)
                 0 inputs));
    !pending

  let take lay ~file =
    let found = ref None in
    Array.iteri
      (fun level ->
        List.iter (fun span ->
            if Option.is_none !found then
              Table_set.take ~file span.fragments
              |> Option.iter (fun (meta, rest) ->
                     span.fragments <- rest;
                     found := Some (level, meta))))
      lay.levels;
    !found

  (* A fragment replays into the span holding its smallest key. A guard
     lands once no fragment straddles it: until its last straddler's
     removal, each [Add_table] at its level is a half of the first
     straddler left, and the halves take its place, where [commit_guards]
     put them, when its removal comes. *)
  let replay lay = function
    | Manifest.Add_table
        { bucket = level; name; size; entry_count; smallest; largest; _ } -> (
      let meta = { Table.name; size; entry_count; smallest; largest } in
      match lay.splitting with
      | Some (l, g, straddlers, halves) when l = level ->
        lay.splitting <- Some (l, g, straddlers, meta :: halves)
      | _ ->
        let span = span_for lay.levels.(level) smallest in
        span.fragments <- meta :: span.fragments)
    | Manifest.Remove_table { bucket = level; name; _ } -> (
      match lay.splitting with
      | Some (l, g, first :: rest, halves) when l = level && first = name ->
        let span = span_for lay.levels.(l) g in
        span.fragments <-
          List.concat_map
            (fun (m : Table.meta) ->
              if m.Table.name = name then List.rev halves else [ m ])
            span.fragments;
        lay.splitting <- None;
        if rest = [] then add_guard lay.levels l g
        else lay.splitting <- Some (l, g, rest, [])
      | Some (l, g, straddlers, halves) when l = level ->
        lay.splitting <-
          Some (l, g, straddlers, Table_set.without ~file:name halves)
      | _ ->
        List.iter
          (fun span ->
            span.fragments <- Table_set.without ~file:name span.fragments)
          lay.levels.(level))
    | Manifest.Add_bucket { id = level; lo = g } -> (
      if not (List.exists (fun s -> s.guard = g) lay.levels.(level)) then
        match
          List.filter (straddles g) (span_for lay.levels.(level) g).fragments
        with
        | [] -> add_guard lay.levels level g
        | straddlers ->
          lay.splitting <-
            Some
              ( level,
                g,
                List.map (fun (m : Table.meta) -> m.Table.name) straddlers,
                [] ))
    | Manifest.Remove_bucket _ | Manifest.Watermark _ -> ()

  (* A torn manifest tail can end a guard commit early: the guard is
     logged, but a straddler still awaits its removal. A later replay
     reads on past that tail into the next session's edits, so recovery
     finishes the commit before anything else is logged: it logs the
     removal of the first straddler's halves (never placed, so recovery
     collected their files), splits every fragment still straddling the
     guard and lands it. *)
  let finish_replay ts lay =
    match lay.splitting with
    | None -> ()
    | Some (level, g, _, halves) ->
      lay.splitting <- None;
      let edits, replaced = split_straddlers ts lay level g in
      add_guard lay.levels level g;
      commit ts
        ( List.map (Table_set.remove_edit ~bucket:level ~level) halves @ edits,
          replaced )
end

include Lsm_engine.Make (Lsm_engine.Single (Policy))

let layout (t : t) = t.Lsm_engine.parts.(0).Lsm_engine.layout

let guard_count t ~level =
  if level < 1 || level >= (config t).max_levels then 0
  else List.length (layout t).Policy.levels.(level) - 1

let level_count t = 1 + Policy.deepest_nonempty (layout t)
