(* A source's inputs — its memtable entries, and a sorted view walk (pop
   the run cursor the next selector names) or plain run cursors — sit in one
   binary heap ordered by their current encoded key. The head decided last
   only steps when the next entry is needed, so a read that stops at its
   limit never fetches a block past its last row. Decisions read key bytes
   in place; strings are made only in [row]. *)

module Ikey = Wip_util.Ikey
module Cursor = Table.Reader.Cursor

(* One heap input, positioned on an entry once it is in the heap. *)
type input =
  | Mem of {
      mutable rest : (string * string) Seq.t;
      mutable key : string;
      mutable value : string;
    }
  | Run of Cursor.t
  | Walk of {
      view : Sorted_view.t;
      runs : Cursor.t array;
      mutable i : int; (* next selector to pop *)
      mutable top : Cursor.t; (* the run popped last *)
      from : Bytes.t; (* the encoded seek key of [lo] *)
    }

(* A source's inputs, not yet positioned: creating cursors reads nothing. *)
type source = input list

let source ~reader ~lo ~hi ~mem view tables =
  let from = Ikey.encode_seek lo ~seq:Ikey.max_seq in
  let cursor ~from m =
    Cursor.create (reader m) ~category:Read_path ~admit:Scan ~from ()
  in
  Mem { rest = mem; key = ""; value = "" }
  ::
  (match view with
  | Some (view, runs) when Array.length runs > 0 ->
    let i, anchor = Sorted_view.position view ~from in
    let runs = Array.map (cursor ~from:anchor) runs in
    [ Walk { view; runs; i; top = runs.(0); from = Bytes.unsafe_of_string from } ]
  | Some _ -> []
  | None ->
    (* Exclusive bound: a table whose smallest key equals [hi] holds
       nothing in [lo, hi) — never open or read it. *)
    List.filter_map
      (fun m ->
        if Table.overlaps_excl m ~lo ~hi_excl:hi then Some (Run (cursor ~from m))
        else None)
      (tables ()))

type t = {
  hi : Bytes.t; (* escaped user key bound, exclusive *)
  snapshot : int;
  mutable limit : int; (* rows still to emit *)
  mutable sources : source Seq.t;
  mutable heap : input array;
  mutable size : int;
  mutable consumed : bool; (* the head was decided: step it first *)
  mutable last : Bytes.t; (* escaped user key of the last decided entry *)
  mutable last_len : int; (* -1: nothing decided yet *)
  mutable read : int;
}

let key_bytes = function
  | Mem m -> Bytes.unsafe_of_string m.key
  | Run c | Walk { top = c; _ } -> Block.Cursor.key_bytes (Cursor.block c)

let key_length = function
  | Mem m -> String.length m.key
  | Run c | Walk { top = c; _ } -> Block.Cursor.key_length (Cursor.block c)

let step = function
  | Mem m -> (
    match m.rest () with
    | Seq.Nil -> false
    | Seq.Cons ((k, v), rest) ->
      m.rest <- rest;
      m.key <- k;
      m.value <- v;
      true)
  | Run c -> Cursor.next c
  | Walk w ->
    w.i < Sorted_view.entry_count w.view
    &&
    let c = w.runs.(Sorted_view.selector w.view w.i) in
    w.i <- w.i + 1;
    if not (Cursor.next c) then raise Sorted_view.Stale_view;
    w.top <- c;
    true

(* Step an input to its next entry; [false] once it is exhausted. *)
let advance t input =
  let stepped = step input in
  if stepped then t.read <- t.read + 1;
  stepped

let rec compare_from a b i n la lb =
  if i = n then Int.compare la lb
  else
    let c = Char.compare (Bytes.unsafe_get a i) (Bytes.unsafe_get b i) in
    if c <> 0 then c else compare_from a b (i + 1) n la lb

let compare_bytes a la b lb = compare_from a b 0 (min la lb) la lb

let less x y =
  compare_bytes (key_bytes x) (key_length x) (key_bytes y) (key_length y) < 0

let rec sift_down heap size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let m = if l + 1 < size && less heap.(l + 1) heap.(l) then l + 1 else l in
    if less heap.(m) heap.(i) then begin
      let x = heap.(i) in
      heap.(i) <- heap.(m);
      heap.(m) <- x;
      sift_down heap size m
    end
  end

(* Position a fresh input on its first entry [>= from]: run cursors seek
   there, a view walk starts at its segment anchor and skips the (at most
   [seg_size]) entries below. *)
let rec first t input =
  advance t input
  &&
  match input with
  | Walk { from; _ } ->
    compare_bytes (key_bytes input) (key_length input) from (Bytes.length from)
    >= 0
    || first t input
  | Mem _ | Run _ -> true

let open_source t inputs =
  t.heap <- Array.of_list (List.filter (first t) inputs);
  t.size <- Array.length t.heap;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t.heap t.size i
  done

let create ~hi ~snapshot ?(limit = max_int) sources =
  {
    hi = Bytes.of_string (Ikey.encode_user hi);
    (* Sequences never exceed [max_seq]: clamping keeps every comparison
       and fits the bound in an immediate int. *)
    snapshot = Int64.to_int (Int64.min snapshot Ikey.max_seq);
    limit = max 0 limit;
    sources;
    heap = [||];
    size = 0;
    consumed = false;
    last = Bytes.create 32;
    last_len = -1;
    read = 0;
  }

(* Decide the head [buf.[0..len)] on its bytes: [true] for a row. Only
   versions at or below the snapshot count; the first of them per user key
   is remembered and shadows the rest; a tombstone returns nothing. *)
let decide t buf ~len =
  Int.compare (Ikey.encoded_seq_int_bytes buf ~len) t.snapshot <= 0
  &&
  let ulen = len - Ikey.trailer_length in
  (not (ulen = t.last_len && compare_from t.last buf 0 ulen ulen ulen = 0))
  && begin
       if Bytes.length t.last < ulen then t.last <- Bytes.create (2 * ulen);
       Bytes.blit buf 0 t.last 0 ulen;
       t.last_len <- ulen;
       match Ikey.encoded_kind_bytes buf ~len with
       | Ikey.Value -> true
       | Ikey.Deletion -> false
     end

let finish t =
  t.limit <- 0;
  t.sources <- Seq.empty;
  false

let rec next t =
  if t.limit <= 0 then false
  else begin
    if t.consumed then begin
      t.consumed <- false;
      if not (advance t t.heap.(0)) then begin
        t.size <- t.size - 1;
        t.heap.(0) <- t.heap.(t.size)
      end;
      sift_down t.heap t.size 0
    end;
    if t.size = 0 then
      match t.sources () with
      | Seq.Nil -> finish t
      | Seq.Cons (s, rest) ->
        t.sources <- rest;
        open_source t s;
        next t
    else begin
      let head = t.heap.(0) in
      let buf = key_bytes head and len = key_length head in
      (* Sources ascend and each input is sorted: the first head past [hi]
         ends the whole read. *)
      if compare_bytes t.hi (Bytes.length t.hi) buf (len - Ikey.trailer_length) <= 0
      then finish t
      else begin
        t.consumed <- true;
        if decide t buf ~len then begin
          t.limit <- t.limit - 1;
          true
        end
        else next t
      end
    end
  end

let row t =
  match t.heap.(0) with
  | Mem m -> (Ikey.user_key_of_encoded m.key, m.value)
  | Run c | Walk { top = c; _ } ->
    let b = Cursor.block c in
    ( Ikey.user_key_of_encoded_bytes (Block.Cursor.key_bytes b)
        ~len:(Block.Cursor.key_length b),
      Block.Cursor.value b )

let to_list t =
  let rec go acc = if next t then go (row t :: acc) else List.rev acc in
  go []

let to_seq t =
  let rec go () = if next t then Seq.Cons (row t, go) else Seq.Nil in
  go

let entries_read t = t.read
