(* The inputs sit in one binary heap ordered by their current encoded key.
   Equal encoded keys — one write present in two inputs, as when a WAL
   replay re-ingests a flushed table's contents — carry the same entry, so
   the order the heap yields them in cannot show; version GC keeps one of
   them at or below the snapshot floor. The head taken by [next] stays in
   place until the following [next], so its bytes can be read — and copied
   into a table builder — without a string per entry. *)

module Ikey = Wip_util.Ikey
module Cursor = Table.Reader.Cursor

exception Stale_view

type input =
  | Mem of {
      mutable rest : (string * string) Seq.t;
      mutable key : string;
      mutable value : string;
    }
  | Run of { tag : int; cursor : Cursor.t }
  | Walk of {
      selectors : Bytes.t;
      count : int;
      runs : Cursor.t array;
      mutable i : int; (* next selector to pop *)
      mutable top : Cursor.t; (* the run popped last *)
      from : Bytes.t; (* skip entries below this encoded key *)
    }

let mem rest = Mem { rest; key = ""; value = "" }

let run ?(tag = 0) cursor = Run { tag; cursor }

let walk ~selectors ~count ~start ~from runs =
  if Array.length runs = 0 then invalid_arg "Merge.walk: no runs";
  Walk
    {
      selectors;
      count;
      runs;
      i = start;
      top = runs.(0);
      from = Bytes.unsafe_of_string from;
    }

(* Version GC of a compaction merge; [floor] is clamped to [Ikey.max_seq],
   so "no snapshot" needs no special case. *)
type gc = {
  drop_tombstones : bool;
  floor : int;
  mutable last : Bytes.t; (* escaped user key of the last entry seen *)
  mutable last_len : int; (* -1: none yet *)
  mutable decided : bool; (* [last] has had its version at or below the floor *)
}

type t = {
  mutable heap : input array;
  mutable size : int;
  mutable consumed : bool; (* the head was taken: step it first *)
  mutable read : int;
  gc : gc option;
}

let input_bytes = function
  | Mem m -> Bytes.unsafe_of_string m.key
  | Run { cursor = c; _ } | Walk { top = c; _ } ->
    Block.Cursor.key_bytes (Cursor.block c)

let input_length = function
  | Mem m -> String.length m.key
  | Run { cursor = c; _ } | Walk { top = c; _ } ->
    Block.Cursor.key_length (Cursor.block c)

let step = function
  | Mem m -> (
    match m.rest () with
    | Seq.Nil -> false
    | Seq.Cons ((k, v), rest) ->
      m.rest <- rest;
      m.key <- k;
      m.value <- v;
      true)
  | Run { cursor; _ } -> Cursor.next cursor
  | Walk w ->
    w.i < w.count
    &&
    let c = w.runs.(Bytes.get_uint8 w.selectors w.i) in
    w.i <- w.i + 1;
    if not (Cursor.next c) then raise Stale_view;
    w.top <- c;
    true

let advance t input =
  let stepped = step input in
  if stepped then t.read <- t.read + 1;
  stepped

let less x y =
  Block.compare_bytes (input_bytes x) (input_length x) (input_bytes y)
    (input_length y)
  < 0

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

(* Position a fresh input on its first entry: a walk skips the entries
   below its [from]. *)
let rec first t input =
  advance t input
  &&
  match input with
  | Walk { from; _ } ->
    Block.compare_bytes (input_bytes input) (input_length input) from
      (Bytes.length from)
    >= 0
    || first t input
  | Mem _ | Run _ -> true

let make gc inputs =
  let t = { heap = [||]; size = 0; consumed = false; read = 0; gc } in
  t.heap <- Array.of_list (List.filter (first t) inputs);
  t.size <- Array.length t.heap;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t.heap t.size i
  done;
  t

let create inputs = make None inputs

let compact ~drop_tombstones ~snapshot_floor inputs =
  make
    (Some
       {
         drop_tombstones;
         floor = Int64.to_int (Int64.min snapshot_floor Ikey.max_seq);
         last = Bytes.create 32;
         last_len = -1;
         decided = false;
       })
    inputs

(* Whether the head [buf.[0..len)] survives version GC. Versions above the
   floor always do. Of the rest, the first per user key is decided — kept,
   unless it is a tombstone being dropped — and shadows the older ones. *)
let survives g buf ~len =
  let ulen = len - Ikey.trailer_length in
  if not (ulen = g.last_len && Block.equal_prefix g.last buf ulen) then begin
    if Bytes.length g.last < ulen then g.last <- Bytes.create (2 * ulen);
    Bytes.blit buf 0 g.last 0 ulen;
    g.last_len <- ulen;
    g.decided <- false
  end;
  Int.compare (Ikey.encoded_seq_int_bytes buf ~len) g.floor > 0
  || ((not g.decided)
     && begin
          g.decided <- true;
          match Ikey.encoded_kind_bytes buf ~len with
          | Ikey.Value -> true
          | Ikey.Deletion -> not g.drop_tombstones
        end)

let rec next t =
  if t.consumed then begin
    t.consumed <- false;
    if not (advance t t.heap.(0)) then begin
      t.size <- t.size - 1;
      t.heap.(0) <- t.heap.(t.size)
    end;
    sift_down t.heap t.size 0
  end;
  t.size > 0
  && begin
       t.consumed <- true;
       match t.gc with
       | None -> true
       | Some g ->
         let head = t.heap.(0) in
         survives g (input_bytes head) ~len:(input_length head) || next t
     end

let key_bytes t = input_bytes t.heap.(0)

let key_length t = input_length t.heap.(0)

let tag t =
  match t.heap.(0) with
  | Mem _ -> 0
  | Run { tag; _ } -> tag
  | Walk w -> Bytes.get_uint8 w.selectors (w.i - 1)

let user_key t =
  Ikey.user_key_of_encoded_bytes (key_bytes t) ~len:(key_length t)

let value t =
  match t.heap.(0) with
  | Mem m -> m.value
  | Run { cursor = c; _ } | Walk { top = c; _ } ->
    Block.Cursor.value (Cursor.block c)

let add_to b t =
  match t.heap.(0) with
  | Mem m -> Table.Builder.add_encoded b ~key:m.key ~value:m.value
  | Run { cursor = c; _ } | Walk { top = c; _ } ->
    Table.Builder.add_entry b (Cursor.block c)

let entries_read t = t.read
