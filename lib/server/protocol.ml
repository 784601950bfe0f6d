module Coding = Wip_util.Coding
module Ikey = Wip_util.Ikey
module Intf = Wip_kv.Store_intf

type request =
  | Ping
  | Get of { key : string }
  | Put of { key : string; value : string }
  | Delete of { key : string }
  | Write_batch of (Ikey.kind * string * string) list
  | Scan of { lo : string; hi : string; limit : int option }
  | Stats

type wire_error =
  | Backpressure of { shard : int; debt_bytes : int }
  | Store_degraded of { reason : string }
  | Bad_request of { message : string }

type response =
  | Ack
  | Value of { value : string }
  | Not_found
  | Entries of (string * string) list
  | Pong
  | Stats_reply of (string * int64) list
  | Error of wire_error

type protocol_error =
  | Truncated
  | Oversized of { len : int }
  | Bad_tag of { tag : int }
  | Malformed of { detail : string }

let protocol_error_to_string = function
  | Truncated -> "truncated frame body"
  | Oversized { len } -> Printf.sprintf "oversized frame: %d bytes" len
  | Bad_tag { tag } -> Printf.sprintf "unknown opcode/status 0x%02x" tag
  | Malformed { detail } -> Printf.sprintf "malformed frame: %s" detail

let wire_error_to_string = function
  | Backpressure { shard; debt_bytes } ->
    Printf.sprintf "backpressure: shard %d holds %d debt bytes" shard
      debt_bytes
  | Store_degraded { reason } -> Printf.sprintf "store degraded: %s" reason
  | Bad_request { message } -> Printf.sprintf "bad request: %s" message

let max_frame_bytes = 8 * 1024 * 1024

let write_error_to_wire = function
  | Intf.Backpressure { shard; debt_bytes } -> Backpressure { shard; debt_bytes }
  | Intf.Store_degraded { reason } -> Store_degraded { reason }

(* Opcodes (requests) and statuses (responses) share one tag byte space:
   requests below 0x80, responses at and above it. *)
let tag_ping = 0x01

let tag_get = 0x02

let tag_put = 0x03

let tag_delete = 0x04

let tag_write_batch = 0x05

let tag_scan = 0x06

let tag_stats = 0x07

let tag_ack = 0x80

let tag_value = 0x81

let tag_not_found = 0x82

let tag_entries = 0x83

let tag_pong = 0x84

let tag_stats_reply = 0x85

let tag_error = 0xff

let err_backpressure = 1

let err_degraded = 2

let err_bad_request = 3

(* ------------------------------------------------------------------ *)
(* Encoding. A frame body is written by one function run twice over a
   writer: first in sizing mode (positions advance, nothing is written),
   then into a buffer of exactly the frame's size whose 8-byte header is
   filled in place — each payload byte is copied once. *)

type writer = {
  buf : Bytes.t;
  sizing : bool;
  mutable p : int; (* guarded_by: none — local to one encode call *)
}

let put_byte w c =
  if not w.sizing then Bytes.unsafe_set w.buf w.p (Char.unsafe_chr c);
  w.p <- w.p + 1

let rec put_varint w v =
  if v < 0x80 then put_byte w v
  else begin
    put_byte w (0x80 lor (v land 0x7f));
    put_varint w (v lsr 7)
  end

let put_string w s =
  let n = String.length s in
  put_varint w n;
  if not w.sizing then Bytes.blit_string s 0 w.buf w.p n;
  w.p <- w.p + n

let frame ~id body =
  let sizing = { buf = Bytes.empty; sizing = true; p = 0 } in
  body sizing;
  let w = { buf = Bytes.create (8 + sizing.p); sizing = false; p = 8 } in
  Bytes.set_int32_le w.buf 0 (Int32.of_int (sizing.p + 4));
  Bytes.set_int32_le w.buf 4 (Int32.of_int (id land 0xffffffff));
  body w;
  Bytes.unsafe_to_string w.buf

let encode_request ~id req =
  frame ~id (fun w ->
      match req with
      | Ping -> put_byte w tag_ping
      | Get { key } ->
        put_byte w tag_get;
        put_string w key
      | Put { key; value } ->
        put_byte w tag_put;
        put_string w key;
        put_string w value
      | Delete { key } ->
        put_byte w tag_delete;
        put_string w key
      | Write_batch items ->
        put_byte w tag_write_batch;
        put_varint w (List.length items);
        List.iter
          (fun (kind, key, value) ->
            put_byte w (match kind with Ikey.Value -> 1 | Ikey.Deletion -> 0);
            put_string w key;
            put_string w value)
          items
      | Scan { lo; hi; limit } ->
        put_byte w tag_scan;
        put_string w lo;
        put_string w hi;
        (* 0 = unlimited; a real limit is stored off by one. A negative
           limit means "nothing" and is clamped to 0 entries — it must not
           collide with the unlimited encoding or go negative on the wire. *)
        put_varint w
          (match limit with
          | None -> 0
          | Some l when l < 0 -> 1
          | Some l -> l + 1)
      | Stats -> put_byte w tag_stats)

let encode_response ~id resp =
  frame ~id (fun w ->
      match resp with
      | Ack -> put_byte w tag_ack
      | Value { value } ->
        put_byte w tag_value;
        put_string w value
      | Not_found -> put_byte w tag_not_found
      | Entries entries ->
        put_byte w tag_entries;
        put_varint w (List.length entries);
        List.iter
          (fun (key, value) ->
            put_string w key;
            put_string w value)
          entries
      | Pong -> put_byte w tag_pong
      | Stats_reply kvs ->
        put_byte w tag_stats_reply;
        put_varint w (List.length kvs);
        List.iter
          (fun (name, v) ->
            put_string w name;
            if not w.sizing then Bytes.set_int64_le w.buf w.p v;
            w.p <- w.p + 8)
          kvs
      | Error err -> (
        put_byte w tag_error;
        match err with
        | Backpressure { shard; debt_bytes } ->
          put_byte w err_backpressure;
          put_varint w shard;
          put_varint w debt_bytes
        | Store_degraded { reason } ->
          put_byte w err_degraded;
          put_string w reason
        | Bad_request { message } ->
          put_byte w err_bad_request;
          put_string w message))

(* ------------------------------------------------------------------ *)
(* Decoding. A reader walks the frame body in place, bounded by the
   frame's end: only decoded keys and values are copied out. *)

type 'a decoded =
  | Frame of { id : int; payload : 'a; next : int }
  | Need_more
  | Fail of protocol_error

exception Bad of protocol_error

let fail e = raise (Bad e)

type reader = {
  s : string;
  mutable r : int; (* guarded_by: none — local to one decode call *)
  lim : int;
}

let get_byte rd =
  if rd.r >= rd.lim then fail Truncated;
  let c = Char.code (String.unsafe_get rd.s rd.r) in
  rd.r <- rd.r + 1;
  c

let rec get_varint_from rd shift acc =
  if shift > 63 then fail Truncated;
  let byte = get_byte rd in
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte < 0x80 then acc else get_varint_from rd (shift + 7) acc

let get_varint rd = get_varint_from rd 0 0

let get_string rd =
  let n = get_varint rd in
  if n < 0 || n > rd.lim - rd.r then fail Truncated;
  let v = String.sub rd.s rd.r n in
  rd.r <- rd.r + n;
  v

let get_fixed64 rd =
  if rd.lim - rd.r < 8 then fail Truncated;
  let v = Coding.get_fixed64 rd.s rd.r in
  rd.r <- rd.r + 8;
  v

(* A counted list; elements are read in order. *)
let get_list rd ~what get =
  let count = get_varint rd in
  if count < 0 || count > max_frame_bytes then fail (Malformed { detail = what });
  List.init count (fun _ -> get rd)

let get_kind rd =
  match get_byte rd with
  | 1 -> Ikey.Value
  | 0 -> Ikey.Deletion
  | c -> fail (Malformed { detail = Printf.sprintf "kind byte %d" c })

(* Fields are bound in wire order: tuple components evaluate in no fixed
   order. *)
let get_item rd =
  let kind = get_kind rd in
  let key = get_string rd in
  (kind, key, get_string rd)

let get_entry rd =
  let key = get_string rd in
  (key, get_string rd)

let get_stat rd =
  let name = get_string rd in
  (name, get_fixed64 rd)

let parse_request rd =
  let tag = get_byte rd in
  if tag = tag_ping then Ping
  else if tag = tag_get then Get { key = get_string rd }
  else if tag = tag_put then begin
    let key = get_string rd in
    let value = get_string rd in
    Put { key; value }
  end
  else if tag = tag_delete then Delete { key = get_string rd }
  else if tag = tag_write_batch then
    Write_batch (get_list rd ~what:"item count" get_item)
  else if tag = tag_scan then begin
    let lo = get_string rd in
    let hi = get_string rd in
    let raw = get_varint rd in
    (* 0 = unlimited; otherwise off-by-one. A negative raw (an overflowed
       varint, or a client smuggling a negative limit) is a grammar
       violation — reject it here so it can never reach the engine. *)
    if raw < 0 then fail (Malformed { detail = "negative scan limit" });
    Scan { lo; hi; limit = (if raw = 0 then None else Some (raw - 1)) }
  end
  else if tag = tag_stats then Stats
  else fail (Bad_tag { tag })

let parse_error rd =
  let code = get_byte rd in
  if code = err_backpressure then begin
    let shard = get_varint rd in
    let debt_bytes = get_varint rd in
    Backpressure { shard; debt_bytes }
  end
  else if code = err_degraded then Store_degraded { reason = get_string rd }
  else if code = err_bad_request then Bad_request { message = get_string rd }
  else fail (Malformed { detail = Printf.sprintf "error code %d" code })

let parse_response rd =
  let tag = get_byte rd in
  if tag = tag_ack then Ack
  else if tag = tag_value then Value { value = get_string rd }
  else if tag = tag_not_found then Not_found
  else if tag = tag_entries then Entries (get_list rd ~what:"entry count" get_entry)
  else if tag = tag_pong then Pong
  else if tag = tag_stats_reply then
    Stats_reply (get_list rd ~what:"stats count" get_stat)
  else if tag = tag_error then Error (parse_error rd)
  else fail (Bad_tag { tag })

(* Shared framing: length, id, then [parse] over exactly the declared
   body, read in place. Anything [parse] leaves unconsumed is a grammar
   violation. *)
let decode parse s ~pos ~stop =
  let stop = Option.value stop ~default:(String.length s) in
  if pos < 0 || pos > stop || stop > String.length s then
    Fail (Malformed { detail = "bad scan offset" })
  else if pos + 4 > stop then Need_more
  else begin
    let len = Coding.get_fixed32 s pos in
    if len > max_frame_bytes then Fail (Oversized { len })
    else if len < 5 then Fail (Malformed { detail = "frame too short" })
    else if pos + 4 + len > stop then Need_more
    else begin
      let id = Coding.get_fixed32 s (pos + 4) in
      let rd = { s; r = pos + 8; lim = pos + 4 + len } in
      match parse rd with
      | payload ->
        if rd.r <> rd.lim then
          Fail (Malformed { detail = "trailing bytes in frame" })
        else Frame { id; payload; next = rd.lim }
      | exception Bad e -> Fail e
    end
  end

let decode_request ?stop s ~pos = decode parse_request s ~pos ~stop

let decode_response ?stop s ~pos = decode parse_response s ~pos ~stop
