(** Length-prefixed binary wire protocol for the WipDB service.

    Frame layout, both directions:

    {v
    fixed32  length of the rest of the frame (id + tag + body)
    fixed32  request id (echoed verbatim in the response)
    u8       opcode (request) / status (response)
    body     opcode-specific payload
    v}

    Request ids are chosen by the client; the server echoes them, and may
    complete requests {e out of order} — that is the whole pipelining
    mechanism, a slow scan's response simply arrives after the puts queued
    behind it. Integers are little-endian ({!Wip_util.Coding}); keys and
    values are length-prefixed raw bytes, so 0-length keys and values and
    arbitrary binary payloads are legal everywhere.

    Decoding never raises: malformed input comes back as a typed
    {!protocol_error}. A frame that has not fully arrived yet is
    [`Need_more] — the streaming case — while a frame whose declared
    length is satisfied but whose body does not parse is an error. *)

type request =
  | Ping
  | Get of { key : string }
  | Put of { key : string; value : string }
  | Delete of { key : string }
  | Write_batch of (Wip_util.Ikey.kind * string * string) list
  | Scan of { lo : string; hi : string; limit : int option }
  | Stats

(** Engine refusals as they travel on the wire, mirroring
    {!Wip_kv.Store_intf.write_error} plus the server's own refusals. *)
type wire_error =
  | Backpressure of { shard : int; debt_bytes : int }
  | Store_degraded of { reason : string }
  | Txn_conflict of { key : string }
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
  | Truncated  (** a length field points past the end of the frame body *)
  | Oversized of { len : int }
      (** declared frame length exceeds {!max_frame_bytes} *)
  | Bad_tag of { tag : int }  (** unknown opcode or status byte *)
  | Malformed of { detail : string }
      (** body parsed but violates the grammar (bad kind byte, trailing
          bytes, varint overflow) *)

val protocol_error_to_string : protocol_error -> string

val wire_error_to_string : wire_error -> string

val max_frame_bytes : int
(** Upper bound on the declared frame length (8 MiB): bounds server-side
    buffering per connection and makes oversize framing a typed refusal
    instead of an allocation. *)

val write_error_to_wire : Wip_kv.Store_intf.write_error -> wire_error

val encode_request : id:int -> request -> string
(** Complete frame, length prefix included, in one allocation of exactly
    the frame's size. [id] is truncated to 32 bits. *)

val encode_response : id:int -> response -> string

type 'a decoded =
  | Frame of { id : int; payload : 'a; next : int }
      (** one whole frame decoded; resume scanning at offset [next] *)
  | Need_more
      (** the buffer ends mid-frame — read more bytes and retry *)
  | Fail of protocol_error

val decode_request : ?stop:int -> string -> pos:int -> request decoded
(** Decode the frame starting at [pos], reading no further than [stop]
    (default: the end of the string) — the buffered input of a stream
    reader. The body is parsed in place; only keys and values are copied
    out. *)

val decode_response : ?stop:int -> string -> pos:int -> response decoded
