type t = {
  fd : Unix.file_descr;
  (* A client handle is single-threaded by contract — callers own the
     request/response pairing; nothing here is shared. *)
  inbox : Netio.inbox; (* unconsumed response bytes *)
  mutable next_id : int; (* guarded_by: caller *)
}

type error =
  | Wire of Protocol.wire_error
  | Protocol_failure of Protocol.protocol_error
  | Unexpected of Protocol.response
  | Disconnected

let error_to_string = function
  | Wire e -> Protocol.wire_error_to_string e
  | Protocol_failure e -> Protocol.protocol_error_to_string e
  | Unexpected _ -> "unexpected response shape"
  | Disconnected -> "disconnected"

let connect ?(addr = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     Netio.close_quietly fd;
     raise e);
  { fd; inbox = Netio.inbox (); next_id = 1 }

let close t = Netio.close_quietly t.fd

let send t req =
  let id = t.next_id in
  t.next_id <- id + 1;
  Netio.write_all t.fd (Protocol.encode_request ~id req);
  id

let recv t =
  match
    Netio.next_frame t.inbox ~read:(Netio.read_fd t.fd)
      ~decode:Protocol.decode_response
  with
  | Protocol.Frame { id; payload; _ } -> Ok (id, payload)
  | Protocol.Fail e -> Error (Protocol_failure e)
  | Protocol.Need_more -> Error Disconnected

(* Synchronous round-trip: with no other request outstanding, the next
   response must answer ours. *)
let request t req =
  match send t req with
  | exception Unix.Unix_error _ -> Error Disconnected
  | id -> (
    match recv t with
    | Error _ as e -> e
    | Ok (rid, resp) ->
      if rid <> id then
        Error
          (Protocol_failure
             (Protocol.Malformed { detail = "response id mismatch" }))
      else Ok resp)

(* [request] answered as [expect] wants; a typed refusal or any other
   shape is an error. *)
let call t req expect =
  match request t req with
  | Ok (Protocol.Error e) -> Error (Wire e)
  | Ok r -> ( match expect r with Some v -> Ok v | None -> Error (Unexpected r))
  | Error _ as e -> e

let ping t = call t Protocol.Ping (function Protocol.Pong -> Some () | _ -> None)

let get t key =
  call t (Protocol.Get { key }) (function
    | Protocol.Value { value } -> Some (Some value)
    | Protocol.Not_found -> Some None
    | _ -> None)

let ack t req = call t req (function Protocol.Ack -> Some () | _ -> None)

let put t ~key ~value = ack t (Protocol.Put { key; value })

let delete t ~key = ack t (Protocol.Delete { key })

let write_batch t items = ack t (Protocol.Write_batch items)

let scan t ~lo ~hi ?limit () =
  call t (Protocol.Scan { lo; hi; limit }) (function
    | Protocol.Entries entries -> Some entries
    | _ -> None)

let stats t =
  call t Protocol.Stats (function
    | Protocol.Stats_reply kvs -> Some kvs
    | _ -> None)
