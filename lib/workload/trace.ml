module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Bytebuf = Wip_util.Bytebuf
module Coding = Wip_util.Coding
module Crc32c = Wip_util.Crc32c

type op =
  | Put of string * string
  | Delete of string
  | Get of string
  | Scan of { lo : string; hi : string; limit : int }

let encode_op op =
  let buf = Bytebuf.create 64 in
  (match op with
  | Put (k, v) ->
    Bytebuf.add_char buf 'P';
    Coding.put_length_prefixed buf k;
    Coding.put_length_prefixed buf v
  | Delete k ->
    Bytebuf.add_char buf 'D';
    Coding.put_length_prefixed buf k
  | Get k ->
    Bytebuf.add_char buf 'G';
    Coding.put_length_prefixed buf k
  | Scan { lo; hi; limit } ->
    Bytebuf.add_char buf 'S';
    Coding.put_length_prefixed buf lo;
    Coding.put_length_prefixed buf hi;
    Coding.put_varint buf limit);
  Bytebuf.contents buf

let decode_op payload =
  match payload.[0] with
  | 'P' ->
    let k, off = Coding.get_length_prefixed payload 1 in
    let v, _ = Coding.get_length_prefixed payload off in
    Put (k, v)
  | 'D' ->
    let k, _ = Coding.get_length_prefixed payload 1 in
    Delete k
  | 'G' ->
    let k, _ = Coding.get_length_prefixed payload 1 in
    Get k
  | 'S' ->
    let lo, off = Coding.get_length_prefixed payload 1 in
    let hi, off = Coding.get_length_prefixed payload off in
    let limit, _ = Coding.get_varint payload off in
    Scan { lo; hi; limit }
  | c -> invalid_arg (Printf.sprintf "Trace: bad op tag %c" c)

module Writer = struct
  type t = { writer : Env.writer; mutable ops : int; mutable closed : bool }

  let create env ~name =
    { writer = Env.create_file env name; ops = 0; closed = false }

  let record t op =
    assert (not t.closed);
    let payload = encode_op op in
    let buf = Bytebuf.create (String.length payload + 8) in
    Coding.put_fixed32 buf (Crc32c.masked (Crc32c.string payload));
    Coding.put_fixed32 buf (String.length payload);
    Bytebuf.add_string buf payload;
    Env.append t.writer ~category:Io_stats.Manifest (Bytebuf.contents buf);
    t.ops <- t.ops + 1

  let close t =
    if not t.closed then begin
      Env.sync t.writer;
      Env.close_writer t.writer;
      t.closed <- true
    end

  let op_count t = t.ops
end

let replay env ~name emit =
  let reader = Env.open_file env name in
  let contents = Env.read_all reader ~category:Io_stats.Manifest in
  Env.close_reader reader;
  let n = String.length contents in
  let count = ref 0 in
  let rec loop off =
    if off + 8 <= n then begin
      let stored = Coding.get_fixed32 contents off in
      let len = Coding.get_fixed32 contents (off + 4) in
      if off + 8 + len <= n then begin
        let payload = String.sub contents (off + 8) len in
        if Crc32c.masked (Crc32c.string payload) = stored then begin
          emit (decode_op payload);
          incr count;
          loop (off + 8 + len)
        end
      end
    end
  in
  loop 0;
  !count

let replay_into env ~name store =
  replay env ~name (fun op ->
      match op with
      | Put (key, value) -> Wip_kv.Store_intf.put store ~key ~value
      | Delete key -> Wip_kv.Store_intf.delete store ~key
      | Get key -> ignore (Wip_kv.Store_intf.get store key)
      | Scan { lo; hi; limit } ->
        ignore (Wip_kv.Store_intf.scan store ~lo ~hi ~limit ()))
