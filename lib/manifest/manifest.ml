module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Bytebuf = Wip_util.Bytebuf
module Coding = Wip_util.Coding
module Crc32c = Wip_util.Crc32c

type edit =
  | Add_bucket of { id : int; lo : string }
  | Remove_bucket of { id : int }
  | Add_table of {
      bucket : int;
      level : int;
      name : string;
      size : int;
      entry_count : int;
      smallest : string;
      largest : string;
    }
  | Remove_table of { bucket : int; level : int; name : string }
  | Watermark of { seq : int64; next_file : int }

(* The manifest is a chain of append-only segment files
   "<name>-NNNNNN.mft"; a reopen after recovery starts a new segment so we
   never need append-to-existing-file support from the Env. *)
type t = {
  env : Env.t;
  name : string;
  writer : Env.writer;
  mutable written : int;
}

let segment_name name n = Printf.sprintf "%s-%06d.mft" name n

let segments env name =
  Env.list_files env
  |> List.filter (fun f ->
         String.length f > String.length name + 1
         && String.sub f 0 (String.length name + 1) = name ^ "-"
         && Filename.check_suffix f ".mft")
  |> List.sort String.compare

let create env ~name =
  List.iter (Env.delete env) (segments env name);
  {
    env;
    name;
    writer = Env.create_file env (segment_name name 0);
    written = 0;
  }

let encode_edit edit =
  let buf = Bytebuf.create 64 in
  (match edit with
  | Add_bucket { id; lo } ->
    Bytebuf.add_char buf '\001';
    Coding.put_varint buf id;
    Coding.put_length_prefixed buf lo
  | Remove_bucket { id } ->
    Bytebuf.add_char buf '\002';
    Coding.put_varint buf id
  | Add_table { bucket; level; name; size; entry_count; smallest; largest } ->
    Bytebuf.add_char buf '\003';
    Coding.put_varint buf bucket;
    Coding.put_varint buf level;
    Coding.put_length_prefixed buf name;
    Coding.put_varint buf size;
    Coding.put_varint buf entry_count;
    Coding.put_length_prefixed buf smallest;
    Coding.put_length_prefixed buf largest
  | Remove_table { bucket; level; name } ->
    Bytebuf.add_char buf '\004';
    Coding.put_varint buf bucket;
    Coding.put_varint buf level;
    Coding.put_length_prefixed buf name
  | Watermark { seq; next_file } ->
    Bytebuf.add_char buf '\005';
    Coding.put_fixed64 buf seq;
    Coding.put_varint buf next_file);
  Bytebuf.contents buf

let decode_edit payload =
  let tag = payload.[0] in
  match tag with
  | '\001' ->
    let id, off = Coding.get_varint payload 1 in
    let lo, _ = Coding.get_length_prefixed payload off in
    Add_bucket { id; lo }
  | '\002' ->
    let id, _ = Coding.get_varint payload 1 in
    Remove_bucket { id }
  | '\003' ->
    let bucket, off = Coding.get_varint payload 1 in
    let level, off = Coding.get_varint payload off in
    let name, off = Coding.get_length_prefixed payload off in
    let size, off = Coding.get_varint payload off in
    let entry_count, off = Coding.get_varint payload off in
    let smallest, off = Coding.get_length_prefixed payload off in
    let largest, _ = Coding.get_length_prefixed payload off in
    Add_table { bucket; level; name; size; entry_count; smallest; largest }
  | '\004' ->
    let bucket, off = Coding.get_varint payload 1 in
    let level, off = Coding.get_varint payload off in
    let name, _ = Coding.get_length_prefixed payload off in
    Remove_table { bucket; level; name }
  | '\005' ->
    let seq = Coding.get_fixed64 payload 1 in
    let next_file, _ = Coding.get_varint payload 9 in
    Watermark { seq; next_file }
  | c -> invalid_arg (Printf.sprintf "Manifest: bad edit tag %d" (Char.code c))

let append t edit =
  let payload = encode_edit edit in
  let buf = Bytebuf.create (String.length payload + 8) in
  Coding.put_fixed32 buf (Crc32c.masked (Crc32c.string payload));
  Coding.put_fixed32 buf (String.length payload);
  Bytebuf.add_string buf payload;
  let bytes = Bytebuf.contents buf in
  Env.append t.writer ~category:Io_stats.Manifest bytes;
  t.written <- t.written + String.length bytes

let sync t = Env.sync t.writer

let exists env ~name = segments env name <> []

let replay env ~name emit =
  List.iter
    (fun seg ->
      let reader = Env.open_file env seg in
      let contents = Env.read_all reader ~category:Io_stats.Manifest in
      Env.close_reader reader;
      let n = String.length contents in
      let rec loop off =
        if off + 8 <= n then begin
          let stored = Coding.get_fixed32 contents off in
          let len = Coding.get_fixed32 contents (off + 4) in
          if off + 8 + len <= n then begin
            let payload = String.sub contents (off + 8) len in
            if Crc32c.masked (Crc32c.string payload) = stored then begin
              emit (decode_edit payload);
              loop (off + 8 + len)
            end
          end
        end
      in
      loop 0)
    (segments env name)

let reopen env ~name =
  let next =
    match List.rev (segments env name) with
    | [] -> 0
    | last :: _ ->
      let base = Filename.chop_suffix last ".mft" in
      1
      + int_of_string
          (String.sub base
             (String.length name + 1)
             (String.length base - String.length name - 1))
  in
  { env; name; writer = Env.create_file env (segment_name name next); written = 0 }

let bytes_written t = t.written
