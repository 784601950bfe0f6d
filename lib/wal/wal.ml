module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats
module Coding = Wip_util.Coding
module Bytebuf = Wip_util.Bytebuf
module Crc32c = Wip_util.Crc32c
module Ikey = Wip_util.Ikey

type record = {
  seq : int64;
  kind : Ikey.kind;
  key : string;
  value : string;
}

type segment = {
  seg_no : int;
  seg_name : string;
  mutable seg_bytes : int;
  mutable seg_max_seq : int64;
}

type t = {
  env : Env.t;
  prefix : string;
  segment_bytes : int;
  mutable segments : segment list; (* oldest first, excludes current *)
  mutable current : segment;
  mutable writer : Env.writer;
  mutable max_seq : int64;
  mutable durable_seq : int64; (* max_seq as of the last sync *)
  mutable next_seg_no : int;
  out : Bytebuf.t; (* the records of one append, reused across appends *)
}

let segment_name prefix n = Printf.sprintf "%s-%06d.log" prefix n

let fresh_segment t =
  let seg_no = t.next_seg_no in
  t.next_seg_no <- seg_no + 1;
  let seg_name = segment_name t.prefix seg_no in
  let seg = { seg_no; seg_name; seg_bytes = 0; seg_max_seq = 0L } in
  let writer = Env.create_file t.env seg_name in
  (seg, writer)

let create env ?(prefix = "wal") ?(segment_bytes = 4 * 1024 * 1024) () =
  let t =
    {
      env;
      prefix;
      segment_bytes;
      segments = [];
      current =
        { seg_no = 0; seg_name = segment_name prefix 0; seg_bytes = 0; seg_max_seq = 0L };
      writer = Env.create_file env (segment_name prefix 0);
      max_seq = 0L;
      durable_seq = 0L;
      next_seg_no = 1;
      out = Bytebuf.create 4096;
    }
  in
  t

(* Record layout:
   fixed32 masked-crc(payload) | fixed32 payload-length | payload
   payload: fixed64 first_seq | varint count
            (kind byte | length-prefixed key | length-prefixed value)* *)

(* Append one record to [out]: the header is reserved, the payload written
   after it, and then length and checksum are patched in place. *)
let encode_batch out ~first_seq items =
  let header = Bytebuf.length out in
  Coding.put_fixed32 out 0;
  Coding.put_fixed32 out 0;
  let start = Bytebuf.length out in
  Coding.put_fixed64 out first_seq;
  Coding.put_varint out (List.length items);
  List.iter
    (fun (kind, key, value) ->
      Bytebuf.add_char out
        (match kind with Ikey.Value -> '\001' | Ikey.Deletion -> '\000');
      Coding.put_length_prefixed out key;
      Coding.put_length_prefixed out value)
    items;
  let len = Bytebuf.length out - start in
  Bytebuf.set_int32_le out ~pos:(header + 4) len;
  Bytebuf.set_int32_le out ~pos:header
    (Crc32c.masked (Bytebuf.crc32c out ~pos:start ~len))

let decode_records contents ~emit =
  let n = String.length contents in
  let rec loop off =
    if off + 8 > n then ()
    else begin
      let stored_crc = Coding.get_fixed32 contents off in
      let len = Coding.get_fixed32 contents (off + 4) in
      if off + 8 + len > n then () (* torn tail *)
      else begin
        let payload = String.sub contents (off + 8) len in
        if Crc32c.masked (Crc32c.string payload) <> stored_crc then ()
          (* corrupt: stop replay here, discarding the suffix *)
        else begin
          let first_seq = Coding.get_fixed64 payload 0 in
          let count, p = Coding.get_varint payload 8 in
          let rec items i p =
            if i = count then ()
            else begin
              let kind =
                match payload.[p] with
                | '\001' -> Ikey.Value
                | '\000' -> Ikey.Deletion
                | c ->
                  invalid_arg
                    (Printf.sprintf "Wal: bad kind byte %d" (Char.code c))
              in
              let key, p = Coding.get_length_prefixed payload (p + 1) in
              let value, p = Coding.get_length_prefixed payload p in
              emit
                {
                  seq = Int64.add first_seq (Int64.of_int i);
                  kind;
                  key;
                  value;
                };
              items (i + 1) p
            end
          in
          items 0 p;
          loop (off + 8 + len)
        end
      end
    end
  in
  loop 0

let recover env ?(prefix = "wal") ?(segment_bytes = 4 * 1024 * 1024) ~replay () =
  let seg_files =
    Env.list_files env
    |> List.filter (fun name ->
           String.length name > String.length prefix + 1
           && String.sub name 0 (String.length prefix + 1) = prefix ^ "-"
           && Filename.check_suffix name ".log")
    |> List.sort String.compare
  in
  let max_seq = ref 0L in
  let segments =
    List.map
      (fun seg_name ->
        let reader = Env.open_file env seg_name in
        let contents = Env.read_all reader ~category:Io_stats.Wal in
        Env.close_reader reader;
        let seg_max = ref 0L in
        decode_records contents ~emit:(fun r ->
            if Int64.compare r.seq !seg_max > 0 then seg_max := r.seq;
            if Int64.compare r.seq !max_seq > 0 then max_seq := r.seq;
            replay r);
        let seg_no =
          (* "<prefix>-NNNNNN.log" *)
          let base = Filename.chop_suffix seg_name ".log" in
          int_of_string
            (String.sub base
               (String.length prefix + 1)
               (String.length base - String.length prefix - 1))
        in
        {
          seg_no;
          seg_name;
          seg_bytes = String.length contents;
          seg_max_seq = !seg_max;
        })
      seg_files
  in
  let next_seg_no =
    1 + List.fold_left (fun acc s -> max acc s.seg_no) (-1) segments
  in
  let t =
    {
      env;
      prefix;
      segment_bytes;
      segments;
      current =
        {
          seg_no = next_seg_no;
          seg_name = segment_name prefix next_seg_no;
          seg_bytes = 0;
          seg_max_seq = 0L;
        };
      writer = Env.create_file env (segment_name prefix next_seg_no);
      max_seq = !max_seq;
      durable_seq = !max_seq;
      next_seg_no = next_seg_no + 1;
      out = Bytebuf.create 4096;
    }
  in
  t

let roll_if_needed t =
  if t.current.seg_bytes >= t.segment_bytes then begin
    Env.sync t.writer;
    (* The roll happens right after an append, so every logged record is in
       the segment just synced: the whole log is durable at this point. *)
    t.durable_seq <- t.max_seq;
    Env.close_writer t.writer;
    t.segments <- t.segments @ [ t.current ];
    let seg, writer = fresh_segment t in
    t.current <- seg;
    t.writer <- writer
  end

(* Several logical batches, one physical append: each non-empty batch keeps
   its own record (and so its own CRC boundary — replay after a torn tail
   never splits a batch), but the device sees a single write. Sequence
   numbers run consecutively across the batches, in order. *)
let append_batches t ~first_seq batches =
  let total_items =
    List.fold_left (fun acc items -> acc + List.length items) 0 batches
  in
  if total_items > 0 then begin
    Bytebuf.clear t.out;
    let seq = ref first_seq in
    List.iter
      (fun items ->
        if items <> [] then begin
          encode_batch t.out ~first_seq:!seq items;
          seq := Int64.add !seq (Int64.of_int (List.length items))
        end)
      batches;
    let bytes = Bytebuf.contents t.out in
    Env.append t.writer ~category:Io_stats.Wal bytes;
    let last_seq = Int64.add first_seq (Int64.of_int (total_items - 1)) in
    t.current.seg_bytes <- t.current.seg_bytes + String.length bytes;
    if Int64.compare last_seq t.current.seg_max_seq > 0 then
      t.current.seg_max_seq <- last_seq;
    if Int64.compare last_seq t.max_seq > 0 then t.max_seq <- last_seq;
    roll_if_needed t
  end

let append_batch t ~first_seq items = append_batches t ~first_seq [ items ]

let sync t =
  Env.sync t.writer;
  t.durable_seq <- t.max_seq

let durable_seq t = t.durable_seq

let reclaim t ~persisted_below =
  let freed = ref 0 in
  let keep, drop =
    List.partition
      (fun seg ->
        Int64.compare seg.seg_max_seq persisted_below >= 0
        (* Right after a roll the current segment is empty, and the newest
           record sits in the last rolled one. *)
        || Int64.equal seg.seg_max_seq t.max_seq)
      t.segments
  in
  List.iter
    (fun seg ->
      freed := !freed + seg.seg_bytes;
      Env.delete t.env seg.seg_name)
    drop;
  t.segments <- keep;
  !freed

let total_bytes t =
  t.current.seg_bytes
  + List.fold_left (fun acc seg -> acc + seg.seg_bytes) 0 t.segments

let segment_count t = 1 + List.length t.segments

let max_seq_logged t = t.max_seq
