module Ikey = Wip_util.Ikey
module Env = Wip_storage.Env
module Io_stats = Wip_storage.Io_stats

type meta = {
  name : string;
  size : int;
  entry_count : int;
  smallest : string;
  largest : string;
}

module Builder = struct
  type t = {
    env : Env.t;
    name : string;
    category : Io_stats.category;
    block_size : int;
    writer : Env.writer;
    bloom : Wip_bloom.Bloom.t;
    mutable block : Block.Builder.t;
    mutable index_entries : (string * Table_format.block_handle) list; (* rev *)
    mutable entry_count : int;
    mutable smallest_enc : string option;
    mutable largest_enc : string;
    mutable written : int;
    mutable flushed_blocks : int;
    (* Perfect-hash point index bookkeeping: the escaped-user slice and
       (block, entry) locator of each distinct user key's first (= newest)
       version, in table order. [ph_ok] drops to false — and the table
       ships without an index — once any locator outgrows its fixed16
       slot. *)
    ph_wanted : bool;
    mutable ph_ok : bool;
    mutable ph_keys : (string * int) list; (* rev *)
  }

  let create env ~name ~category ?(block_size = 4096) ?(bits_per_key = 10)
      ?(ph_index = true) ~expected_keys () =
    {
      env;
      name;
      category;
      block_size;
      writer = Env.create_file env name;
      bloom = Wip_bloom.Bloom.create ~bits_per_key ~expected_keys:(max 1 expected_keys);
      block = Block.Builder.create ();
      index_entries = [];
      entry_count = 0;
      smallest_enc = None;
      largest_enc = "";
      written = 0;
      flushed_blocks = 0;
      ph_wanted = ph_index;
      ph_ok = ph_index;
      ph_keys = [];
    }

  let flush_block t ~last_key =
    if Block.Builder.entry_count t.block > 0 then begin
      let raw = Block.Builder.finish t.block in
      let sealed = Table_format.seal_block raw in
      let handle =
        { Table_format.offset = t.written; size = String.length sealed }
      in
      Env.append t.writer ~category:t.category sealed;
      t.written <- t.written + String.length sealed;
      t.index_entries <- (last_key, handle) :: t.index_entries;
      t.block <- Block.Builder.create ();
      t.flushed_blocks <- t.flushed_blocks + 1
    end

  let add_encoded t ~key ~value =
    assert (t.entry_count = 0 || String.compare t.largest_enc key < 0);
    if
      t.ph_ok
      && (t.entry_count = 0 || not (Ikey.encoded_same_user t.largest_enc key))
    then begin
      let blk = t.flushed_blocks in
      let ord = Block.Builder.entry_count t.block in
      if blk > 0xFFFF || ord > 0xFFFF then t.ph_ok <- false
      else
        t.ph_keys <-
          ( String.sub key 0 (String.length key - Ikey.trailer_length),
            (blk lsl 16) lor ord )
          :: t.ph_keys
    end;
    Block.Builder.add t.block ~key ~value;
    (* The bloom hashes the escaped-user slice of the encoded key; probes
       hash the same slice of the seek target, so no unescaping on either
       side. *)
    Wip_bloom.Bloom.add_sub t.bloom key ~pos:0
      ~len:(String.length key - Ikey.trailer_length);
    if t.smallest_enc = None then t.smallest_enc <- Some key;
    t.largest_enc <- key;
    t.entry_count <- t.entry_count + 1;
    if Block.Builder.size_estimate t.block >= t.block_size then
      flush_block t ~last_key:key

  let add t ikey value = add_encoded t ~key:(Ikey.encode ikey) ~value

  let entry_count t = t.entry_count

  let estimated_size t = t.written + Block.Builder.size_estimate t.block

  let finish t =
    if t.entry_count > 0 then flush_block t ~last_key:t.largest_enc;
    (* Filter block *)
    let filter_raw = Wip_bloom.Bloom.encode t.bloom in
    let filter_sealed = Table_format.seal_block filter_raw in
    let filter_handle =
      { Table_format.offset = t.written; size = String.length filter_sealed }
    in
    Env.append t.writer ~category:t.category filter_sealed;
    t.written <- t.written + String.length filter_sealed;
    (* Index block *)
    let index_builder = Block.Builder.create () in
    List.iter
      (fun (key, (handle : Table_format.block_handle)) ->
        let buf = Buffer.create 16 in
        Wip_util.Coding.put_varint buf handle.offset;
        Wip_util.Coding.put_varint buf handle.size;
        Block.Builder.add index_builder ~key ~value:(Buffer.contents buf))
      (List.rev t.index_entries);
    let index_raw = Block.Builder.finish index_builder in
    let index_sealed = Table_format.seal_block index_raw in
    let index_handle =
      { Table_format.offset = t.written; size = String.length index_sealed }
    in
    Env.append t.writer ~category:t.category index_sealed;
    t.written <- t.written + String.length index_sealed;
    (* Perfect-hash point-index block (optional: absent when disabled,
       overweight or when CHD construction fails — readers fall back to
       restart binary search). *)
    let ph_handle =
      if not (t.ph_wanted && t.ph_ok && t.entry_count > 0) then
        Table_format.no_handle
      else begin
        let pairs = Array.of_list (List.rev t.ph_keys) in
        let keys = Array.map fst pairs in
        let locators = Array.map snd pairs in
        match Ph_index.build ~keys ~locators with
        | None -> Table_format.no_handle
        | Some raw ->
          let sealed = Table_format.seal_block raw in
          let handle =
            { Table_format.offset = t.written; size = String.length sealed }
          in
          Env.append t.writer ~category:t.category sealed;
          t.written <- t.written + String.length sealed;
          handle
      end
    in
    (* Footer *)
    let footer =
      {
        Table_format.index = index_handle;
        filter = filter_handle;
        ph = ph_handle;
        entry_count = t.entry_count;
        smallest =
          (match t.smallest_enc with
          | Some enc -> Ikey.user_key_of_encoded enc
          | None -> "");
        largest =
          (if t.entry_count = 0 then ""
           else Ikey.user_key_of_encoded t.largest_enc);
      }
    in
    let footer_bytes = Table_format.encode_footer footer in
    Env.append t.writer ~category:t.category footer_bytes;
    t.written <- t.written + String.length footer_bytes;
    Env.sync t.writer;
    Env.close_writer t.writer;
    {
      name = t.name;
      size = t.written;
      entry_count = t.entry_count;
      smallest = footer.Table_format.smallest;
      largest = footer.Table_format.largest;
    }

  let abandon t =
    Env.close_writer t.writer;
    Env.delete t.env t.name
end

module Reader = struct
  type t = {
    env : Env.t;
    reader : Env.reader;
    meta : meta;
    index : (string * Table_format.block_handle) array;
    (* index.(i) = (last encoded ikey of block i, handle) *)
    verified : Bytes.t;
    (* verified.(i) = '\001' once block i's checksum has been verified;
       repeat device fetches then skip the CRC pass. Races across domains
       are benign: flags only flip '\000' -> '\001' and a stale read merely
       re-verifies. *)
    filter : string;
    ph : Ph_index.reader option;
    ph_size : int; (* on-disk bytes of the ph block, 0 when absent *)
    cache : Wip_storage.Block_cache.t option;
  }

  (* Decoding damaged bytes fails with Invalid_argument somewhere inside the
     format/coding layers (checksum mismatch, bad magic, impossible offset or
     length). Surface all of it as the typed Corruption, tagged with the
     file, and never let garbage decode into answers. *)
  let guard ~file f =
    try f () with
    | Invalid_argument detail -> raise (Env.Corruption { file; detail })

  let open_ ?cache ?(ph = true) env ~name =
    let reader = Env.open_file env name in
    guard ~file:name @@ fun () ->
    let size = Env.file_size reader in
    (* Discover the footer: last 4 bytes give the total footer length. *)
    let tail =
      Env.read reader ~category:Io_stats.Table_meta ~pos:(size - 4) ~len:4
    in
    let footer_len = Wip_util.Coding.get_fixed32 tail 0 in
    let footer_bytes =
      Env.read reader ~category:Io_stats.Table_meta ~pos:(size - footer_len)
        ~len:footer_len
    in
    let footer = Table_format.decode_footer footer_bytes in
    let read_handle (h : Table_format.block_handle) =
      Table_format.unseal_block
        (Env.read reader ~category:Io_stats.Table_meta ~pos:h.offset
           ~len:h.size)
    in
    let index_raw = read_handle footer.Table_format.index in
    let filter = read_handle footer.Table_format.filter in
    (* The ph block is an accelerator, never a dependency: a CRC mismatch or
       malformed header (typed Corruption territory for any other block) is
       recorded as a fallback and the reader serves every get through the
       restart binary search instead. *)
    let ph_block =
      if (not ph) || footer.Table_format.ph.size = 0 then None
      else
        match
          (try Some (read_handle footer.Table_format.ph) with
          | Invalid_argument _ | Env.Corruption _ -> None)
        with
        | None ->
          Io_stats.record_ph_fallback (Env.stats env);
          None
        | Some raw -> (
          try Some (Ph_index.read raw) with
          | Invalid_argument _ ->
            Io_stats.record_ph_fallback (Env.stats env);
            None)
    in
    let index =
      let cur = Block.Cursor.create index_raw in
      let slots = ref [] in
      while Block.Cursor.next cur do
        let value = Block.Cursor.value cur in
        let offset, off = Wip_util.Coding.get_varint value 0 in
        let bsize, _ = Wip_util.Coding.get_varint value off in
        slots :=
          (Block.Cursor.key cur, { Table_format.offset; size = bsize })
          :: !slots
      done;
      Array.of_list (List.rev !slots)
    in
    {
      env;
      reader;
      meta =
        {
          name;
          size;
          entry_count = footer.Table_format.entry_count;
          smallest = footer.Table_format.smallest;
          largest = footer.Table_format.largest;
        };
      index;
      verified = Bytes.make (Array.length index) '\000';
      filter;
      ph = ph_block;
      ph_size = footer.Table_format.ph.size;
      cache;
    }

  let meta t = t.meta

  let stats t = Env.stats t.env

  let has_ph t = t.ph <> None

  let ph_bytes t = t.ph_size

  (* Probe the bloom with the escaped-user slice of an encoded (seek) key —
     the same bytes the builder hashed. *)
  let may_contain_encoded t target =
    let len = String.length target - Ikey.trailer_length in
    let maybe = Wip_bloom.Bloom.mem_encoded_sub t.filter target ~pos:0 ~len in
    Io_stats.record_bloom_probe (stats t) ~negative:(not maybe);
    maybe

  (* Data blocks are addressed by index ordinal and read through a cursor
     over the sealed bytes in place, so the device read is the only copy;
     the cache holds sealed blocks too, charged their payload bytes. The
     checksum is verified on the first device fetch of each block and
     skipped on repeats — the cost of a CRC pass over every block on every
     cold scan would otherwise dominate the scan itself. *)
  let block_cursor t ~category ?(admit = Wip_storage.Block_cache.Point) slot =
    let handle : Table_format.block_handle = snd t.index.(slot) in
    Io_stats.record_block_fetch (stats t);
    guard ~file:t.meta.name @@ fun () ->
    let fetch () =
      let sealed = Env.read t.reader ~category ~pos:handle.offset ~len:handle.size in
      if Bytes.get t.verified slot = '\000' then begin
        Table_format.verify_seal sealed;
        Bytes.set t.verified slot '\001'
      end;
      sealed
    in
    let sealed =
      match t.cache with
      | None -> fetch ()
      | Some cache -> (
        let file = t.meta.name and offset = handle.offset in
        match Wip_storage.Block_cache.find ~admit cache ~file ~offset with
        | Some sealed -> sealed
        | None ->
          let sealed = fetch () in
          Wip_storage.Block_cache.add ~admit cache ~file ~offset
            ~charge:(Table_format.payload_length sealed)
            sealed;
          sealed)
    in
    Block.Cursor.create ~len:(Table_format.payload_length sealed) sealed

  (* First index slot whose last-key is >= target; encoded keys compare raw. *)
  let index_slot t target =
    let n = Array.length t.index in
    if n = 0 then None
    else begin
      (* binary search: smallest i with last_key(i) >= target *)
      let rec bs lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if String.compare (fst t.index.(mid)) target < 0 then bs (mid + 1) hi
          else bs lo mid
      in
      let i = bs 0 n in
      if i >= n then None else Some i
    end

  (* A run cursor: one {!Block.Cursor} per block, entered lazily. The first
     [next] seeks (index binary search, one block fetch), so a merge that
     never pops a run never fetches its blocks. *)
  module Cursor = struct
    type reader = t

    type t = {
      reader : reader;
      category : Io_stats.category;
      admit : Wip_storage.Block_cache.admission;
      from : string; (* encoded seek key; "" = the table start *)
      mutable slot : int; (* block ordinal; -1 until the first [next] *)
      mutable blk : Block.Cursor.t option;
    }

    let create reader ~category ~admit ?(from = "") () =
      { reader; category; admit; from; slot = -1; blk = None }

    let position c cur ~seek =
      try if seek then Block.Cursor.seek cur c.from else Block.Cursor.next cur
      with Invalid_argument detail ->
        raise (Env.Corruption { file = c.reader.meta.name; detail })

    let rec enter c slot ~seek =
      c.slot <- slot;
      if slot >= Array.length c.reader.index then begin
        c.blk <- None;
        false
      end
      else begin
        let cur = block_cursor c.reader ~category:c.category ~admit:c.admit slot in
        c.blk <- Some cur;
        position c cur ~seek || enter c (slot + 1) ~seek:false
      end

    let next c =
      match c.blk with
      | Some cur -> position c cur ~seek:false || enter c (c.slot + 1) ~seek:false
      | None -> (
        c.slot < 0
        &&
        match if c.from = "" then Some 0 else index_slot c.reader c.from with
        | Some slot -> enter c slot ~seek:(c.from <> "")
        | None -> enter c (Array.length c.reader.index) ~seek:false)

    let block c =
      match c.blk with
      | Some cur -> cur
      | None -> invalid_arg "Table.Reader.Cursor: not positioned"
  end

  (* The entry under [cur] answers [target] iff it shares the user key. *)
  let answer cur target ~miss =
    let buf = Block.Cursor.key_bytes cur and len = Block.Cursor.key_length cur in
    if Ikey.encoded_same_user_bytes buf ~len target then
      Some
        ( Ikey.encoded_kind_bytes buf ~len,
          Block.Cursor.value cur,
          Int64.of_int (Ikey.encoded_seq_int_bytes buf ~len) )
    else miss ()

  (* Perfect-hash point path: the ph index locates the newest version of the
     target's user key directly — one ordinal jump, zero key comparisons to
     position. From there the cursor steps forward (sequences are encoded
     descending) to the first version with seq <= the snapshot, crossing
     block boundaries if a key's version chain spans them. A fingerprint
     alias for an absent key lands on an unrelated entry; the user-key check
     rejects it as a counted false hit. *)
  let get_via_ph t ~category ph target ~miss =
    let stats = stats t in
    Io_stats.record_ph_probe stats;
    let false_hit () =
      Io_stats.record_ph_false_hit stats;
      miss ()
    in
    let ulen = String.length target - Ikey.trailer_length in
    match Ph_index.find ph target ~pos:0 ~len:ulen with
    | None -> miss () (* definite absence: the bloom maybe was an FP *)
    | Some (blk, ord) ->
      if blk >= Array.length t.index then false_hit ()
      else begin
        let cur = block_cursor t ~category blk in
        guard ~file:t.meta.name @@ fun () ->
        if not (Block.Cursor.seek_ordinal cur ord) then false_hit ()
        else if
          not
            (Ikey.encoded_same_user_bytes (Block.Cursor.key_bytes cur)
               ~len:(Block.Cursor.key_length cur) target)
        then false_hit ()
        else begin
          let rec advance cur blk =
            (* A different user key here means every version of the target
               is newer than the snapshot. *)
            if Block.Cursor.compare_key cur target >= 0 then answer cur target ~miss
            else if Block.Cursor.next cur then advance cur blk
            else if blk + 1 >= Array.length t.index then miss ()
            else begin
              let cur = block_cursor t ~category (blk + 1) in
              if Block.Cursor.next cur then advance cur (blk + 1) else miss ()
            end
          in
          advance cur blk
        end
      end

  (* [target] must be an {!Ikey.encode_seek} result. The first entry >= target
     that still shares the user key necessarily has sequence <= the snapshot
     (the encoding orders sequences descending), so a single cursor seek is
     the whole lookup: no skip loop, no block decode, no Ikey.t. *)
  let get_encoded t ~category ?(filter_checked = false) target =
    if (not filter_checked) && not (may_contain_encoded t target) then None
    else begin
      let miss () =
        (* The filter said maybe, the table had nothing: a false positive. *)
        Io_stats.record_bloom_false_positive (stats t);
        None
      in
      match t.ph with
      | Some ph -> get_via_ph t ~category ph target ~miss
      | None -> (
        match index_slot t target with
        | None -> miss ()
        | Some slot ->
          let cur = block_cursor t ~category slot in
          guard ~file:t.meta.name @@ fun () ->
          if Block.Cursor.seek cur target then answer cur target ~miss
          else miss ())
    end

  let get t ~category user_key ~snapshot =
    get_encoded t ~category (Ikey.encode_seek user_key ~seq:snapshot)

  (* The one-shot sequence flush, compaction, split and view build read. *)
  let stream t ~category ~admit ?from () =
    let c = Cursor.create t ~category ~admit ?from () in
    let rec go () =
      if Cursor.next c then
        let b = Cursor.block c in
        Seq.Cons ((Block.Cursor.key b, Block.Cursor.value b), go)
      else Seq.Nil
    in
    go

  let close t = Env.close_reader t.reader
end

let overlaps (m : meta) ~lo ~hi =
  m.entry_count > 0
  && String.compare m.smallest hi <= 0
  && String.compare m.largest lo >= 0

let overlaps_excl (m : meta) ~lo ~hi_excl =
  m.entry_count > 0
  && String.compare m.smallest hi_excl < 0
  && String.compare m.largest lo >= 0
