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
    block : Block.Builder.t; (* one buffer for every block of the table *)
    mutable index_entries : (string * Table_format.block_handle) list; (* rev *)
    mutable entry_count : int;
    mutable smallest_enc : string; (* "" until the first entry *)
    mutable largest : Bytes.t; (* the last encoded key added *)
    mutable largest_len : int;
    mutable written : int;
    mutable flushed_blocks : int;
    (* Perfect-hash point index bookkeeping: the escaped-user slice and
       (block, entry) locator of each distinct user key's first (= newest)
       version, in table order, in the first [ph_count] slots. [ph_ok]
       drops to false — and the table ships without an index — once any
       locator outgrows its fixed16 slot. *)
    ph_wanted : bool;
    mutable ph_ok : bool;
    mutable ph_keys : string array;
    mutable ph_locators : int array;
    mutable ph_count : int;
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
      smallest_enc = "";
      largest = Bytes.create 64;
      largest_len = 0;
      written = 0;
      flushed_blocks = 0;
      ph_wanted = ph_index;
      ph_ok = ph_index;
      ph_keys = [||];
      ph_locators = [||];
      ph_count = 0;
    }

  let append t sealed =
    let handle = { Table_format.offset = t.written; size = String.length sealed } in
    Env.append t.writer ~category:t.category sealed;
    t.written <- t.written + String.length sealed;
    handle

  let flush_block t =
    if Block.Builder.entry_count t.block > 0 then begin
      let handle = append t (Block.Builder.seal t.block) in
      Block.Builder.reset t.block;
      t.index_entries <-
        (Bytes.sub_string t.largest 0 t.largest_len, handle) :: t.index_entries;
      t.flushed_blocks <- t.flushed_blocks + 1
    end

  let shares_user t key ~len =
    t.entry_count > 0
    && t.largest_len = len
    && Block.equal_prefix t.largest key (len - Ikey.trailer_length)

  let note_ph_key t key ~len =
    let blk = t.flushed_blocks and ord = Block.Builder.entry_count t.block in
    if blk > 0xFFFF || ord > 0xFFFF then t.ph_ok <- false
    else begin
      if t.ph_count = Array.length t.ph_keys then begin
        let cap = max 64 (2 * t.ph_count) in
        let keys = Array.make cap "" and locators = Array.make cap 0 in
        Array.blit t.ph_keys 0 keys 0 t.ph_count;
        Array.blit t.ph_locators 0 locators 0 t.ph_count;
        t.ph_keys <- keys;
        t.ph_locators <- locators
      end;
      t.ph_keys.(t.ph_count) <- Bytes.sub_string key 0 (len - Ikey.trailer_length);
      t.ph_locators.(t.ph_count) <- (blk lsl 16) lor ord;
      t.ph_count <- t.ph_count + 1
    end

  (* Everything but the block bytes: order check, ph locator, bloom, key
     bounds. [key.[0..len)] is an encoded internal key. *)
  let note_key t key ~len =
    assert (
      t.entry_count = 0
      || Block.compare_bytes t.largest t.largest_len key len < 0);
    if t.ph_ok && not (shares_user t key ~len) then note_ph_key t key ~len;
    (* The bloom hashes the escaped-user slice of the encoded key; probes
       hash the same slice of the seek target, so no unescaping on either
       side. The slice is hashed before [key] can change. *)
    Wip_bloom.Bloom.add_sub t.bloom (Bytes.unsafe_to_string key) ~pos:0
      ~len:(len - Ikey.trailer_length);
    if t.entry_count = 0 then t.smallest_enc <- Bytes.sub_string key 0 len;
    if Bytes.length t.largest < len then
      t.largest <- Bytes.create (max len (2 * Bytes.length t.largest));
    Bytes.blit key 0 t.largest 0 len;
    t.largest_len <- len;
    t.entry_count <- t.entry_count + 1

  let added t = if Block.Builder.size_estimate t.block >= t.block_size then flush_block t

  let add_encoded t ~key ~value =
    note_key t (Bytes.unsafe_of_string key) ~len:(String.length key);
    Block.Builder.add t.block ~key ~value;
    added t

  let add_entry t blk =
    note_key t (Block.Cursor.key_bytes blk) ~len:(Block.Cursor.key_length blk);
    Block.Builder.add_cursor t.block blk;
    added t

  let add t ikey value = add_encoded t ~key:(Ikey.encode ikey) ~value

  let entry_count t = t.entry_count

  let estimated_size t = t.written + Block.Builder.size_estimate t.block

  let finish t =
    if t.entry_count > 0 then flush_block t;
    let filter_handle =
      append t (Table_format.seal_block (Wip_bloom.Bloom.encode t.bloom))
    in
    (* Index block, in the data blocks' buffer. *)
    List.iter
      (fun (key, handle) -> Block.Builder.add_handle t.block ~key handle)
      (List.rev t.index_entries);
    let index_handle = append t (Block.Builder.seal t.block) in
    (* Perfect-hash point-index block (optional: absent when disabled,
       overweight or when CHD construction fails — readers fall back to
       restart binary search). *)
    let ph_handle =
      if not (t.ph_wanted && t.ph_ok && t.entry_count > 0) then
        Table_format.no_handle
      else
        match
          Ph_index.build
            ~keys:(Array.sub t.ph_keys 0 t.ph_count)
            ~locators:(Array.sub t.ph_locators 0 t.ph_count)
        with
        | None -> Table_format.no_handle
        | Some raw -> append t (Table_format.seal_block raw)
    in
    (* Footer *)
    let footer =
      {
        Table_format.index = index_handle;
        filter = filter_handle;
        ph = ph_handle;
        entry_count = t.entry_count;
        smallest =
          (if t.entry_count = 0 then ""
           else Ikey.user_key_of_encoded t.smallest_enc);
        largest =
          (if t.entry_count = 0 then ""
           else Ikey.user_key_of_encoded_bytes t.largest ~len:t.largest_len);
      }
    in
    ignore (append t (Table_format.encode_footer footer));
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
          Io_stats.(add (Env.stats env) ph_fallbacks 1);
          None
        | Some raw -> (
          try Some (Ph_index.read raw) with
          | Invalid_argument _ ->
            Io_stats.(add (Env.stats env) ph_fallbacks 1);
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
  (* Built once: a negative probe moves two counters under one lock
     without allocating its list per probe. *)
  let negative_probe = Io_stats.[ (bloom_probes, 1); (bloom_negatives, 1) ]

  let may_contain_encoded t target =
    let len = String.length target - Ikey.trailer_length in
    let maybe = Wip_bloom.Bloom.mem_encoded_sub t.filter target ~pos:0 ~len in
    if maybe then Io_stats.(add (stats t) bloom_probes 1)
    else Io_stats.add_many (stats t) negative_probe;
    maybe

  (* Data blocks are addressed by index ordinal and read through a cursor
     over the sealed bytes in place, so the device read is the only copy;
     the cache holds sealed blocks too, charged their payload bytes. The
     checksum is verified on the first device fetch of each block and
     skipped on repeats — the cost of a CRC pass over every block on every
     cold scan would otherwise dominate the scan itself. *)
  let block_cursor t ~category ?(admit = Wip_storage.Block_cache.Point) slot =
    let handle : Table_format.block_handle = snd t.index.(slot) in
    Io_stats.(add (stats t) block_fetches 1);
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
    Io_stats.(add stats ph_probes 1);
    let false_hit () =
      Io_stats.(add stats ph_false_hits 1);
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
        Io_stats.(add (stats t) bloom_false_positives 1);
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
