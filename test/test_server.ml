(* End-to-end service-layer tests over real loopback sockets: round trips
   for every opcode against a live sharded store, out-of-order pipelining
   (a slow scan must not stall puts queued behind it on the same socket),
   the typed wire mapping of engine refusals, malformed-frame handling,
   and a chaos-style outage run asserting that no write acked over the
   wire is ever lost across recovery. *)

module Config = Wipdb.Config
module Store = Wipdb.Store
module Sh = Wip_concurrent.Sharded_store.Make (Wipdb.Store)
module Fault_env = Wip_storage.Fault_env
module Server = Wip_server.Server
module Client = Wip_server.Client
module Protocol = Wip_server.Protocol
module Ikey = Wip_util.Ikey
module Intf = Wip_kv.Store_intf

let base_config =
  {
    Config.default with
    Config.memtable_items = 64;
    memtable_bytes = 8 * 1024;
    compaction_budget_per_batch = 0;
    name = "srv";
  }

(* A live sharded store wired into the closure record the server consumes. *)
let mk_sharded_ops ?(shards = 2) () =
  let bounds = Config.shard_boundaries base_config ~shards in
  let stores =
    List.mapi
      (fun i lo ->
        let cfg = { base_config with Config.name = Printf.sprintf "srv-%d" i } in
        (lo, Store.create cfg))
      bounds
  in
  let st = Sh.create ~pool_threads:1 ~idle_sleep:0.0005 stores in
  let ops =
    {
      Server.get = (fun key -> Sh.get st key);
      scan = (fun ~lo ~hi ~limit -> Sh.scan st ~lo ~hi ?limit ());
      commit = (fun batches -> Sh.commit_batches st batches);
      stats = (fun () -> [ ("shards", Int64.of_int (Sh.shard_count st)) ]);
    }
  in
  (st, ops)

let with_server ?workers ?pipeline_depth ?group_commit ops f =
  let srv = Server.start ?workers ?pipeline_depth ?group_commit ~ops () in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let with_client srv f =
  let c = Client.connect ~port:(Server.port srv) () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let ok name = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" name (Client.error_to_string e)

(* ------------------------------------------------------------------ *)

let test_roundtrips () =
  let st, ops = mk_sharded_ops () in
  with_server ops (fun srv ->
      with_client srv (fun c ->
          ok "ping" (Client.ping c);
          (* Empty store. *)
          Alcotest.(check (option string)) "miss" None (ok "get" (Client.get c "absent"));
          (* Puts across the shard split, binary keys included. *)
          ok "put" (Client.put c ~key:"alpha" ~value:"1");
          ok "put" (Client.put c ~key:"zeta\x00\xff" ~value:"2");
          ok "put" (Client.put c ~key:"" ~value:"empty-key");
          Alcotest.(check (option string)) "hit" (Some "1") (ok "get" (Client.get c "alpha"));
          Alcotest.(check (option string)) "binary key" (Some "2")
            (ok "get" (Client.get c "zeta\x00\xff"));
          Alcotest.(check (option string)) "empty key" (Some "empty-key")
            (ok "get" (Client.get c ""));
          (* Batch with a delete: atomic, and the delete wins. *)
          ok "batch"
            (Client.write_batch c
               [
                 (Ikey.Value, "b1", "x");
                 (Ikey.Value, "b2", "y");
                 (Ikey.Deletion, "alpha", "");
               ]);
          Alcotest.(check (option string)) "deleted" None (ok "get" (Client.get c "alpha"));
          Alcotest.(check (option string)) "batched" (Some "x") (ok "get" (Client.get c "b1"));
          (* Scan merges across shards in order. *)
          let entries = ok "scan" (Client.scan c ~lo:"b" ~hi:"c" ()) in
          Alcotest.(check (list (pair string string)))
            "scan window"
            [ ("b1", "x"); ("b2", "y") ]
            entries;
          let limited = ok "scan" (Client.scan c ~lo:"" ~hi:"\xff" ~limit:1 ()) in
          Alcotest.(check int) "scan limit" 1 (List.length limited);
          (* Delete round trip. *)
          ok "delete" (Client.delete c ~key:"b1");
          Alcotest.(check (option string)) "gone" None (ok "get" (Client.get c "b1"));
          (* Stats pass through verbatim. *)
          let stats = ok "stats" (Client.stats c) in
          Alcotest.(check (option int64)) "stats shards" (Some 2L)
            (List.assoc_opt "shards" stats)));
  Sh.stop st

(* Out-of-order completion: a deliberately slow scan occupies one worker
   while puts pipelined behind it on the same socket complete on the
   others — their acks must arrive before the scan's entries. *)
let test_pipelining () =
  let slow_scan_s = 0.2 in
  let table : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let tlock = Mutex.create () in
  let ops =
    {
      Server.get =
        (fun key ->
          Mutex.lock tlock;
          let v = Hashtbl.find_opt table key in
          Mutex.unlock tlock;
          v);
      scan =
        (fun ~lo:_ ~hi:_ ~limit:_ ->
          Unix.sleepf slow_scan_s;
          []);
      commit =
        (fun batches ->
          Mutex.lock tlock;
          Array.iter
            (fun items ->
              List.iter (fun (_, k, v) -> Hashtbl.replace table k v) items)
            batches;
          Mutex.unlock tlock;
          Array.map (fun _ -> Ok ()) batches);
      stats = (fun () -> []);
    }
  in
  with_server ~workers:4 ops (fun srv ->
      with_client srv (fun c ->
          let scan_id = Client.send c (Protocol.Scan { lo = ""; hi = "z"; limit = None }) in
          let put_ids =
            List.init 8 (fun i ->
                Client.send c
                  (Protocol.Put
                     { key = Printf.sprintf "p%d" i; value = string_of_int i }))
          in
          (* Collect all nine responses in arrival order. *)
          let arrivals =
            List.init 9 (fun _ ->
                match Client.recv c with
                | Ok (id, resp) -> (id, resp)
                | Error e ->
                  Alcotest.failf "recv: %s" (Client.error_to_string e))
          in
          let order = List.map fst arrivals in
          List.iter
            (fun (id, resp) ->
              if List.mem id put_ids then
                match resp with
                | Protocol.Ack -> ()
                | _ -> Alcotest.failf "put %d: unexpected response" id)
            arrivals;
          (* The scan landed last: every put overtook it. *)
          Alcotest.(check int)
            "scan response arrives after all the puts" scan_id
            (List.nth order 8)))

(* Engine refusals travel as themselves, field for field. *)
let test_wire_error_mapping () =
  let refusal = ref (Intf.Backpressure { shard = 3; debt_bytes = 4242 }) in
  let ops =
    {
      Server.get = (fun _ -> None);
      scan = (fun ~lo:_ ~hi:_ ~limit:_ -> []);
      commit = (fun batches -> Array.map (fun _ -> Error !refusal) batches);
      stats = (fun () -> []);
    }
  in
  with_server ops (fun srv ->
      with_client srv (fun c ->
          (match Client.put c ~key:"k" ~value:"v" with
          | Error (Client.Wire (Protocol.Backpressure { shard = 3; debt_bytes = 4242 })) -> ()
          | _ -> Alcotest.fail "backpressure did not travel field-for-field");
          refusal := Intf.Store_degraded { reason = "wal: sync fault" };
          match Client.delete c ~key:"k" with
          | Error (Client.Wire (Protocol.Store_degraded { reason })) ->
            Alcotest.(check string) "degraded reason" "wal: sync fault" reason
          | _ -> Alcotest.fail "degraded did not travel"))

(* A malformed frame gets a typed Bad_request answer and the connection is
   closed — the stream past a framing error is unsynchronized. *)
let test_malformed_frame_hangs_up () =
  let ops =
    {
      Server.get = (fun _ -> None);
      scan = (fun ~lo:_ ~hi:_ ~limit:_ -> []);
      commit = (fun batches -> Array.map (fun _ -> Ok ()) batches);
      stats = (fun () -> []);
    }
  in
  with_server ops (fun srv ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
      (* A frame with an unknown opcode 0x7f. *)
      let buf = Buffer.create 16 in
      Wip_util.Coding.put_fixed32 buf 5;
      Wip_util.Coding.put_fixed32 buf 1;
      Buffer.add_char buf '\x7f';
      let garbage = Buffer.contents buf in
      let _ = Unix.write_substring fd garbage 0 (String.length garbage) in
      (* Read everything until EOF: exactly one Bad_request frame. *)
      let chunk = Bytes.create 4096 in
      let rec drain acc =
        match Unix.read fd chunk 0 4096 with
        | 0 -> acc
        | n -> drain (acc ^ Bytes.sub_string chunk 0 n)
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> acc
      in
      let bytes = drain "" in
      (match Protocol.decode_response bytes ~pos:0 with
      | Protocol.Frame
          { id = 0; payload = Protocol.Error (Protocol.Bad_request _); next } ->
        Alcotest.(check int) "nothing after the error frame" (String.length bytes) next
      | _ -> Alcotest.fail "expected a Bad_request error frame");
      Unix.close fd)

(* A scan frame whose limit varint decodes negative: the worker must stay
   alive and the client gets a typed Bad_request, not a dropped socket
   mid-request. The stream is unsynchronized afterwards, so the server
   answers once (id 0) and hangs up — same contract as any framing error. *)
let test_negative_scan_limit_over_wire () =
  let scans = ref 0 in
  let ops =
    {
      Server.get = (fun _ -> None);
      scan =
        (fun ~lo:_ ~hi:_ ~limit:_ ->
          incr scans;
          []);
      commit = (fun batches -> Array.map (fun _ -> Ok ()) batches);
      stats = (fun () -> []);
    }
  in
  with_server ops (fun srv ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
      (* Scan with lo = hi = "" and a 9-byte varint limit whose top bits land
         on the native sign bit. *)
      let payload = Buffer.create 16 in
      Buffer.add_char payload '\x00';
      Buffer.add_char payload '\x00';
      for _ = 1 to 8 do
        Buffer.add_char payload '\x80'
      done;
      Buffer.add_char payload '\x40';
      let buf = Buffer.create 32 in
      Wip_util.Coding.put_fixed32 buf (4 + 1 + Buffer.length payload);
      Wip_util.Coding.put_fixed32 buf 9;
      Buffer.add_char buf '\x06';
      (* tag_scan *)
      Buffer.add_buffer buf payload;
      let frame = Buffer.contents buf in
      let _ = Unix.write_substring fd frame 0 (String.length frame) in
      let chunk = Bytes.create 4096 in
      let rec drain acc =
        match Unix.read fd chunk 0 4096 with
        | 0 -> acc
        | n -> drain (acc ^ Bytes.sub_string chunk 0 n)
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> acc
      in
      let bytes = drain "" in
      (match Protocol.decode_response bytes ~pos:0 with
      | Protocol.Frame
          { id = 0; payload = Protocol.Error (Protocol.Bad_request _); next } ->
        Alcotest.(check int) "single error frame" (String.length bytes) next
      | _ -> Alcotest.fail "expected a Bad_request error frame");
      Unix.close fd;
      (* The store was never asked to scan with the poisoned limit. *)
      Alcotest.(check int) "scan never executed" 0 !scans;
      (* The server is still fully serviceable for the next connection. *)
      with_client srv (fun c -> ok "ping after poison" (Client.ping c)))

(* Chaos row through the full service path: clients hammer puts over the
   wire while the device dies mid-run (a permanent I/O storm). Every put
   acked on the wire before the outage must survive recovery from the
   durable image — an Ack means fsynced, so the set of acked keys is
   exactly what the server promised to keep. *)
let test_no_acked_write_lost_across_outage () =
  let fenv = Fault_env.create () in
  (* Let the store come up healthy, then kill the device permanently. *)
  let outage_start = 40 in
  Fault_env.storm fenv ~first_op:outage_start ~last_op:max_int;
  let db =
    Store.create ~env:(Fault_env.env fenv)
      { base_config with Config.name = "srv-chaos" }
  in
  let commit batches =
    match Store.try_write_batches db (Array.to_list batches) with
    | Error e -> Array.map (fun _ -> Error e) batches
    | Ok () -> (
      match Store.log_sync db with
      | () -> Array.map (fun _ -> Ok ()) batches
      | exception Intf.Rejected e -> Array.map (fun _ -> Error e) batches)
  in
  let ops =
    {
      Server.get = (fun key -> Store.get db key);
      scan = (fun ~lo:_ ~hi:_ ~limit:_ -> []);
      commit;
      stats = (fun () -> []);
    }
  in
  let acked = Queue.create () in
  let alock = Mutex.create () in
  with_server ~workers:2 ops (fun srv ->
      let client_thread t () =
        with_client srv (fun c ->
            (* Each client stops at its first refusal: past the outage the
               server answers with typed errors, never acks. *)
            let rec go i =
              if i < 40 then begin
                let key = Printf.sprintf "c%d-%03d" t i in
                match Client.put c ~key ~value:key with
                | Ok () ->
                  Mutex.lock alock;
                  Queue.push key acked;
                  Mutex.unlock alock;
                  go (i + 1)
                | Error _ -> ()
              end
            in
            go 0)
      in
      let threads = List.init 2 (fun t -> Thread.create (client_thread t) ()) in
      List.iter Thread.join threads);
  (* Recover from the synced prefix of the device — "the power failed
     during the storm" — and audit every wire-level ack. *)
  let db2 =
    Store.recover ~env:(Fault_env.durable_image fenv)
      { base_config with Config.name = "srv-chaos" }
  in
  let lost = ref [] in
  Queue.iter
    (fun key ->
      match Store.get db2 key with
      | Some v when v = key -> ()
      | _ -> lost := key :: !lost)
    acked;
  Alcotest.(check (list string)) "every acked write survived" [] !lost;
  Alcotest.(check bool) "the run acked something before the outage" true
    (not (Queue.is_empty acked))

(* ------------------------------------------------------------------ *)
(* Stream framing: the inbox both ends read through *)

module Netio = Wip_server.Netio

let requests =
  [
    Protocol.Get { key = "alpha" };
    Protocol.Put { key = "k\000"; value = String.make 40 '\255' };
    Protocol.Scan { lo = ""; hi = "z"; limit = Some 3 };
  ]

let responses =
  [
    Protocol.Value { value = "one" };
    Protocol.Entries [ ("a", "1"); ("b\000", "") ];
    Protocol.Not_found;
  ]

let frames encode items =
  String.concat "" (List.mapi (fun i x -> encode ~id:(i + 1) x) items)

(* [read] over [s] in the pieces the cut points make (empty ones skipped:
   a read of 0 bytes means end of input), then end of input. *)
let pieces_reader s cuts =
  let bounds = ref (cuts @ [ String.length s ]) and pos = ref 0 in
  let rec read buf off len =
    match !bounds with
    | [] -> 0
    | b :: rest when b <= !pos ->
      bounds := rest;
      read buf off len
    | b :: _ ->
      let n = min len (b - !pos) in
      Bytes.blit_string s !pos buf off n;
      pos := !pos + n;
      n
  in
  read

let drain ~decode read =
  let inbox = Netio.inbox () in
  let rec go acc =
    match Netio.next_frame inbox ~read ~decode with
    | Protocol.Frame { id; payload; _ } -> go ((id, payload) :: acc)
    | Protocol.Fail e ->
      Alcotest.failf "decode failed: %s" (Protocol.protocol_error_to_string e)
    | Protocol.Need_more -> List.rev acc
  in
  go []

(* A stream cut anywhere across two reads decodes to the same frames, for
   both the server's (request) and the client's (response) decoder. *)
let test_split_at_every_byte () =
  let check_split name encode decode items =
    let s = frames encode items in
    let want = List.mapi (fun i x -> (i + 1, x)) items in
    for cut = 0 to String.length s do
      if drain ~decode (pieces_reader s [ cut ]) <> want then
        Alcotest.failf "%s: split at byte %d decoded differently" name cut
    done;
    (* One byte per read as well. *)
    let every = List.init (String.length s) (fun i -> i + 1) in
    if drain ~decode (pieces_reader s every) <> want then
      Alcotest.failf "%s: byte-at-a-time stream decoded differently" name
  in
  check_split "requests" Protocol.encode_request Protocol.decode_request requests;
  check_split "responses" Protocol.encode_response Protocol.decode_response
    responses

(* The same over real sockets: the server reader gets each request stream
   in two writes cut at every byte, and [Client.recv] gets each response
   stream the same way from a raw peer. *)
let test_split_over_sockets () =
  let ops =
    {
      Server.get = (fun key -> Some ("v:" ^ key));
      scan = (fun ~lo:_ ~hi:_ ~limit:_ -> []);
      commit = (fun batches -> Array.map (fun _ -> Ok ()) batches);
      stats = (fun () -> []);
    }
  in
  let send_split fd s cut =
    let writer =
      Thread.create
        (fun () ->
          Netio.write_all fd (String.sub s 0 cut);
          Thread.delay 0.0005;
          Netio.write_all fd (String.sub s cut (String.length s - cut)))
        ()
    in
    writer
  in
  with_server ~group_commit:false ops (fun srv ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Netio.close_quietly fd) @@ fun () ->
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
      let gets = [ Protocol.Get { key = "a" }; Protocol.Get { key = "\255b" } ] in
      let s = frames Protocol.encode_request gets in
      let inbox = Netio.inbox () in
      for cut = 0 to String.length s do
        let writer = send_split fd s cut in
        let got =
          List.init 2 (fun _ ->
              match
                Netio.next_frame inbox ~read:(Netio.read_fd fd)
                  ~decode:Protocol.decode_response
              with
              | Protocol.Frame { id; payload; _ } -> (id, payload)
              | _ -> Alcotest.failf "server reader: no reply at cut %d" cut)
          |> List.sort compare
        in
        Thread.join writer;
        if
          got
          <> [
               (1, Protocol.Value { value = "v:a" });
               (2, Protocol.Value { value = "v:\255b" });
             ]
        then Alcotest.failf "server reader: split at byte %d answered wrong" cut
      done);
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Netio.close_quietly listen) @@ fun () ->
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 1;
  let port =
    match Unix.getsockname listen with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let c = Client.connect ~port () in
  let peer, _ = Unix.accept listen in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      Netio.close_quietly peer)
  @@ fun () ->
  let s = frames Protocol.encode_response responses in
  let want = List.mapi (fun i x -> (i + 1, x)) responses in
  for cut = 0 to String.length s do
    let writer = send_split peer s cut in
    let got = List.map (fun _ -> ok "recv" (Client.recv c)) responses in
    Thread.join writer;
    if got <> want then
      Alcotest.failf "Client.recv: split at byte %d decoded differently" cut
  done

(* 1000 pipelined replies that arrive in one read cost allocation linear in
   the bytes received: each frame is decoded in place, never by copying the
   unread tail. *)
let test_pipelined_replies_allocate_linearly () =
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Netio.close_quietly listen) @@ fun () ->
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 1;
  let port =
    match Unix.getsockname listen with Unix.ADDR_INET (_, p) -> p | _ -> 0
  in
  let c = Client.connect ~port () in
  let peer, _ = Unix.accept listen in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      Netio.close_quietly peer)
  @@ fun () ->
  let n = 1000 in
  let stream =
    String.concat ""
      (List.init n (fun i ->
           Protocol.encode_response ~id:(i + 1)
             (Protocol.Value { value = Printf.sprintf "value-%020d" i })))
  in
  Alcotest.(check bool) "fits one read" true (String.length stream < 65536);
  Netio.write_all peer stream;
  let before = Gc.allocated_bytes () in
  for i = 1 to n do
    match Client.recv c with
    | Ok (id, Protocol.Value _) when id = i -> ()
    | _ -> Alcotest.failf "reply %d lost" i
  done;
  let allocated = Gc.allocated_bytes () -. before in
  let received = float_of_int (String.length stream) in
  if allocated > (8. *. received) +. 65536. then
    Alcotest.failf "%.0f bytes allocated for %.0f received" allocated received

let suite =
  [
    Alcotest.test_case "frames split at every byte decode identically" `Quick
      test_split_at_every_byte;
    Alcotest.test_case "split frames over sockets: server reader, Client.recv"
      `Quick test_split_over_sockets;
    Alcotest.test_case "pipelined replies allocate linearly" `Quick
      test_pipelined_replies_allocate_linearly;
    Alcotest.test_case "round trips for every opcode" `Quick test_roundtrips;
    Alcotest.test_case "pipelining: puts overtake a slow scan" `Quick
      test_pipelining;
    Alcotest.test_case "engine refusals travel typed" `Quick
      test_wire_error_mapping;
    Alcotest.test_case "malformed frame: typed answer, then hangup" `Quick
      test_malformed_frame_hangs_up;
    Alcotest.test_case "negative scan limit: typed answer over the wire" `Quick
      test_negative_scan_limit_over_wire;
    Alcotest.test_case "no acked write lost across a device outage" `Slow
      test_no_acked_write_lost_across_outage;
  ]
