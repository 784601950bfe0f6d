(* Small shared socket I/O helpers: full-frame writes and buffered frame
   reads. Kept in one spot so the rest of the subsystem speaks in whole
   frames. *)

(* Write the whole string, looping over short writes. Raises Unix_error
   (EPIPE, ECONNRESET, ...) when the peer is gone; callers treat that as a
   dead connection. *)
let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then begin
      let w = Unix.write fd b off (n - off) in
      go (off + w)
    end
  in
  go 0

(* One read; 0 on EOF or a dead socket. A connection closed under a
   blocked read surfaces as EBADF — the server's shutdown path. *)
let read_fd fd buf off len =
  try Unix.read fd buf off len
  with Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) -> 0

(* A stream's unread input: bytes [start, stop) of [buf], read by its one
   owner (a client handle or a connection's reader thread). Frames decode
   in place by offset; the unread tail moves to the front only when more
   input is needed, and the buffer doubles only when one frame outgrows
   it: cost linear in the bytes received. *)
type inbox = {
  mutable buf : Bytes.t; (* guarded_by: caller *)
  mutable start : int; (* guarded_by: caller *)
  mutable stop : int; (* guarded_by: caller *)
}

let inbox () = { buf = Bytes.create 65536; start = 0; stop = 0 }

(* The next frame of the stream, reading more through [read] (same contract
   as {!read_fd}) while it is incomplete; [Need_more] once the input ends
   before a whole frame. *)
let rec next_frame inbox ~read
    ~(decode : ?stop:int -> string -> pos:int -> 'a Protocol.decoded) =
  match
    decode ~stop:inbox.stop (Bytes.unsafe_to_string inbox.buf) ~pos:inbox.start
  with
  | Protocol.Frame { next; _ } as frame ->
    inbox.start <- next;
    frame
  | Protocol.Fail _ as fail -> fail
  | Protocol.Need_more ->
    let unread = inbox.stop - inbox.start in
    let buf =
      if unread = Bytes.length inbox.buf then Bytes.create (2 * unread)
      else inbox.buf
    in
    if inbox.start > 0 || buf != inbox.buf then begin
      Bytes.blit inbox.buf inbox.start buf 0 unread;
      inbox.buf <- buf;
      inbox.start <- 0;
      inbox.stop <- unread
    end;
    let n = read buf unread (Bytes.length buf - unread) in
    if n = 0 then Protocol.Need_more
    else begin
      inbox.stop <- unread + n;
      next_frame inbox ~read ~decode
    end

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Wake any thread blocked in [accept] or [read] on [fd]: on Linux a plain
   [close] does NOT interrupt a blocked syscall on the same descriptor, a
   [shutdown] does (accept fails, read returns EOF). *)
let shutdown_quietly fd =
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

(* In-process servers must see EPIPE as an exception, not die on SIGPIPE
   when a peer disappears mid-write. Idempotent; a no-op off Unix. *)
let () =
  match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ()
