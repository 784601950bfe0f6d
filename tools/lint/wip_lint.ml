(* Wip_check — repo-specific static analysis over the compiler's AST.

   Parses every .ml under lib/, bench/, bin/ and tools/ (no typing: the
   rules are deliberately syntactic so the linter stays fast and
   dependency-free) and enforces the invariants the type system cannot see:

     R1  no polymorphic comparison / equality / hashing on key-ish values —
         encoded keys are plain strings, and the read-path results
         only hold if every comparison on them is bytewise
         (String.compare / Ikey.compare) or otherwise module-qualified;
         bare [compare] is banned outright (it silently pairs with
         Stdlib.compare). Applies everywhere, executables included.
     R2  Block.decode_all is test/tool-only: hot paths use Block.Cursor.
     R3  bare Mutex.* / Condition.* only inside Wip_util.Sync — everything
         else goes through with_lock / with_locks_ordered, which release on
         exception and feed the lock-rank validator.
     R4  Unix.* only under lib/storage (clock/sleep functions allowlisted
         everywhere). lib/server/ — the process boundary — may additionally
         use the socket surface (socket/bind/listen/accept/connect/
         read/write/...): network bytes are not device I/O, so they do not
         belong in the Io_stats write-amplification accounting. Any other
         direct syscall would move bytes that accounting never sees.
         Executables (bin/, tools/) are exempt: they sit outside the
         accounted device boundary by construction.
     R5  no printing to stdout from lib/ (executables obviously print).
     R6  matching Env.Io_fault in a handler is only legal inside
         Wip_util.Retry and lib/storage — everywhere else a swallowed
         fault would skip retry accounting and the Healthy→Degraded
         transition; upper layers catch generically and consult the
         Env.io_fault_detail / io_fault_retryable classifiers.
     R7  Merge.create / Merge.walk only inside lib/sstable — the heap
         merge is the primitive under scans, sorted-view rebuilds and
         compaction ([Range_reader], [Sorted_view.build]/[add_run],
         [Merge.compact]); a fresh heap merge anywhere else in lib/ is a
         read path that silently bypasses the view replay the scan
         acceleration depends on. [Merge.compact] stays legal everywhere
         (engines reach it at their compaction and split sites), and so
         does [Merge.create] applied to a one-element list literal (a
         flush, or a pass over one table): one input merges nothing and
         bypasses no view.

   Lock-discipline rules (R8–R10) run a scoped lexical lock-set analysis:

     The checker tracks which Sync locks are lexically held at every
     expression. Entering the callback of [Sync.with_lock l f] adds the
     lock named by [l] (the last component of the lock expression: [t.lock]
     and [sh.lock] both name "lock"); [Sync.with_locks_ordered] with a
     literal list adds every element, and with a computed list adds the
     wildcard lock "*" (any guard is considered satisfied — the analysis
     cannot name what is held, only that something is). Local wrapper
     functions whose body is [Sync.with_lock <e> f] applied to their last
     parameter (the ubiquitous [let locked t f = Sync.with_lock t.lock f])
     are inferred and treated like with_lock at their call sites. The body
     of a [Sync.await] predicate is modeled as having RELEASED the awaited
     lock: await repeatedly drops and retakes it, so the enclosing critical
     section is not continuous across the wait — sites whose predicate only
     re-reads fresh state suppress with an inline [lint: allow Rn].
     A function called with a lock already held declares it with a
     [requires] comment — (* requires: <lock> *) on the line above its
     [let] — which seeds the lock set for that binding's body.

     R8  guarded-by: a mutable record field (or a field holding a mutable
         container, or a let-bound ref) annotated (* guarded_by: <lock> *)
         may only be read or written while a lock of that name is in the
         lexical lock set. Mutable fields declared in lib/concurrent,
         lib/server, lib/storage, lib/stats — or in any lib/ module that
         uses Sync — MUST carry an annotation; the reserved guards
         [caller] (externally serialized: the owner holds its own lock
         across every call, as the engines are under their shard lock) and
         [none] (deliberately unsynchronized — justify in the comment)
         document fields the lexical analysis cannot check.
     R9  no blocking under a lock: while any lock is lexically held,
         durable Env operations (create_file/append/sync/delete/rename),
         Retry.* re-attempt loops, sleeps (Unix.sleep/sleepf, Thread.delay,
         Unix.fsync) and socket transfers (Netio.write_all / read_fd /
         next_frame) are findings. [Sync.await] while holding any OTHER lock is also a
         finding — await releases only its own lock. Deliberate leaf-lock
         flush sites (the server's one-frame-per-write socket send) carry a
         justified [lint: allow Rn].
     R10 static rank check: where a lock's rank is a literal (directly, via
         a local integer constant, or one of Sync.rank_pool /
         rank_shard_base / rank_leaf; a missing ~rank is rank_leaf),
         acquiring it while a lock of an equal or higher known rank is held
         is a finding — the compile-time face of the runtime
         Order_violation validator.

   Suppressions:
     (* lint: allow Rn — reason *)        covers its own line and the next
     (* lint: allow-fun Rn — reason *)    covers the whole let binding that
                                          starts on this or the next line
                                          (the static analogue of Clang's
                                          NO_THREAD_SAFETY_ANALYSIS)
     (* lint: allow-file Rn — reason *)   covers the whole file
   Every suppression must be used; unused ones are findings themselves, so
   stale allowances cannot accumulate. A guarded_by / requires annotation
   that matches no declaration is likewise a finding (R0): annotations rot
   loudly, not silently.

   Output: findings print as "file:line: [Rn] msg" plus a per-rule hint;
   --format=github emits GitHub workflow commands
   (::error file=F,line=N::[Rn] msg) so CI findings annotate PR diffs.

   Self-test mode (--self-test DIR) runs the rules over fixture files whose
   offending lines carry trailing (* FINDING: Rn *) markers and checks the
   reported (rule, line) set matches the markers exactly, and that every
   [lint: allow] in a fixture is honored (suppresses its finding) and
   counted. *)

let rules : (string * string) list =
  [
    ("R1", "use String.compare / Ikey.compare or a typed module compare \
            (Int.compare, ...) — polymorphic comparison on keys breaks \
            encoded-key ordering invariants");
    ("R2", "Block.decode_all allocates the whole block; hot paths must use \
            Block.Cursor (seek/next)");
    ("R3", "use Wip_util.Sync.with_lock / with_locks_ordered — exception-safe \
            and rank-order validated");
    ("R4", "route device access through Storage.Env so Io_stats accounts \
            every byte (clock functions are allowlisted)");
    ("R5", "lib/ must not write to stdout — return data, or print from \
            bench/bin/tools");
    ("R6", "only Wip_util.Retry and lib/storage may match Env.Io_fault — \
            catch generically and use Env.io_fault_detail / \
            io_fault_retryable so retries and degradation stay accounted");
    ("R7", "Merge.create / Merge.walk outside lib/sstable is a heap \
            merge on the read path — scans go through Range_reader and the \
            sorted-view replay (compaction through Merge.compact)");
    ("R8", "shared mutable state carries (* guarded_by: <lock> *) and is \
            only touched inside Sync.with_lock on that lock (reserved \
            guards: caller, none); functions entered with a lock held \
            declare (* requires: <lock> *)");
    ("R9", "durable I/O, retries and sleeps must not run under a lock — \
            stage under the lock, flush outside it (see the group-commit \
            leader)");
    ("R10", "nested lock acquisitions must strictly ascend in rank — this \
             inversion would raise Order_violation at runtime under \
             WIPDB_LOCK_DEBUG=1");
    ("R0", "suppression / annotation hygiene");
  ]

let hint_of rule = try List.assoc rule rules with Not_found -> ""

(* Lib: library invariants, all rules. Bench: everything except the
   stdout ban. Exe (bin/, tools/): the portable rules only — R1 (poly
   compare), R3 (bare mutexes) and the lock-set analysis; executables may
   print, touch Unix, decode whole blocks and match Io_fault for error
   reporting. *)
type context = Lib | Bench | Exe

type finding = { f_file : string; f_line : int; f_rule : string; f_msg : string }

let findings : finding list ref = ref []

let add_finding ~file ~line ~rule msg =
  findings := { f_file = file; f_line = line; f_rule = rule; f_msg = msg } :: !findings

(* ------------------------------------------------------------------ *)
(* Suppressions *)

type sup_kind = Line | Fun | File

type suppression = {
  s_rule : string;
  s_line : int;
  s_kind : sup_kind;
  (* Fun scope: resolved to the covered line range once binding spans are
     known; [0, -1] (empty) until then. *)
  mutable s_lo : int;
  mutable s_hi : int;
  mutable s_used : int;
}

let suppression_re =
  Str.regexp "lint:[ \t]*\\(allow-file\\|allow-fun\\|allow\\)[ \t]+\\(R[0-9]+\\)"

let scan_suppressions source =
  let sups = ref [] in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun i line ->
      let rec scan pos =
        match Str.search_forward suppression_re line pos with
        | exception Not_found -> ()
        | p ->
          let kind =
            match Str.matched_group 1 line with
            | "allow-file" -> File
            | "allow-fun" -> Fun
            | _ -> Line
          in
          let rule = Str.matched_group 2 line in
          sups :=
            {
              s_rule = rule;
              s_line = i + 1;
              s_kind = kind;
              s_lo = 0;
              s_hi = -1;
              s_used = 0;
            }
            :: !sups;
          scan (p + 1)
      in
      scan 0)
    lines;
  List.rev !sups

let suppressed sups ~rule ~line =
  match
    List.find_opt
      (fun s ->
        String.equal s.s_rule rule
        &&
        match s.s_kind with
        | File -> true
        | Line -> s.s_line = line || s.s_line = line - 1
        | Fun -> line >= s.s_lo && line <= s.s_hi)
      sups
  with
  | Some s ->
    s.s_used <- s.s_used + 1;
    true
  | None -> false

(* ------------------------------------------------------------------ *)
(* Annotations: guarded_by on declarations, requires on bindings. *)

(* The <lock> in a (* guarded_by: <lock> *) comment: a lock field/variable
   name, or the reserved [caller] / [none]. *)
let guarded_re = Str.regexp "guarded_by:[ \t]*\\([A-Za-z_][A-Za-z0-9_']*\\)"

let requires_re =
  Str.regexp "requires:[ \t]*\\([A-Za-z_][A-Za-z0-9_' \t,]*\\)"

type annot = { a_line : int; a_value : string; mutable a_used : bool }

let scan_annots re group_split source =
  let out = ref [] in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun i line ->
      let rec scan pos =
        match Str.search_forward re line pos with
        | exception Not_found -> ()
        | p ->
          let v = Str.matched_group 1 line in
          ignore group_split;
          out := { a_line = i + 1; a_value = v; a_used = false } :: !out;
          scan (p + 1)
      in
      scan 0)
    lines;
  List.rev !out

let split_locks v =
  String.split_on_char ',' v
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

(* ------------------------------------------------------------------ *)
(* AST helpers *)

let flatten lid = Longident.flatten lid

let path_of lid = String.concat "." (flatten lid)

let last_of lid = Longident.last lid

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum

let end_line_of (loc : Location.t) = loc.loc_end.Lexing.pos_lnum

(* Polymorphic comparison primitives (as Lident, or Stdlib-qualified). *)
let poly_ops =
  [ "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "compare"; "min"; "max" ]

let is_poly_prim lid =
  match flatten lid with
  | [ x ] -> List.mem x poly_ops
  | [ "Stdlib"; x ] -> List.mem x poly_ops
  | [ "Hashtbl"; "hash" ] | [ "Stdlib"; "Hashtbl"; "hash" ] -> true
  | _ -> false

(* A name that (syntactically) denotes a key or encoded key. Names that
   contain "key" but measure something about keys (lengths, counts, sizes,
   estimates) are ints and excluded. *)
let name_key_like n =
  let n = String.lowercase_ascii n in
  (contains_sub n "key" || contains_sub n "encoded")
  && not
       (List.exists (contains_sub n)
          [ "len"; "count"; "size"; "space"; "bits"; "bytes"; "expected";
            "codec"; "idx"; "index"; "weight" ])

let rec expr_key_like (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> name_key_like (last_of txt)
  | Pexp_field (_, { txt; _ }) -> name_key_like (last_of txt)
  | Pexp_constraint (e, _) -> expr_key_like e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    (* Results of key encoders are encoded keys whatever they are bound to. *)
    let p = path_of txt in
    contains_sub p "Ikey.encode" || contains_sub p "Ikey.make"
  | _ -> false

(* All value names bound anywhere inside one structure item — coarse scope
   tracking, precise enough to tell a [~compare] parameter from the
   polymorphic [Stdlib.compare]. *)
let bound_names (item : Parsetree.structure_item) =
  let names = Hashtbl.create 16 in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.Parsetree.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
            Hashtbl.replace names txt ()
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
    }
  in
  it.structure_item it item;
  names

(* ------------------------------------------------------------------ *)
(* Per-file collection pass: record labels, lock ranks, wrappers,
   binding spans, integer constants. *)

type label_info = {
  l_name : string;
  l_mutable : bool;
  l_lo : int;
  l_hi : int;
}

type collect = {
  mutable labels : label_info list;
  (* let-bound names with their binding's line span, for attaching
     guarded_by annotations to refs and for allow-fun scoping. *)
  mutable vb_spans : (string option * int * int) list;
  int_consts : (string, int) Hashtbl.t;
  lock_ranks : (string, int) Hashtbl.t;
  rank_ambiguous : (string, unit) Hashtbl.t;
  (* wrapper name -> Some lock name | None (wildcard) *)
  wrappers : (string, string option) Hashtbl.t;
}

let is_sync_fn lid name =
  let comps = flatten lid in
  List.mem "Sync" comps && String.equal (last_of lid) name

let rec lock_name_of (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (last_of txt)
  | Pexp_field (_, { txt; _ }) -> Some (last_of txt)
  | Pexp_constraint (e, _) -> lock_name_of e
  | _ -> None

(* Elements of a literal list expression, or None if computed. *)
let rec list_literal (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt = Lident "[]"; _ }, None) -> Some []
  | Pexp_construct
      ({ txt = Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ })
    -> (
    match list_literal tl with Some rest -> Some (hd :: rest) | None -> None)
  | _ -> None

(* Evaluate a rank expression when it is a compile-time integer: a literal,
   a Sync rank constant (values mirror lib/util/sync.ml), a local integer
   [let], or a sum of those. *)
let rec eval_int c (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer (s, None)) -> int_of_string_opt s
  | Pexp_constraint (e, _) -> eval_int c e
  | Pexp_ident { txt; _ } -> (
    match List.rev (flatten txt) with
    | "rank_pool" :: _ -> Some 100
    | "rank_shard_base" :: _ -> Some 1_000
    | "rank_leaf" :: _ -> Some 1_000_000
    | [ x ] -> Hashtbl.find_opt c.int_consts x
    | _ -> None)
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident "+"; _ }; _ },
        [ (Nolabel, a); (Nolabel, b) ] ) -> (
    match (eval_int c a, eval_int c b) with
    | Some a, Some b -> Some (a + b)
    | _ -> None)
  | _ -> None

(* [Sync.create ?rank ...] — the declared rank, or the default leaf rank. *)
let sync_create_rank c (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
    when is_sync_fn txt "create" ->
    let rank =
      match
        List.find_opt (fun (l, _) -> l = Asttypes.Labelled "rank") args
      with
      | Some (_, re) -> eval_int c re
      | None -> Some 1_000_000
    in
    Some rank
  | _ -> None

let note_lock_rank c name rank =
  if not (Hashtbl.mem c.rank_ambiguous name) then
    match (Hashtbl.find_opt c.lock_ranks name, rank) with
    | None, Some r -> Hashtbl.replace c.lock_ranks name r
    | Some r0, Some r when r0 = r -> ()
    | Some _, _ | None, None ->
      (* Two locks of this name with different (or unknowable) ranks:
         drop to unknown so R10 never guesses. *)
      Hashtbl.remove c.lock_ranks name;
      Hashtbl.replace c.rank_ambiguous name ()

let rec expr_mentions name (e : Parsetree.expression) =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_ident { txt = Lident x; _ } when String.equal x name ->
            found := true
          | _ -> ());
          if not !found then Ast_iterator.default_iterator.expr self e);
    }
  in
  it.expr it e;
  !found

and wrapper_of_binding c (vb : Parsetree.value_binding) =
  (* [let w p1 .. pn = <lets..> Sync.with_lock(_ordered) E CB] where CB
     mentions pn: calls [w a1 .. CB'] enter the lock around CB'. *)
  match vb.pvb_pat.ppat_desc with
  | Ppat_var { txt = wname; _ } ->
    let rec params acc (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_fun (_, _, p, body) ->
        let pname =
          match p.ppat_desc with Ppat_var { txt; _ } -> Some txt | _ -> None
        in
        params (pname :: acc) body
      | Pexp_let (_, _, body) when acc <> [] -> params acc body
      | _ -> (acc, e)
    in
    (match params [] vb.pvb_expr with
    | Some last :: _ :: _, { pexp_desc = Pexp_apply (fn, args); _ } -> (
      let nolabels =
        List.filter_map
          (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
          args
      in
      match (fn.pexp_desc, nolabels) with
      | Pexp_ident { txt; _ }, [ lock_e; cb ]
        when is_sync_fn txt "with_lock" && expr_mentions last cb ->
        Hashtbl.replace c.wrappers wname (lock_name_of lock_e)
      | Pexp_ident { txt; _ }, [ _; cb ]
        when is_sync_fn txt "with_locks_ordered" && expr_mentions last cb ->
        Hashtbl.replace c.wrappers wname None
      | _ -> ())
    | _ -> ())
  | _ -> ()

let collect_file structure =
  let c =
    {
      labels = [];
      vb_spans = [];
      int_consts = Hashtbl.create 8;
      lock_ranks = Hashtbl.create 8;
      rank_ambiguous = Hashtbl.create 4;
      wrappers = Hashtbl.create 8;
    }
  in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun self td ->
          (match td.Parsetree.ptype_kind with
          | Ptype_record labels ->
            List.iter
              (fun (l : Parsetree.label_declaration) ->
                c.labels <-
                  {
                    l_name = l.pld_name.txt;
                    l_mutable = l.pld_mutable = Mutable;
                    l_lo = line_of l.pld_loc;
                    l_hi = end_line_of l.pld_loc;
                  }
                  :: c.labels)
              labels
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration self td);
      value_binding =
        (fun self vb ->
          let name =
            match vb.Parsetree.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } -> Some txt
            | _ -> None
          in
          c.vb_spans <-
            (name, line_of vb.pvb_loc, end_line_of vb.pvb_loc) :: c.vb_spans;
          (match (name, vb.pvb_expr.pexp_desc) with
          | Some n, Pexp_constant (Pconst_integer (s, None)) -> (
            match int_of_string_opt s with
            | Some v -> Hashtbl.replace c.int_consts n v
            | None -> ())
          | _ -> ());
          (match name with
          | Some n -> (
            match sync_create_rank c vb.pvb_expr with
            | Some rank -> note_lock_rank c n rank
            | None -> ())
          | None -> ());
          wrapper_of_binding c vb;
          Ast_iterator.default_iterator.value_binding self vb);
      expr =
        (fun self e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_record (fields, _) ->
            List.iter
              (fun ((lid : Longident.t Location.loc), fe) ->
                match sync_create_rank c fe with
                | Some rank -> note_lock_rank c (last_of lid.txt) rank
                | None -> ())
              fields
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  List.iter (fun item -> it.structure_item it item) structure;
  c.labels <- List.rev c.labels;
  c.vb_spans <- List.rev c.vb_spans;
  c

(* ------------------------------------------------------------------ *)
(* Guard table: attach guarded_by annotations to declarations. An
   annotation attaches to the record label or let binding whose source span
   contains its line, or that starts on the following line. *)

let reserved_guard = function "caller" | "none" -> true | _ -> false

let build_guards ~file c annots =
  let guards : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let unchecked : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let target =
        match
          List.find_opt
            (fun l -> a.a_line >= l.l_lo && a.a_line <= l.l_hi)
            c.labels
        with
        | Some l -> Some l.l_name
        | None -> (
          match
            List.find_opt (fun l -> l.l_lo = a.a_line + 1) c.labels
          with
          | Some l -> Some l.l_name
          | None -> (
            (* A let-bound ref (or other shared binding): the innermost
               binding whose first line carries / follows the comment. *)
            match
              List.find_opt
                (fun (n, lo, _) ->
                  Option.is_some n && (lo = a.a_line || lo = a.a_line + 1))
                c.vb_spans
            with
            | Some (n, _, _) -> n
            | None -> None))
      in
      match target with
      | Some name ->
        a.a_used <- true;
        if reserved_guard a.a_value then Hashtbl.replace unchecked name ()
        else Hashtbl.replace guards name a.a_value
      | None ->
        add_finding ~file ~line:a.a_line ~rule:"R0"
          "guarded_by annotation matches no record field or let binding")
    annots;
  (guards, unchecked)

(* ------------------------------------------------------------------ *)
(* Rule machinery *)

let unix_allowlist =
  [ "gettimeofday"; "time"; "localtime"; "gmtime"; "sleep"; "sleepf";
    "Unix_error" ]

(* The socket surface lib/server/ may touch on top of [unix_allowlist].
   Deliberately no file-I/O entries (openfile, read on paths, rename, ...):
   the service layer talks to the network and reaches the device only
   through the engine, so Storage.Env stays the single device boundary. *)
let unix_server_allowlist =
  [ "socket"; "bind"; "listen"; "accept"; "connect"; "close"; "shutdown";
    "read"; "write"; "setsockopt"; "getsockname"; "inet_addr_of_string";
    "inet_addr_loopback"; "ADDR_INET"; "PF_INET"; "SOCK_STREAM";
    "SO_REUSEADDR"; "TCP_NODELAY"; "SHUTDOWN_ALL"; "ECONNRESET"; "EPIPE";
    "EBADF"; "EINTR"; "EAGAIN"; "EWOULDBLOCK" ]

let stdout_printers =
  [ "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes" ]

(* R9: operations that block, retry or touch the device — forbidden while
   any lock is lexically held. *)
let blocking_ref lid =
  let comps = flatten lid in
  let last = last_of lid in
  if List.mem "Retry" comps then Some "Retry re-attempt loop"
  else if
    List.mem "Unix" comps && List.mem last [ "sleep"; "sleepf"; "fsync" ]
  then Some "sleep / fsync"
  else if List.mem "Thread" comps && String.equal last "delay" then
    Some "sleep"
  else if
    List.mem "Netio" comps
    && List.mem last [ "write_all"; "read_fd"; "next_frame" ]
  then Some "socket transfer"
  else if
    List.mem "Env" comps
    && List.mem last [ "create_file"; "append"; "sync"; "delete"; "rename" ]
  then Some "durable Env operation"
  else None

type lint_env = {
  le_ctx : context;
  le_file : string;
  le_in_storage : bool;
  le_in_server : bool;
  le_in_sstable : bool;
  le_in_retry : bool;
  le_collect : collect;
  le_guards : (string, string) Hashtbl.t;
  le_requires : annot list;
  (* Lexically held locks, innermost first: (name, known rank). The
     wildcard "*" (computed with_locks_ordered list, unnamed wrapper lock)
     satisfies any guard and counts as held for R9. *)
  mutable le_locks : (string * int option) list;
}

let lock_held env name =
  List.exists (fun (n, _) -> String.equal n name || String.equal n "*")
    env.le_locks

let rank_of env name =
  if String.equal name "*" then None
  else Hashtbl.find_opt env.le_collect.lock_ranks name

(* Push one lock, checking R10 against every held lock of known rank. *)
let push_lock env ~line name =
  let rank = rank_of env name in
  (match rank with
  | Some r ->
    List.iter
      (fun (held_name, held_rank) ->
        match held_rank with
        | Some hr when r <= hr ->
          add_finding ~file:env.le_file ~line ~rule:"R10"
            (Printf.sprintf
               "acquiring %s (rank %d) while holding %s (rank %d): ranks \
                must strictly ascend"
               name r held_name hr)
        | _ -> ())
      env.le_locks
  | None -> ());
  env.le_locks <- (name, rank) :: env.le_locks

let pop_locks env n =
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  env.le_locks <- drop n env.le_locks

(* Remove the innermost lock of [name] (for the Sync.await predicate). *)
let remove_lock env name =
  let rec go = function
    | [] -> []
    | (n, _) :: rest when String.equal n name -> rest
    | l :: rest -> l :: go rest
  in
  let before = env.le_locks in
  env.le_locks <- go env.le_locks;
  before

let guard_check env ~line ~write name =
  match Hashtbl.find_opt env.le_guards name with
  | Some lock when not (lock_held env lock) ->
    add_finding ~file:env.le_file ~line ~rule:"R8"
      (Printf.sprintf "%s of '%s' (guarded_by %s) without holding %s"
         (if write then "write" else "read")
         name lock lock)
  | _ -> ()

let check_expr env ~bound (e : Parsetree.expression) =
  let ctx = env.le_ctx in
  let file = env.le_file in
  let line = line_of e.pexp_loc in
  let ident_checks lid =
    let comps = flatten lid in
    let last = last_of lid in
    (* R2: Block.decode_all outside test/ and tools. *)
    if ctx <> Exe && String.equal last "decode_all" then
      add_finding ~file ~line ~rule:"R2"
        (Printf.sprintf "reference to %s decodes a whole block" (path_of lid));
    (* R3: bare Mutex/Condition outside Wip_util.Sync. *)
    if List.exists (fun c -> c = "Mutex" || c = "Condition") comps then
      add_finding ~file ~line ~rule:"R3"
        (Printf.sprintf "bare %s leaks the lock if the critical section \
                         raises" (path_of lid));
    (* R4: Unix outside lib/storage — clock functions excepted, the socket
       surface additionally excepted under lib/server/, executables exempt. *)
    if ctx <> Exe && (not env.le_in_storage) && List.mem "Unix" comps
       && (not (List.mem last unix_allowlist))
       && not (env.le_in_server && List.mem last unix_server_allowlist)
    then
      add_finding ~file ~line ~rule:"R4"
        (Printf.sprintf "direct %s bypasses Storage.Env byte accounting"
           (path_of lid));
    (* R5: stdout printing in lib/. *)
    if ctx = Lib then begin
      let is_printer =
        match comps with
        | [ x ] | [ "Stdlib"; x ] -> List.mem x stdout_printers
        | [ "Printf"; "printf" ] | [ "Stdlib"; "Printf"; "printf" ] -> true
        | [ "Format"; "printf" ] | [ "Format"; "print_string" ]
        | [ "Format"; "print_newline" ] ->
          true
        | _ -> false
      in
      if is_printer then
        add_finding ~file ~line ~rule:"R5"
          (Printf.sprintf "%s writes to stdout from lib/" (path_of lid))
    end;
    (* R7: heap merges outside lib/sstable. Only [create]/[walk] —
       [compact] is the sanctioned engine entry point, and a one-element
       [create] never reaches here (see [one_input_merge]). *)
    if
      ctx = Lib && (not env.le_in_sstable)
      && List.mem "Merge" comps
      && (String.equal last "create" || String.equal last "walk")
    then
      add_finding ~file ~line ~rule:"R7"
        (Printf.sprintf "%s heap-merges outside lib/sstable, bypassing the \
                         sorted-view replay" (path_of lid));
    (* R9: blocking / durable work while a lock is held. Retry.* inside
       Wip_util.Retry itself is the implementation, not a call site. *)
    if env.le_locks <> [] && not env.le_in_retry then begin
      match blocking_ref lid with
      | Some what ->
        let held_name, _ = List.hd env.le_locks in
        add_finding ~file ~line ~rule:"R9"
          (Printf.sprintf "%s (%s) while holding lock '%s'" (path_of lid)
             what held_name)
      | None -> ()
    end;
    (* R1 (part): bare [compare] that is not a local binding. *)
    match comps with
    | [ "compare" ] when not (Hashtbl.mem bound "compare") ->
      add_finding ~file ~line ~rule:"R1"
        "bare [compare] is polymorphic Stdlib.compare"
    | _ -> ()
  in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> ident_checks txt
  | Pexp_construct ({ txt; _ }, _)
    when ctx <> Exe
         && List.mem "Unix" (flatten txt)
         && (not env.le_in_storage)
         && (not (List.mem (last_of txt) unix_allowlist))
         && not (env.le_in_server && List.mem (last_of txt) unix_server_allowlist)
    ->
    add_finding ~file ~line ~rule:"R4"
      (Printf.sprintf "direct %s bypasses Storage.Env byte accounting"
         (path_of txt))
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
    when is_poly_prim txt
         && (match flatten txt with
            | [ x ] -> not (Hashtbl.mem bound x)
            | _ -> true)
         && List.exists (fun (_, a) -> expr_key_like a) args ->
    add_finding ~file ~line ~rule:"R1"
      (Printf.sprintf "polymorphic %s applied to a key value" (path_of txt))
  | Pexp_field (_, { txt; _ }) ->
    guard_check env ~line ~write:false (last_of txt)
  | Pexp_setfield (_, { txt; _ }, _) ->
    guard_check env ~line ~write:true (last_of txt)
  | _ -> ()

(* R6: a pattern naming the Io_fault constructor — in a [try] handler, a
   [match ... with exception ...] case, or any other match position — binds
   the fault where only the retry/degradation machinery may. Construction
   ([raise (Env.Io_fault ...)]) is expression syntax and stays legal. *)
let check_pat env (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _)
    when env.le_ctx <> Exe
         && String.equal (last_of txt) "Io_fault"
         && not (env.le_in_storage || env.le_in_retry) ->
    let line = line_of p.ppat_loc in
    add_finding ~file:env.le_file ~line ~rule:"R6"
      (Printf.sprintf
         "handler matches %s outside Wip_util.Retry / lib/storage"
         (path_of txt))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The scoped traversal: walks each structure item maintaining the lexical
   lock set across Sync.with_lock / with_locks_ordered / await / inferred
   wrappers, and seeding it from [requires] annotations at bindings. *)

(* [Merge.create [x]]: a merge of one input, which R7 accepts. *)
let one_input_merge (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply
      ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (Asttypes.Nolabel, arg) ])
    -> (
    List.mem "Merge" (flatten txt)
    && String.equal (last_of txt) "create"
    && match list_literal arg with Some [ _ ] -> true | _ -> false)
  | _ -> false

let nolabel_args args =
  List.filter_map
    (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
    args

let labelled_args args =
  List.filter_map
    (fun (l, a) -> if l <> Asttypes.Nolabel then Some a else None)
    args

let lint_structure env ~bound_of structure =
  let bound = ref (Hashtbl.create 0) in
  let visit_ref_access (e : Parsetree.expression)
      (args : (Asttypes.arg_label * Parsetree.expression) list) op =
    match nolabel_args args with
    | { Parsetree.pexp_desc = Pexp_ident { txt = Lident r; _ }; _ } :: _
      when Hashtbl.mem env.le_guards r ->
      guard_check env ~line:(line_of e.pexp_loc) ~write:(op = ":=") r
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          match e.Parsetree.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
            when is_sync_fn txt "with_lock"
                 && List.length (nolabel_args args) >= 2 -> (
            match nolabel_args args with
            | lock_e :: cbs ->
              self.expr self lock_e;
              List.iter (self.expr self) (labelled_args args);
              let name =
                Option.value (lock_name_of lock_e) ~default:"*"
              in
              push_lock env ~line:(line_of e.pexp_loc) name;
              Fun.protect
                ~finally:(fun () -> pop_locks env 1)
                (fun () -> List.iter (self.expr self) cbs)
            | [] -> ())
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
            when is_sync_fn txt "with_locks_ordered"
                 && List.length (nolabel_args args) >= 2 -> (
            match nolabel_args args with
            | locks_e :: cbs ->
              self.expr self locks_e;
              List.iter (self.expr self) (labelled_args args);
              let names =
                match list_literal locks_e with
                | Some els ->
                  List.map
                    (fun el -> Option.value (lock_name_of el) ~default:"*")
                    els
                | None -> [ "*" ]
              in
              List.iter
                (fun n -> push_lock env ~line:(line_of e.pexp_loc) n)
                names;
              Fun.protect
                ~finally:(fun () -> pop_locks env (List.length names))
                (fun () -> List.iter (self.expr self) cbs)
            | [] -> ())
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
            when is_sync_fn txt "await"
                 && List.length (nolabel_args args) >= 2 -> (
            match nolabel_args args with
            | lock_e :: rest ->
              let pred = List.nth rest (List.length rest - 1) in
              let others = List.filteri (fun i _ -> i < List.length rest - 1) rest in
              self.expr self lock_e;
              List.iter (self.expr self) (labelled_args args);
              List.iter (self.expr self) others;
              let name =
                Option.value (lock_name_of lock_e) ~default:"*"
              in
              (* Await sleeps while holding everything EXCEPT its own
                 lock: any other held lock is blocked for the whole
                 bounded wait. *)
              if
                List.exists
                  (fun (n, _) -> not (String.equal n name))
                  env.le_locks
              then
                add_finding ~file:env.le_file ~line:(line_of e.pexp_loc)
                  ~rule:"R9"
                  (Printf.sprintf
                     "Sync.await releases only '%s' — it sleeps while the \
                      other held locks stay blocked"
                     name);
              (* The awaited lock is dropped and retaken around every
                 predicate call: model the body as outside the lock. *)
              let saved = remove_lock env name in
              Fun.protect
                ~finally:(fun () -> env.le_locks <- saved)
                (fun () -> self.expr self pred)
            | [] -> ())
          | Pexp_apply
              ({ pexp_desc = Pexp_ident { txt = Lident w; _ }; _ }, args)
            when Hashtbl.mem env.le_collect.wrappers w
                 && List.length (nolabel_args args) >= 2 -> (
            match List.rev (nolabel_args args) with
            | cb :: rev_rest ->
              List.iter (self.expr self) (List.rev rev_rest);
              List.iter (self.expr self) (labelled_args args);
              let name =
                match Hashtbl.find env.le_collect.wrappers w with
                | Some n -> n
                | None -> "*"
              in
              push_lock env ~line:(line_of e.pexp_loc) name;
              Fun.protect
                ~finally:(fun () -> pop_locks env 1)
                (fun () -> self.expr self cb)
            | [] -> ())
          | Pexp_apply (_, [ (Asttypes.Nolabel, arg) ])
            when one_input_merge e ->
            (* R7 accepts a one-input merge: only its argument is
               checked. *)
            self.expr self arg
          | Pexp_apply
              ( ({ pexp_desc = Pexp_ident { txt = Lident (("!" | ":=") as op); _ };
                   _ } as fn),
                args ) ->
            visit_ref_access e args op;
            check_expr env ~bound:!bound e;
            self.expr self fn;
            List.iter (fun (_, a) -> self.expr self a) args
          | _ ->
            check_expr env ~bound:!bound e;
            Ast_iterator.default_iterator.expr self e);
      pat =
        (fun self p ->
          check_pat env p;
          Ast_iterator.default_iterator.pat self p);
      value_binding =
        (fun self vb ->
          let vb_line = line_of vb.Parsetree.pvb_loc in
          let seeds =
            List.concat_map
              (fun a ->
                if a.a_line = vb_line || a.a_line = vb_line - 1 then begin
                  a.a_used <- true;
                  split_locks a.a_value
                end
                else [])
              env.le_requires
          in
          List.iter
            (fun n ->
              env.le_locks <- (n, rank_of env n) :: env.le_locks)
            seeds;
          Fun.protect
            ~finally:(fun () -> pop_locks env (List.length seeds))
            (fun () ->
              Ast_iterator.default_iterator.value_binding self vb));
    }
  in
  List.iter
    (fun item ->
      bound := bound_of item;
      it.structure_item it item)
    structure

(* ------------------------------------------------------------------ *)
(* Driver *)

let parse_file file =
  let ic = open_in_bin file in
  let source = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  (source, Parse.implementation lexbuf)

let required_annotation_dirs =
  [ "lib/concurrent/"; "lib/server/"; "lib/storage/"; "lib/stats/" ]

let context_of file =
  (* Fixtures mirror the repo layout under tools/lint/fixtures/: classify
     them by their path inside the fixture tree, not the tree's location. *)
  let file =
    match Str.search_forward (Str.regexp_string "fixtures/") file 0 with
    | i ->
      let j = i + String.length "fixtures/" in
      String.sub file j (String.length file - j)
    | exception Not_found -> file
  in
  let has d = contains_sub file d in
  if has "bench/" || has "bench\\" then Bench
  else if has "bin/" || has "bin\\" || has "tools/" || has "tools\\" then Exe
  else Lib

(* Resolve allow-fun suppressions to the span of the binding they head:
   the innermost binding whose first line is the comment's own or next
   line, else the innermost binding containing the comment. *)
let resolve_fun_sups sups vb_spans =
  List.iter
    (fun s ->
      if s.s_kind = Fun then begin
        let starts_here =
          List.filter (fun (_, lo, _) -> lo = s.s_line || lo = s.s_line + 1)
            vb_spans
        in
        let containing =
          List.filter (fun (_, lo, hi) -> lo <= s.s_line && s.s_line <= hi)
            vb_spans
        in
        let innermost = function
          | [] -> None
          | l ->
            Some
              (List.fold_left
                 (fun (bn, blo, bhi) (n, lo, hi) ->
                   if hi - lo < bhi - blo then (n, lo, hi) else (bn, blo, bhi))
                 (List.hd l) (List.tl l))
        in
        match innermost (if starts_here <> [] then starts_here else containing) with
        | Some (_, lo, hi) ->
          s.s_lo <- lo;
          s.s_hi <- hi
        | None -> ()
      end)
    sups

let lint_file ~report file =
  let ctx = context_of file in
  let in_storage = contains_sub file "lib/storage/" in
  let env_of collect guards requires =
    {
      le_ctx = ctx;
      le_file = file;
      le_in_storage = in_storage;
      le_in_server = contains_sub file "lib/server/";
      le_in_sstable = contains_sub file "lib/sstable/";
      le_in_retry = contains_sub file "util/retry.ml";
      le_collect = collect;
      le_guards = guards;
      le_requires = requires;
      le_locks = [];
    }
  in
  match parse_file file with
  | exception e ->
    add_finding ~file ~line:1 ~rule:"R0"
      (Printf.sprintf "parse error: %s" (Printexc.to_string e));
    report [] 0
  | source, structure ->
    let sups = scan_suppressions source in
    let before = !findings in
    findings := [];
    let collect = collect_file structure in
    resolve_fun_sups sups collect.vb_spans;
    let guard_annots = scan_annots guarded_re false source in
    let requires = scan_annots requires_re true source in
    let guards, unchecked = build_guards ~file collect guard_annots in
    (* R8 missing-annotation: mutable fields in the shared-state layers
       (or any lib module using Sync) must be annotated. *)
    let uses_sync =
      contains_sub source "Sync.with_lock"
      || contains_sub source "Sync.with_locks_ordered"
      || contains_sub source "Sync.create"
    in
    if
      ctx = Lib
      && (uses_sync
         || List.exists (contains_sub file) required_annotation_dirs)
    then
      List.iter
        (fun l ->
          if
            l.l_mutable
            && (not (Hashtbl.mem guards l.l_name))
            && not (Hashtbl.mem unchecked l.l_name)
          then
            add_finding ~file ~line:l.l_lo ~rule:"R8"
              (Printf.sprintf
                 "mutable field '%s' needs a guarded_by annotation \
                  (a lock name, or caller / none with a rationale)"
                 l.l_name))
        collect.labels;
    let env = env_of collect guards requires in
    lint_structure env ~bound_of:bound_names structure;
    (* Requires annotations that attached to no binding are rot. *)
    List.iter
      (fun a ->
        if not a.a_used then
          add_finding ~file ~line:a.a_line ~rule:"R0"
            "requires annotation heads no let binding")
      requires;
    (* One line can trip the same rule several times (e.g. two Unix idents
       in one call); report it once. *)
    let raw =
      List.sort_uniq
        (fun a b ->
          match Int.compare a.f_line b.f_line with
          | 0 -> String.compare a.f_rule b.f_rule
          | c -> c)
        (List.rev !findings)
    in
    let kept =
      List.filter
        (fun f -> not (suppressed sups ~rule:f.f_rule ~line:f.f_line))
        raw
    in
    let used = List.fold_left (fun acc s -> acc + min 1 s.s_used) 0 sups in
    let unused =
      List.filter_map
        (fun s ->
          if s.s_used = 0 then
            Some
              {
                f_file = file;
                f_line = s.s_line;
                f_rule = "R0";
                f_msg =
                  Printf.sprintf "unused suppression for %s — delete it"
                    s.s_rule;
              }
          else None)
        sups
    in
    findings := before;
    report (kept @ unused) used

let rec ml_files_under path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun entry ->
           if
             String.length entry > 0
             && (entry.[0] = '.' || entry.[0] = '_' || entry = "fixtures")
           then []
           else ml_files_under (Filename.concat path entry))
  else if Filename.check_suffix path ".ml" then [ path ]
  else []

let github_format = ref false

let print_finding f =
  if !github_format then
    (* GitHub workflow command on stdout: annotates the PR diff at the
       offending line. *)
    Printf.printf "::error file=%s,line=%d::[%s] %s\n" f.f_file f.f_line
      f.f_rule f.f_msg
  else begin
    Printf.eprintf "%s:%d: [%s] %s\n" f.f_file f.f_line f.f_rule f.f_msg;
    let hint = hint_of f.f_rule in
    if hint <> "" && f.f_rule <> "R0" then Printf.eprintf "  hint: %s\n" hint
  end

let run_lint paths =
  let files = List.concat_map ml_files_under paths in
  let total = ref 0 and sups_used = ref 0 in
  List.iter
    (fun file ->
      lint_file file ~report:(fun fs used ->
          List.iter print_finding fs;
          total := !total + List.length fs;
          sups_used := !sups_used + used))
    files;
  Printf.eprintf "wip_lint: %d file(s), %d finding(s), %d suppression(s) used\n"
    (List.length files) !total !sups_used;
  if !total > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Fixture self-test *)

let marker_re = Str.regexp "FINDING:[ \t]*\\(R[0-9]+\\)"

let expected_findings source =
  let out = ref [] in
  List.iteri
    (fun i line ->
      match Str.search_forward marker_re line 0 with
      | exception Not_found -> ()
      | _ -> out := (Str.matched_group 1 line, i + 1) :: !out)
    (String.split_on_char '\n' source);
  List.rev !out

let run_self_test dir =
  let files = ml_files_under dir in
  let failures = ref 0 in
  List.iter
    (fun file ->
      let ic = open_in_bin file in
      let source = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let expected = expected_findings source in
      (* Expected used-suppression count: every allow comment, unless the
         fixture deliberately contains unused ones and says so with a
         USED-ALLOWS: n marker. *)
      let allow_count =
        match
          Str.search_forward (Str.regexp "USED-ALLOWS:[ \t]*\\([0-9]+\\)")
            source 0
        with
        | _ -> int_of_string (Str.matched_group 1 source)
        | exception Not_found -> List.length (scan_suppressions source)
      in
      lint_file file ~report:(fun fs used ->
          let actual = List.map (fun f -> (f.f_rule, f.f_line)) fs in
          let sort =
            List.sort (fun (r1, l1) (r2, l2) ->
                match String.compare r1 r2 with
                | 0 -> Int.compare l1 l2
                | c -> c)
          in
          let rec same a b =
            match (a, b) with
            | [], [] -> true
            | (r1, l1) :: a, (r2, l2) :: b ->
              String.equal r1 r2 && l1 = l2 && same a b
            | _ -> false
          in
          let ok_findings = same (sort actual) (sort expected) in
          let ok_sups = used = allow_count in
          if ok_findings && ok_sups then
            Printf.printf "PASS %s (%d finding(s), %d suppression(s))\n" file
              (List.length expected) used
          else begin
            incr failures;
            Printf.printf "FAIL %s\n" file;
            if not ok_findings then begin
              Printf.printf "  expected: %s\n"
                (String.concat ", "
                   (List.map (fun (r, l) -> Printf.sprintf "%s@%d" r l)
                      (sort expected)));
              Printf.printf "  actual:   %s\n"
                (String.concat ", "
                   (List.map (fun (r, l) -> Printf.sprintf "%s@%d" r l)
                      (sort actual)))
            end;
            if not ok_sups then
              Printf.printf "  suppressions: expected %d used, got %d\n"
                allow_count used
          end))
    files;
  if files = [] then begin
    Printf.printf "no fixtures under %s\n" dir;
    exit 1
  end;
  if !failures > 0 then exit 1

let () =
  let args =
    List.filter
      (fun a ->
        match a with
        | "--format=github" ->
          github_format := true;
          false
        | "--format=human" ->
          github_format := false;
          false
        | _ -> true)
      (List.tl (Array.to_list Sys.argv))
  in
  match args with
  | "--self-test" :: dir :: _ -> run_self_test dir
  | "--root" :: root :: paths ->
    run_lint (List.map (Filename.concat root) paths)
  | [] -> run_lint [ "lib"; "bench"; "bin"; "tools" ]
  | paths -> run_lint paths
