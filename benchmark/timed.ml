(* The WipDB engine with a span around every entry point the sharded front
   calls on the request and maintenance paths. Wrapping happens here,
   outside the library, so the untraced run serves the plain engine. *)

module Store = Wipdb.Store
module S = Spans

include (Store : Wip_kv.Store_intf.S with type t = Store.t)

let get t key = S.with_span S.Core_get (fun () -> Store.get t key)

let scan t ~lo ~hi ?limit () =
  S.with_span S.Core_scan (fun () -> Store.scan t ~lo ~hi ?limit ())

let try_write_batch t items =
  S.with_span S.Core_write (fun () -> Store.try_write_batch t items)

let try_write_batches t batches =
  S.with_span S.Core_write (fun () -> Store.try_write_batches t batches)

let log_sync t = S.with_span S.Wal_sync (fun () -> Store.log_sync t)

let flush t = S.with_span S.Core_flush (fun () -> Store.flush t)

let maintenance t ?budget_bytes () =
  S.with_span S.Core_maintenance (fun () -> Store.maintenance t ?budget_bytes ())
