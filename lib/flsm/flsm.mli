(** Fragmented LSM-tree — the PebblesDB-like baseline (paper §II-B).

    Each level below 0 is partitioned by {e guards}: probabilistically
    selected user keys. The span between two adjacent guards holds a set of
    possibly overlapping sstable fragments. Compacting a guard merges its
    fragments and partitions the output by the {e next} level's guards,
    appending fragments there without rewriting next-level data (tiering) —
    so a single compaction's write amplification is ≈ 1.

    Guards are picked by hashing every inserted key: a key becomes a guard
    for level [i] when its hash has at least [guard_bits i] trailing zero
    bits; [guard_bits] decreases with depth, so deeper levels get
    exponentially more guards and a guard at level [i] is also a guard at
    every deeper level (the paper's invariant). Committing a new guard to a
    level must split fragments that span it — rewrites charged as [Split]
    I/O, the cost the paper identifies as PebblesDB's weakness. *)

type config = {
  memtable_bytes : int;
  max_files_per_guard : int;  (** compaction trigger per guard span *)
  top_level_bits : int;
      (** trailing-zero bits required for a guard at level 1 — the knob the
          paper tuned from 27 to 31 to keep guard count manageable *)
  bits_decrement : int;  (** per-level decrease of the requirement *)
  max_levels : int;
  bits_per_key : int;
  sorted_view : bool;
      (** maintain a store-wide REMIX-style sorted view so scans replay one
          frozen merge instead of heap-merging every fragment (default
          true) *)
  sorted_view_min_runs : int;
      (** fragment count below which scans just heap-merge (default 2) *)
  ph_index : bool;
      (** emit a perfect-hash point-index block in every fragment (default
          true); see {!Wip_sstable.Table} *)
  name : string;
}

val default_config : scale:int -> config

type t

include Wip_kv.Store_intf.Engine with type t := t and type config := config

val guard_count : t -> level:int -> int

val level_count : t -> int
