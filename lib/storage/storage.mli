(** The storage layer of the simulated MPP cluster.

    Tuples live in per-(segment, physical-table) heaps.  For a partitioned
    table the physical tables are its leaf partitions — separate tables with
    their own OIDs (paper §3.2) — so "scan partition [p] on segment [s]" is
    one heap lookup.  The distribution policy picks the segment; [f_T] picks
    the leaf.  Tuples mapped to the invalid partition ⊥ are rejected.
    Every write goes through {!load}; heaps are read-only once written. *)

open Mpp_expr

type tuple = Value.t array

exception No_partition_for_tuple of { table : string; tuple : tuple }

type t

val create : nsegments:int -> t
val nsegments : t -> int

val physical_oid : Mpp_catalog.Table.t -> tuple -> int
(** Leaf partition (via [f_T]) for partitioned tables, the table itself
    otherwise.  Raises {!No_partition_for_tuple} on ⊥. *)

val load : t -> Mpp_catalog.Table.t -> tuple list -> unit
(** The one write path.  Routes the whole batch first (distribution policy,
    [f_T], round-robin row numbers in batch order), so an arity mismatch
    ([Invalid_argument]) or a tuple on ⊥ ({!No_partition_for_tuple}) raises
    with storage unchanged.  Then appends each heap's rows, heap by heap, as
    fresh arrays: a heap's new rows lie together in scan order, and equal
    [Int], [Date], [String] and [Bool] values of the batch are one physical
    value.  A replicated table's rows are copied once, for every segment.
    The caller's arrays are not kept. *)

val insert : t -> Mpp_catalog.Table.t -> tuple -> unit
(** A one-row {!load}. *)

val scan_vec : t -> segment:int -> oid:int -> tuple Vec.t
(** The live heap vector, zero-copy — the executor's hot path.  Must be
    treated as read-only by the caller; DML replaces whole heaps rather than
    mutating them, so aliased scan results stay valid.  Empty if none. *)

val count_segment : t -> segment:int -> oid:int -> int

val count : t -> oid:int -> int
(** Across all segments; counts each copy of replicated tables. *)

val count_table : t -> Mpp_catalog.Table.t -> int
(** Across segments and (for partitioned tables) all leaves. *)

val replace_heap : t -> segment:int -> oid:int -> tuple list -> unit
(** Swap in a new heap, storing the given rows as they are — DELETE's
    primitive, so a DELETE's surviving rows stay where they were. *)
