(** The legacy Planner's expansion of a partitioned table (paper §4,
    PostgreSQL inheritance): an [Append] of one leaf [Table_scan] per
    partition that survives constraint exclusion, every scan under the same
    range-table index, filter and guard.

    This module is the one home of that shape.  The Planner builds it
    ({!to_plan}) and prunes it ({!exclude}); the simplifier, the
    runtime-filter annotation and the verifier recognize it in a plan
    ({!of_append}), and the linter skips its dead leaves ({!dead}). *)

open Mpp_expr

type t = {
  rel : int;  (** range-table index of every leaf scan *)
  table : Mpp_catalog.Table.t;  (** the partitioned root table *)
  part : Mpp_catalog.Partition.t;  (** [table]'s partitioning *)
  leaves : Mpp_catalog.Partition.leaf list;
      (** the live leaves, in child order; [[]] is the statically empty
          expansion *)
  filter : Expr.t option;  (** shared by every live leaf scan *)
  guard : int option;
      (** shared by every leaf scan: the part-scan channel of the Planner's
          dynamic elimination *)
}

val keys : t -> Colref.t list
(** The partitioning-key colrefs under [rel], one per level. *)

val to_plan : t -> Plan.t
(** The Append of one [Table_scan] per leaf, all sharing one physical
    filter.  With no leaf left it scans the table's first leaf under a
    literal-false filter instead: an empty Append has no output layout, so
    a parent referencing the table's columns could not compile, while this
    shape has the same empty result, the table's layout, and reads
    nothing. *)

val dead : Plan.t -> bool
(** A [Table_scan] under a literal-false filter: it reads nothing. *)

val of_append : Mpp_catalog.Catalog.t -> Plan.t -> t option
(** Recognize the shape: an [Append] whose children are all [Table_scan]s
    of leaves of one partitioned table under one [rel] and one guard, the
    live (not {!dead}) ones sharing one filter, physically or structurally.
    The leaves come from the plan alone, in child order and duplicates
    included, so a check of the result checks what the Planner wrote.
    [None] for any other node. *)

val select : t -> Expr.t -> Mpp_catalog.Bitset.t option
(** Static selection by a predicate over every leaf of [part]
    ({!Mpp_catalog.Partition.select_static} with the predicate on each
    level's key): the survivors as a bitset over leaf positions, [None]
    when the predicate restricts no level. *)

val exclude : t -> Expr.t -> t
(** Constraint exclusion: keep the leaves {!select} keeps. *)
