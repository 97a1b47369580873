(** Partitioning metadata: the logical model of paper §2.1 plus the
    multi-level extension of §2.4.

    A partitioned table has a list of {e levels} (key column + scheme) and
    {e leaf} partitions, each a separate physical table (own OID) carrying
    one constraint per level in the §3.2 normal form — an interval set — or
    [Default], the catch-all for values (including NULL) no sibling accepts.

    This module implements the paper's two functions:
    - [f_T] — {!route}: key values → leaf (or ⊥);
    - [f*_T] — {!select_oids} over per-level restrictions, {!select_static}
      over a selector's per-level predicates: the leaves that can hold
      satisfying tuples (an over-approximation, never dropping a qualifying
      leaf).

    Both are served by the table's selection {!Index}.  The layout
    constructors below are the only way to make a [t], and each builds the
    index and the per-level envelope with the record; nothing writes them
    afterwards, so any domain may read them without coordination.  The
    index holds sorted boundary arrays (binary-searched interval →
    leaf-set lookup) per range level, a value → leaf-set hash per
    categorical level, precomputed per-(level, prefix) covered sets for
    O(1) default-arm checks, and an OID hash for leaf lookup; per-level
    survivor sets are intersected as {!Bitset}s.  The pre-index linear
    implementations remain as [*_legacy] oracles. *)

open Mpp_expr

type oid = int
type scheme = Range | Categorical

type level = { key_index : int; key_name : string; scheme : scheme }

type constr =
  | Cset of Interval.Set.t
      (** the values this partition accepts at this level *)
  | Default  (** everything the siblings reject, and NULLs *)

type leaf = {
  leaf_oid : oid;
  leaf_name : string;
  bounds : constr array;  (** one constraint per level, root to leaf *)
}

type index
(** The per-table selection index: the [index] field of {!t}. *)

type t = private {
  levels : level array;
  leaves : leaf array;
  index : index;  (** built with the record by the layout constructors *)
  envelope : Interval.Set.t array;
      (** per level, the values some leaf accepts: the union of the leaves'
          [Cset]s, or full when any leaf is [Default] at that level *)
}

val nlevels : t -> int
val nparts : t -> int
val leaf_oids : t -> oid list

val find_leaf : t -> oid -> leaf option
(** OID → leaf via the index's hash table. *)

val route : t -> Value.t array -> leaf option
(** [f_T]: the leaf that must store a tuple with these key values (one per
    level); [None] is the invalid partition ⊥.  Indexed: O(log P) binary
    search (or O(1) hash for categorical levels) per level. *)

val select_oids : t -> Interval.Set.t option array -> oid list
(** [f*_T]: OIDs of the leaves that may hold satisfying tuples under the
    given per-level restrictions ([None] = no predicate on that level).
    Sound by construction, indexed, and equal to {!select_oids_legacy}. *)

val select_static :
  t -> keys:Colref.t list -> Expr.t option list -> Bitset.t option
(** [f*_T] over a selector's static predicates, one per level, each
    analysed against that level's key column ({!Expr.restriction}; an
    unanalysable predicate restricts nothing).  The survivors as a bitset
    over leaf positions, as {!Index.select_bits}.  [None] when no level is
    restricted (every leaf survives) or when [keys] or the predicates do not
    have one entry per level, so a malformed selector never raises. *)

val mem_oid : t -> Bitset.t -> oid -> bool
(** Whether leaf [oid]'s position is set in a bitset over leaf positions
    ([false] for an OID that is not a leaf of [t]). *)

val route_legacy : t -> Value.t array -> leaf option
(** The pre-index O(P·levels) implementation — the executable oracle the
    property tests and [bench part-select] compare the index against. *)

val select_legacy : t -> Interval.Set.t option array -> leaf list
(** The pre-index implementation scanning every leaf (with an O(P) sibling
    rescan per default-arm check) — the selection oracle. *)

val select_oids_legacy : t -> Interval.Set.t option array -> oid list

(** The partition-selection index of one table (paper §5's plan-scalability
    concern, applied to selection itself): built once with the metadata
    record, and consulted by {!route} / {!select} / {!find_leaf} and by the
    executor, storage router and optimizer. *)
module Index : sig
  type partitioning := t
  type t = index

  val build : partitioning -> t
  (** A fresh copy of the table's index (benchmarks use this to time
      construction); every other caller reads [partitioning.index]. *)

  val nparts : t -> int
  val find_leaf : t -> oid -> leaf option
  val position : t -> oid -> int option
  (** A leaf OID's index in [partitioning.leaves], as in {!select_bits}. *)

  val route : t -> Value.t array -> leaf option

  val select_bits : t -> Interval.Set.t option array -> Bitset.t
  (** Survivors as a bitset over leaf positions (indices into
      [partitioning.leaves]) — the executor's one partition-set currency.
      Leaf OIDs ascend with position in every layout built here. *)

  val add_point : t -> level:int -> Value.t -> Bitset.t -> unit
  (** [add_point ix ~level v into] ORs into [into] the leaves that the point
      restriction [{v}] selects at [level] — exactly [select_bits]'s
      survivors of that one level under [Some (Interval.Set.point v)] — for
      a non-NULL [v], without building a restriction or allocating: the
      region members from one binary search (or the categorical hash), plus
      each default class whose covered set does not hold [v].  The
      streaming selector's equality fast path (paper Figure 15(a)), and the
      non-NULL arm of {!route}. *)
end

(** {2 Constructors for common layouts} *)

val single_level :
  alloc_oid:(unit -> oid) ->
  key_index:int ->
  key_name:string ->
  scheme:scheme ->
  table_name:string ->
  constr list ->
  t

val monthly_ranges : start_year:int -> start_month:int -> months:int -> constr list
(** Monthly range partitions — the chronological layout of paper Figure 1. *)

val int_ranges : start:int -> width:int -> count:int -> constr list

val categorical : Value.t list list -> constr list
(** One categorical partition per value list. *)

val two_level :
  alloc_oid:(unit -> oid) ->
  table_name:string ->
  level1:level ->
  constrs1:constr list ->
  level2:level ->
  constrs2:constr list ->
  t
(** Cross product of two levels (the orders-by-date-and-region layout of
    paper Figure 9). *)

val multi_level :
  alloc_oid:(unit -> oid) ->
  table_name:string ->
  (level * constr list) list ->
  t
(** Arbitrary-depth hierarchy as the cross product of per-level constraint
    lists. *)

val pp_constr : Format.formatter -> constr -> unit
val pp : Format.formatter -> t -> unit
