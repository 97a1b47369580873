(** Where a physical operator's output rows live, and the one home of the
    join co-location rule.

    The memo plans joins with it (which build-side Motion, if any, a join
    needs) and the verifier's distribution pass checks every emitted join
    against it, so the optimizer cannot believe a join co-located that the
    verifier would reject, or the other way round. *)

open Mpp_expr

type t =
  | Dsingleton  (** all rows on one host *)
  | Dreplicated  (** a full copy on every segment *)
  | Dhashed of Colref.t list
      (** hash-distributed on these columns, in hash order *)
  | Dany
      (** distributed with unknown alignment (random tables, projected or
          partially aggregated streams).  As a requirement: none. *)

val of_table : Mpp_catalog.Table.t -> rel:int -> t
(** A stored table's distribution, as range-table index [rel]. *)

val satisfies : required:t -> t -> bool
(** Does a stream delivered as the second argument meet [required]?
    [Dany] is met by anything; hashed requirements need the same columns
    in the same order. *)

val equi_pairs :
  build_rels:int list -> probe_rels:int list -> Expr.t -> (Expr.t * Expr.t) list
(** The (build expression, probe expression) pairs of the equality
    conjuncts of a join predicate that compare one side with the other. *)

val colocated : (Expr.t * Expr.t) list -> build:t -> probe:t -> bool
(** Can a join with these equi-pairs run where its inputs already are?
    Yes when either side is replicated, both are singleton, or both are
    hashed on lists of the same length whose columns pair up position by
    position: the [i]th build hash column is equi-paired with the [i]th
    probe hash column.  Sharing a column set is not enough — [a = x AND
    b = y] over sides hashed on [(a)] and [(y)] is not co-located. *)

val redistribute_keys : (Expr.t * Expr.t) list -> probe:t -> Colref.t list option
(** Columns to redistribute the build side on so that it co-locates with a
    hashed probe side: the build partners of the probe's hash columns, in
    the probe's order.  [None] when the probe is not hashed or one of its
    hash columns has no build column paired with it (broadcast instead). *)

val join : build:t -> probe:t -> t
(** A join's output distribution: its rows live where its distributed
    side lives. *)
