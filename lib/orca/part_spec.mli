(** [PartSelectorSpec] — the compact description of the PartitionSelector
    still to be placed for one unresolved DynamicScan (paper Figures 7/11).
    Always in the multi-level form: one key and one optional predicate per
    partitioning level. *)

open Mpp_expr

type t = {
  part_scan_id : int;
  root_oid : int;
  keys : Colref.t list;  (** partitioning-key colrefs, one per level *)
  predicates : Expr.t option list;  (** per-level partition predicates *)
}

val initial : part_scan_id:int -> root_oid:int -> keys:Colref.t list -> t
(** A fresh spec with no predicates. *)

val add_predicates : t -> Expr.t option list -> t
(** Conjoin newly found per-level predicates with the accumulated ones (the
    [Conj] of Algorithms 3/4). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
