(** Fixed-width bitsets over leaf-partition indices.

    The partition-selection index ({!Partition.Index}) computes per-level
    survivor sets as bitsets and intersects them across levels — compact
    word-parallel set algebra instead of filtering leaf lists.  A bitset is
    created with a fixed [length]; bits at or beyond [length] are always
    clear (operations maintain the invariant, so {!cardinal} / {!is_empty} /
    {!equal} never see ghost bits). *)

type t

val create : int -> t
(** [create n]: length-[n] bitset, all bits clear. *)

val full : int -> t
(** [full n]: length-[n] bitset, bits [0..n-1] set. *)

val length : t -> int

val set : t -> int -> unit
(** Set bit [i]; raises [Invalid_argument] when out of range. *)

val mem : t -> int -> bool

val union_into : into:t -> t -> unit
(** [union_into ~into s]: [into := into ∪ s].  Lengths must match. *)

val inter_into : into:t -> t -> unit
(** [into := into ∩ s].  Lengths must match. *)

val set_list : t -> int list -> unit
(** Set every index of the list. *)

val set_array : t -> int array -> unit

val clear : t -> unit
(** Clear every bit, keeping the length. *)

val is_empty : t -> bool
val cardinal : t -> int

val fold_right_set : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over set bits in descending order — builds ascending lists without
    a reversal. *)

val first_set : t -> int option
val to_list : t -> int list
val copy : t -> t
val equal : t -> t -> bool
