(** SQL values and their types — the common currency of the system: tuples
    are [Value.t array]s, partition bounds are [Value.t]s, the evaluator
    produces [Value.t]s.  [Null] is explicit and comparison helpers follow
    SQL's three-valued semantics. *)

type datatype = Tbool | Tint | Tfloat | Tstring | Tdate

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of Date.t

val datatype_of : t -> datatype option
(** [None] for [Null]. *)

val datatype_to_string : datatype -> string

val comparable : datatype -> datatype -> bool
(** Whether SQL comparisons between the two types are well-typed: both
    numeric ([Tint]/[Tfloat]), or the same type. *)

val date_of_string : string -> t
(** [Date] value from ["YYYY-MM-DD"]. *)

val compare : t -> t -> int
(** Structural total order for sorting and data structures: [Null] first,
    then by type rank; ints and floats compare numerically across types. *)

val equal : t -> t -> bool
(** [compare a b = 0]: [Int 1] equals [Float 1.0]. *)

val sql_compare : t -> t -> int option
(** SQL comparison: [None] (unknown) when either side is [Null]. *)

val is_null : t -> bool

val has_null : t array -> bool
(** Whether any component is [Null]; allocates nothing. *)

val to_bool : t -> bool option
(** [None] for [Null]; raises [Invalid_argument] on non-booleans. *)

val to_float : t -> float
(** Numeric coercion; raises [Invalid_argument] on non-numerics. *)

val to_int : t -> int

val hash : t -> int
(** The placement hash behind hash distribution and Redistribute Motions.
    Consistent with {!equal} for same-type values only; row placement
    depends on it, so it is frozen.  Hash tables use {!key_hash}. *)

val mix : int -> int
(** A 64-bit (splitmix64-style) finalizer onto non-negative ints. *)

val key_hash : t -> int
(** The hash for hash tables and Bloom filters, consistent with {!equal}
    for every pair of values (an integral [Float] hashes as the [Int] it
    equals) — except ints beyond 2{^53}, which a float cannot represent
    exactly.  Non-negative; built from {!mix} for scalars. *)

val tuple_hash : t array -> int
(** Hash of a key tuple: the {!key_hash}es folded through {!mix}.  Equal
    (under {!equal}, position by position) tuples hash equally. *)

val tuple_hash1 : t -> int
(** [tuple_hash1 v = tuple_hash [| v |]], without the array. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed on one value under {!equal} and {!key_hash}: SQL
    [=], so [Int 1] and [Float 1.0] are one key. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val serialized_size : t -> int
(** Bytes this value occupies in a serialized plan or tuple; drives the
    plan-size model of paper §4.4. *)
