(** Equi-depth histograms over {!Mpp_expr.Value.t}: closed-open buckets
    (last closed) with row and distinct-value counts, driving the
    selectivity estimates of {!Selectivity}. *)

open Mpp_expr

type bucket = {
  lo : Value.t;
  hi : Value.t;
  rows : int;
  ndv : int;
  hi_inclusive : bool;
}

type t = { buckets : bucket array; null_rows : int; total_rows : int }

val empty : t

val of_array : ?nbuckets:int -> null_rows:int -> Value.t array -> t
(** Equi-depth histogram with at most [nbuckets] buckets (default 32) over
    a column's non-NULL values, in input order, plus [null_rows] NULLs;
    equal values never straddle a bucket boundary.  All-[Int] and
    all-[Date] arrays are radix-sorted by key; any other is stable-sorted
    in place with {!Value.compare}.  Of values that compare equal but
    differ ([Int 1], [Float 1.0]) the first in input order sorts first, and
    every bucket bound is an element of the array, not a copy. *)

val build : ?nbuckets:int -> Value.t list -> t
(** {!of_array} over the list's non-NULL values, counting its NULLs. *)

val ndv : t -> int
val min_value : t -> Value.t option
val max_value : t -> Value.t option

val selectivity : t -> Interval.Set.t -> float
(** Estimated fraction of non-null rows inside the set, in [\[0, 1\]];
    linear interpolation within numeric/date buckets, frequency (1/ndv) for
    point hits. *)

val pp : Format.formatter -> t -> unit
