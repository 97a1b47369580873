(** Data-distribution policies of an MPP table (paper §3.1).  Distribution
    is orthogonal to partitioning: a table is spread across segments, and
    each segment's slice may additionally be partitioned. *)

type t =
  | Hashed of int list
      (** hash-distributed on the given column indices: tuples live on
          segment [hash(cols) mod nsegments] *)
  | Replicated  (** a full copy on every segment *)
  | Random  (** round-robin; no co-location guarantees *)
  | Singleton  (** the whole table on one host *)

val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val hash_values : Mpp_expr.Value.t list -> int
(** The cluster-wide hash shared by hashed storage and Redistribute Motions,
    so equal keys always land on the same segment. *)

val segment_for_values : nsegments:int -> Mpp_expr.Value.t list -> int

val segment_for_row :
  nsegments:int -> Mpp_expr.Value.t array -> int array -> int
(** [segment_for_row ~nsegments row offs] =
    [segment_for_values ~nsegments] of [row]'s values at [offs], in order,
    without building the list. *)

val segment_of :
  nsegments:int -> t -> Mpp_expr.Value.t array -> rowno:int -> int option
(** Segment assignment of a tuple under this policy; [None] means "every
    segment" (replicated).  [rowno] drives the round-robin of [Random]. *)
