(** Execution metrics: the deterministic work counters behind the paper's
    evaluation (partitions scanned per table for Figure 16; tuple and Motion
    volumes backing Figure 17 and Table 2).  A table's scanned partitions
    are one {!Mpp_catalog.Bitset} over its leaf positions (one bit when
    unpartitioned). *)

type t = {
  mutable tuples_scanned : int;
      (** rows read from heaps, summed over segments *)
  mutable tuples_moved : int;  (** rows crossing a Motion *)
  mutable partition_opens : int;  (** heap opens, summed over segments *)
  parts_scanned : (int, Mpp_catalog.Bitset.t) Hashtbl.t;
      (** root table OID → leaf positions scanned *)
  mutable rows_updated : int;
  mutable rows_deleted : int;
  mutable filter_built : int;
      (** runtime join filters built (one per builder per segment with a
          non-empty build side) *)
  mutable rows_filtered_scan : int;
      (** probe rows dropped by a runtime filter fused into a scan *)
  mutable rows_filtered_motion : int;
      (** probe rows dropped by a runtime filter below a Motion send *)
  mutable motion_rows_saved : int;
      (** Motion sends avoided by pre-Motion filtering (a Broadcast row
          counts [nsegments] sends) *)
}

val create : unit -> t
val record_scan : t -> root_oid:int -> Mpp_catalog.Bitset.t -> rows:int -> unit
(** One scan on one segment opened the heaps of leaf positions [parts] of
    [root_oid] and read [rows] rows; [parts] is not aliased. *)

val record_motion : t -> rows:int -> unit

val parts_scanned_of : t -> root_oid:int -> int
(** Distinct partitions of this table actually scanned. *)

val total_parts_scanned : t -> int

val merge : t -> t -> t
(** Fresh record combining two runs: scalar counters sum; the per-root
    partition sets union. *)

val merge_all : t array -> t
(** Merge per-segment shards into one fresh record — how the executor folds
    its sharded hot-path counters into the per-query total. *)

val scanned_leaves : t -> root_oid:int -> int list
(** Leaf positions of this table actually scanned, ascending. *)

val roots_scanned : t -> int list
(** Root OIDs with at least one partition scanned, ascending. *)

val to_json : t -> Mpp_obs.Json.t

val pp : Format.formatter -> t -> unit
(** All counters, including [rows_updated] / [rows_deleted]. *)
