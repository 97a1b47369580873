(** Per-plan-node runtime statistics backing [EXPLAIN ANALYZE] and the
    query profiler.

    Nodes are keyed by pre-order index in the plan tree (root = 0; a node's
    first child is its index + 1).  {!Mpp_exec.Exec} fills the records when
    a collector is attached to the execution context; {!Explain} renders
    them.  Rows and time are additionally sharded per segment:
    [seg_rows] is recorded deterministically on the coordinating domain
    (identical serial vs parallel), [seg_time_s] inside each segment's
    task (distinct slots, no synchronization). *)

type node = {
  mutable invocations : int;
  mutable rows : int;  (** rows emitted, summed over segments *)
  mutable time_s : float;  (** inclusive wall time, seconds *)
  mutable parts_scanned : int;
      (** DynamicScan: distinct leaf partitions actually read *)
  mutable parts_total : int;
  mutable parts_selected : int;
      (** PartitionSelector: distinct leaves pushed to its channel, over
          all segments *)
  mutable tuples_moved : int;  (** Motion: rows crossing the interconnect *)
  seg_rows : int array;  (** rows emitted per segment *)
  seg_time_s : float array;  (** per-segment task wall time, seconds *)
}

type t

val create : ?clock:(unit -> float) -> ?nsegments:int -> unit -> t
(** [clock] defaults to [Unix.gettimeofday]; injectable for tests.
    [nsegments] (default 1) sizes the per-segment arrays of new records;
    the executor overrides it via {!set_nsegments} before recording. *)

val set_nsegments : t -> int -> unit
(** Segment count for subsequently created records (min 1). *)

val nsegments : t -> int

val time : t -> float
(** Read the collector's clock. *)

val node : t -> int -> node
(** Record for pre-order index [id], created on first touch. *)

val find : t -> int -> node option

val total_rows : ?pred:(int -> node -> bool) -> t -> int
(** Sum of emitted rows over the selected nodes (default: all). *)

val clear : t -> unit

(** {1 Per-segment summaries} *)

type seg_summary = { seg_min : int; seg_max : int; seg_mean : float }

val rows_summary : node -> seg_summary
(** Min / max / mean of [seg_rows] across segments. *)

val skew : node -> float
(** Max-over-mean ratio of per-segment rows: 1.0 when balanced (or when
    the node emitted nothing), [nsegments] when all rows land on one
    segment.  Deterministic — computed from [seg_rows]. *)
