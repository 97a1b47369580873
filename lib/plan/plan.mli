(** The physical plan algebra — the operator vocabulary of paper §2.2
    embedded in a conventional MPP executor algebra.

    - [Dynamic_scan] (consumer) scans exactly the partitions whose OIDs were
      pushed to its [part_scan_id] channel;
    - [Partition_selector] (producer) evaluates its per-level predicates —
      statically, or per input tuple for join-induced dynamic elimination —
      and pushes the selected OIDs;
    - [Sequence] runs children left to right, returning the last child's
      rows (orders a leaf selector before its scan);
    - [Motion] is the distribution enforcer and the process boundary of
      §3.1: a selector/scan pair must not be separated by one;
    - [Append] is the legacy Planner's explicit per-partition expansion.

    Join convention (the paper's "implicit execution order of join children,
    left to right"): a join's {e left} child executes first — the build side
    of a hash join — so a PartitionSelector on the left can feed a
    DynamicScan on the right. *)

open Mpp_expr

type oid = Mpp_catalog.Partition.oid

type motion_kind =
  | Gather  (** collect all rows on a single host *)
  | Gather_one
      (** read a single copy of already-replicated data on the master —
          gathering replicated data with a plain Gather would duplicate it *)
  | Broadcast  (** replicate rows to every segment *)
  | Redistribute of Colref.t list  (** re-hash rows on the given columns *)

type join_kind = Inner | Left_outer | Semi

type agg_fun =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t

type t =
  | Table_scan of {
      rel : int;
      table_oid : oid;
      filter : Expr.t option;
      guard : int option;
          (** the legacy Planner's parameter-driven dynamic elimination: the
              scan is skipped at run time unless its OID was pushed to this
              part-scan channel; the partition still appears in the plan
              (paper §4.4.2) *)
    }
  | Dynamic_scan of {
      rel : int;
      part_scan_id : int;
      root_oid : oid;
      filter : Expr.t option;
      ds_nparts : int;
          (** number of leaf partitions the optimizer expects this scan to
              open (after static pruning); [-1] = unknown / not accounted *)
    }
  | Partition_selector of {
      part_scan_id : int;
      root_oid : oid;
      keys : Colref.t list;  (** partitioning-key colrefs, one per level *)
      predicates : Expr.t option list;  (** per-level selection predicates *)
      child : t option;  (** [None]: leaf selector (no input rows) *)
    }
  | Sequence of t list
  | Filter of { pred : Expr.t; child : t }
  | Project of { exprs : (string * Expr.t) list; child : t }
  | Hash_join of { kind : join_kind; pred : Expr.t; left : t; right : t }
      (** [left] = build side, executed first *)
  | Nl_join of { kind : join_kind; pred : Expr.t; left : t; right : t }
  | Agg of {
      group_by : Expr.t list;
      aggs : (string * agg_fun) list;
      child : t;
      output_rel : int;
          (** synthetic range-table index of the output tuple (group keys
              then aggregate values); [-1] when consumed only positionally *)
    }
  | Sort of { keys : Expr.t list; child : t }
  | Limit of { rows : int; child : t }
  | Motion of { kind : motion_kind; child : t }
  | Append of t list
  | Update of {
      rel : int;  (** range-table index of the target *)
      table_oid : oid;  (** root OID of the target table *)
      set_exprs : (int * Expr.t) list;  (** (column index, new value) *)
      child : t;
    }
  | Delete of { rel : int; table_oid : oid; child : t }
  | Insert of { table_oid : oid; rows : Expr.t list list }
      (** INSERT … VALUES: row expressions evaluated at run time (they may
          reference parameters) and routed through distribution and f_T *)
  | Runtime_filter_build of {
      rf_id : int;
      keys : Colref.t list;
          (** build-side join-key colrefs, in join-key order *)
      rows_est : int;
          (** optimizer cardinality estimate of the build side — the only
              input to Bloom sizing, so per-segment filters merge *)
      child : t;
    }
      (** producer of a runtime join filter: pass-through on the build
          (left) subtree of a hash join; publishes a per-segment
          Bloom + min-max filter over its rows' key tuples on channel
          [rf_id].  Placed below the build side's Motion so the filter
          crosses the Motion boundary through the channel, not the data
          path. *)
  | Runtime_filter of {
      rf_id : int;
      keys : Colref.t list;
          (** probe-side join-key colrefs, positionally matching the
              builder's [keys] *)
      at_motion : bool;
          (** directly below a Redistribute/Broadcast send: rows dropped
              here never pay Motion cost *)
      child : t;
    }
      (** consumer: on the probe (right) subtree of the same join, drops
          rows whose key tuple fails the merged filter; semantically a
          no-op (no false negatives, NULL keys cannot join) *)

(** {2 Smart constructors} *)

val table_scan : ?filter:Expr.t -> ?guard:int -> rel:int -> oid -> t
val dynamic_scan :
  ?filter:Expr.t -> ?nparts:int -> rel:int -> part_scan_id:int -> oid -> t
(** [nparts] defaults to [-1] (unknown). *)

val partition_selector :
  ?child:t ->
  part_scan_id:int ->
  root_oid:oid ->
  keys:Colref.t list ->
  predicates:Expr.t option list ->
  unit ->
  t

val filter : Expr.t -> t -> t
val hash_join : kind:join_kind -> pred:Expr.t -> t -> t -> t
val nl_join : kind:join_kind -> pred:Expr.t -> t -> t -> t
val motion : motion_kind -> t -> t

val agg :
  ?output_rel:int -> group_by:Expr.t list -> aggs:(string * agg_fun) list ->
  t -> t

val runtime_filter_build :
  rf_id:int -> keys:Colref.t list -> rows_est:int -> t -> t

val runtime_filter :
  ?at_motion:bool -> rf_id:int -> keys:Colref.t list -> t -> t
(** [at_motion] defaults to [false]. *)

(** {2 Traversal} *)

val children : t -> t list

val with_children : t -> t list -> t
(** Rebuild a node with new children (same arity as {!children} returned);
    raises [Invalid_argument] on arity mismatch. *)

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Pre-order over the whole tree. *)

val output_rels : t -> int list
(** Range-table indices whose columns appear in this subtree's output
    tuples; computed outputs (Project, anonymous Agg) hide what is below. *)

val node_count : t -> int

val dynamic_scan_ids : t -> int list
(** [part_scan_id]s of all DynamicScans (guarded Table_scans count — they
    consume the same channel). *)

val selector_ids : t -> int list

val has_part_scan_id : t -> int -> bool
(** The paper's [Operator::HasPartScanId]. *)

(** {2 Printing} *)

val join_kind_to_string : join_kind -> string
val motion_kind_to_string : motion_kind -> string
val agg_fun_to_string : agg_fun -> string

val name : t -> string
(** The root operator's name, e.g. ["DynamicScan"]: the node segments of
    the verifier's and the linter's plan paths. *)

val describe : t -> string
(** One line for the root operator. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
