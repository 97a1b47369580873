(** A compact Cascades-style Memo: the production join planner, with the
    partition property of paper §3.1 in its cost model.

    {!Optimizer} hands every tree of joins to {!plan}: non-join children
    are leaf groups holding finished subplans, joins are groups carrying
    their kind.  Requests pair a required distribution with the DML target
    that must stay on an unmoved probe side.  The probe side never moves;
    the build side stays (when {!Mpp_plan.Dist.colocated}), is
    redistributed to the probe's hash, or is broadcast, whichever costs
    least — Motion is the distribution enforcer.  A join's cost discounts
    each probe-side DynamicScan it can select ({!Placement.join_dpe}: such
    a scan is pinned, no Motion between it and the probe); {!Placement}
    writes the selectors afterwards.  {!best_plan} and {!plan_space}
    reproduce the paper's Figure 13/14 example. *)

module Plan = Mpp_plan.Plan

(** {1 Cost model} *)

val cost_motion_tuple : float
val cost_hash_build : float

type env = {
  catalog : Mpp_catalog.Catalog.t;
  stats : Mpp_stats.Stats_source.t option;
  nsegments : int;
  rel_tables : (int * Mpp_catalog.Table.t) list;
      (** the query's base tables, by range-table index *)
}

val stats_of : env -> Mpp_catalog.Table.t -> Mpp_stats.Stats.table_stats

val key_ndv : env -> Mpp_expr.Expr.t -> int
(** Distinct values of a column (1000 for other expressions). *)

val selectivity_for : env -> Mpp_expr.Expr.t -> float
(** Selectivity of a predicate from per-relation statistics. *)

(** {1 Row estimates} *)

val rows_of : env -> Plan.t -> float list -> float
(** The one row-count rule: a node's estimated rows, given its children's
    in {!Plan.children} order.  Every annotated subplan's [rows] is this
    rule over its plan; a [Filter] is its child's rows times the
    predicate's {!selectivity_for}, and a leaf partition's scan reads its
    share of the root table (rowcount ÷ nparts). *)

val estimator : env -> Plan.t -> float
(** [estimator env] is {!rows_of} folded over a plan, memoized by physical
    node identity: asked for every node of a plan (or of plans sharing
    subtrees), it evaluates the rule once per node. *)

(** {1 Annotated subplans} *)

type dyn_scan_info = {
  ds_part_scan_id : int;
  ds_root_oid : int;
  ds_keys : Mpp_expr.Colref.t list;
  ds_nparts : int;  (** partitions surviving static selection *)
  ds_rows : float;  (** estimated rows this scan feeds upward *)
}

type annotated = {
  plan : Plan.t;
  rows : float;  (** {!rows_of} folded over [plan] *)
  dist : Mpp_plan.Dist.t;
  cost : float;
  dyn_scans : dyn_scan_info list;  (** DynamicScans visible for DPE *)
}

val plan_get :
  env -> scan_id:(unit -> int) -> rel:int -> string -> annotated
(** Scan of a base table; [scan_id] numbers a DynamicScan. *)

val plan_select : env -> Mpp_expr.Expr.t -> annotated -> annotated
(** Filter, pushed into a bare scan, refining each visible DynamicScan's
    partition count by static selection. *)

(** {1 Join planning} *)

type tree =
  | Leaf of annotated
  | Join of {
      kind : Plan.join_kind;
      pred : Mpp_expr.Expr.t;
      left : tree;
      right : tree;
    }

val plan : env -> pinned_rel:int option -> tree -> annotated option
(** The cheapest plan of a join tree, with the DML target [pinned_rel] on
    an unmoved probe side; [None] when no orientation allows that. *)

val best_plan :
  ?stats:Mpp_stats.Stats_source.t ->
  ?nsegments:int ->
  catalog:Mpp_catalog.Catalog.t ->
  Logical.t ->
  (Plan.t * float) option
(** Best plan of a Get / Select(Get) / Join tree, selectors placed by
    {!Placement}, and its cost. *)

val plan_space :
  ?stats:Mpp_stats.Stats_source.t ->
  ?nsegments:int ->
  ?limit:int ->
  catalog:Mpp_catalog.Catalog.t ->
  Logical.t ->
  Plan.t list
(** Up to [limit] distinct alternatives, selectors placed (paper Figure
    14). *)
