(** A compact Cascades-style Memo with the property-enforcement framework of
    paper §3.1.

    Optimization requests pair a distribution requirement with the list of
    {!Part_spec}s the subtree must resolve (partition propagation as a
    physical property).  [PartitionSelector] enforces the partition
    property, [Motion] enforces distribution, and the enforcement-order
    rules keep every selector/scan pair within one process: a Motion may
    only be applied when all pending specs' scans are inside the subtree,
    and a scan whose selector resolves remotely is {e pinned} — no Motion
    may move it.  Reproduces the paper's Figure 13/14 example.

    Scope: [Get] / [Select(Get)] / inner-[Join] trees (the shapes of §3.1);
    {!Optimizer} is the production path for full queries. *)

module Plan = Mpp_plan.Plan

type dist_req =
  | Any
  | Req_hashed of Mpp_expr.Colref.t list
  | Req_replicated
  | Req_singleton

type request = {
  dist : dist_req;
  parts : Part_spec.t list;
  pinned : int list;
      (** part-scan ids whose PartitionSelector is being resolved *above*
          this subtree: the scan below must not cross a Motion *)
}

val request_to_string : request -> string

val best_plan :
  ?stats:Mpp_stats.Stats_source.t ->
  ?nsegments:int ->
  catalog:Mpp_catalog.Catalog.t ->
  Logical.t ->
  (Plan.t * float) option
(** Cheapest valid plan and its cost for the initial request
    ({Any, one spec per partitioned base table} — the paper's req. #1);
    [None] when no plan satisfies it. *)

val plan_space :
  ?stats:Mpp_stats.Stats_source.t ->
  ?nsegments:int ->
  ?limit:int ->
  catalog:Mpp_catalog.Catalog.t ->
  Logical.t ->
  Plan.t list
(** Up to [limit] distinct valid alternatives (paper Figure 14). *)
