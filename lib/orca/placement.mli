(** PartitionSelector placement — the paper's Algorithms 1–4 (§2.3) with the
    multi-level extension of §2.4.

    Input: a physical tree containing DynamicScans but no selectors.
    Output: the same tree with every selector placed —

    - Filter predicates on the partitioning key fold into the spec on the
      way down (Algorithm 3), including a scan's own residual qual;
    - a join whose predicate constrains the key of a scan in its right
      (inner) child pushes the spec into its left (outer) child: dynamic
      partition elimination (Algorithm 4);
    - other operators forward specs toward the defining child or enforce
      them on top when the scan is out of scope (Algorithm 2);
    - a spec reaching its own DynamicScan becomes a leaf selector ordered by
      a [Sequence] (Figure 5(a–c)). *)

module Plan = Mpp_plan.Plan

val join_dpe :
  probe:Plan.t ->
  part_scan_id:int ->
  keys:Mpp_expr.Colref.t list ->
  build_rels:int list ->
  Mpp_expr.Expr.t ->
  Mpp_expr.Expr.t option list option
(** The one home of the join-DPE rule: can join predicate [pred] drive
    dynamic partition elimination of the probe-side DynamicScan
    [part_scan_id] (partitioning keys [keys]) from a selector above a build
    side that outputs [build_rels]?  [Some found] — the per-level
    predicates of {!Mpp_expr.Expr.find_preds_on_keys} — when [pred]
    constrains some key, every other column those predicates read comes
    from [build_rels], and no Motion lies between [probe] (the join's
    probe child) and the scan.  [None] otherwise.  Placement's Algorithm 4
    and the memo's DPE costing both call it. *)

val place_part_selectors :
  ?eliminate:bool -> Part_spec.t list -> Plan.t -> Plan.t
(** Algorithm 1 ([PlacePartSelectors]) over explicit input specs. *)

val initial_specs :
  catalog:Mpp_catalog.Catalog.t -> Plan.t -> Part_spec.t list
(** One fresh spec per unresolved DynamicScan in the tree. *)

val place : ?eliminate:bool -> catalog:Mpp_catalog.Catalog.t -> Plan.t -> Plan.t
(** End-to-end pass.  [eliminate:false] places only Φ selectors (no
    partition elimination — the Figure-17 ablation). *)
