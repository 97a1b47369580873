(** The Orca-style optimizer pipeline: logical tree → join-order search →
    physical skeleton (scans, filters, aggregates and DML planned here;
    every tree of joins planned by the {!Memo}, whose costs value dynamic
    partition elimination and whose Motions never separate a selector from
    its scan) → the {!Placement} pass of paper §2.3 → the plan verifier
    ({!Mpp_verify.Verify.assert_valid}, all six passes). *)

module Plan = Mpp_plan.Plan

type config = {
  enable_partition_selection : bool;
      (** master switch for the Figure-17 ablation: when off, only Φ
          selectors are placed and every partition is scanned *)
  enable_partition_wise_join : bool;
      (** ablation of the related-work alternative (paper §5): expand a
          key-to-key join of identically partitioned, co-located tables into
          an Append of per-partition joins — re-coupling plan size to the
          partition count *)
  opt_domains : int;
      (** ignored: the optimizer's search is serial.  Kept only because the
          frozen serving benchmark (perfbench) still sets it; to be deleted
          with the next change to that benchmark *)
  simplify : bool;
      (** abstract-interpretation pass over the placed plan
          ({!Mpp_analysis.Analysis.simplify_plan}): drop always-true
          conjuncts, collapse always-false filters to the statically-empty
          shape, and (when partition selection is on) strengthen selectors
          with partition-key restrictions implied across equi-join
          equivalence classes *)
  nsegments : int;
}

val default_config : config

type t

val create :
  ?config:config ->
  ?stats:Mpp_stats.Stats_source.t ->
  catalog:Mpp_catalog.Catalog.t ->
  unit ->
  t

val optimize : t -> Logical.t -> Plan.t
(** Optimize into an executable physical plan, verified once on the way
    out: raises {!Mpp_verify.Verify.Rejected} if the result fails any
    verifier pass (a bug, not an input error). *)

val row_estimator : t -> Logical.t -> Plan.t -> float
(** [row_estimator t lg] is {!Memo.estimator} over [lg]'s base tables:
    apply it to each node of the finished physical plan (e.g. via
    {!Mpp_plan.Est.of_plan}) to stamp plan-time cardinality estimates.
    Call at plan time, while any injected misestimates are still
    active. *)
