(** The legacy "Planner" baseline — the comparison system of the paper's
    evaluation (§4), faithful to the documented pre-Orca Greenplum planner:

    - partitioned tables expand into an [Append] of per-leaf scans, so plan
      size grows with the partition count;
    - static elimination is constraint exclusion at plan time;
    - dynamic elimination is rudimentary: only a direct equality join
      against the level-0 key of a plain expansion, realized as a run-time
      parameter (a selector feeding the leaf scans' [guard]s) while the plan
      still lists every surviving leaf (§4.4.2);
    - join orientation is as written; DML expands the join per target leaf
      that survives constraint exclusion by the target's own predicate,
      making DML plans quadratic in the partition count (§4.4.3). *)

type t

val create : ?simplify:bool -> catalog:Mpp_catalog.Catalog.t -> unit -> t
(** [simplify] (default on) runs the abstract-interpretation pass over the
    finished plan ({!Mpp_analysis.Analysis.simplify_plan}): drop
    always-true conjuncts, collapse always-false filters, and re-run
    static exclusion with implied partition-key restrictions. *)

val plan : t -> Orca.Logical.t -> Mpp_plan.Plan.t
(** Plan a logical tree with the legacy planner, verified once on the way
    out: raises {!Mpp_verify.Verify.Rejected} on a malformed result (a bug,
    not an input error). *)
