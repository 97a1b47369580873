(** The legacy "Planner" baseline — the comparison system of the paper's
    evaluation (§4).

    Faithful to the documented behaviour of the pre-Orca Greenplum planner
    (PostgreSQL inheritance):

    - a partitioned table is expanded into an [Append] of one [Table_scan]
      per leaf partition, so {e plan size grows with the partition count};
    - {e static} partition elimination is constraint exclusion: leaves whose
      check constraint contradicts the query's constant predicates are
      dropped from the Append at plan time;
    - {e dynamic} elimination exists but is rudimentary: only for a direct
      equality join against the level-0 partitioning key of a plain
      (possibly filtered) partitioned-table expansion.  The partition OIDs
      are computed at run time into a parameter — modelled by a
      [Partition_selector] feeding the [guard] field of the leaf scans — but
      the plan still lists {e every} surviving leaf (paper §4.4.2);
    - join orientation is as written (no cost-based flip), with a broadcast
      of the build side when not co-located;
    - DML over partitioned tables enumerates the join per target leaf that
      the target's own predicate does not exclude, which makes DML plan
      size quadratic in the partition count (§4.4.3).

    The expansion itself — its record, the Append it becomes and
    constraint exclusion over it — is {!Mpp_plan.Expansion}, which the
    simplifier, the runtime-filter annotation and the verifier read plans
    back through. *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Dist = Mpp_plan.Dist
module Expansion = Mpp_plan.Expansion
module Table = Mpp_catalog.Table
module Partition = Mpp_catalog.Partition
module Logical = Orca.Logical

type t = {
  catalog : Mpp_catalog.Catalog.t;
  simplify : bool;
  mutable next_scan_id : int;
}

let create ?(simplify = true) ~catalog () =
  { catalog; simplify; next_scan_id = 1 }

let fresh_scan_id t =
  let id = t.next_scan_id in
  t.next_scan_id <- id + 1;
  id

type sub = {
  plan : Plan.t;
  dist : Dist.t;
  expansion : Expansion.t option;
      (** a subtree that is still a plain expansion of one partitioned
          table: the only shape the legacy planner can apply dynamic
          elimination to *)
}

let finalize (s : sub) : Plan.t =
  match s.expansion with Some e -> Expansion.to_plan e | None -> s.plan

let plan_get t ~rel name : sub =
  let table = Mpp_catalog.Catalog.find t.catalog name in
  let dist = Dist.of_table table ~rel in
  match table.Table.partitioning with
  | None -> { plan = Plan.table_scan ~rel table.Table.oid; dist; expansion = None }
  | Some part ->
      {
        plan = Plan.Append [] (* replaced by [finalize] *);
        dist;
        expansion =
          Some
            {
              Expansion.rel;
              table;
              part;
              leaves = Array.to_list part.Partition.leaves;
              filter = None;
              guard = None;
            };
      }

let plan_select pred (child : sub) : sub =
  match child.expansion with
  | Some e ->
      let filter =
        match e.filter with
        | None -> pred
        | Some f -> Expr.conj [ f; pred ]
      in
      (* constraint exclusion by the new predicate: the leaves left already
         survive the earlier ones *)
      let e = Expansion.exclude { e with filter = Some filter } pred in
      { child with expansion = Some e }
  | None -> (
      match child.plan with
      | Plan.Table_scan ({ filter = None; _ } as s) ->
          { child with plan = Plan.Table_scan { s with filter = Some pred } }
      | p -> { child with plan = Plan.filter pred p })

(* The single pattern the legacy planner's dynamic elimination handles:
   equality between the probe expansion's level-0 partitioning key and an
   expression over the build side. *)
let planner_dpe_predicate ~(probe : Expansion.t) ~build_rels pred =
  match Expansion.keys probe with
  | [ key ] -> (
      match
        List.find_opt
          (function
            | Expr.Cmp (Expr.Eq, a, b) ->
                let is_key e =
                  match e with Expr.Col c -> Colref.equal c key | _ -> false
                in
                let other_side e =
                  Expr.rels e <> []
                  && List.for_all (fun r -> List.mem r build_rels) (Expr.rels e)
                in
                (is_key a && other_side b) || (is_key b && other_side a)
            | _ -> false)
          (Expr.conjuncts pred)
      with
      | Some c -> Some (key, c)
      | None -> None)
  | _ -> None (* multi-level: not supported by the legacy planner *)

let plan_join t ~kind ~pred (left : sub) (right : sub) : sub =
  (* As-written orientation (left = build) — except semi joins, whose
     preserved side is the logical left and must be the probe. *)
  let build, probe =
    match kind with Plan.Semi -> (right, left) | _ -> (left, right)
  in
  let build_plan = finalize build in
  let build_rels = Plan.output_rels build_plan in
  (* co-location: only when the build side is already replicated; the legacy
     planner otherwise broadcasts the build side *)
  let build_plan =
    match (build.dist, probe.dist) with
    | Dist.Dreplicated, _ -> build_plan
    | _, Dist.Dreplicated ->
        (* the probe side lives everywhere: the distributed build side can
           stay in place *)
        build_plan
    | _ -> Plan.motion Plan.Broadcast build_plan
  in
  let join_plan =
    match probe.expansion with
    | Some e -> (
        match planner_dpe_predicate ~probe:e ~build_rels pred with
        | Some (key, key_pred) ->
            (* runtime parameter: selector on the build side fills the
               channel; every leaf scan is guarded by it *)
            let part_scan_id = fresh_scan_id t in
            let selector =
              Plan.partition_selector ~child:build_plan ~part_scan_id
                ~root_oid:e.table.Table.oid ~keys:[ key ]
                ~predicates:[ Some key_pred ] ()
            in
            let guarded =
              Expansion.to_plan { e with guard = Some part_scan_id }
            in
            Plan.Hash_join { kind; pred; left = selector; right = guarded }
        | None ->
            Plan.Hash_join
              { kind; pred; left = build_plan; right = finalize probe })
    | _ ->
        Plan.Hash_join { kind; pred; left = build_plan; right = finalize probe }
  in
  {
    plan = join_plan;
    dist = Dist.join ~build:build.dist ~probe:probe.dist;
    expansion = None;
  }

(* Unlike Orca's, this gathers a singleton stream too. *)
let gather (s : sub) : Plan.t =
  let p = finalize s in
  match s.dist with
  | Dist.Dreplicated -> Plan.motion Plan.Gather_one p
  | Dist.Dsingleton | Dist.Dhashed _ | Dist.Dany -> Plan.motion Plan.Gather p

(* [get] plans a base-table access: {!plan_get}, except in a DML body,
   where the target becomes one leaf's scan. *)
let rec build t ~get (lg : Logical.t) : sub =
  match lg with
  | Logical.Get { rel; table_name } -> get ~rel table_name
  | Logical.Select { pred; child } -> plan_select pred (build t ~get child)
  | Logical.Join { kind; pred; left; right } ->
      plan_join t ~kind ~pred (build t ~get left) (build t ~get right)
  | Logical.Aggregate { group_by; aggs; child } ->
      let c = build t ~get child in
      {
        plan = Plan.agg ~group_by ~aggs (gather c);
        dist = Dist.Dany;
        expansion = None;
      }
  | Logical.Project { exprs; child } ->
      let c = build t ~get child in
      { plan = Plan.Project { exprs; child = finalize c }; dist = c.dist;
        expansion = None }
  | Logical.Sort { keys; child } ->
      let c = build t ~get child in
      { plan = Plan.Sort { keys; child = gather c }; dist = Dist.Dany;
        expansion = None }
  | Logical.Limit { rows; child } ->
      let c = build t ~get child in
      { plan = Plan.Limit { rows; child = gather c }; dist = Dist.Dany;
        expansion = None }
  | Logical.Update { rel; table_name; set_cols; child } ->
      plan_dml t ~rel ~table_name ~set_cols:(Some set_cols) child
  | Logical.Delete { rel; table_name; child } ->
      plan_dml t ~rel ~table_name ~set_cols:None child
  | Logical.Insert { table_name; rows } ->
      let table = Mpp_catalog.Catalog.find t.catalog table_name in
      { plan = Plan.Insert { table_oid = table.Table.oid; rows };
        dist = Dist.Dany; expansion = None }

(* DML: the legacy planner plans the (join) child once per leaf of the
   target table — each target leaf joined against the full expansion of the
   other side — which is the quadratic plan growth of paper §4.4.3.  As in
   PostgreSQL's inheritance planner, the target's leaves are first
   excluded by the target's own predicate (the binder's Select directly
   above its Get).  When none survives, the first leaf's body is kept: an
   empty Append has no output layout, and that body's filter contradicts
   its leaf, so it updates nothing. *)
and plan_dml t ~rel ~table_name ~set_cols child : sub =
  let table = Mpp_catalog.Catalog.find t.catalog table_name in
  let set_exprs =
    match set_cols with
    | None -> None
    | Some cols ->
        Some (List.map (fun (c, e) -> (Table.col_index table c, e)) cols)
  in
  let dml_node body =
    match set_exprs with
    | Some set_exprs ->
        Plan.Update { rel; table_oid = table.Table.oid; set_exprs; child = body }
    | None -> Plan.Delete { rel; table_oid = table.Table.oid; child = body }
  in
  let body get = finalize (build t ~get child) in
  match (plan_get t ~rel table_name).expansion with
  | None ->
      { plan = dml_node (body (plan_get t)); dist = Dist.Dany; expansion = None }
  | Some all ->
      let own =
        Logical.fold
          (fun acc n ->
            match n with
            | Logical.Select { pred; child = Logical.Get { rel = r; _ } }
              when r = rel ->
                Expansion.exclude all pred
            | _ -> acc)
          all child
      in
      let per_leaf (lf : Partition.leaf) =
        body (fun ~rel:r n ->
            if r = rel && n = table_name then
              {
                plan = Plan.table_scan ~rel:r lf.Partition.leaf_oid;
                dist = Dist.of_table table ~rel:r;
                expansion = None;
              }
            else plan_get t ~rel:r n)
      in
      let leaves =
        match own.Expansion.leaves with [] -> [ List.hd all.leaves ] | l -> l
      in
      { plan = dml_node (Plan.Append (List.map per_leaf leaves));
        dist = Dist.Dany; expansion = None }

(* Build-side cardinality for sizing a runtime join filter: textbook
   default rowcounts of the base relations in the subtree (the legacy
   planner has no analyzed statistics), leaf scans resolved to their one
   partition's share.  It only has to be deterministic and roughly
   order-of-magnitude right — the executor caps the Bloom size. *)
let rf_rows_est t (p : Plan.t) : int =
  let rows =
    Plan.fold
      (fun acc node ->
        match node with
        | Plan.Table_scan { table_oid; _ } ->
            let root = Mpp_catalog.Catalog.root_of t.catalog table_oid in
            let tbl = Mpp_catalog.Catalog.find_oid t.catalog root in
            let rows = (Mpp_stats.Stats.defaults tbl).Mpp_stats.Stats.rowcount in
            if root = table_oid then acc + rows
            else acc + max 1 (rows / max 1 (Table.nparts tbl))
        | Plan.Dynamic_scan { root_oid; _ } ->
            let tbl = Mpp_catalog.Catalog.find_oid t.catalog root_oid in
            acc + (Mpp_stats.Stats.defaults tbl).Mpp_stats.Stats.rowcount
        | _ -> acc)
      0 p
  in
  max 1 rows

(* The legacy planner is not cost-based, and its runtime-filter policy is
   equally simple: annotate every eligible equi-join (the shared rewrite
   still skips joins whose filter would only re-derive the guard-based
   dynamic elimination). *)
let rf_decide t ~build ~probe:_ ~build_keys:_ ~probe_keys:_ =
  Some (rf_rows_est t build)

(** Plan a logical tree with the legacy planner. *)
let plan t (lg : Logical.t) : Plan.t =
  t.next_scan_id <- 1;
  let s = build t ~get:(plan_get t) lg in
  let p =
    match lg with
    | Logical.Update _ | Logical.Delete _ | Logical.Insert _
    | Logical.Aggregate _ | Logical.Sort _ | Logical.Limit _ ->
        finalize s
    | _ -> gather s
  in
  let p =
    if t.simplify then
      Mpp_analysis.Analysis.simplify_plan ~catalog:t.catalog ~strengthen:true p
    else p
  in
  let p = Mpp_plan.Rf_annotate.annotate ~catalog:t.catalog ~decide:(rf_decide t) p in
  (* Every plan the legacy planner emits runs the full static verifier —
     the same six passes the Orca pipeline must satisfy, which is what
     makes the two optimizers differentially checkable. *)
  Mpp_verify.Verify.assert_valid ~catalog:t.catalog ~what:"Planner plan" p;
  p
