(** A compact Cascades-style Memo: the production join planner, with the
    partition property of paper §3.1 in its cost model.

    {!Optimizer} hands every tree of [Logical.Join]s to {!plan}.  Each
    non-join child arrives as a leaf group holding its finished physical
    subplan; each join becomes a group carrying its kind and predicate.  A
    group is optimized under a request — the distribution its parent needs,
    and the DML target that must stay on an unmoved probe side — and the
    best plan per (group, request) is memoized.

    {1 Alternatives}

    Inner joins try both orientations; semi and left-outer joins only the
    one their semantics fix; no orientation may put the DML target on the
    build side.  The probe side is requested as [Dany], so it never moves.
    The build side stays where it is when {!Mpp_plan.Dist.colocated} says
    the pair is co-located, is redistributed on the build partners of the
    probe's hash columns, or is broadcast; Motion is the enforcer that
    delivers a requested distribution.  The cheapest alternative wins;
    among equals, one that drives DPE (below), then the first in order.

    {1 The partition property}

    A join drives dynamic partition elimination of each DynamicScan on its
    probe side that {!Placement.join_dpe} accepts: the predicate constrains
    the scan's partitioning keys from the build side, and no Motion lies
    between the probe child and the scan.  Such a scan is pinned to a
    selector above the build side, so no Motion may ever separate it from
    its probe — which the probe never moving guarantees.  The alternative's
    cost discounts the scan's partition opens and reads by the fraction of
    its (statically surviving) partitions the build side's distinct keys
    can reach.  {!Placement} then writes the PartitionSelectors with the
    same rule (its Algorithm 4), so the DPE the memo costs is the DPE that
    runs.

    For the paper's Figure 13/14 example ([R ⋈ S], R partitioned),
    {!plan_space} lists the alternatives and {!best_plan} picks one that
    selects R's partitions from S's join keys. *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Table = Mpp_catalog.Table
module Dist = Mpp_plan.Dist
module Obs = Mpp_obs.Obs

let log_src = Logs.Src.create "orca.memo" ~doc:"Memo join planner"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let cost_tuple_scan = 1.0
let cost_partition_open = 40.0
let cost_hash_build = 1.5
let cost_probe = 1.0
let cost_motion_tuple = 2.0
let cost_filter_tuple = 0.1

type env = {
  catalog : Mpp_catalog.Catalog.t;
  stats : Mpp_stats.Stats_source.t option;
  nsegments : int;
  rel_tables : (int * Table.t) list;
}

let stats_of env (table : Table.t) : Mpp_stats.Stats.table_stats =
  match env.stats with
  | Some src -> Mpp_stats.Stats_source.table_stats src table
  | None -> Mpp_stats.Stats.defaults table

let key_ndv env e =
  match e with
  | Expr.Col c -> (
      match List.assoc_opt c.Colref.rel env.rel_tables with
      | Some table ->
          let stats = stats_of env table in
          if c.Colref.index < Array.length stats.columns then
            stats.columns.(c.Colref.index).Mpp_stats.Stats.ndv
          else 100
      | None -> 1000)
  | _ -> 1000

(* Selectivity of [pred] against the single-relation stats reachable in the
   subtree; multi-relation predicates use defaults. *)
let selectivity_for env pred =
  let per_rel rel =
    match List.assoc_opt rel env.rel_tables with
    | None -> 0.5
    | Some table ->
        Mpp_stats.Selectivity.estimate ~stats:(stats_of env table) ~rel pred
  in
  match Expr.rels pred with
  | [] -> 1.0
  | [ rel ] -> per_rel rel
  | rels ->
      (* keep only the per-relation conjuncts; join conjuncts are handled by
         the join cardinality model *)
      List.fold_left (fun acc rel -> acc *. per_rel rel) 1.0 rels

(* ------------------------------------------------------------------ *)
(* Row estimates                                                       *)
(* ------------------------------------------------------------------ *)

(* A scan's rows: the table's rowcount shaped by the filter's selectivity;
   a leaf partition's scan (the partition-wise join's) reads its share. *)
let scan_rows env ~rel oid filter =
  let table =
    match List.assoc_opt rel env.rel_tables with
    | Some table -> table
    | None -> Mpp_catalog.Catalog.find_oid env.catalog oid
  in
  let rows = float_of_int (stats_of env table).rowcount in
  let rows =
    match table.Table.partitioning with
    | Some p when oid <> table.Table.oid ->
        rows /. float_of_int (max 1 (Mpp_catalog.Partition.nparts p))
    | _ -> rows
  in
  match filter with
  | None -> rows
  | Some f -> Float.max 1.0 (rows *. selectivity_for env f)

(* The one row-count rule (see the interface). *)
let rows_of env (node : Plan.t) child_rows =
  match (node, child_rows) with
  | Plan.Table_scan { rel; table_oid; filter; _ }, _ ->
      scan_rows env ~rel table_oid filter
  | Plan.Dynamic_scan { rel; root_oid; filter; _ }, _ ->
      scan_rows env ~rel root_oid filter
  | Plan.Filter { pred; _ }, [ c ] ->
      Float.max 1.0 (c *. selectivity_for env pred)
  | ( ( Plan.Hash_join { kind; pred; left; right }
      | Plan.Nl_join { kind; pred; left; right } ),
      [ build; probe ] ) -> (
      let build_rels = Plan.output_rels left in
      let probe_rels = Plan.output_rels right in
      match (kind, Dist.equi_pairs ~build_rels ~probe_rels pred) with
      | Plan.Semi, _ -> Float.max 1.0 (probe *. 0.5)
      | _, [] -> Float.max 1.0 (build *. probe *. 0.1)
      | _, (bk, pk) :: _ ->
          Mpp_stats.Selectivity.join_rows ~left_rows:build ~right_rows:probe
            ~left_ndv:(key_ndv env bk) ~right_ndv:(key_ndv env pk))
  | Plan.Agg { group_by = []; _ }, _ -> 1.0
  | Plan.Agg { child = Plan.Motion { child = Plan.Agg _; _ }; _ }, [ c ] ->
      (* the final phase of a two-phase aggregate: the group count was
         estimated once, at the partial *)
      c
  | Plan.Agg _, [ c ] -> Float.max 1.0 (c /. 10.0)
  | Plan.Limit { rows; _ }, [ c ] -> Float.min (float_of_int rows) c
  | Plan.Append _, cs -> List.fold_left ( +. ) 0.0 cs
  | Plan.Sequence _, cs -> (
      match List.rev cs with last :: _ -> last | [] -> 0.0)
  | ( ( Plan.Partition_selector { child = None; _ }
      | Plan.Update _ | Plan.Delete _ | Plan.Insert _ ),
      _ ) ->
      1.0
  | _, [ c ] -> c
  | _ -> invalid_arg "Memo.rows_of: one row count per child expected"

(* Plan nodes by physical identity. *)
module Phys = Hashtbl.Make (struct
  type t = Plan.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let estimator env : Plan.t -> float =
  let memo = Phys.create 64 in
  let rec rows p =
    match Phys.find_opt memo p with
    | Some r -> r
    | None ->
        let r = rows_of env p (List.map rows (Plan.children p)) in
        Phys.add memo p r;
        r
  in
  rows

(* ------------------------------------------------------------------ *)
(* Annotated subplans                                                  *)
(* ------------------------------------------------------------------ *)

type dyn_scan_info = {
  ds_part_scan_id : int;
  ds_root_oid : int;
  ds_keys : Colref.t list;
  ds_nparts : int;
  ds_rows : float;
}

type annotated = {
  plan : Plan.t;
  rows : float;
  dist : Dist.t;
  cost : float;
  dyn_scans : dyn_scan_info list;
}

let plan_get env ~scan_id ~rel name : annotated =
  let table = Mpp_catalog.Catalog.find env.catalog name in
  let rows = scan_rows env ~rel table.Table.oid None in
  let dist = Dist.of_table table ~rel in
  match table.Table.partitioning with
  | None ->
      {
        plan = Plan.table_scan ~rel table.Table.oid;
        rows;
        dist;
        cost = rows *. cost_tuple_scan;
        dyn_scans = [];
      }
  | Some p ->
      let part_scan_id = scan_id () in
      let nparts = Mpp_catalog.Partition.nparts p in
      {
        plan = Plan.dynamic_scan ~rel ~part_scan_id table.Table.oid;
        rows;
        dist;
        cost =
          (rows *. cost_tuple_scan)
          +. (float_of_int nparts *. cost_partition_open);
        dyn_scans =
          [
            {
              ds_part_scan_id = part_scan_id;
              ds_root_oid = table.Table.oid;
              ds_keys = Table.part_key_colrefs table ~rel;
              ds_nparts = nparts;
              ds_rows = rows;
            };
          ];
      }

(* Statically-surviving partition count of the scan rooted at [root_oid]
   under [pred] (applied at every level), from
   {!Mpp_catalog.Partition.select_static}.  [None] when the predicate
   restricts no partitioning level — the count would just be the leaf
   total. *)
let indexed_nparts env ~root_oid ~keys pred =
  match (Mpp_catalog.Catalog.find_oid env.catalog root_oid).Table.partitioning with
  | None -> None
  | Some p ->
      Mpp_catalog.Partition.select_static p ~keys
        (List.map (fun _ -> Some pred) keys)
      |> Option.map (fun bits ->
             Obs.incr (Obs.current ()) "optimizer.indexed_part_counts";
             Mpp_catalog.Bitset.cardinal bits)

let plan_select env pred (child : annotated) : annotated =
  let sel = selectivity_for env pred in
  let plan, child_rows =
    (* push the filter into a bare scan; otherwise keep a Filter node *)
    match child.plan with
    | Plan.Table_scan ({ filter = None; _ } as s) ->
        (Plan.Table_scan { s with filter = Some pred }, [])
    | Plan.Dynamic_scan ({ filter = None; _ } as s) ->
        (Plan.Dynamic_scan { s with filter = Some pred }, [])
    | p -> (Plan.filter pred p, [ child.rows ])
  in
  let rows = rows_of env plan child_rows in
  (* Refine each visible DynamicScan with the statically-surviving
     partition count under [pred] (the index makes this one bitset
     cardinality per scan): DPE costing then discounts against the
     partitions that static selection already eliminated, and the
     statically pruned partition opens come off this subplan's cost. *)
  let pruned_opens = ref 0.0 in
  let dyn_scans =
    List.map
      (fun ds ->
        let ds = { ds with ds_rows = ds.ds_rows *. sel } in
        match
          indexed_nparts env ~root_oid:ds.ds_root_oid ~keys:ds.ds_keys pred
        with
        | Some n when n < ds.ds_nparts ->
            pruned_opens :=
              !pruned_opens
              +. (float_of_int (ds.ds_nparts - n) *. cost_partition_open);
            { ds with ds_nparts = n }
        | _ -> ds)
      child.dyn_scans
  in
  {
    child with
    plan;
    rows;
    cost = child.cost +. (child.rows *. cost_filter_tuple) -. !pruned_opens;
    dyn_scans;
  }

(* ------------------------------------------------------------------ *)
(* Join alternatives                                                   *)
(* ------------------------------------------------------------------ *)

(* The distribution enforcer: [a] as delivered when it meets [required],
   else under the Motion that delivers it. *)
let deliver env required (a : annotated) : annotated =
  if Dist.satisfies ~required a.dist then a
  else
    let kind, moved =
      match required with
      | Dist.Dhashed cols -> (Plan.Redistribute cols, a.rows)
      | Dist.Dreplicated -> (Plan.Broadcast, a.rows *. float_of_int env.nsegments)
      | Dist.Dsingleton | Dist.Dany -> (Plan.Gather, a.rows)
    in
    {
      a with
      plan = Plan.motion kind a.plan;
      dist = required;
      cost = a.cost +. (moved *. cost_motion_tuple);
    }

(* The alternatives of one orientation, build side stayed, redistributed
   to the probe's hash, then broadcast, each paired with whether the join
   drives DPE.  [build d] is the build side delivering distribution [d]
   ([Dany]: as it is). *)
let alternatives env ~kind ~pred ~(build : Dist.t -> annotated option)
    ~(probe : annotated) : (annotated * bool) list =
  match build Dist.Dany with
  | None -> []
  | Some b ->
      let obs = Obs.current () in
      Obs.incr obs "optimizer.plans_costed";
      let build_rels = Plan.output_rels b.plan in
      let pairs =
        Dist.equi_pairs ~build_rels ~probe_rels:(Plan.output_rels probe.plan)
          pred
      in
      let placed =
        (if Dist.colocated pairs ~build:b.dist ~probe:probe.dist then [ b ]
         else [])
        @ List.filter_map build
            ((match Dist.redistribute_keys pairs ~probe:probe.dist with
             | Some cols -> [ Dist.Dhashed cols ]
             | None -> [])
            @ [ Dist.Dreplicated ])
      in
      (* the partition property: probe-side scans this join can select *)
      let dpe =
        List.filter
          (fun ds ->
            Placement.join_dpe ~probe:probe.plan ~part_scan_id:ds.ds_part_scan_id
              ~keys:ds.ds_keys ~build_rels pred
            <> None)
          probe.dyn_scans
      in
      Obs.add obs "optimizer.dpe_opportunities" (List.length dpe);
      let build_keys = List.map fst pairs in
      let probe_cost =
        (* fraction of partitions surviving selection, per DPE'd scan *)
        List.fold_left
          (fun cost ds ->
            let build_ndv =
              match build_keys with
              | [ k ] -> float_of_int (key_ndv env k)
              | _ -> b.rows
            in
            let distinct = Float.min b.rows build_ndv in
            let frac =
              Float.min 1.0 (distinct /. float_of_int (max 1 ds.ds_nparts))
            in
            (* discount the partition opens and tuple reads of this scan *)
            let scan_cost =
              (ds.ds_rows *. cost_tuple_scan)
              +. (float_of_int ds.ds_nparts *. cost_partition_open)
            in
            cost -. (scan_cost *. (1.0 -. frac)))
          probe.cost dpe
      in
      let rows =
        rows_of env (Plan.hash_join ~kind ~pred b.plan probe.plan)
          [ b.rows; probe.rows ]
      in
      List.map
        (fun (bm : annotated) ->
          ( {
              plan = Plan.hash_join ~kind ~pred bm.plan probe.plan;
              rows;
              dist = Dist.join ~build:bm.dist ~probe:probe.dist;
              cost =
                bm.cost +. probe_cost
                +. (b.rows *. cost_hash_build)
                +. (probe.rows *. cost_probe);
              dyn_scans = bm.dyn_scans @ probe.dyn_scans;
            },
            dpe <> [] ))
        placed

(* (build, probe) orientations: semantics fix the roles of semi joins
   (build = subquery side) and left-outer joins. *)
let orientations kind left right =
  match kind with
  | Plan.Inner -> [ (left, right); (right, left) ]
  | Plan.Semi -> [ (right, left) ]
  | Plan.Left_outer -> [ (left, right) ]

(* Cheaper wins.  Among equals, one that drives DPE beats one that does
   not — its discount is an estimate, and at run time it can only prune
   more — and otherwise the first in order. *)
let cheapest acc ((a : annotated), dpe) =
  match acc with
  | Some ((b : annotated), b_dpe)
    when b.cost < a.cost || (b.cost = a.cost && (b_dpe || not dpe)) ->
      acc
  | _ -> Some (a, dpe)

(* ------------------------------------------------------------------ *)
(* Groups and requests                                                 *)
(* ------------------------------------------------------------------ *)

type tree =
  | Leaf of annotated
  | Join of { kind : Plan.join_kind; pred : Expr.t; left : tree; right : tree }

type group =
  | G_leaf of annotated
  | G_join of { kind : Plan.join_kind; pred : Expr.t; left : int; right : int }

type request = {
  dist : Dist.t;  (** required distribution; [Dany]: none *)
  pinned_rel : int option;
      (** DML target: must stay on an unmoved probe side *)
}

type t = {
  env : env;
  groups : group array;  (** index = gid, children before parents *)
  best : (request * annotated option) list array;
      (** memoized best plan per group, for each request seen *)
}

let create env tree =
  let acc = ref [] and n = ref 0 in
  let add g =
    acc := g :: !acc;
    incr n;
    !n - 1
  in
  let rec insert = function
    | Leaf a -> add (G_leaf a)
    | Join { kind; pred; left; right } ->
        let left = insert left in
        let right = insert right in
        add (G_join { kind; pred; left; right })
  in
  let root = insert tree in
  Obs.add (Obs.current ()) "memo.groups" !n;
  let groups = Array.of_list (List.rev !acc) in
  ({ env; groups; best = Array.make !n [] }, root)

let same_request a b =
  a.pinned_rel = b.pinned_rel
  && Dist.satisfies ~required:a.dist b.dist
  && Dist.satisfies ~required:b.dist a.dist

let rec optimize m gid req : annotated option =
  match List.find_opt (fun (r, _) -> same_request r req) m.best.(gid) with
  | Some (_, b) -> b
  | None ->
      Obs.incr (Obs.current ()) "memo.requests";
      let b =
        match (req.dist, m.groups.(gid)) with
        | Dist.Dany, G_leaf a -> Some a
        | Dist.Dany, G_join { kind; pred; left; right } ->
            optimize_join m req ~kind ~pred left right
        | required, _ ->
            Option.map (deliver m.env required)
              (optimize m gid { req with dist = Dist.Dany })
      in
      m.best.(gid) <- (req, b) :: m.best.(gid);
      b

and optimize_join m req ~kind ~pred left right =
  let any = { req with dist = Dist.Dany } in
  let best =
    List.fold_left
      (fun acc (bg, pg) ->
        match (optimize m bg any, optimize m pg any) with
        | Some build, Some probe
          when match req.pinned_rel with
               | None -> true
               | Some rel ->
                   (not (List.mem rel (Plan.output_rels build.plan)))
                   || List.mem rel (Plan.output_rels probe.plan) ->
            List.fold_left cheapest acc
              (alternatives m.env ~kind ~pred
                 ~build:(fun dist -> optimize m bg { req with dist })
                 ~probe)
        | _ -> acc)
      None
      (orientations kind left right)
    |> Option.map fst
  in
  Option.iter
    (fun (b : annotated) ->
      Obs.incr (Obs.current ()) "optimizer.joins_planned";
      Log.debug (fun m ->
          m "join planned: cost=%.0f, pred=%s" b.cost (Expr.to_string pred)))
    best;
  best

(** Plan a join tree: the cheapest alternative with the DML target
    [pinned_rel] (if any) on an unmoved probe side; [None] when no
    orientation allows that. *)
let plan env ~pinned_rel tree : annotated option =
  let m, root = create env tree in
  optimize m root { dist = Dist.Dany; pinned_rel }

(* ------------------------------------------------------------------ *)
(* Figure 13/14: best plan and plan space of a Get/Select/Join tree    *)
(* ------------------------------------------------------------------ *)

(* The memo over [lg]'s join tree, with Get and Select(Get) leaves whose
   DynamicScans are numbered by their range-table index. *)
let of_logical ?stats ~nsegments ~catalog (lg : Logical.t) =
  let rel_tables =
    List.map
      (fun (rel, name) -> (rel, Mpp_catalog.Catalog.find catalog name))
      (Logical.base_tables lg)
  in
  let env = { catalog; stats; nsegments; rel_tables } in
  let get rel name = plan_get env ~scan_id:(fun () -> rel) ~rel name in
  let rec tree (lg : Logical.t) =
    match lg with
    | Logical.Get { rel; table_name } -> Leaf (get rel table_name)
    | Logical.Select { pred; child = Logical.Get { rel; table_name } } ->
        Leaf (plan_select env pred (get rel table_name))
    | Logical.Join { kind; pred; left; right } ->
        let left = tree left in
        Join { kind; pred; left; right = tree right }
    | _ ->
        invalid_arg
          "Memo.of_logical: only Get/Select(Get)/Join trees are supported"
  in
  create env (tree lg)

(** Optimize [lg] through the memo and place its PartitionSelectors; the
    best plan and its cost. *)
let best_plan ?stats ?(nsegments = 4) ~catalog (lg : Logical.t) :
    (Plan.t * float) option =
  let m, root = of_logical ?stats ~nsegments ~catalog lg in
  Option.map
    (fun (b : annotated) -> (Placement.place ~catalog b.plan, b.cost))
    (optimize m root { dist = Dist.Dany; pinned_rel = None })

(* Every alternative of group [gid] over every combination of its
   children's, at most [limit] per group. *)
let rec enumerate m gid ~limit : annotated list =
  match m.groups.(gid) with
  | G_leaf a -> [ a ]
  | G_join { kind; pred; left; right } ->
      List.concat_map
        (fun (bg, pg) ->
          let builds = enumerate m bg ~limit in
          List.concat_map
            (fun probe ->
              List.concat_map
                (fun b ->
                  List.map fst
                    (alternatives m.env ~kind ~pred
                       ~build:(fun d -> Some (deliver m.env d b))
                       ~probe))
                builds)
            (enumerate m pg ~limit))
        (orientations kind left right)
      |> List.filteri (fun i _ -> i < limit)

(** Up to [limit] distinct alternatives for [lg], selectors placed (paper
    Figure 14). *)
let plan_space ?stats ?(nsegments = 4) ?(limit = 16) ~catalog (lg : Logical.t)
    : Plan.t list =
  let m, root = of_logical ?stats ~nsegments ~catalog lg in
  let seen = Hashtbl.create 16 in
  enumerate m root ~limit:(limit * 4)
  |> List.filter_map (fun (a : annotated) ->
         let p = Placement.place ~catalog a.plan in
         let k = Plan.to_string p in
         if Hashtbl.mem seen k then None
         else begin
           Hashtbl.replace seen k ();
           Some p
         end)
  |> List.filteri (fun i _ -> i < limit)
