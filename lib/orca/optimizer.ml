(** The Orca-style optimizer pipeline.

    [optimize] turns a {!Logical.t} into an executable {!Mpp_plan.Plan.t}:

    1. bottom-up translation to a physical skeleton, choosing hash-join
       orientation by cost.  The cost model values join-induced dynamic
       partition elimination: a candidate whose probe side contains a
       DynamicScan constrained by the join predicate is charged only for the
       estimated fraction of partitions it will scan, so plans that enable
       DPE win whenever the statistics say they should — and lose when
       injected misestimates say otherwise (the paper's Table-3 outliers);
    2. Motion insertion for co-location (broadcast or redistribute the build
       side; the probe side never moves when it contains a DynamicScan, which
       keeps every selector/scan pair within one process — the §3.1
       constraint by construction);
    3. the PartitionSelector placement pass of {!Placement} (paper §2.3);
    4. the plan verifier ({!Mpp_verify.Verify.check}, all six passes; its
       structure pass holds the §3.1 rules).

    The full memo-based property-enforcement machinery of paper §3.1 is in
    {!Memo}; this pipeline is the production path used by the benchmarks. *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Table = Mpp_catalog.Table
module Distribution = Mpp_catalog.Distribution

let log_src = Logs.Src.create "orca.optimizer" ~doc:"Orca optimizer pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Obs = Mpp_obs.Obs

type dist = Hashed_on of Colref.t list | Replicated_d | Random_d | Singleton_d

type config = {
  enable_partition_selection : bool;
      (** master switch for the Figure-17 ablation: when off, only Φ
          selectors are placed and every partition is scanned *)
  enable_two_phase_agg : bool;
      (** aggregate locally on each segment before moving rows (the MPP
          norm); off = gather everything and aggregate once *)
  enable_partition_wise_join : bool;
      (** ablation of the related-work alternative (paper §5, Herodotou et
          al.): when two tables partitioned identically are equi-joined on
          their partitioning keys, expand into an Append of per-partition
          joins.  Often faster per pair, but re-couples plan size to the
          partition count — exactly the drawback the paper's DynamicScan
          representation avoids. *)
  opt_domains : int;
      (** ignored: the optimizer's search is serial.  Kept only because the
          frozen serving benchmark (perfbench) still sets it *)
  simplify : bool;
      (** abstract-interpretation pass over the placed plan: drop
          always-true conjuncts, collapse always-false filters, and (when
          partition selection is on) strengthen selectors with implied
          partition-key restrictions *)
  nsegments : int;
}

let default_config =
  {
    enable_partition_selection = true;
    enable_two_phase_agg = true;
    enable_partition_wise_join = false;
    opt_domains = 1;
    simplify = true;
    nsegments = 4;
  }

type t = {
  catalog : Mpp_catalog.Catalog.t;
  stats : Mpp_stats.Stats_source.t option;
  config : config;
  mutable next_scan_id : int;
  mutable next_synth_rel : int;
      (** synthetic range-table indices for aggregate outputs *)
}

let create ?(config = default_config) ?stats ~catalog () =
  { catalog; stats; config; next_scan_id = 1; next_synth_rel = 1000 }

let fresh_scan_id t =
  let id = t.next_scan_id in
  t.next_scan_id <- id + 1;
  id

let fresh_synth_rel t =
  let r = t.next_synth_rel in
  t.next_synth_rel <- r + 1;
  r

(* ------------------------------------------------------------------ *)
(* Cost model parameters                                               *)
(* ------------------------------------------------------------------ *)

let cost_tuple_scan = 1.0
let cost_partition_open = 40.0
let cost_hash_build = 1.5
let cost_probe = 1.0
let cost_motion_tuple = 2.0
let cost_filter_tuple = 0.1
let cost_agg_tuple = 1.5

(* ------------------------------------------------------------------ *)
(* Annotated subplans                                                  *)
(* ------------------------------------------------------------------ *)

(* A DynamicScan visible in a subtree, for DPE costing. *)
type dyn_scan_info = {
  ds_part_scan_id : int;
  ds_root_oid : int;
  ds_keys : Colref.t list;
  ds_nparts : int;
  ds_rows : float;  (** estimated rows this scan feeds upward *)
}

type annotated = {
  plan : Plan.t;
  rows : float;
  dist : dist;
  cost : float;
  dyn_scans : dyn_scan_info list;
}

let table_of t name = Mpp_catalog.Catalog.find t.catalog name

let stats_of t (table : Table.t) : Mpp_stats.Stats.table_stats =
  match t.stats with
  | Some src -> Mpp_stats.Stats_source.table_stats src table
  | None -> Mpp_stats.Stats.defaults table

let dist_of_table t (table : Table.t) ~rel =
  ignore t;
  match table.Table.distribution with
  | Distribution.Hashed cols ->
      Hashed_on
        (List.map
           (fun i ->
             let name, dtype = table.Table.columns.(i) in
             Colref.make ~rel ~index:i ~name ~dtype)
           cols)
  | Distribution.Replicated -> Replicated_d
  | Distribution.Random -> Random_d
  | Distribution.Singleton -> Singleton_d

let col_ndv t (table : Table.t) ~col_index =
  let stats = stats_of t table in
  if col_index < Array.length stats.columns then
    stats.columns.(col_index).Mpp_stats.Stats.ndv
  else 100

(* Statically-surviving partition count of the scan rooted at [root_oid]
   under [pred], via the selection index: per-level [Expr.restriction] →
   {!Mpp_catalog.Partition.Index.count_selected} (one bitset cardinality, no
   leaf materialization).  [None] when the predicate restricts no
   partitioning level — the count would just be the leaf total. *)
let indexed_nparts t ~root_oid ~keys pred =
  match (Mpp_catalog.Catalog.find_oid t.catalog root_oid).Table.partitioning with
  | None -> None
  | Some p ->
      let restrictions =
        Array.of_list (List.map (fun k -> Expr.restriction k pred) keys)
      in
      if Array.for_all Option.is_none restrictions then None
      else begin
        Obs.incr (Obs.current ()) "optimizer.indexed_part_counts";
        let ix = Mpp_catalog.Partition.Index.of_partitioning p in
        Some (Mpp_catalog.Partition.Index.count_selected ix restrictions)
      end

(* ------------------------------------------------------------------ *)
(* Scans and filters                                                   *)
(* ------------------------------------------------------------------ *)

let plan_get t ~rel name : annotated =
  let table = table_of t name in
  let stats = stats_of t table in
  let rows = float_of_int stats.rowcount in
  let dist = dist_of_table t table ~rel in
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
      let part_scan_id = fresh_scan_id t in
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

(* Selectivity of [pred] against the single-relation stats reachable in the
   subtree; multi-relation predicates use defaults. *)
let selectivity_for t ~rel_tables pred =
  let per_rel rel =
    match List.assoc_opt rel rel_tables with
    | None -> 0.5
    | Some table ->
        Mpp_stats.Selectivity.estimate ~stats:(stats_of t table) ~rel pred
  in
  match Expr.rels pred with
  | [] -> 1.0
  | [ rel ] -> per_rel rel
  | rels ->
      (* keep only the per-relation conjuncts; join conjuncts are handled by
         the join cardinality model *)
      List.fold_left (fun acc rel -> acc *. per_rel rel) 1.0 rels

let plan_select t ~rel_tables pred (child : annotated) : annotated =
  let sel = selectivity_for t ~rel_tables pred in
  let rows = Float.max 1.0 (child.rows *. sel) in
  let plan =
    (* push the filter into a bare scan; otherwise keep a Filter node *)
    match child.plan with
    | Plan.Table_scan ({ filter = None; _ } as s) ->
        Plan.Table_scan { s with filter = Some pred }
    | Plan.Dynamic_scan ({ filter = None; _ } as s) ->
        Plan.Dynamic_scan { s with filter = Some pred }
    | p -> Plan.filter pred p
  in
  (* Refine each visible DynamicScan with the statically-surviving
     partition count under [pred] (the index makes this one bitset
     cardinality per scan): downstream DPE costing then discounts against
     the partitions that static selection already eliminated, and the
     statically pruned partition opens come off this subplan's cost. *)
  let pruned_opens = ref 0.0 in
  let dyn_scans =
    List.map
      (fun ds ->
        let ds = { ds with ds_rows = ds.ds_rows *. sel } in
        match
          indexed_nparts t ~root_oid:ds.ds_root_oid ~keys:ds.ds_keys pred
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
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

(* Equi-join column pairs (build expr, probe expr) of [pred]. *)
let equi_pairs ~build_rels ~probe_rels pred =
  let refs_only rels e =
    Expr.rels e <> [] && List.for_all (fun r -> List.mem r rels) (Expr.rels e)
  in
  List.filter_map
    (function
      | Expr.Cmp (Expr.Eq, a, b)
        when refs_only build_rels a && refs_only probe_rels b ->
          Some (a, b)
      | Expr.Cmp (Expr.Eq, a, b)
        when refs_only probe_rels a && refs_only build_rels b ->
          Some (b, a)
      | _ -> None)
    (Expr.conjuncts pred)


(* Is [side] already distributed on its join keys?  (So the other side can be
   redistributed to match, or no motion is needed if both match.) *)
let hashed_on_keys dist keys =
  match dist with
  | Hashed_on cols ->
      List.length cols <= List.length keys
      && List.for_all
           (fun c ->
             List.exists
               (function Expr.Col k -> Colref.equal k c | _ -> false)
               keys)
           cols
  | _ -> false

(* DPE opportunity: DynamicScans in the probe subtree that the join can
   select through {!Placement.join_dpe} — the placement pass pushes
   exactly these, so costing discounts no scan that cannot be selected. *)
let dpe_opportunities ~pred ~build ~probe =
  let build_rels = Plan.output_rels build.plan in
  List.filter
    (fun ds ->
      Placement.join_dpe ~probe:probe.plan ~part_scan_id:ds.ds_part_scan_id
        ~keys:ds.ds_keys ~build_rels pred
      <> None)
    probe.dyn_scans

type join_candidate = {
  jc_plan : Plan.t;
  jc_rows : float;
  jc_dist : dist;
  jc_cost : float;
  jc_dyn_scans : dyn_scan_info list;
}

let key_ndv t ~rel_tables e =
  match e with
  | Expr.Col c -> (
      match List.assoc_opt c.Colref.rel rel_tables with
      | Some table -> col_ndv t table ~col_index:c.Colref.index
      | None -> 1000)
  | _ -> 1000

let candidate t ~rel_tables ~kind ~pred ~(build : annotated)
    ~(probe : annotated) : join_candidate option =
  Obs.incr (Obs.current ()) "optimizer.plans_costed";
  let nseg = float_of_int t.config.nsegments in
  let build_rels = Plan.output_rels build.plan
  and probe_rels = Plan.output_rels probe.plan in
  let pairs = equi_pairs ~build_rels ~probe_rels pred in
  let build_keys = List.map fst pairs and probe_keys = List.map snd pairs in
  (* Motion choice for the build side; the probe side never moves (keeps
     selector/scan co-located when the probe holds a DynamicScan). *)
  let colocated =
    pairs <> []
    && hashed_on_keys build.dist build_keys
    && hashed_on_keys probe.dist probe_keys
  in
  let build_plan, build_motion_cost, build_dist =
    if build.dist = Replicated_d || build.dist = Singleton_d then
      (build.plan, 0.0, build.dist)
    else if colocated then (build.plan, 0.0, build.dist)
    else if probe.dist = Replicated_d then
      (* the probe side already lives everywhere: joining the distributed
         build side locally produces each pair exactly once *)
      (build.plan, 0.0, build.dist)
    else if pairs <> [] && hashed_on_keys probe.dist probe_keys then
      (* redistribute build to match the probe's hashing *)
      let cols =
        List.filter_map
          (function Expr.Col c -> Some c | _ -> None)
          build_keys
      in
      if List.length cols = List.length build_keys then
        ( Plan.motion (Plan.Redistribute cols) build.plan,
          build.rows *. cost_motion_tuple,
          Hashed_on cols )
      else
        ( Plan.motion Plan.Broadcast build.plan,
          build.rows *. nseg *. cost_motion_tuple,
          Replicated_d )
    else
      ( Plan.motion Plan.Broadcast build.plan,
        build.rows *. nseg *. cost_motion_tuple,
        Replicated_d )
  in

  (* When the build side is not replicated everywhere, a streaming selector
     above it sees only a slice of the rows on each segment, which still
     yields correct (per-segment-conservative) selection. *)
  let dpe = dpe_opportunities ~pred ~build ~probe in
  Obs.add (Obs.current ()) "optimizer.dpe_opportunities" (List.length dpe);
  let probe_cost_effective =
    match dpe with
    | [] -> probe.cost
    | _ ->
        (* fraction of partitions surviving selection, per DPE'd scan *)
        List.fold_left
          (fun cost ds ->
            let build_ndv =
              match build_keys with
              | [ k ] -> float_of_int (key_ndv t ~rel_tables k)
              | _ -> build.rows
            in
            let distinct = Float.min build.rows build_ndv in
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
    match kind with
    | Plan.Semi ->
        Float.max 1.0 (probe.rows *. 0.5)
    | Plan.Inner | Plan.Left_outer -> (
        match pairs with
        | [] -> Float.max 1.0 (build.rows *. probe.rows *. 0.1)
        | (bk, pk) :: _ ->
            Mpp_stats.Selectivity.join_rows ~left_rows:build.rows
              ~right_rows:probe.rows
              ~left_ndv:(key_ndv t ~rel_tables bk)
              ~right_ndv:(key_ndv t ~rel_tables pk))
  in
  let cost =
    build.cost +. build_motion_cost +. probe_cost_effective
    +. (build.rows *. cost_hash_build)
    +. (probe.rows *. cost_probe)
  in
  Some
    {
      jc_plan = Plan.hash_join ~kind ~pred build_plan probe.plan;
      jc_rows = rows;
      jc_dist =
        (* a join's rows live where its distributed side lives *)
        (if probe.dist = Replicated_d && build_dist <> Replicated_d then
           build_dist
         else probe.dist);
      jc_cost = cost;
      jc_dyn_scans =
        (* scans already consumed below stay visible for upper joins only if
           their columns are still in the output *)
        build.dyn_scans @ probe.dyn_scans;
    }

(* Partition-wise join (ablation, paper §5): both sides are bare
   DynamicScans of tables partitioned with *identical* level-0 constraints,
   equi-joined on those keys — expand into an Append of per-pair joins.
   Returns [None] when the pattern does not apply. *)
let try_partition_wise_join t ~kind ~pred (left : annotated)
    (right : annotated) : annotated option =
  if not (t.config.enable_partition_wise_join && kind = Plan.Inner) then None
  else
    match (left.plan, right.plan, left.dyn_scans, right.dyn_scans) with
    | ( Plan.Dynamic_scan ls,
        Plan.Dynamic_scan rs,
        [ lds ],
        [ rds ] ) -> (
        let ltable = Mpp_catalog.Catalog.find_oid t.catalog ls.root_oid in
        let rtable = Mpp_catalog.Catalog.find_oid t.catalog rs.root_oid in
        match (ltable.Table.partitioning, rtable.Table.partitioning) with
        | Some lp, Some rp
          when Mpp_catalog.Partition.nlevels lp = 1
               && Mpp_catalog.Partition.nlevels rp = 1
               && Mpp_catalog.Partition.nparts lp
                  = Mpp_catalog.Partition.nparts rp ->
            let lkey = List.hd lds.ds_keys and rkey = List.hd rds.ds_keys in
            let keys_joined =
              List.exists
                (function
                  | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) ->
                      (Colref.equal a lkey && Colref.equal b rkey)
                      || (Colref.equal a rkey && Colref.equal b lkey)
                  | _ -> false)
                (Expr.conjuncts pred)
            in
            let constraints_match =
              List.for_all2
                (fun (a : Mpp_catalog.Partition.leaf)
                     (b : Mpp_catalog.Partition.leaf) ->
                  match (a.bounds.(0), b.bounds.(0)) with
                  | Mpp_catalog.Partition.Cset x, Mpp_catalog.Partition.Cset y
                    ->
                      Interval.Set.equal x y
                  | Mpp_catalog.Partition.Default,
                    Mpp_catalog.Partition.Default ->
                      true
                  | _ -> false)
                (Array.to_list lp.Mpp_catalog.Partition.leaves)
                (Array.to_list rp.Mpp_catalog.Partition.leaves)
            in
            (* per-pair local joins are only correct when both sides are
               hash-distributed on the joined keys (co-located) *)
            let colocated =
              match (left.dist, right.dist) with
              | Hashed_on [ a ], Hashed_on [ b ] ->
                  Colref.equal a lkey && Colref.equal b rkey
              | _ -> false
            in
            if not (keys_joined && constraints_match && colocated) then None
            else begin
              let pairs =
                List.map2
                  (fun (a : Mpp_catalog.Partition.leaf)
                       (b : Mpp_catalog.Partition.leaf) ->
                    Plan.hash_join ~kind ~pred
                      (Plan.table_scan ?filter:ls.filter ~rel:ls.rel
                         a.leaf_oid)
                      (Plan.table_scan ?filter:rs.filter ~rel:rs.rel
                         b.leaf_oid))
                  (Array.to_list lp.Mpp_catalog.Partition.leaves)
                  (Array.to_list rp.Mpp_catalog.Partition.leaves)
              in
              Some
                {
                  plan = Plan.Append pairs;
                  rows =
                    Mpp_stats.Selectivity.join_rows ~left_rows:left.rows
                      ~right_rows:right.rows ~left_ndv:1000 ~right_ndv:1000;
                  dist = right.dist;
                  cost = left.cost +. right.cost +. (left.rows *. cost_hash_build);
                  dyn_scans = [];
                }
            end
        | _ -> None)
    | _ -> None

(* Plan a join, trying both orientations when allowed.  [pinned_rel] (DML
   target) must stay on the probe side, unmoved. *)
let plan_join t ~rel_tables ~pinned_rel ~kind ~pred (left : annotated)
    (right : annotated) : annotated =
  match try_partition_wise_join t ~kind ~pred left right with
  | Some ann -> ann
  | None ->
  (* fall through to the DynamicScan-based join below *)
  let orientations =
    match kind with
    | Plan.Semi | Plan.Left_outer ->
        (* semantics fix the roles: logical left is the preserved/probe side
           for semi joins (build = subquery side) *)
        (match kind with
        | Plan.Semi -> [ (right, left) ]
        | _ -> [ (left, right) ])
    | Plan.Inner -> [ (left, right); (right, left) ]
  in
  let allowed (build, probe) =
    match pinned_rel with
    | None -> true
    | Some rel ->
        (* the DML target must be on the (unmoved) probe side if present *)
        (not (List.mem rel (Plan.output_rels build.plan)))
        || List.mem rel (Plan.output_rels probe.plan)
  in
  let candidates =
    List.filter allowed orientations
    |> List.filter_map (fun (build, probe) ->
           candidate t ~rel_tables ~kind ~pred ~build ~probe)
  in
  match
    List.sort (fun a b -> Float.compare a.jc_cost b.jc_cost) candidates
  with
  | [] -> invalid_arg "Optimizer.plan_join: no valid join orientation"
  | best :: _ ->
      Obs.incr (Obs.current ()) "optimizer.joins_planned";
      Log.debug (fun m ->
          m "join orientation chosen: cost=%.0f of %d candidate(s), pred=%s"
            best.jc_cost (List.length candidates) (Expr.to_string pred));
      {
        plan = best.jc_plan;
        rows = best.jc_rows;
        dist = best.jc_dist;
        cost = best.jc_cost;
        dyn_scans = best.jc_dyn_scans;
      }

(* ------------------------------------------------------------------ *)
(* Join-order search (big inner-join regions)                          *)
(* ------------------------------------------------------------------ *)

(* Row estimate of a logical subtree, for seeding the join-order search.
   Deliberately the same crude shapes as [est_rows]: the search only ranks
   orders; the chosen order is then re-costed by the full model. *)
let rec logical_rows t ~rel_tables (lg : Logical.t) : float =
  match lg with
  | Logical.Get { table_name; _ } ->
      float_of_int (stats_of t (table_of t table_name)).rowcount
  | Logical.Select { pred; child } ->
      Float.max 1.0
        (logical_rows t ~rel_tables child *. selectivity_for t ~rel_tables pred)
  | Logical.Join { kind = Plan.Semi; left; _ } ->
      Float.max 1.0 (logical_rows t ~rel_tables left *. 0.5)
  | Logical.Join { left; right; _ } ->
      Float.max 1.0
        (logical_rows t ~rel_tables left
        *. logical_rows t ~rel_tables right
        /. 100.0)
  | Logical.Aggregate { group_by = []; _ } -> 1.0
  | Logical.Aggregate { child; _ } ->
      Float.max 1.0 (logical_rows t ~rel_tables child /. 10.0)
  | Logical.Project { child; _ } | Logical.Sort { child; _ } ->
      logical_rows t ~rel_tables child
  | Logical.Limit { rows; child } ->
      Float.min (float_of_int rows) (logical_rows t ~rel_tables child)
  | Logical.Update _ | Logical.Delete _ | Logical.Insert _ -> 1.0

(* Selectivity of one join conjunct: the textbook 1/max(ndv) for an
   equi-pair, a flat guess otherwise. *)
let edge_sel t ~rel_tables c =
  match c with
  | Expr.Cmp (Expr.Eq, (Expr.Col _ as a), (Expr.Col _ as b)) ->
      let n =
        Float.max
          (float_of_int (key_ndv t ~rel_tables a))
          (float_of_int (key_ndv t ~rel_tables b))
      in
      1.0 /. Float.max 1.0 n
  | _ -> 0.25

(* Flatten a maximal inner-join region: the non-inner-join leaf subtrees in
   tree order, plus every join conjunct of the region. *)
let rec flatten_region (lg : Logical.t) : Logical.t list * Expr.t list =
  match lg with
  | Logical.Join { kind = Plan.Inner; pred; left; right } ->
      let ll, lc = flatten_region left and rl, rc = flatten_region right in
      (ll @ rl, lc @ rc @ Expr.conjuncts pred)
  | leaf -> ([ leaf ], [])

let bit_index m =
  let rec go m i = if m = 1 then i else go (m lsr 1) (i + 1) in
  go m 0

(* Rebuild a left-deep tree over [leaves] in [order], attaching each edge
   conjunct at the first join whose extended leaf set covers it (original
   conjunct order within a predicate is preserved).  [residual] conjuncts
   (no column references) go in a Select on top. *)
let rebuild_region leaves (edges : (int * Expr.t) array) order residual :
    Logical.t =
  match order with
  | [] -> assert false
  | first :: rest ->
      let used = Array.make (Array.length edges) false in
      let tree = ref leaves.(first) and mask = ref (1 lsl first) in
      List.iter
        (fun j ->
          let nm = !mask lor (1 lsl j) in
          let cs = ref [] in
          Array.iteri
            (fun ei (em, c) ->
              if (not used.(ei)) && em land lnot nm = 0 then begin
                used.(ei) <- true;
                cs := c :: !cs
              end)
            edges;
          let pred =
            match List.rev !cs with [] -> Expr.true_ | l -> Expr.conj l
          in
          tree := Logical.join pred !tree leaves.(j);
          mask := nm)
        rest;
      (match residual with
      | [] -> !tree
      | l -> Logical.select (Expr.conj l) !tree)

(* Reorder one flattened region; [None] when a conjunct references a
   relation outside the region's leaves (bail out, keep the written order —
   the safety valve for shapes the binder never produces today). *)
let try_reorder t ~rel_tables leaves conjs : Logical.t option =
  let leaves = Array.of_list leaves in
  let n = Array.length leaves in
  let rel_leaf = Hashtbl.create 16 in
  Array.iteri
    (fun i leaf ->
      List.iter
        (fun (rel, _) -> Hashtbl.replace rel_leaf rel i)
        (Logical.base_tables leaf))
    leaves;
  let ok = ref true in
  let classified =
    List.map
      (fun c ->
        let mask =
          List.fold_left
            (fun m rel ->
              match Hashtbl.find_opt rel_leaf rel with
              | Some i -> m lor (1 lsl i)
              | None ->
                  ok := false;
                  m)
            0 (Expr.rels c)
        in
        (mask, c))
      conjs
  in
  if not !ok then None
  else begin
    let locals = Array.make n [] in
    let edges = ref [] and residual = ref [] in
    List.iter
      (fun (m, c) ->
        if m = 0 then residual := c :: !residual
        else if m land (m - 1) = 0 then
          let i = bit_index m in
          locals.(i) <- c :: locals.(i)
        else edges := (m, c) :: !edges)
      classified;
    let edges = Array.of_list (List.rev !edges) in
    let residual = List.rev !residual in
    (* single-leaf conjuncts become local filters, shrinking that leaf's
       row estimate before the search sees it *)
    let leaves =
      Array.mapi
        (fun i leaf ->
          match List.rev locals.(i) with
          | [] -> leaf
          | l -> Logical.select (Expr.conj l) leaf)
        leaves
    in
    let leaf_rows =
      Array.map (fun leaf -> logical_rows t ~rel_tables leaf) leaves
    in
    let graph =
      Joinorder.make ~leaf_rows
        ~edges:(Array.map (fun (m, c) -> (m, edge_sel t ~rel_tables c)) edges)
    in
    let order = Joinorder.order graph in
    Obs.incr (Obs.current ()) "optimizer.join_reorders";
    Log.debug (fun m ->
        m "join reorder: %d relations, %d edges, order=%s" n
          (Array.length edges)
          (String.concat "," (List.map string_of_int order)));
    Some (rebuild_region leaves edges order residual)
  end

(* Inner-join regions with fewer leaves keep the order as written, so the
   classic workload's plans are untouched by the join-order search. *)
let join_reorder_min_rels = 5

(* Walk the logical tree; every maximal inner-join region of at least
   [join_reorder_min_rels] leaves is re-ordered by {!Joinorder}.  DML
   subtrees are left as written — the target relation's plan position is
   semantic there. *)
let reorder_joins t ~rel_tables (lg : Logical.t) : Logical.t =
  let rec go lg =
    match lg with
    | Logical.Join { kind = Plan.Inner; _ } -> (
        let leaves, conjs = flatten_region lg in
        let n = List.length leaves in
        if n < join_reorder_min_rels || n > 60 then descend lg
        else
          let leaves = List.map go leaves in
          match try_reorder t ~rel_tables leaves conjs with
          | Some lg' -> lg'
          | None -> descend lg)
    | _ -> descend lg
  and descend lg =
    match lg with
    | Logical.Get _ | Logical.Insert _ | Logical.Update _ | Logical.Delete _
      ->
        lg
    | Logical.Select s -> Logical.Select { s with child = go s.child }
    | Logical.Join j -> Logical.Join { j with left = go j.left; right = go j.right }
    | Logical.Aggregate a -> Logical.Aggregate { a with child = go a.child }
    | Logical.Project p -> Logical.Project { p with child = go p.child }
    | Logical.Sort s -> Logical.Sort { s with child = go s.child }
    | Logical.Limit l -> Logical.Limit { l with child = go l.child }
  in
  go lg

(* ------------------------------------------------------------------ *)
(* Top-level translation                                               *)
(* ------------------------------------------------------------------ *)

let gather (ann : annotated) : annotated =
  match ann.dist with
  | Singleton_d -> ann
  | Replicated_d ->
      (* replicated data: read one copy, do not concatenate all copies *)
      {
        ann with
        plan = Plan.motion Plan.Gather_one ann.plan;
        dist = Singleton_d;
      }
  | Hashed_on _ | Random_d ->
      {
        ann with
        plan = Plan.motion Plan.Gather ann.plan;
        dist = Singleton_d;
        cost = ann.cost +. (ann.rows *. cost_motion_tuple);
      }

(* Two-phase aggregation (the MPP norm): a partial aggregate runs on each
   segment over its local rows, the (much smaller) partial states move once,
   and a final aggregate combines them — count combines by summing partial
   counts, avg is decomposed into sum and count recombined by a projection.
   Falls back to gather-then-aggregate when disabled or already local. *)
let rec plan_aggregate t ~rel_tables ~pinned_rel ~group_by ~aggs child :
    annotated =
  let c = build_physical t ~rel_tables ~pinned_rel child in
  let rows = if group_by = [] then 1.0 else Float.max 1.0 (c.rows /. 10.0) in
  if (not t.config.enable_two_phase_agg) || c.dist = Singleton_d then begin
    let c = gather c in
    {
      plan = Plan.agg ~group_by ~aggs c.plan;
      rows;
      dist = Singleton_d;
      cost = c.cost +. (c.rows *. cost_agg_tuple);
      dyn_scans = [];
    }
  end
  else begin
    let partial_rel = fresh_synth_rel t and final_rel = fresh_synth_rel t in
    let pcol index =
      Expr.col
        (Colref.make ~rel:partial_rel ~index
           ~name:(Printf.sprintf "p%d" index) ~dtype:Mpp_expr.Value.Tfloat)
    in
    let fcol index =
      Expr.col
        (Colref.make ~rel:final_rel ~index
           ~name:(Printf.sprintf "f%d" index) ~dtype:Mpp_expr.Value.Tfloat)
    in
    let k = List.length group_by in
    (* decompose each requested aggregate into partial slots, the final
       combine over those slots, and the output expression *)
    let partial_aggs = ref [] in
    let final_aggs = ref [] in
    let next_partial = ref k and next_final = ref k in
    let add_partial name f =
      let slot = !next_partial in
      partial_aggs := !partial_aggs @ [ (name, f) ];
      incr next_partial;
      slot
    in
    let add_final name f =
      let slot = !next_final in
      final_aggs := !final_aggs @ [ (name, f) ];
      incr next_final;
      slot
    in
    let needs_project = ref false in
    let outputs =
      List.map
        (fun (name, f) ->
          match f with
          | Plan.Count_star ->
              let p = add_partial name Plan.Count_star in
              let fi = add_final name (Plan.Sum (pcol p)) in
              (name, fcol fi)
          | Plan.Count e ->
              let p = add_partial name (Plan.Count e) in
              let fi = add_final name (Plan.Sum (pcol p)) in
              (name, fcol fi)
          | Plan.Sum e ->
              let p = add_partial name (Plan.Sum e) in
              let fi = add_final name (Plan.Sum (pcol p)) in
              (name, fcol fi)
          | Plan.Min e ->
              let p = add_partial name (Plan.Min e) in
              let fi = add_final name (Plan.Min (pcol p)) in
              (name, fcol fi)
          | Plan.Max e ->
              let p = add_partial name (Plan.Max e) in
              let fi = add_final name (Plan.Max (pcol p)) in
              (name, fcol fi)
          | Plan.Avg e ->
              needs_project := true;
              let ps = add_partial (name ^ "_sum") (Plan.Sum e) in
              let pc = add_partial (name ^ "_cnt") (Plan.Count e) in
              let fs = add_final (name ^ "_sum") (Plan.Sum (pcol ps)) in
              let fc = add_final (name ^ "_cnt") (Plan.Sum (pcol pc)) in
              ( name,
                Expr.Arith
                  (Expr.Div,
                   Expr.Func ("to_float", [ fcol fs ]),
                   Expr.Func ("to_float", [ fcol fc ])) ))
        aggs
    in
    let partial =
      Plan.agg ~output_rel:partial_rel ~group_by ~aggs:!partial_aggs c.plan
    in
    let moved = Plan.motion Plan.Gather partial in
    let final_group = List.init k pcol in
    let final =
      Plan.agg ~output_rel:final_rel ~group_by:final_group ~aggs:!final_aggs
        moved
    in
    let plan =
      if (not !needs_project) && k = 0 then final
      else if not !needs_project then final
      else
        Plan.Project
          { exprs =
              List.init k (fun i -> (Printf.sprintf "g%d" (i + 1), fcol i))
              @ outputs;
            child = final }
    in
    {
      plan;
      rows;
      dist = Singleton_d;
      cost =
        c.cost +. (c.rows *. cost_agg_tuple)
        +. (rows *. float_of_int t.config.nsegments *. cost_motion_tuple);
      dyn_scans = [];
    }
  end

and build_physical t ~rel_tables ~pinned_rel (lg : Logical.t) : annotated =
  match lg with
  | Logical.Get { rel; table_name } -> plan_get t ~rel table_name
  | Logical.Select { pred; child } ->
      plan_select t ~rel_tables pred
        (build_physical t ~rel_tables ~pinned_rel child)
  | Logical.Join { kind; pred; left; right } ->
      let l = build_physical t ~rel_tables ~pinned_rel left in
      let r = build_physical t ~rel_tables ~pinned_rel right in
      plan_join t ~rel_tables ~pinned_rel ~kind ~pred l r
  | Logical.Aggregate { group_by; aggs; child } ->
      plan_aggregate t ~rel_tables ~pinned_rel ~group_by ~aggs child
  | Logical.Project { exprs; child } ->
      let c = build_physical t ~rel_tables ~pinned_rel child in
      { c with plan = Plan.Project { exprs; child = c.plan }; dyn_scans = [] }
  | Logical.Sort { keys; child } ->
      let c = gather (build_physical t ~rel_tables ~pinned_rel child) in
      { c with plan = Plan.Sort { keys; child = c.plan } }
  | Logical.Limit { rows; child } ->
      let c = gather (build_physical t ~rel_tables ~pinned_rel child) in
      {
        c with
        plan = Plan.Limit { rows; child = c.plan };
        rows = Float.min c.rows (float_of_int rows);
      }
  | Logical.Update { rel; table_name; set_cols; child } ->
      let table = table_of t table_name in
      let c = build_physical t ~rel_tables ~pinned_rel:(Some rel) child in
      let set_exprs =
        List.map (fun (col, e) -> (Table.col_index table col, e)) set_cols
      in
      {
        plan =
          Plan.Update { rel; table_oid = table.Table.oid; set_exprs; child = c.plan };
        rows = 1.0;
        dist = Singleton_d;
        cost = c.cost +. c.rows;
        dyn_scans = [];
      }
  | Logical.Delete { rel; table_name; child } ->
      let table = table_of t table_name in
      let c = build_physical t ~rel_tables ~pinned_rel:(Some rel) child in
      {
        plan = Plan.Delete { rel; table_oid = table.Table.oid; child = c.plan };
        rows = 1.0;
        dist = Singleton_d;
        cost = c.cost +. c.rows;
        dyn_scans = [];
      }
  | Logical.Insert { table_name; rows } ->
      let table = table_of t table_name in
      {
        plan = Plan.Insert { table_oid = table.Table.oid; rows };
        rows = 1.0;
        dist = Singleton_d;
        cost = float_of_int (List.length rows);
        dyn_scans = [];
      }

(* ------------------------------------------------------------------ *)
(* Runtime-join-filter annotation (costing side)                       *)
(* ------------------------------------------------------------------ *)

(* Row estimate of a *physical* subtree, for sizing and costing runtime
   filters after placement (the annotated-subplan estimates are gone by
   then).  Deliberately crude — scan rowcounts shaped by filter
   selectivity, the textbook join and aggregate discounts — but it only
   gates the filter-or-not decision and the Bloom's deterministic size. *)
let rec est_rows t ~rel_tables (p : Plan.t) : float =
  let scan_rows ~rel oid filter =
    let table =
      match List.assoc_opt rel rel_tables with
      | Some tbl -> tbl
      | None -> Mpp_catalog.Catalog.find_oid t.catalog oid
    in
    let rows = float_of_int (stats_of t table).Mpp_stats.Stats.rowcount in
    match filter with
    | None -> rows
    | Some f ->
        Float.max 1.0
          (rows
          *. Mpp_stats.Selectivity.estimate ~stats:(stats_of t table) ~rel f)
  in
  match p with
  | Plan.Table_scan { rel; table_oid; filter; _ } ->
      scan_rows ~rel table_oid filter
  | Plan.Dynamic_scan { rel; root_oid; filter; _ } ->
      scan_rows ~rel root_oid filter
  | Plan.Filter { pred = _; child } ->
      Float.max 1.0 (est_rows t ~rel_tables child *. 0.5)
  | Plan.Hash_join { kind; pred; left; right }
  | Plan.Nl_join { kind; pred; left; right } -> (
      let lr = est_rows t ~rel_tables left
      and rr = est_rows t ~rel_tables right in
      match kind with
      | Plan.Semi -> Float.max 1.0 (rr *. 0.5)
      | Plan.Inner | Plan.Left_outer -> (
          match
            Mpp_plan.Rf_annotate.equi_col_pairs
              ~build_rels:(Plan.output_rels left)
              ~probe_rels:(Plan.output_rels right) pred
          with
          | (bk, pk) :: _ ->
              Mpp_stats.Selectivity.join_rows ~left_rows:lr ~right_rows:rr
                ~left_ndv:(key_ndv t ~rel_tables (Expr.Col bk))
                ~right_ndv:(key_ndv t ~rel_tables (Expr.Col pk))
          | [] -> Float.max 1.0 (lr *. rr *. 0.1)))
  | Plan.Agg { group_by = []; _ } -> 1.0
  | Plan.Agg { child; _ } ->
      Float.max 1.0 (est_rows t ~rel_tables child /. 10.0)
  | Plan.Limit { rows; child } ->
      Float.min (float_of_int rows) (est_rows t ~rel_tables child)
  | Plan.Append cs ->
      List.fold_left (fun acc c -> acc +. est_rows t ~rel_tables c) 0.0 cs
  | Plan.Sequence cs -> (
      match List.rev cs with
      | last :: _ -> est_rows t ~rel_tables last
      | [] -> 0.0)
  | Plan.Partition_selector { child = Some c; _ }
  | Plan.Project { child = c; _ }
  | Plan.Sort { child = c; _ }
  | Plan.Motion { child = c; _ }
  | Plan.Runtime_filter_build { child = c; _ }
  | Plan.Runtime_filter { child = c; _ } ->
      est_rows t ~rel_tables c
  | Plan.Partition_selector { child = None; _ }
  | Plan.Update _ | Plan.Delete _ | Plan.Insert _ ->
      1.0

(* Annotate-or-not, per eligible join: expected probe-row reduction from
   the NDV ratio of the key pair (the fraction of probe key values the
   build side can match), charged against the constant per-row test.  The
   filter pays for itself when the probe stream is non-trivial and at
   least ~10% of it is expected to drop; the Bloom is sized from the
   build-side estimate (the executor caps the bit count). *)
let rf_decide t ~rel_tables ~build ~probe ~build_keys ~probe_keys =
  let build_rows = est_rows t ~rel_tables build in
  let probe_rows = est_rows t ~rel_tables probe in
  let bk = List.hd build_keys and pk = List.hd probe_keys in
  let build_ndv = float_of_int (key_ndv t ~rel_tables (Expr.Col bk)) in
  let probe_ndv = float_of_int (key_ndv t ~rel_tables (Expr.Col pk)) in
  let distinct_build = Float.min build_rows build_ndv in
  let keep = Float.min 1.0 (distinct_build /. Float.max 1.0 probe_ndv) in
  let saved = probe_rows *. (1.0 -. keep) in
  if probe_rows >= 256.0 && saved >= 0.1 *. probe_rows then begin
    Obs.incr (Obs.current ()) "optimizer.runtime_filters_placed";
    Log.debug (fun m ->
        m "runtime filter: build=%.0f rows probe=%.0f rows keep=%.2f" build_rows
          probe_rows keep);
    Some (int_of_float (Float.min build_rows 1e7))
  end
  else None

exception Invalid_plan of string

(** Optimize a logical tree into an executable physical plan. *)
let optimize t (lg : Logical.t) : Plan.t =
  let obs = Obs.current () in
  Obs.span obs "optimize" (fun () ->
      Obs.incr obs "optimizer.queries";
      t.next_scan_id <- 1;
      let rel_tables =
        List.map
          (fun (rel, name) -> (rel, table_of t name))
          (Logical.base_tables lg)
      in
      let lg =
        Obs.span obs "optimize.join_reorder" (fun () ->
            reorder_joins t ~rel_tables lg)
      in
      let ann =
        Obs.span obs "optimize.physical" (fun () ->
            build_physical t ~rel_tables ~pinned_rel:None lg)
      in
      let ann =
        match lg with
        | Logical.Update _ | Logical.Delete _ | Logical.Insert _ -> ann
        | _ -> gather ann
      in
      let placed =
        Obs.span obs "optimize.placement" (fun () ->
            Placement.place ~eliminate:t.config.enable_partition_selection
              ~catalog:t.catalog ann.plan)
      in
      (* Abstract-interpretation cleanup of the placed plan: always-true
         conjuncts dropped, always-false filters collapsed, and implied
         partition-key restrictions conjoined onto selectors (so the
         nparts stamp below sees the strengthened predicates). *)
      let placed =
        if t.config.simplify then
          Obs.span obs "optimize.simplify" (fun () ->
              Mpp_analysis.Analysis.simplify_plan ~catalog:t.catalog
                ~strengthen:t.config.enable_partition_selection placed)
        else placed
      in
      if Obs.enabled obs then begin
        Obs.annotate obs "estimated_cost" (Mpp_obs.Json.Float ann.cost);
        Obs.annotate obs "estimated_rows" (Mpp_obs.Json.Float ann.rows);
        Obs.annotate obs "plan_nodes"
          (Mpp_obs.Json.Int (Plan.node_count placed))
      end;
      (* Annotate eligible hash joins with runtime-join-filter pairs (a
         semantic no-op; the executor's [runtime_filters] knob decides
         whether they run), after placement so Placement never sees the
         new operators and the streaming-DPE redundancy skip can see the
         placed selectors. *)
      let placed =
        (* the Figure-17 ablation disables the whole partition-selection /
           runtime-pruning machinery, so its plans stay unannotated *)
        if not t.config.enable_partition_selection then placed
        else
          Obs.span obs "optimize.runtime_filters" (fun () ->
              Mpp_plan.Rf_annotate.annotate ~catalog:t.catalog
                ~decide:(rf_decide t ~rel_tables) placed)
      in
      (* Stamp each DynamicScan's statically-surviving partition count from
         its placed selector, then run the full static verifier: every plan
         this optimizer emits passes all five passes or is rejected. *)
      let placed = Mpp_verify.Verify.stamp_nparts ~catalog:t.catalog placed in
      match
        Mpp_verify.Diag.errors
          (Mpp_verify.Verify.check ~catalog:t.catalog placed)
      with
      | [] -> placed
      | errors ->
          raise
            (Invalid_plan
               (String.concat "; "
                  (List.map Mpp_verify.Diag.to_string errors))))

(** The per-physical-node row estimator over [lg]'s base tables, for
    stamping {!Mpp_plan.Est} arrays onto finished plans.  Must be applied
    {e at plan time} — while any injected misestimates are still active —
    so [EXPLAIN ANALYZE]'s est-vs-actual report shows the numbers the
    optimizer actually planned with. *)
let row_estimator t (lg : Logical.t) : Plan.t -> float =
  let rel_tables =
    List.map (fun (rel, name) -> (rel, table_of t name)) (Logical.base_tables lg)
  in
  fun p -> est_rows t ~rel_tables p

(** Estimated cost of the plan the optimizer would pick (for tests and the
    memo comparison). *)
let estimate t (lg : Logical.t) : float =
  t.next_scan_id <- 1;
  let rel_tables =
    List.map (fun (rel, name) -> (rel, table_of t name)) (Logical.base_tables lg)
  in
  let lg = reorder_joins t ~rel_tables lg in
  (build_physical t ~rel_tables ~pinned_rel:None lg).cost
