(** The Orca-style optimizer pipeline.

    [optimize] turns a {!Logical.t} into an executable {!Mpp_plan.Plan.t}:

    1. join-order search over large inner-join regions ({!Joinorder});
    2. bottom-up translation to a physical skeleton.  Scans, filters,
       aggregates, projections, sorts, limits and DML are planned here;
       every tree of joins goes to the {!Memo}, the one join planner, which
       picks orientations and the Motions that co-locate each join, and
       values join-induced dynamic partition elimination in its costs — so
       plans that enable DPE win whenever the statistics say they should,
       and lose when injected misestimates say otherwise (the paper's
       Table-3 outliers);
    3. the PartitionSelector placement pass of {!Placement} (paper §2.3);
    4. the plan verifier ({!Mpp_verify.Verify.assert_valid}, all six
       passes; its structure pass holds the §3.1 rules), the one check a
       plan gets before it is cached or run. *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Table = Mpp_catalog.Table
module Dist = Mpp_plan.Dist

let log_src = Logs.Src.create "orca.optimizer" ~doc:"Orca optimizer pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Obs = Mpp_obs.Obs

type config = {
  enable_partition_selection : bool;
      (** master switch for the Figure-17 ablation: when off, only Φ
          selectors are placed and every partition is scanned *)
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

let cost_agg_tuple = 1.5

type annotated = Memo.annotated = {
  plan : Plan.t;
  rows : float;
  dist : Dist.t;
  cost : float;
  dyn_scans : Memo.dyn_scan_info list;
}

let table_of t name = Mpp_catalog.Catalog.find t.catalog name

(* The memo's view of one query: its base tables by range-table index. *)
let env_of t (lg : Logical.t) : Memo.env =
  {
    catalog = t.catalog;
    stats = t.stats;
    nsegments = t.config.nsegments;
    rel_tables =
      List.map
        (fun (rel, name) -> (rel, table_of t name))
        (Logical.base_tables lg);
  }

(* ------------------------------------------------------------------ *)
(* Partition-wise join                                                 *)
(* ------------------------------------------------------------------ *)

(* Partition-wise join (ablation, paper §5): both sides are bare
   DynamicScans of tables partitioned with *identical* level-0 constraints,
   equi-joined on those keys — expand into an Append of per-pair joins.
   Returns [None] when the pattern does not apply. *)
let try_partition_wise_join t ~env ~kind ~pred (left : annotated)
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
                  | Expr.Col a, Expr.Col b ->
                      Colref.equal a lkey && Colref.equal b rkey
                  | _ -> false)
                (Dist.equi_pairs ~build_rels:[ ls.rel ] ~probe_rels:[ rs.rel ]
                   pred)
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
            (* per-pair local joins are only correct when the two sides
               are co-located on the partitioning keys *)
            let colocated =
              Dist.colocated
                [ (Expr.Col lkey, Expr.Col rkey) ]
                ~build:left.dist ~probe:right.dist
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
              let plan = Plan.Append pairs in
              Some
                {
                  plan;
                  rows = Memo.estimator env plan;
                  dist = right.dist;
                  cost =
                    left.cost +. right.cost
                    +. (left.rows *. Memo.cost_hash_build);
                  dyn_scans = [];
                }
            end
        | _ -> None)
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Join-order search (big inner-join regions)                          *)
(* ------------------------------------------------------------------ *)

(* Row estimate of a logical subtree, for seeding the join-order search.
   Deliberately cruder than {!Memo.rows_of}: the search only ranks
   orders; the chosen order is then re-costed by the memo. *)
let rec logical_rows t ~env (lg : Logical.t) : float =
  match lg with
  | Logical.Get { table_name; _ } ->
      float_of_int (Memo.stats_of env (table_of t table_name)).rowcount
  | Logical.Select { pred; child } ->
      Float.max 1.0
        (logical_rows t ~env child *. Memo.selectivity_for env pred)
  | Logical.Join { kind = Plan.Semi; left; _ } ->
      Float.max 1.0 (logical_rows t ~env left *. 0.5)
  | Logical.Join { left; right; _ } ->
      Float.max 1.0
        (logical_rows t ~env left
        *. logical_rows t ~env right
        /. 100.0)
  | Logical.Aggregate { group_by = []; _ } -> 1.0
  | Logical.Aggregate { child; _ } ->
      Float.max 1.0 (logical_rows t ~env child /. 10.0)
  | Logical.Project { child; _ } | Logical.Sort { child; _ } ->
      logical_rows t ~env child
  | Logical.Limit { rows; child } ->
      Float.min (float_of_int rows) (logical_rows t ~env child)
  | Logical.Update _ | Logical.Delete _ | Logical.Insert _ -> 1.0

(* Selectivity of one join conjunct: the textbook 1/max(ndv) for an
   equi-pair, a flat guess otherwise. *)
let edge_sel env c =
  match c with
  | Expr.Cmp (Expr.Eq, (Expr.Col _ as a), (Expr.Col _ as b)) ->
      let n =
        Float.max
          (float_of_int (Memo.key_ndv env a))
          (float_of_int (Memo.key_ndv env b))
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
let try_reorder t ~env leaves conjs : Logical.t option =
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
      Array.map (fun leaf -> logical_rows t ~env leaf) leaves
    in
    let graph =
      Joinorder.make ~leaf_rows
        ~edges:(Array.map (fun (m, c) -> (m, edge_sel env c)) edges)
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
let reorder_joins t ~env (lg : Logical.t) : Logical.t =
  let rec go lg =
    match lg with
    | Logical.Join { kind = Plan.Inner; _ } -> (
        let leaves, conjs = flatten_region lg in
        let n = List.length leaves in
        if n < join_reorder_min_rels || n > 60 then descend lg
        else
          let leaves = List.map go leaves in
          match try_reorder t ~env leaves conjs with
          | Some lg' -> lg'
          | None -> descend lg)
    | _ -> descend lg
  and descend lg =
    match lg with
    | Logical.Update _ | Logical.Delete _ -> lg
    | _ -> Logical.with_children lg (List.map go (Logical.children lg))
  in
  go lg

(* ------------------------------------------------------------------ *)
(* Top-level translation                                               *)
(* ------------------------------------------------------------------ *)

let gather (ann : annotated) : annotated =
  match ann.dist with
  | Dist.Dsingleton -> ann
  | Dist.Dreplicated ->
      (* replicated data: read one copy, do not concatenate all copies *)
      {
        ann with
        plan = Plan.motion Plan.Gather_one ann.plan;
        dist = Dist.Dsingleton;
      }
  | Dist.Dhashed _ | Dist.Dany ->
      {
        ann with
        plan = Plan.motion Plan.Gather ann.plan;
        dist = Dist.Dsingleton;
        cost = ann.cost +. (ann.rows *. Memo.cost_motion_tuple);
      }

(* Two-phase aggregation (the MPP norm): a partial aggregate runs on each
   segment over its local rows, the (much smaller) partial states move once,
   and a final aggregate combines them — count combines by summing partial
   counts, avg is decomposed into sum and count recombined by a projection.
   Aggregates once, gathered, when the input is already on one segment. *)
let rec plan_aggregate t ~env ~pinned_rel ~group_by ~aggs child :
    annotated =
  let c = build_physical t ~env ~pinned_rel child in
  if c.dist = Dist.Dsingleton then begin
    let c = gather c in
    let plan = Plan.agg ~group_by ~aggs c.plan in
    {
      plan;
      rows = Memo.rows_of env plan [ c.rows ];
      dist = Dist.Dsingleton;
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
    let rows = Memo.rows_of env final [ Memo.rows_of env partial [ c.rows ] ] in
    let plan =
      if not !needs_project then final
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
      dist = Dist.Dsingleton;
      cost =
        c.cost +. (c.rows *. cost_agg_tuple)
        +. (rows *. float_of_int t.config.nsegments *. Memo.cost_motion_tuple);
      dyn_scans = [];
    }
  end

(* A tree of joins for the memo, its non-join children planned here as
   leaves (in tree order, so scan ids are numbered left to right).  The
   partition-wise-join ablation replaces a join of two leaves when it
   applies. *)
and join_tree t ~env ~pinned_rel (lg : Logical.t) : Memo.tree =
  match lg with
  | Logical.Join { kind; pred; left; right } -> (
      let left = join_tree t ~env ~pinned_rel left in
      let right = join_tree t ~env ~pinned_rel right in
      match (left, right) with
      | Memo.Leaf l, Memo.Leaf r -> (
          match try_partition_wise_join t ~env ~kind ~pred l r with
          | Some ann -> Memo.Leaf ann
          | None -> Memo.Join { kind; pred; left; right })
      | _ -> Memo.Join { kind; pred; left; right })
  | _ -> Memo.Leaf (build_physical t ~env ~pinned_rel lg)

and build_physical t ~env ~pinned_rel (lg : Logical.t) : annotated =
  match lg with
  | Logical.Get { rel; table_name } ->
      Memo.plan_get env ~scan_id:(fun () -> fresh_scan_id t) ~rel table_name
  | Logical.Select { pred; child } ->
      Memo.plan_select env pred (build_physical t ~env ~pinned_rel child)
  | Logical.Join _ -> (
      match Memo.plan env ~pinned_rel (join_tree t ~env ~pinned_rel lg) with
      | Some ann -> ann
      | None -> invalid_arg "Optimizer: no valid join orientation")
  | Logical.Aggregate { group_by; aggs; child } ->
      plan_aggregate t ~env ~pinned_rel ~group_by ~aggs child
  | Logical.Project { exprs; child } ->
      let c = build_physical t ~env ~pinned_rel child in
      { c with plan = Plan.Project { exprs; child = c.plan }; dyn_scans = [] }
  | Logical.Sort { keys; child } ->
      let c = gather (build_physical t ~env ~pinned_rel child) in
      { c with plan = Plan.Sort { keys; child = c.plan } }
  | Logical.Limit { rows; child } ->
      let c = gather (build_physical t ~env ~pinned_rel child) in
      let plan = Plan.Limit { rows; child = c.plan } in
      { c with plan; rows = Memo.rows_of env plan [ c.rows ] }
  | Logical.Update { rel; table_name; set_cols; child } ->
      let table = table_of t table_name in
      let c = build_physical t ~env ~pinned_rel:(Some rel) child in
      let set_exprs =
        List.map (fun (col, e) -> (Table.col_index table col, e)) set_cols
      in
      {
        plan =
          Plan.Update { rel; table_oid = table.Table.oid; set_exprs; child = c.plan };
        rows = 1.0;
        dist = Dist.Dsingleton;
        cost = c.cost +. c.rows;
        dyn_scans = [];
      }
  | Logical.Delete { rel; table_name; child } ->
      let table = table_of t table_name in
      let c = build_physical t ~env ~pinned_rel:(Some rel) child in
      {
        plan = Plan.Delete { rel; table_oid = table.Table.oid; child = c.plan };
        rows = 1.0;
        dist = Dist.Dsingleton;
        cost = c.cost +. c.rows;
        dyn_scans = [];
      }
  | Logical.Insert { table_name; rows } ->
      let table = table_of t table_name in
      {
        plan = Plan.Insert { table_oid = table.Table.oid; rows };
        rows = 1.0;
        dist = Dist.Dsingleton;
        cost = float_of_int (List.length rows);
        dyn_scans = [];
      }

(* ------------------------------------------------------------------ *)
(* Runtime-join-filter decisions                                      *)
(* ------------------------------------------------------------------ *)

(* Annotate-or-not, per eligible join: expected probe-row reduction from
   the NDV ratio of the key pair (the fraction of probe key values the
   build side can match), charged against the constant per-row test.  The
   filter pays for itself when the probe stream is non-trivial and at
   least ~10% of it is expected to drop; the Bloom is sized from the
   build-side estimate (the executor caps the bit count). *)
let rf_decide ~env ~rows ~build ~probe ~build_keys ~probe_keys =
  let build_rows = rows build in
  let probe_rows = rows probe in
  let bk = List.hd build_keys and pk = List.hd probe_keys in
  let build_ndv = float_of_int (Memo.key_ndv env (Expr.Col bk)) in
  let probe_ndv = float_of_int (Memo.key_ndv env (Expr.Col pk)) in
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

(** Optimize a logical tree into an executable physical plan. *)
let optimize t (lg : Logical.t) : Plan.t =
  let obs = Obs.current () in
  Obs.span obs "optimize" (fun () ->
      Obs.incr obs "optimizer.queries";
      t.next_scan_id <- 1;
      let env = env_of t lg in
      let lg =
        Obs.span obs "optimize.join_reorder" (fun () ->
            reorder_joins t ~env lg)
      in
      let ann =
        Obs.span obs "optimize.physical" (fun () ->
            build_physical t ~env ~pinned_rel:None lg)
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
                ~decide:(rf_decide ~env ~rows:(Memo.estimator env)) placed)
      in
      (* Stamp each DynamicScan's statically-surviving partition count from
         its placed selector, then run the full static verifier: every plan
         this optimizer emits passes all six passes or is rejected. *)
      let placed = Mpp_verify.Verify.stamp_nparts ~catalog:t.catalog placed in
      Mpp_verify.Verify.assert_valid ~catalog:t.catalog ~what:"Orca plan"
        placed;
      placed)

(** {!Memo.estimator} over [lg]'s base tables, for stamping
    {!Mpp_plan.Est} arrays onto finished plans: the rule the memo priced
    every alternative with.  Must be applied
    {e at plan time} — while any injected misestimates are still active —
    so [EXPLAIN ANALYZE]'s est-vs-actual report shows the numbers the
    optimizer actually planned with. *)
let row_estimator t (lg : Logical.t) : Plan.t -> float =
  Memo.estimator (env_of t lg)
