(** Memo tests — the property-enforcement framework of paper §3.1 on the
    R ⋈ S example of Figures 13/14. *)

open Mpp_expr
module Cat = Mpp_catalog.Catalog
module Part = Mpp_catalog.Partition
module Dist = Mpp_catalog.Distribution
module Table = Mpp_catalog.Table
module Plan = Mpp_plan.Plan
module Memo = Orca.Memo

(* R(pk, x) partitioned and hash-distributed on pk; S(a, b) hashed on a. *)
let figure13_env () =
  let catalog = Cat.create () in
  let partitioning =
    Part.single_level
      ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
      ~key_index:0 ~key_name:"pk" ~scheme:Part.Range ~table_name:"r"
      (Part.int_ranges ~start:0 ~width:10 ~count:10)
  in
  let r =
    Cat.add_table catalog ~name:"r"
      ~columns:[ ("pk", Value.Tint); ("x", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ]) ~partitioning ()
  in
  let s =
    Cat.add_table catalog ~name:"s"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let lg =
    Orca.Logical.join
      (Expr.eq
         (Expr.col (Table.colref r ~rel:0 "pk"))
         (Expr.col (Table.colref s ~rel:1 "a")))
      (Orca.Logical.get ~rel:0 "r")
      (Orca.Logical.get ~rel:1 "s")
  in
  (catalog, lg)

let performs_selection plan =
  Plan.fold
    (fun acc p ->
      match p with
      | Plan.Partition_selector { child = Some _; predicates; _ } ->
          acc || List.exists Option.is_some predicates
      | _ -> acc)
    false plan

let test_best_plan_exists_and_valid () =
  let catalog, lg = figure13_env () in
  match Memo.best_plan ~catalog lg with
  | Some (plan, cost) ->
      Alcotest.(check bool) "valid" true (Support.structure_ok ~catalog plan);
      Alcotest.(check bool) "positive cost" true (cost > 0.0);
      Alcotest.(check bool) "contains both relations" true
        (Plan.fold
           (fun acc p -> match p with Plan.Table_scan _ -> acc + 1 | _ -> acc)
           0 plan
         = 1
        && Plan.dynamic_scan_ids plan = [ 0 ])
  | None -> Alcotest.fail "the memo must find a plan"

let test_every_alternative_valid () =
  let catalog, lg = figure13_env () in
  let alts = Memo.plan_space ~catalog ~limit:24 lg in
  Alcotest.(check bool) "several alternatives" true (List.length alts >= 4);
  List.iteri
    (fun i plan ->
      Alcotest.(check bool)
        (Printf.sprintf "alternative %d valid" i)
        true (Support.structure_ok ~catalog plan))
    alts

let test_plan4_is_enumerated () =
  (* the paper's Plan 4: the only shape performing partition selection *)
  let catalog, lg = figure13_env () in
  let alts = Memo.plan_space ~catalog ~limit:24 lg in
  let dpe_plans = List.filter performs_selection alts in
  Alcotest.(check bool) "a selecting plan exists" true (dpe_plans <> []);
  (* in every selecting plan, the selector sits on the build side and the
     DynamicScan on the probe side, never separated by a Motion *)
  List.iter
    (fun plan ->
      match plan with
      | Plan.Hash_join { left; right; _ } ->
          Alcotest.(check bool) "selector on the build side" true
            (Plan.selector_ids left = [ 0 ]);
          Alcotest.(check bool) "scan on the probe side" true
            (Plan.has_part_scan_id right 0)
      | _ -> Alcotest.fail "top of a selecting plan is the join")
    dpe_plans

let test_best_plan_cheaper_than_best_selecting_alternative () =
  (* with a partitioned R of 10 parts and default stats, the DPE plan should
     actually win the cost race *)
  let catalog, lg = figure13_env () in
  match Memo.best_plan ~catalog lg with
  | Some (plan, _) ->
      Alcotest.(check bool) "best plan performs selection" true
        (performs_selection plan)
  | None -> Alcotest.fail "plan expected"

let test_unsatisfiable_request () =
  (* a lone scan group cannot deliver a replicated requirement without a
     motion, and a motion is blocked when its scan is pinned — exercised
     indirectly: singleton over partitioned table is still satisfiable *)
  let catalog, lg = figure13_env () in
  ignore lg;
  let r_only = Orca.Logical.get ~rel:0 "r" in
  match Memo.best_plan ~catalog r_only with
  | Some (plan, _) ->
      Alcotest.(check bool) "bare partitioned get valid" true
        (Support.structure_ok ~catalog plan)
  | None -> Alcotest.fail "bare get must plan"

let test_memo_plan_executes () =
  let catalog, lg = figure13_env () in
  let storage = Mpp_storage.Storage.create ~nsegments:4 in
  let r = Cat.find catalog "r" and s = Cat.find catalog "s" in
  for i = 0 to 99 do
    Mpp_storage.Storage.insert storage r [| Value.Int i; Value.Int (i * 2) |]
  done;
  for i = 0 to 19 do
    Mpp_storage.Storage.insert storage s [| Value.Int (i * 5); Value.Int i |]
  done;
  match Memo.best_plan ~catalog lg with
  | None -> Alcotest.fail "plan expected"
  | Some (plan, _) ->
      let rows, m =
        Mpp_exec.Exec.run ~catalog ~storage (Plan.motion Plan.Gather plan)
      in
      (* r.pk = s.a: s.a ∈ {0,5,…,95} all present in r *)
      Alcotest.(check int) "20 matches" 20 (List.length rows);
      Alcotest.(check bool) "selection pruned something" true
        (Mpp_exec.Metrics.parts_scanned_of m ~root_oid:r.Table.oid <= 10)

(* The three-way join (R ⋈ S) ⋈ U over the Figure 13 catalog. *)
let three_way catalog =
  let u =
    Cat.add_table catalog ~name:"u"
      ~columns:[ ("c", Value.Tint) ]
      ~distribution:Dist.Replicated ()
  in
  let r = Cat.find catalog "r" and s = Cat.find catalog "s" in
  Orca.Logical.join
    (Expr.eq
       (Expr.col (Table.colref s ~rel:1 "b"))
       (Expr.col (Table.colref u ~rel:2 "c")))
    (Orca.Logical.join
       (Expr.eq
          (Expr.col (Table.colref r ~rel:0 "pk"))
          (Expr.col (Table.colref s ~rel:1 "a")))
       (Orca.Logical.get ~rel:0 "r")
       (Orca.Logical.get ~rel:1 "s"))
    (Orca.Logical.get ~rel:2 "u")

let test_three_way_join () =
  (* the memo's groups compose: (R ⋈ S) ⋈ U with R partitioned *)
  let catalog, _ = figure13_env () in
  let lg = three_way catalog in
  (match Memo.best_plan ~catalog lg with
  | Some (plan, _) ->
      Alcotest.(check bool) "three-way best plan valid" true
        (Support.structure_ok ~catalog plan);
      Alcotest.(check (list int)) "R's scan resolved" [ 0 ]
        (Plan.dynamic_scan_ids plan)
  | None -> Alcotest.fail "three-way join must plan");
  let alts = Memo.plan_space ~catalog ~limit:20 lg in
  List.iteri
    (fun i p ->
      Alcotest.(check bool)
        (Printf.sprintf "three-way alternative %d valid" i)
        true (Support.structure_ok ~catalog p))
    alts

(* Semi and left-outer joins plan through the memo in the one orientation
   their semantics fix: a semi join builds its subquery (logical right)
   side, a left-outer join its logical left side. *)
let test_fixed_orientations () =
  let catalog, lg = figure13_env () in
  let pred, r, s =
    match lg with
    | Orca.Logical.Join { pred; left; right; _ } -> (pred, left, right)
    | _ -> assert false
  in
  List.iter
    (fun (kind, build_rel, probe_rel) ->
      let name = Plan.join_kind_to_string kind in
      match Memo.best_plan ~catalog (Orca.Logical.join ~kind pred r s) with
      | Some ((Plan.Hash_join { kind = k; left; right; _ } as plan), _) ->
          Alcotest.(check bool) (name ^ " kind kept") true (k = kind);
          Alcotest.(check bool) (name ^ " build side") true
            (List.mem build_rel (Plan.output_rels left));
          Alcotest.(check bool) (name ^ " probe side") true
            (List.mem probe_rel (Plan.output_rels right));
          Alcotest.(check bool) (name ^ " valid") true
            (Support.structure_ok ~catalog plan)
      | _ -> Alcotest.failf "%s: a hash join expected" name)
    [ (Plan.Semi, 1, 0); (Plan.Left_outer, 0, 1) ]

(* A DML target (the request's pinned relation) stays unmoved on the probe
   side, even where the unpinned best plan builds from it. *)
let test_dml_target_on_probe () =
  let catalog, lg = figure13_env () in
  let env : Memo.env =
    { catalog;
      stats = None;
      nsegments = 4;
      rel_tables = [ (0, Cat.find catalog "r"); (1, Cat.find catalog "s") ] }
  in
  let tree =
    match lg with
    | Orca.Logical.Join { kind; pred; _ } ->
        let get rel name =
          Memo.Leaf (Memo.plan_get env ~scan_id:(fun () -> rel) ~rel name)
        in
        Memo.Join { kind; pred; left = get 0 "r"; right = get 1 "s" }
    | _ -> assert false
  in
  let build_of pinned_rel =
    match Memo.plan env ~pinned_rel tree with
    | Some { plan = Plan.Hash_join { left; right; _ }; _ } -> (left, right)
    | _ -> Alcotest.fail "a hash join expected"
  in
  let left, _ = build_of None in
  Alcotest.(check bool) "unpinned: s is the build side" true
    (List.mem 1 (Plan.output_rels left));
  let left, right = build_of (Some 1) in
  Alcotest.(check bool) "pinned: s left the build side" false
    (List.mem 1 (Plan.output_rels left));
  Alcotest.(check bool) "pinned: s on the probe side, unmoved" true
    (match right with Plan.Table_scan { rel = 1; _ } -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* One row-count rule                                                  *)

(* The memo's view of [lg]'s base tables, as the optimizer builds it. *)
let env_of catalog lg : Memo.env =
  { catalog;
    stats = None;
    nsegments = 4;
    rel_tables =
      List.map
        (fun (rel, name) -> (rel, Cat.find catalog name))
        (Orca.Logical.base_tables lg) }

(* [lg]'s join tree with Get and Select(Get) leaves, as memo groups. *)
let rec memo_tree env (lg : Orca.Logical.t) =
  match lg with
  | Orca.Logical.Get { rel; table_name } ->
      Memo.Leaf (Memo.plan_get env ~scan_id:(fun () -> rel) ~rel table_name)
  | Orca.Logical.Select { pred; child } -> (
      match memo_tree env child with
      | Memo.Leaf a -> Memo.Leaf (Memo.plan_select env pred a)
      | Memo.Join _ -> Alcotest.fail "a Select over a Get expected")
  | Orca.Logical.Join { kind; pred; left; right } ->
      Memo.Join
        { kind; pred; left = memo_tree env left; right = memo_tree env right }
  | _ -> Alcotest.fail "a Get/Select/Join tree expected"

let rec leaves = function
  | Memo.Leaf a -> [ a ]
  | Memo.Join { left; right; _ } -> leaves left @ leaves right

(* [r.x < r.pk]: a one-relation predicate no histogram restricts, so its
   selectivity is the default range guess. *)
let x_below_pk catalog =
  let r = Cat.find catalog "r" in
  Expr.Cmp
    (Expr.Lt, Expr.col (Table.colref r ~rel:0 "x"),
     Expr.col (Table.colref r ~rel:0 "pk"))

(* Every annotated subplan the memo returns — scans, pushed filters, the
   best join plan for each request, and a Filter over a join — carries the
   rows the plan-time estimator (the rule, folded) gives its plan. *)
let test_rows_are_the_rule () =
  let catalog, fig13 = figure13_env () in
  let pred, r, s =
    match fig13 with
    | Orca.Logical.Join { pred; left; right; _ } -> (pred, left, right)
    | _ -> assert false
  in
  let x_below_pk = x_below_pk catalog in
  let r_filtered = Orca.Logical.select x_below_pk r in
  let three = three_way catalog in
  let fixtures =
    [ ("figure 13", fig13);
      ("figure 13, R filtered", Orca.Logical.join pred r_filtered s);
      ("semi", Orca.Logical.join ~kind:Plan.Semi pred r s);
      ("left outer", Orca.Logical.join ~kind:Plan.Left_outer pred r s);
      ("three-way", three) ]
  in
  List.iter
    (fun (name, lg) ->
      let env = env_of catalog lg in
      let estimate =
        Orca.Optimizer.row_estimator (Orca.Optimizer.create ~catalog ()) lg
      in
      let check what (a : Memo.annotated) =
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "%s: %s rows = the rule's" name what)
          (estimate a.Memo.plan) a.Memo.rows
      in
      let tree = memo_tree env lg in
      List.iteri
        (fun i a -> check (Printf.sprintf "leaf %d" i) a)
        (leaves tree);
      List.iter
        (fun pinned_rel ->
          match Memo.plan env ~pinned_rel tree with
          | Some a ->
              check "best plan" a;
              check "filter over the join"
                (Memo.plan_select env x_below_pk a)
          | None -> ())
        [ None; Some 0; Some 1 ])
    fixtures

(* A filter over a join stays a Filter node, estimated at its child's rows
   times the predicate's selectivity (not a flat half). *)
let test_filter_over_join_estimate () =
  let catalog, lg = figure13_env () in
  let env = env_of catalog lg in
  let pred = x_below_pk catalog in
  let sel = Memo.selectivity_for env pred in
  Alcotest.(check bool) "selectivity is not a half" true (sel < 0.4);
  match Memo.plan env ~pinned_rel:None (memo_tree env lg) with
  | None -> Alcotest.fail "the join must plan"
  | Some join -> (
      let f = Memo.plan_select env pred join in
      let expected = Float.max 1.0 (join.Memo.rows *. sel) in
      let estimate =
        Orca.Optimizer.row_estimator (Orca.Optimizer.create ~catalog ()) lg
      in
      match f.Memo.plan with
      | Plan.Filter _ ->
          Alcotest.(check (float 1e-9)) "memo rows" expected f.Memo.rows;
          Alcotest.(check (float 1e-9)) "plan-time estimate" expected
            (estimate f.Memo.plan)
      | _ -> Alcotest.fail "a Filter node expected")

let () =
  Alcotest.run "memo"
    [ ("figure 13/14",
       [ Alcotest.test_case "best plan valid" `Quick
           test_best_plan_exists_and_valid;
         Alcotest.test_case "all alternatives valid" `Quick
           test_every_alternative_valid;
         Alcotest.test_case "plan 4 enumerated" `Quick test_plan4_is_enumerated;
         Alcotest.test_case "best plan selects" `Quick
           test_best_plan_cheaper_than_best_selecting_alternative;
         Alcotest.test_case "bare partitioned get" `Quick
           test_unsatisfiable_request;
         Alcotest.test_case "memo plan executes" `Quick test_memo_plan_executes;
         Alcotest.test_case "three-way join" `Quick test_three_way_join;
         Alcotest.test_case "semi and left-outer orientations" `Quick
           test_fixed_orientations;
         Alcotest.test_case "DML target on the probe side" `Quick
           test_dml_target_on_probe ]);
      ("row estimates",
       [ Alcotest.test_case "annotated rows = the rule" `Quick
           test_rows_are_the_rule;
         Alcotest.test_case "filter over a join" `Quick
           test_filter_over_join_estimate ]) ]
