(** Optimizer-pipeline tests: the plans Orca produces are valid, prune the
    right partitions, compute the same answers as un-pruned execution, and
    react to statistics (including injected misestimates). *)

open Mpp_expr
module Cat = Mpp_catalog.Catalog
module Storage = Mpp_storage.Storage
module Plan = Mpp_plan.Plan
module Opt = Orca.Optimizer
module Logical = Orca.Logical
module Metrics = Mpp_exec.Metrics

let env () =
  let catalog, orders, date_dim = Support.star_schema () in
  let storage = Storage.create ~nsegments:4 in
  Support.load_orders storage orders 1000;
  Support.load_date_dim storage date_dim;
  let stats = Mpp_stats.Stats_source.create ~catalog ~storage in
  (catalog, storage, stats, orders, date_dim)

let optimize ?config ?stats catalog lg =
  Opt.optimize (Opt.create ?config ?stats ~catalog ()) lg

let run ~catalog ~storage ?selection_enabled plan =
  Mpp_exec.Exec.run ?selection_enabled ~catalog ~storage plan

let parts m (t : Mpp_catalog.Table.t) =
  Metrics.parts_scanned_of m ~root_oid:t.Mpp_catalog.Table.oid

let test_static_query () =
  let catalog, storage, stats, orders, _ = env () in
  let o_date = Mpp_catalog.Table.colref orders ~rel:0 "date" in
  let lg =
    Logical.select
      (Expr.between (Expr.col o_date) (Expr.date "2013-10-01")
         (Expr.date "2013-12-31"))
      (Logical.get ~rel:0 "orders")
  in
  let plan = optimize ~stats catalog lg in
  Alcotest.(check bool) "valid" true (Mpp_verify.Verify.ok ~catalog plan);
  let rows, m = run ~catalog ~storage plan in
  Alcotest.(check int) "3 partitions" 3 (parts m orders);
  (* same rows as the un-pruned run *)
  let rows_all, m_all = run ~selection_enabled:false ~catalog ~storage plan in
  Alcotest.(check int) "reference scans all" 24 (parts m_all orders);
  Support.check_rows_equal "pruned = unpruned" rows rows_all

let dpe_logical orders date_dim =
  let o_date = Mpp_catalog.Table.colref orders ~rel:0 "date" in
  let d_date = Mpp_catalog.Table.colref date_dim ~rel:1 "d_date" in
  let d_year = Mpp_catalog.Table.colref date_dim ~rel:1 "d_year" in
  let d_month = Mpp_catalog.Table.colref date_dim ~rel:1 "d_month" in
  Logical.aggregate
    [ ("n", Plan.Count_star) ]
    (Logical.join
       (Expr.eq (Expr.col o_date) (Expr.col d_date))
       (Logical.get ~rel:0 "orders")
       (Logical.select
          (Expr.conj
             [ Expr.eq (Expr.col d_year) (Expr.int 2013);
               Expr.eq (Expr.col d_month) (Expr.int 11) ])
          (Logical.get ~rel:1 "date_dim")))

let test_dpe_query () =
  let catalog, storage, stats, orders, date_dim = env () in
  let plan = optimize ~stats catalog (dpe_logical orders date_dim) in
  Alcotest.(check bool) "valid" true (Mpp_verify.Verify.ok ~catalog plan);
  (* a streaming selector with the join predicate must exist *)
  let streaming =
    Plan.fold
      (fun acc p ->
        match p with
        | Plan.Partition_selector { child = Some _; predicates; _ } ->
            acc || List.exists Option.is_some predicates
        | _ -> acc)
      false plan
  in
  Alcotest.(check bool) "join-driven selector placed" true streaming;
  let rows, m = run ~catalog ~storage plan in
  Alcotest.(check int) "November only" 1 (parts m orders);
  match rows with
  | [ r ] ->
      (* ~1000 rows over 24 months: November 2013 ≈ 41 rows; check against
         the unpruned run instead of a constant *)
      let rows_all, _ = run ~selection_enabled:false ~catalog ~storage plan in
      Support.check_rows_equal "counts agree" [ r ] rows_all
  | _ -> Alcotest.fail "one aggregate row"

let test_selection_disabled_config () =
  let catalog, storage, stats, orders, date_dim = env () in
  let config = { Opt.default_config with enable_partition_selection = false } in
  let plan = optimize ~config ~stats catalog (dpe_logical orders date_dim) in
  Alcotest.(check bool) "still valid" true (Mpp_verify.Verify.ok ~catalog plan);
  let _, m = run ~catalog ~storage plan in
  Alcotest.(check int) "scans every partition" 24 (parts m orders)

let test_misestimate_flips_orientation () =
  let catalog, storage, stats, orders, date_dim = env () in
  let lg = dpe_logical orders date_dim in
  let with_scale factor =
    Mpp_stats.Stats_source.clear_row_scales stats;
    (match factor with
    | Some f ->
        Mpp_stats.Stats_source.set_row_scale stats
          ~table_oid:date_dim.Mpp_catalog.Table.oid ~factor:f;
        Mpp_stats.Stats_source.set_row_scale stats
          ~table_oid:orders.Mpp_catalog.Table.oid ~factor:0.001
    | None -> ());
    let plan = optimize ~stats catalog lg in
    Mpp_stats.Stats_source.clear_row_scales stats;
    let _, m = run ~catalog ~storage plan in
    parts m orders
  in
  Alcotest.(check int) "honest stats: DPE prunes" 1 (with_scale None);
  Alcotest.(check bool) "misestimates: DPE lost" true
    (with_scale (Some 1000.0) = 24)

let test_update_pipeline () =
  let catalog, storage, stats, orders, date_dim = env () in
  ignore date_dim;
  let o_date = Mpp_catalog.Table.colref orders ~rel:0 "date" in
  let lg =
    Logical.Update
      { rel = 0; table_name = "orders";
        set_cols = [ ("amount", Expr.Const (Value.Float 1.0)) ];
        child =
          Logical.select
            (Expr.ge (Expr.col o_date) (Expr.date "2013-12-01"))
            (Logical.get ~rel:0 "orders") }
  in
  let plan = optimize ~stats catalog lg in
  Alcotest.(check bool) "valid" true (Mpp_verify.Verify.ok ~catalog plan);
  let before = Storage.count_table storage orders in
  let rows, m = run ~catalog ~storage plan in
  Alcotest.(check int) "only December touched" 1 (parts m orders);
  Alcotest.(check int) "rowcount stable" before (Storage.count_table storage orders);
  match rows with
  | [ r ] -> Alcotest.(check bool) "updated > 0" true (Value.to_int r.(0) > 0)
  | _ -> Alcotest.fail "one count row"

let test_project_and_limit () =
  let catalog, storage, stats, orders, _ = env () in
  let o_id = Mpp_catalog.Table.colref orders ~rel:0 "id" in
  let lg =
    Logical.Limit
      { rows = 7;
        child =
          Logical.Project
            { exprs = [ ("id", Expr.col o_id) ];
              child =
                Logical.Sort
                  { keys = [ Expr.col o_id ];
                    child = Logical.get ~rel:0 "orders" } } }
  in
  let plan = optimize ~stats catalog lg in
  let rows, _ = run ~catalog ~storage plan in
  Alcotest.(check (list int)) "first seven ids" [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.map (fun r -> Value.to_int r.(0)) rows)

let test_two_phase_aggregation () =
  let catalog, storage, stats, orders, _ = env () in
  let o_amount = Mpp_catalog.Table.colref orders ~rel:0 "amount" in
  let o_date = Mpp_catalog.Table.colref orders ~rel:0 "date" in
  let lg =
    Logical.aggregate
      ~group_by:[ Expr.Func ("year", [ Expr.col o_date ]) ]
      [ ("n", Plan.Count_star); ("s", Plan.Sum (Expr.col o_amount));
        ("a", Plan.Avg (Expr.col o_amount)) ]
      (Logical.get ~rel:0 "orders")
  in
  let two_phase = optimize ~stats catalog lg in
  (* shape: two Agg nodes with a Motion between them *)
  let aggs =
    Plan.fold
      (fun acc p -> match p with Plan.Agg _ -> acc + 1 | _ -> acc)
      0 two_phase
  in
  Alcotest.(check int) "partial + final aggregate" 2 aggs;
  (* the legacy planner gathers and aggregates once: the single-phase
     reference *)
  let single =
    Mpp_planner.Planner.plan (Mpp_planner.Planner.create ~catalog ()) lg
  in
  let r2, m2 = run ~catalog ~storage two_phase in
  let r1, m1 = run ~catalog ~storage single in
  Support.check_rows_equal "two-phase = single-phase" r1 r2;
  (* the partial aggregate compresses what crosses the wire *)
  Alcotest.(check bool) "two-phase moves fewer tuples" true
    (m2.Mpp_exec.Metrics.tuples_moved < m1.Mpp_exec.Metrics.tuples_moved);
  (* integer counts stay integers through the sum-of-counts recombination *)
  match r2 with
  | (row :: _) ->
      Alcotest.(check bool) "count is an integer" true
        (match row.(1) with Value.Int _ -> true | _ -> false)
  | [] -> Alcotest.fail "group rows expected"

let test_partition_wise_join () =
  let catalog = Cat.create () in
  let part name =
    Mpp_catalog.Partition.single_level
      ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
      ~key_index:1 ~key_name:"b" ~scheme:Mpp_catalog.Partition.Range
      ~table_name:name
      (Mpp_catalog.Partition.int_ranges ~start:0 ~width:10 ~count:8)
  in
  let r =
    Cat.add_table catalog ~name:"r"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:(Mpp_catalog.Distribution.Hashed [ 1 ])
      ~partitioning:(part "r") ()
  in
  let s =
    Cat.add_table catalog ~name:"s"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:(Mpp_catalog.Distribution.Hashed [ 1 ])
      ~partitioning:(part "s") ()
  in
  let storage = Storage.create ~nsegments:4 in
  for i = 0 to 199 do
    Storage.insert storage r [| Value.Int i; Value.Int (i mod 80) |];
    Storage.insert storage s [| Value.Int (i * 3); Value.Int (i mod 80) |]
  done;
  let r_b = Mpp_catalog.Table.colref r ~rel:0 "b" in
  let s_b = Mpp_catalog.Table.colref s ~rel:1 "b" in
  let lg =
    Logical.aggregate
      [ ("n", Plan.Count_star) ]
      (Logical.join
         (Expr.eq (Expr.col r_b) (Expr.col s_b))
         (Logical.get ~rel:0 "r") (Logical.get ~rel:1 "s"))
  in
  let pwj_config =
    { Opt.default_config with enable_partition_wise_join = true }
  in
  let pwj = optimize ~config:pwj_config catalog lg in
  let dyn = optimize catalog lg in
  (* the partition-wise plan is an Append of per-pair joins, no selectors *)
  let appends =
    Plan.fold
      (fun acc p -> match p with Plan.Append cs -> acc + List.length cs | _ -> acc)
      0 pwj
  in
  Alcotest.(check int) "8 per-pair joins" 8 appends;
  Alcotest.(check (list int)) "no DynamicScan left" []
    (Plan.dynamic_scan_ids pwj);
  let r1, _ = run ~catalog ~storage pwj in
  let r2, _ = run ~catalog ~storage dyn in
  Support.check_rows_equal "partition-wise = dynamic-scan" r1 r2;
  (* and the plan-size drawback the paper calls out *)
  Alcotest.(check bool) "partition-wise plan is bigger" true
    (Mpp_plan.Plan_size.bytes ~catalog pwj
    > 2 * Mpp_plan.Plan_size.bytes ~catalog dyn)

(* Multi-key co-location: t1(a,b) ⋈ t2(x,y) on [a = x AND b = y], 40
   matching rows on 4 segments.  A join may skip moving its build side
   only when each build hash column is paired with the probe hash column at
   the same position, and a redistribution must hash the build side in the
   probe's column order; otherwise equal keys land on different segments
   and matches are lost.  The legacy Planner (which always moves) is the
   reference row count. *)
let test_multi_key_colocation () =
  let shape name (d1, d2) =
    let catalog = Cat.create () in
    let t1 =
      Cat.add_table catalog ~name:"t1"
        ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
        ~distribution:d1 ()
    in
    let t2 =
      Cat.add_table catalog ~name:"t2"
        ~columns:[ ("x", Value.Tint); ("y", Value.Tint) ]
        ~distribution:d2 ()
    in
    let storage = Storage.create ~nsegments:4 in
    for i = 0 to 39 do
      Storage.insert storage t1 [| Value.Int i; Value.Int (i * 7 mod 13) |];
      Storage.insert storage t2 [| Value.Int i; Value.Int (i * 7 mod 13) |]
    done;
    let stats = Mpp_stats.Stats_source.create ~catalog ~storage in
    let col t rel c = Expr.col (Mpp_catalog.Table.colref t ~rel c) in
    let lg =
      Logical.join
        (Expr.conj
           [ Expr.eq (col t1 0 "a") (col t2 1 "x");
             Expr.eq (col t1 0 "b") (col t2 1 "y") ])
        (Logical.get ~rel:0 "t1") (Logical.get ~rel:1 "t2")
    in
    let count plan = List.length (fst (run ~catalog ~storage plan)) in
    let planner = Mpp_planner.Planner.(plan (create ~catalog ())) lg in
    Alcotest.(check int) (name ^ ": planner") 40 (count planner);
    Alcotest.(check int) (name ^ ": orca") 40
      (count (optimize ~stats catalog lg))
  in
  let module D = Mpp_catalog.Distribution in
  shape "a|x" (D.Hashed [ 0 ], D.Hashed [ 0 ]);
  shape "a|y" (D.Hashed [ 0 ], D.Hashed [ 1 ]);
  shape "random|(y,x)" (D.Random, D.Hashed [ 1; 0 ]);
  shape "(a,b)|(y,x)" (D.Hashed [ 0; 1 ], D.Hashed [ 1; 0 ])

let test_every_plan_is_checked () =
  (* the optimizer raises rather than returning an invalid plan *)
  let catalog, _, _, orders, date_dim = env () in
  ignore orders;
  ignore date_dim;
  (* a plan for a nonexistent table must raise cleanly *)
  Alcotest.(check bool) "unknown table raises" true
    (try ignore (optimize catalog (Logical.get ~rel:0 "missing")); false
     with Invalid_argument _ -> true)

(* Whole-pipeline soundness: random predicates over the partitioning key
   never change query answers when selection prunes. *)
let prop_pruning_preserves_answers =
  let catalog, orders, date_dim = Support.star_schema () in
  ignore date_dim;
  let storage = Storage.create ~nsegments:4 in
  Support.load_orders storage orders 500;
  let o_date = Mpp_catalog.Table.colref orders ~rel:0 "date" in
  let date_of_day day = Value.Date (Date.add_days (Date.of_ymd 2012 1 1) day) in
  QCheck2.Test.make ~count:60
    ~name:"optimizer pruning never changes answers"
    QCheck2.Gen.(pair (int_range 0 730) (int_range 0 730))
    (fun (d1, d2) ->
      let lo = min d1 d2 and hi = max d1 d2 in
      let lg =
        Logical.select
          (Expr.between (Expr.col o_date)
             (Expr.Const (date_of_day lo)) (Expr.Const (date_of_day hi)))
          (Logical.get ~rel:0 "orders")
      in
      let plan = optimize catalog lg in
      let pruned, _ = run ~catalog ~storage plan in
      let full, _ = run ~selection_enabled:false ~catalog ~storage plan in
      Support.rows_equal pruned full)

let () =
  Alcotest.run "optimizer"
    [ ("pipeline",
       [ Alcotest.test_case "static elimination" `Quick test_static_query;
         Alcotest.test_case "dynamic elimination" `Quick test_dpe_query;
         Alcotest.test_case "selection disabled" `Quick
           test_selection_disabled_config;
         Alcotest.test_case "misestimates flip orientation" `Quick
           test_misestimate_flips_orientation;
         Alcotest.test_case "two-phase aggregation" `Quick
           test_two_phase_aggregation;
         Alcotest.test_case "partition-wise join ablation" `Quick
           test_partition_wise_join;
         Alcotest.test_case "multi-key co-location" `Quick
           test_multi_key_colocation;
         Alcotest.test_case "update pipeline" `Quick test_update_pipeline;
         Alcotest.test_case "project/sort/limit" `Quick test_project_and_limit;
         Alcotest.test_case "errors surface" `Quick test_every_plan_is_checked ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest [ prop_pruning_preserves_answers ]) ]
