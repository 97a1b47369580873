(** PartitionSelector placement tests — the paper's Algorithms 1–4 and the
    worked examples of Figures 5 and 8. *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Placement = Orca.Placement

(* Collect the selectors of a placed plan as (id, is_streaming, predicates). *)
let selectors plan =
  Plan.fold
    (fun acc p ->
      match p with
      | Plan.Partition_selector { part_scan_id; child; predicates; _ } ->
          (part_scan_id, child <> None, predicates) :: acc
      | _ -> acc)
    [] plan
  |> List.rev

let find_selector plan id = List.find (fun (i, _, _) -> i = id) (selectors plan)

let orders_env () =
  let catalog, orders = Support.orders_schema () in
  let o_date = Mpp_catalog.Table.colref orders ~rel:0 "date" in
  (catalog, orders, o_date)

let scan ?filter (orders : Mpp_catalog.Table.t) =
  Plan.dynamic_scan ?filter ~rel:0 ~part_scan_id:1 orders.Mpp_catalog.Table.oid

let test_full_scan_gets_phi_selector () =
  (* Figure 5(a) *)
  let catalog, orders, _ = orders_env () in
  let placed = Placement.place ~catalog (scan orders) in
  (match placed with
  | Plan.Sequence [ Plan.Partition_selector { child = None; predicates; _ };
                    Plan.Dynamic_scan _ ] ->
      Alcotest.(check bool) "predicate is Φ" true
        (List.for_all Option.is_none predicates)
  | _ -> Alcotest.fail "expected Sequence [leaf selector; scan]");
  Alcotest.(check bool) "valid" true (Support.structure_ok ~catalog placed)

let test_select_folds_predicate () =
  (* Figures 5(b)/5(c): the Filter's restriction reaches the selector *)
  let catalog, orders, o_date = orders_env () in
  let pred = Expr.ge (Expr.col o_date) (Expr.date "2013-10-01") in
  let placed = Placement.place ~catalog (Plan.filter pred (scan orders)) in
  let _, streaming, predicates = find_selector placed 1 in
  Alcotest.(check bool) "leaf selector" false streaming;
  (match predicates with
  | [ Some p ] ->
      Alcotest.(check bool) "selection predicate captured" true (Expr.equal p pred)
  | _ -> Alcotest.fail "expected one predicate");
  Alcotest.(check bool) "valid" true (Support.structure_ok ~catalog placed)

let test_scan_inline_filter_harvested () =
  (* the same when the predicate was pushed into the scan's own qual *)
  let catalog, orders, o_date = orders_env () in
  let pred = Expr.lt (Expr.col o_date) (Expr.date "2012-03-01") in
  let placed = Placement.place ~catalog (scan ~filter:pred orders) in
  let _, _, predicates = find_selector placed 1 in
  match predicates with
  | [ Some p ] -> Alcotest.(check bool) "inline qual captured" true (Expr.equal p pred)
  | _ -> Alcotest.fail "expected predicate from the scan qual"

let test_join_pushes_to_opposite_side () =
  (* Figure 5(d): selector on the build side, streaming *)
  let catalog, orders, o_date = orders_env () in
  let dim =
    Mpp_catalog.Catalog.add_table catalog ~name:"dim"
      ~columns:[ ("k", Value.Tdate) ]
      ~distribution:Mpp_catalog.Distribution.Replicated ()
  in
  let dim_k = Mpp_catalog.Table.colref dim ~rel:1 "k" in
  let join_pred = Expr.eq (Expr.col o_date) (Expr.col dim_k) in
  let tree =
    Plan.hash_join ~kind:Plan.Inner ~pred:join_pred
      (Plan.table_scan ~rel:1 dim.Mpp_catalog.Table.oid)
      (scan orders)
  in
  let placed = Placement.place ~catalog tree in
  let _, streaming, predicates = find_selector placed 1 in
  Alcotest.(check bool) "streaming selector" true streaming;
  (match predicates with
  | [ Some p ] ->
      Alcotest.(check bool) "join predicate drives selection" true
        (Expr.equal p join_pred)
  | _ -> Alcotest.fail "expected join predicate");
  (* the selector must wrap the build (left) child *)
  (match placed with
  | Plan.Hash_join { left = Plan.Partition_selector { child = Some _; _ }; _ } ->
      ()
  | _ -> Alcotest.fail "selector expected on the build side");
  Alcotest.(check bool) "valid" true (Support.structure_ok ~catalog placed)

let test_join_key_in_build_side_resolves_locally () =
  (* when the DynamicScan is on the build side, the spec stays there — the
     join predicate cannot prune it (values arrive too late) *)
  let catalog, orders, o_date = orders_env () in
  let dim =
    Mpp_catalog.Catalog.add_table catalog ~name:"dim"
      ~columns:[ ("k", Value.Tdate) ]
      ~distribution:Mpp_catalog.Distribution.Replicated ()
  in
  let dim_k = Mpp_catalog.Table.colref dim ~rel:1 "k" in
  let tree =
    Plan.hash_join ~kind:Plan.Inner
      ~pred:(Expr.eq (Expr.col o_date) (Expr.col dim_k))
      (scan orders)
      (Plan.table_scan ~rel:1 dim.Mpp_catalog.Table.oid)
  in
  let placed = Placement.place ~catalog tree in
  let _, streaming, predicates = find_selector placed 1 in
  Alcotest.(check bool) "leaf selector on its own side" false streaming;
  Alcotest.(check bool) "no predicate harvested" true
    (List.for_all Option.is_none predicates);
  Alcotest.(check bool) "valid" true (Support.structure_ok ~catalog placed)

let test_figure8_two_selectors () =
  (* Figure 8: Select(date_dim) ⋈ sales_fact, then ⋈ customer.
     date_dim is itself partitioned (id 1); sales_fact is id 2. *)
  let catalog = Mpp_catalog.Catalog.create () in
  let alloc () = Mpp_catalog.Catalog.alloc_oid catalog in
  let mk_part key_index key_name name count =
    Mpp_catalog.Partition.single_level ~alloc_oid:alloc ~key_index ~key_name
      ~scheme:Mpp_catalog.Partition.Range ~table_name:name
      (Mpp_catalog.Partition.int_ranges ~start:0 ~width:10 ~count)
  in
  let date_dim =
    Mpp_catalog.Catalog.add_table catalog ~name:"date_dim"
      ~columns:[ ("id", Value.Tint); ("month", Value.Tint) ]
      ~distribution:Mpp_catalog.Distribution.Replicated
      ~partitioning:(mk_part 1 "month" "date_dim" 2) ()
  in
  let sales_fact =
    Mpp_catalog.Catalog.add_table catalog ~name:"sales_fact"
      ~columns:[ ("date_id", Value.Tint); ("cust_id", Value.Tint) ]
      ~distribution:(Mpp_catalog.Distribution.Hashed [ 0 ])
      ~partitioning:(mk_part 0 "date_id" "sales_fact" 5) ()
  in
  let customer =
    Mpp_catalog.Catalog.add_table catalog ~name:"customer_dim"
      ~columns:[ ("id", Value.Tint); ("state", Value.Tstring) ]
      ~distribution:Mpp_catalog.Distribution.Replicated ()
  in
  let dd_id = Mpp_catalog.Table.colref date_dim ~rel:0 "id" in
  let dd_month = Mpp_catalog.Table.colref date_dim ~rel:0 "month" in
  let sf_date = Mpp_catalog.Table.colref sales_fact ~rel:1 "date_id" in
  let sf_cust = Mpp_catalog.Table.colref sales_fact ~rel:1 "cust_id" in
  let c_id = Mpp_catalog.Table.colref customer ~rel:2 "id" in
  let month_pred = Expr.between (Expr.col dd_month) (Expr.int 10) (Expr.int 12) in
  let tree =
    Plan.hash_join ~kind:Plan.Inner
      ~pred:(Expr.eq (Expr.col c_id) (Expr.col sf_cust))
      (Plan.table_scan ~rel:2 customer.Mpp_catalog.Table.oid)
      (Plan.hash_join ~kind:Plan.Inner
         ~pred:(Expr.eq (Expr.col dd_id) (Expr.col sf_date))
         (Plan.filter month_pred
            (Plan.dynamic_scan ~rel:0 ~part_scan_id:1
               date_dim.Mpp_catalog.Table.oid))
         (Plan.dynamic_scan ~rel:1 ~part_scan_id:2
            sales_fact.Mpp_catalog.Table.oid))
  in
  let placed = Placement.place ~catalog tree in
  (* selector 1: leaf, carries the month predicate (Figure 8(b), lower) *)
  let _, s1_streaming, s1_preds = find_selector placed 1 in
  Alcotest.(check bool) "selector 1 is a leaf selector" false s1_streaming;
  (match s1_preds with
  | [ Some p ] -> Alcotest.(check bool) "month predicate folded" true
      (Expr.equal p month_pred)
  | _ -> Alcotest.fail "selector 1 predicate");
  (* selector 2: streaming, carries date_id = id (Figure 8(b), upper) *)
  let _, s2_streaming, s2_preds = find_selector placed 2 in
  Alcotest.(check bool) "selector 2 streams" true s2_streaming;
  (match s2_preds with
  | [ Some p ] ->
      Alcotest.(check bool) "join predicate on the key" true
        (Expr.equal p (Expr.eq (Expr.col dd_id) (Expr.col sf_date)))
  | _ -> Alcotest.fail "selector 2 predicate");
  Alcotest.(check bool) "placed plan valid" true
    (Support.structure_ok ~catalog placed);
  (* both selectors live inside the inner join's build side *)
  match placed with
  | Plan.Hash_join
      { right = Plan.Hash_join { left = build; _ }; _ } ->
      Alcotest.(check (list int)) "both selectors on the build side" [ 1; 2 ]
        (List.sort Int.compare (Plan.selector_ids build))
  | _ -> Alcotest.fail "unexpected shape"

let test_multilevel_placement () =
  let catalog, orders = Support.multilevel_schema () in
  let o_date = Mpp_catalog.Table.colref orders ~rel:0 "date" in
  let o_region = Mpp_catalog.Table.colref orders ~rel:0 "region" in
  let pred =
    Expr.And
      [ Expr.ge (Expr.col o_date) (Expr.date "2012-06-01");
        Expr.eq (Expr.col o_region) (Expr.str "east") ]
  in
  let placed =
    Placement.place ~catalog
      (Plan.filter pred
         (Plan.dynamic_scan ~rel:0 ~part_scan_id:1 orders.Mpp_catalog.Table.oid))
  in
  let _, _, predicates = find_selector placed 1 in
  match predicates with
  | [ Some _; Some _ ] ->
      Alcotest.(check bool) "valid" true (Support.structure_ok ~catalog placed)
  | _ -> Alcotest.fail "expected predicates on both levels"

let test_placement_through_agg () =
  (* Algorithm 2: a GroupBy forwards the spec to its defining child *)
  let catalog, orders, o_date = orders_env () in
  let pred = Expr.ge (Expr.col o_date) (Expr.date "2013-01-01") in
  let tree =
    Plan.agg ~group_by:[]
      ~aggs:[ ("n", Plan.Count_star) ]
      (Plan.filter pred (scan orders))
  in
  let placed = Placement.place ~catalog tree in
  let _, streaming, predicates = find_selector placed 1 in
  Alcotest.(check bool) "selector below the agg" false streaming;
  (match predicates with
  | [ Some _ ] -> ()
  | _ -> Alcotest.fail "predicate folded through agg");
  Alcotest.(check bool) "valid" true (Support.structure_ok ~catalog placed)

let test_eliminate_false_places_phi () =
  let catalog, orders, o_date = orders_env () in
  let pred = Expr.ge (Expr.col o_date) (Expr.date "2013-01-01") in
  let placed =
    Placement.place ~eliminate:false ~catalog
      (Plan.filter pred (scan orders))
  in
  let _, streaming, predicates = find_selector placed 1 in
  Alcotest.(check bool) "still a leaf selector" false streaming;
  Alcotest.(check bool) "but with Φ predicates" true
    (List.for_all Option.is_none predicates)

let test_idempotent_on_placed_plans () =
  (* re-running placement must not duplicate selectors *)
  let catalog, orders, _ = orders_env () in
  let placed = Placement.place ~catalog (scan orders) in
  let placed2 = Placement.place ~catalog placed in
  Alcotest.(check int) "still one selector" 1
    (List.length (selectors placed2))

let () =
  Alcotest.run "placement"
    [ ("figure 5 shapes",
       [ Alcotest.test_case "full scan (5a)" `Quick
           test_full_scan_gets_phi_selector;
         Alcotest.test_case "select folds predicate (5b/5c)" `Quick
           test_select_folds_predicate;
         Alcotest.test_case "inline scan qual harvested" `Quick
           test_scan_inline_filter_harvested;
         Alcotest.test_case "join DPE (5d)" `Quick
           test_join_pushes_to_opposite_side;
         Alcotest.test_case "scan on build side" `Quick
           test_join_key_in_build_side_resolves_locally ]);
      ("figure 8",
       [ Alcotest.test_case "two selectors, star join" `Quick
           test_figure8_two_selectors ]);
      ("extensions",
       [ Alcotest.test_case "multi-level specs" `Quick test_multilevel_placement;
         Alcotest.test_case "through aggregates" `Quick
           test_placement_through_agg;
         Alcotest.test_case "eliminate:false places Φ" `Quick
           test_eliminate_false_places_phi;
         Alcotest.test_case "idempotent" `Quick test_idempotent_on_placed_plans ]) ]
