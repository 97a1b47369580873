(** End-to-end integration tests retracing the paper's narrative:
    - the Figure-2 (static) and Figure-4 (dynamic, IN-subquery) forms of the
      last-quarter query compute the same answer and prune the same
      partitions;
    - prepared statements select partitions at execution time (§1);
    - multi-level queries match a brute-force reference;
    - SQL → optimize → execute pipelines survive edge cases (empty results,
      out-of-range predicates, NULL handling). *)

open Mpp_expr
module Storage = Mpp_storage.Storage
module Plan = Mpp_plan.Plan
module Metrics = Mpp_exec.Metrics

let env () =
  let catalog, orders, date_dim = Support.star_schema () in
  let storage = Storage.create ~nsegments:4 in
  Support.load_orders storage orders 2000;
  Support.load_date_dim storage date_dim;
  (catalog, storage, orders)

let sql_run ~catalog ~storage ?params sql =
  let plan =
    Orca.Optimizer.optimize (Orca.Optimizer.create ~catalog ())
      (Mpp_sql.Sql.to_logical catalog sql)
  in
  Mpp_exec.Exec.run ?params ~catalog ~storage plan

let test_figure2_vs_figure4 () =
  let catalog, storage, orders = env () in
  (* Figure 2: static range predicate *)
  let static_rows, static_m =
    sql_run ~catalog ~storage
      "SELECT avg(amount) FROM orders WHERE date BETWEEN '2013-10-01' AND \
       '2013-12-31'"
  in
  (* Figure 4: the same months selected through the dimension table *)
  let dynamic_rows, dynamic_m =
    sql_run ~catalog ~storage
      "SELECT avg(amount) FROM orders WHERE date IN (SELECT d_date FROM \
       date_dim WHERE d_year = 2013 AND d_month BETWEEN 10 AND 12)"
  in
  Support.check_rows_equal "figure 2 = figure 4" static_rows dynamic_rows;
  let parts m = Metrics.parts_scanned_of m ~root_oid:orders.Mpp_catalog.Table.oid in
  Alcotest.(check int) "static scans 3" 3 (parts static_m);
  Alcotest.(check int) "dynamic scans 3 too" 3 (parts dynamic_m)

let test_prepared_statement_rebinding () =
  let catalog, storage, orders = env () in
  let plan =
    Orca.Optimizer.optimize (Orca.Optimizer.create ~catalog ())
      (Mpp_sql.Sql.to_logical catalog
         "SELECT count(*) FROM orders WHERE date >= $1 AND date < $2")
  in
  let exec lo hi =
    let params =
      [| Value.Null; Value.date_of_string lo; Value.date_of_string hi |]
    in
    let rows, m = Mpp_exec.Exec.run ~params ~catalog ~storage plan in
    ( (match rows with [ r ] -> Value.to_int r.(0) | _ -> -1),
      Metrics.parts_scanned_of m ~root_oid:orders.Mpp_catalog.Table.oid )
  in
  let c1, p1 = exec "2012-01-01" "2012-02-01" in
  let c2, p2 = exec "2013-01-01" "2014-01-01" in
  Alcotest.(check int) "one month = one partition" 1 p1;
  Alcotest.(check int) "one year = twelve partitions" 12 p2;
  Alcotest.(check bool) "counts differ accordingly" true (c2 > c1 && c1 > 0);
  let c_all, _ = exec "2012-01-01" "2014-01-01" in
  Alcotest.(check int) "both executions partition the data" c_all (c1 + c2 + (c_all - c1 - c2))

let test_multilevel_vs_bruteforce () =
  let catalog, orders = Support.multilevel_schema () in
  let storage = Storage.create ~nsegments:4 in
  let start = Date.of_ymd 2012 1 1 in
  let data =
    List.init 500 (fun i ->
        [| Value.Int i;
           Value.Float (float_of_int (i mod 37));
           Value.Date (Date.add_days start (i * 365 / 500));
           Value.String (if i mod 3 = 0 then "east" else "west") |])
  in
  List.iter (Storage.insert storage orders) data;
  let cases =
    [ "SELECT count(*) FROM orders WHERE date >= '2012-06-01' AND region = \
       'east'";
      "SELECT count(*) FROM orders WHERE region = 'west'";
      "SELECT count(*) FROM orders WHERE date < '2012-02-01'" ]
  in
  let brute pred =
    List.length (List.filter pred data)
  in
  let expected =
    [ brute (fun t ->
          Value.compare t.(2) (Value.date_of_string "2012-06-01") >= 0
          && t.(3) = Value.String "east");
      brute (fun t -> t.(3) = Value.String "west");
      brute (fun t ->
          Value.compare t.(2) (Value.date_of_string "2012-02-01") < 0) ]
  in
  List.iter2
    (fun sql want ->
      let rows, _ = sql_run ~catalog ~storage sql in
      match rows with
      | [ r ] -> Alcotest.(check int) sql want (Value.to_int r.(0))
      | _ -> Alcotest.fail "one row expected")
    cases expected

let test_empty_results () =
  let catalog, storage, orders = env () in
  let rows, m =
    sql_run ~catalog ~storage
      "SELECT id, amount FROM orders WHERE date > '2020-01-01'"
  in
  Alcotest.(check int) "no rows" 0 (List.length rows);
  Alcotest.(check int) "no partitions scanned at all" 0
    (Metrics.parts_scanned_of m ~root_oid:orders.Mpp_catalog.Table.oid);
  let agg_rows, _ =
    sql_run ~catalog ~storage
      "SELECT count(*), avg(amount) FROM orders WHERE date > '2020-01-01'"
  in
  match agg_rows with
  | [ r ] ->
      Alcotest.(check bool) "count 0, avg null" true
        (r.(0) = Value.Int 0 && Value.is_null r.(1))
  | _ -> Alcotest.fail "scalar agg row expected"

let test_group_by_partition_key_function () =
  let catalog, storage, _ = env () in
  let rows, _ =
    sql_run ~catalog ~storage
      "SELECT year(date), count(*) FROM orders GROUP BY year(date)"
  in
  Alcotest.(check int) "two years" 2 (List.length rows);
  let total =
    List.fold_left (fun acc r -> acc + Value.to_int r.(1)) 0 rows
  in
  Alcotest.(check int) "all rows grouped" 2000 total

let test_update_via_sql_moves_rows () =
  let catalog, storage, _orders = env () in
  let updated_rows, _ =
    sql_run ~catalog ~storage
      "UPDATE orders SET date = '2013-06-15' WHERE date < '2012-02-01'"
  in
  let updated =
    match updated_rows with [ r ] -> Value.to_int r.(0) | _ -> -1
  in
  Alcotest.(check bool) "updated something" true (updated > 0);
  let leftover, _ =
    sql_run ~catalog ~storage
      "SELECT count(*) FROM orders WHERE date < '2012-02-01'"
  in
  (match leftover with
  | [ r ] -> Alcotest.(check bool) "January emptied" true (r.(0) = Value.Int 0)
  | _ -> Alcotest.fail "count row");
  let june, _ =
    sql_run ~catalog ~storage
      "SELECT count(*) FROM orders WHERE date = '2013-06-15'"
  in
  match june with
  | [ r ] ->
      Alcotest.(check bool) "rows landed in June partition" true
        (Value.to_int r.(0) >= updated)
  | _ -> Alcotest.fail "count row"

let test_insert_via_sql () =
  let catalog, storage, orders = env () in
  let before, _ = sql_run ~catalog ~storage "SELECT count(*) FROM orders" in
  let inserted, _ =
    sql_run ~catalog ~storage
      "INSERT INTO orders (id, amount, date) VALUES (90001, 5.5, \
       '2013-08-15'), (90002, 6.5, '2012-01-02')"
  in
  (match inserted with
  | [ r ] -> Alcotest.(check bool) "2 inserted" true (r.(0) = Value.Int 2)
  | _ -> Alcotest.fail "count row");
  let after, _ = sql_run ~catalog ~storage "SELECT count(*) FROM orders" in
  (match (before, after) with
  | [ b ], [ a ] ->
      Alcotest.(check int) "count grew by 2" (Value.to_int b.(0) + 2)
        (Value.to_int a.(0))
  | _ -> Alcotest.fail "count rows");
  (* the new rows were routed to the right partitions *)
  let aug, m =
    sql_run ~catalog ~storage
      "SELECT count(*) FROM orders WHERE id = 90001 AND date = '2013-08-15'"
  in
  (match aug with
  | [ r ] -> Alcotest.(check bool) "row findable" true (r.(0) = Value.Int 1)
  | _ -> Alcotest.fail "count row");
  Alcotest.(check int) "looked in exactly one partition" 1
    (Metrics.parts_scanned_of m ~root_oid:orders.Mpp_catalog.Table.oid);
  (* inserting outside every partition's range is a constraint violation *)
  Alcotest.(check bool) "out-of-range insert rejected" true
    (try
       ignore
         (sql_run ~catalog ~storage
            "INSERT INTO orders VALUES (1, 1.0, '2031-01-01')");
       false
     with Mpp_storage.Storage.No_partition_for_tuple _ -> true);
  (* parameterized insert *)
  let plan =
    Orca.Optimizer.optimize (Orca.Optimizer.create ~catalog ())
      (Mpp_sql.Sql.to_logical catalog
         "INSERT INTO orders VALUES ($1, 2.0, '2012-06-06')")
  in
  let params = [| Value.Null; Value.Int 90003 |] in
  let rows, _ = Mpp_exec.Exec.run ~params ~catalog ~storage plan in
  match rows with
  | [ r ] -> Alcotest.(check bool) "param insert" true (r.(0) = Value.Int 1)
  | _ -> Alcotest.fail "count row"

(* A multi-row INSERT is one write: when one VALUES row lies outside every
   partition, the statement fails and none of its rows are stored. *)
let test_insert_all_or_nothing () =
  let catalog, storage, orders = env () in
  let before = Storage.count_table storage orders in
  Alcotest.(check bool) "the statement fails" true
    (try
       ignore
         (sql_run ~catalog ~storage
            "INSERT INTO orders VALUES (90001, 1.0, '2012-05-05'), \
             (90002, 2.0, '2031-01-01'), (90003, 3.0, '2013-05-05')");
       false
     with Storage.No_partition_for_tuple _ -> true);
  Alcotest.(check int) "no row stored" before (Storage.count_table storage orders)

(* An UPDATE is one write too: when one new image lies outside every
   partition, the statement fails and no row is removed or changed. *)
let test_update_all_or_nothing () =
  let catalog, storage, orders = env () in
  let before = Storage.count_table storage orders in
  Alcotest.(check bool) "the statement fails" true
    (try
       ignore
         (sql_run ~catalog ~storage
            "UPDATE orders SET date = '2031-01-01' WHERE id < 10");
       false
     with Storage.No_partition_for_tuple _ -> true);
  Alcotest.(check int) "no row removed" before
    (Storage.count_table storage orders);
  let kept, _ =
    sql_run ~catalog ~storage
      "SELECT count(*) FROM orders WHERE id < 10 AND date < '2012-02-01'"
  in
  Alcotest.(check (list int)) "the rows are unchanged" [ 10 ]
    (List.map (fun r -> Value.to_int r.(0)) kept)

let test_delete_via_sql () =
  let catalog, storage, orders = env () in
  ignore orders;
  let before, _ = sql_run ~catalog ~storage "SELECT count(*) FROM orders" in
  let deleted_rows, _ =
    sql_run ~catalog ~storage "DELETE FROM orders WHERE date >= '2013-07-01'"
  in
  let after, _ = sql_run ~catalog ~storage "SELECT count(*) FROM orders" in
  match (before, deleted_rows, after) with
  | [ b ], [ d ], [ a ] ->
      Alcotest.(check int) "before = after + deleted"
        (Value.to_int b.(0))
        (Value.to_int a.(0) + Value.to_int d.(0))
  | _ -> Alcotest.fail "count rows"

let test_three_segment_cluster () =
  (* the same pipeline on a differently sized cluster *)
  let catalog, orders, date_dim = Support.star_schema () in
  let storage = Storage.create ~nsegments:7 in
  Support.load_orders storage orders 999;
  Support.load_date_dim storage date_dim;
  let rows, m =
    sql_run ~catalog ~storage
      "SELECT count(*) FROM orders o, date_dim d WHERE o.date = d.d_date AND \
       d.d_year = 2012 AND d.d_month = 6"
  in
  (match rows with
  | [ r ] -> Alcotest.(check bool) "plausible count" true (Value.to_int r.(0) > 0)
  | _ -> Alcotest.fail "one row");
  Alcotest.(check int) "one partition on 7 segments" 1
    (Metrics.parts_scanned_of m ~root_oid:orders.Mpp_catalog.Table.oid)

let () =
  Alcotest.run "integration"
    [ ("paper narrative",
       [ Alcotest.test_case "figure 2 vs figure 4" `Quick test_figure2_vs_figure4;
         Alcotest.test_case "prepared statements" `Quick
           test_prepared_statement_rebinding;
         Alcotest.test_case "multi-level vs brute force" `Quick
           test_multilevel_vs_bruteforce ]);
      ("edge cases",
       [ Alcotest.test_case "empty results" `Quick test_empty_results;
         Alcotest.test_case "group by key function" `Quick
           test_group_by_partition_key_function;
         Alcotest.test_case "update moves across partitions" `Quick
           test_update_via_sql_moves_rows;
         Alcotest.test_case "insert" `Quick test_insert_via_sql;
         Alcotest.test_case "insert is all-or-nothing" `Quick
           test_insert_all_or_nothing;
         Alcotest.test_case "update is all-or-nothing" `Quick
           test_update_all_or_nothing;
         Alcotest.test_case "delete" `Quick test_delete_via_sql;
         Alcotest.test_case "seven segments" `Quick test_three_segment_cluster ]) ]
