(** Legacy-Planner tests: inheritance expansion, constraint exclusion, the
    rudimentary dynamic elimination, DML expansion, and result parity with
    Orca. *)

open Mpp_expr
module Storage = Mpp_storage.Storage
module Plan = Mpp_plan.Plan
module Planner = Mpp_planner.Planner
module Logical = Orca.Logical
module Metrics = Mpp_exec.Metrics

let env () =
  let catalog, orders, date_dim = Support.star_schema () in
  let storage = Storage.create ~nsegments:4 in
  Support.load_orders storage orders 1000;
  Support.load_date_dim storage date_dim;
  (catalog, storage, orders, date_dim)

let plan_with catalog lg = Planner.plan (Planner.create ~catalog ()) lg

(* count the Table_scan leaves in a plan *)
let scan_count plan =
  Plan.fold
    (fun acc p -> match p with Plan.Table_scan _ -> acc + 1 | _ -> acc)
    0 plan

let test_expansion () =
  let catalog, _, _, _ = env () in
  let p = plan_with catalog (Logical.get ~rel:0 "orders") in
  Alcotest.(check int) "all 24 leaves listed" 24 (scan_count p);
  Alcotest.(check bool) "no selectors" true (Plan.selector_ids p = [])

let test_constraint_exclusion () =
  let catalog, storage, orders, _ = env () in
  let o_date = Mpp_catalog.Table.colref orders ~rel:0 "date" in
  let lg =
    Logical.select
      (Expr.between (Expr.col o_date) (Expr.date "2013-10-01")
         (Expr.date "2013-12-31"))
      (Logical.get ~rel:0 "orders")
  in
  let p = plan_with catalog lg in
  Alcotest.(check int) "only the 3 surviving leaves in the plan" 3
    (scan_count p);
  let rows, m = Mpp_exec.Exec.run ~catalog ~storage p in
  Alcotest.(check int) "3 partitions scanned" 3
    (Metrics.parts_scanned_of m ~root_oid:orders.Mpp_catalog.Table.oid);
  Alcotest.(check bool) "rows produced" true (List.length rows > 0)

(* [Expansion.of_append] reads back what [to_plan] writes — the full, the
   statically excluded, the guarded and the statically empty expansion —
   keeps a repeated leaf, and rejects children with different filters. *)
let test_expansion_round_trip () =
  let module X = Mpp_plan.Expansion in
  let catalog, _, orders, _ = env () in
  let part = Option.get orders.Mpp_catalog.Table.partitioning in
  let full =
    { X.rel = 0; table = orders; part;
      leaves = Array.to_list part.Mpp_catalog.Partition.leaves;
      filter = None; guard = None }
  in
  let pred =
    Expr.between
      (Expr.col (Mpp_catalog.Table.colref orders ~rel:0 "date"))
      (Expr.date "2013-10-01") (Expr.date "2013-12-31")
  in
  let oids (x : X.t) =
    List.map (fun (lf : Mpp_catalog.Partition.leaf) -> lf.leaf_oid) x.leaves
  in
  let read what p =
    match X.of_append catalog p with
    | Some x -> x
    | None -> Alcotest.failf "%s: not recognized" what
  in
  List.iter
    (fun (what, (x : X.t), nleaves) ->
      let p = X.to_plan x in
      let y = read what p in
      Alcotest.(check int) (what ^ ": live leaves") nleaves
        (List.length y.leaves);
      Alcotest.(check (list int)) (what ^ ": leaves") (oids x) (oids y);
      Alcotest.(check (option int)) (what ^ ": guard") x.guard y.guard;
      Alcotest.(check string) (what ^ ": rebuilt") (Plan.to_string p)
        (Plan.to_string (X.to_plan y)))
    [ ("full", full, 24);
      ("excluded", X.exclude { full with filter = Some pred } pred, 3);
      ("guarded", { full with guard = Some 7 }, 24);
      ("empty", { full with leaves = [] }, 0) ];
  let scans = Plan.children (X.to_plan full) in
  let twice = read "repeated leaf" (Plan.Append (List.hd scans :: scans)) in
  Alcotest.(check int) "repeated leaf kept" 25 (List.length twice.leaves);
  let refiltered =
    match scans with
    | Plan.Table_scan s :: rest ->
        Plan.Append (Plan.Table_scan { s with filter = Some pred } :: rest)
    | _ -> Alcotest.fail "expansion of no scans"
  in
  Alcotest.(check bool) "mixed filters rejected" true
    (Option.is_none (X.of_append catalog refiltered))

let dpe_logical catalog =
  let orders = Mpp_catalog.Catalog.find catalog "orders" in
  let date_dim = Mpp_catalog.Catalog.find catalog "date_dim" in
  let o_date = Mpp_catalog.Table.colref orders ~rel:1 "date" in
  let d_date = Mpp_catalog.Table.colref date_dim ~rel:0 "d_date" in
  let d_month = Mpp_catalog.Table.colref date_dim ~rel:0 "d_month" in
  let d_year = Mpp_catalog.Table.colref date_dim ~rel:0 "d_year" in
  (* FROM date_dim, orders — dimension first, the shape the legacy planner's
     as-written orientation needs *)
  Logical.join
    (Expr.eq (Expr.col d_date) (Expr.col o_date))
    (Logical.select
       (Expr.conj
          [ Expr.eq (Expr.col d_year) (Expr.int 2013);
            Expr.eq (Expr.col d_month) (Expr.int 7) ])
       (Logical.get ~rel:0 "date_dim"))
    (Logical.get ~rel:1 "orders")

let test_rudimentary_dpe () =
  let catalog, storage, orders, _ = env () in
  let p = plan_with catalog (dpe_logical catalog) in
  (* the plan still lists every partition *)
  Alcotest.(check bool) "plan lists all 24 leaves (+dim scan)" true
    (scan_count p >= 24);
  (* ... but the guard skips the rest at run time *)
  let _, m = Mpp_exec.Exec.run ~catalog ~storage p in
  Alcotest.(check int) "July 2013 only" 1
    (Metrics.parts_scanned_of m ~root_oid:orders.Mpp_catalog.Table.oid);
  Alcotest.(check bool) "valid" true (Mpp_verify.Verify.ok ~catalog p)

let test_no_dpe_for_multilevel () =
  (* the legacy planner's DPE pattern is single-level only *)
  let catalog, orders = Support.multilevel_schema () in
  let storage = Storage.create ~nsegments:4 in
  let start = Date.of_ymd 2012 1 1 in
  for i = 0 to 199 do
    Storage.insert storage orders
      [| Value.Int i; Value.Float 1.0;
         Value.Date (Date.add_days start (i * 365 / 200));
         Value.String (if i mod 2 = 0 then "east" else "west") |]
  done;
  let date_dim =
    Mpp_catalog.Catalog.add_table catalog ~name:"dd"
      ~columns:[ ("d", Value.Tdate) ]
      ~distribution:Mpp_catalog.Distribution.Replicated ()
  in
  Storage.insert storage date_dim [| Value.Date (Date.of_ymd 2012 3 15) |];
  let o_date = Mpp_catalog.Table.colref orders ~rel:1 "date" in
  let dd_d = Mpp_catalog.Table.colref date_dim ~rel:0 "d" in
  let lg =
    Logical.join
      (Expr.eq (Expr.col dd_d) (Expr.col o_date))
      (Logical.get ~rel:0 "dd")
      (Logical.get ~rel:1 "orders")
  in
  let p = plan_with catalog lg in
  let _, m = Mpp_exec.Exec.run ~catalog ~storage p in
  Alcotest.(check int) "planner scans all multilevel leaves" 24
    (Metrics.parts_scanned_of m ~root_oid:orders.Mpp_catalog.Table.oid)

(* Two 6-leaf tables [r] and [s] over (a, b), range-partitioned on [b] in
   widths of 10 and hashed on [a]; with [rows], each holds b = 0..59. *)
let rs_env ?(rows = false) () =
  let catalog = Mpp_catalog.Catalog.create () in
  let mk name =
    let partitioning =
      Mpp_catalog.Partition.single_level
        ~alloc_oid:(fun () -> Mpp_catalog.Catalog.alloc_oid catalog)
        ~key_index:1 ~key_name:"b" ~scheme:Mpp_catalog.Partition.Range
        ~table_name:name
        (Mpp_catalog.Partition.int_ranges ~start:0 ~width:10 ~count:6)
    in
    Mpp_catalog.Catalog.add_table catalog ~name
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:(Mpp_catalog.Distribution.Hashed [ 0 ])
      ~partitioning ()
  in
  let r = mk "r" and s = mk "s" in
  let storage = Storage.create ~nsegments:4 in
  if rows then
    List.iter
      (fun tbl ->
        Storage.load storage tbl
          (List.init 60 (fun b -> [| Value.Int (b mod 7); Value.Int b |])))
      [ r; s ];
  (catalog, storage, r, s)

(* UPDATE r SET b = s.b FROM r JOIN s ON r.<on> = s.<on>, with [where] as
   r's own predicate when given. *)
let rs_update ?where ~on (r, s) =
  let col t rel c = Expr.col (Mpp_catalog.Table.colref t ~rel c) in
  let target = Logical.get ~rel:0 "r" in
  Logical.Update
    { rel = 0; table_name = "r";
      set_cols = [ ("b", col s 1 "b") ];
      child =
        Logical.join
          (Expr.eq (col r 0 on) (col s 1 on))
          (match where with
          | None -> target
          | Some w -> Logical.select (w (col r 0 "b")) target)
          (Logical.get ~rel:1 "s") }

let dml_bodies = function
  | Plan.Update { child = Plan.Append bodies; _ }
  | Plan.Delete { child = Plan.Append bodies; _ } ->
      List.length bodies
  | p -> Alcotest.failf "not a per-leaf DML plan: %s" (Plan.to_string p)

let test_dml_quadratic_expansion () =
  let catalog, _, r, s = rs_env () in
  let p = plan_with catalog (rs_update ~on:"a" (r, s)) in
  (* 6 target leaves × (1 target scan + 6 other-side leaves) = 42 scans *)
  Alcotest.(check int) "one body per target leaf" 6 (dml_bodies p);
  Alcotest.(check int) "quadratic expansion" 42 (scan_count p)

(* Updates [lg] with the Planner and with Orca, each on its own copy of
   the data: the counts updated, and [r] afterwards, must agree. *)
let dml_agrees lg =
  let run plan_of =
    let catalog, storage, _, _ = rs_env ~rows:true () in
    let rows, _ = Mpp_exec.Exec.run ~catalog ~storage (plan_of catalog lg) in
    let after, _ =
      Mpp_exec.Exec.run ~catalog ~storage
        (plan_with catalog (Logical.get ~rel:0 "r"))
    in
    (List.map (fun row -> Value.to_int row.(0)) rows, after)
  in
  let orca catalog = Orca.Optimizer.optimize (Orca.Optimizer.create ~catalog ()) in
  let n_planner, r_planner = run plan_with and n_orca, r_orca = run orca in
  Alcotest.(check (list int)) "rows updated: planner = orca" n_orca n_planner;
  Support.check_rows_equal "r after the update" r_orca r_planner;
  (n_planner, r_planner)

(* Constraint exclusion on the target: [r.b < 10] contradicts all of r's
   leaves but the first, so one body is planned, not six. *)
let test_dml_target_exclusion () =
  let catalog, _, r, s = rs_env () in
  let lg =
    rs_update ~on:"b" ~where:(fun b -> Expr.lt b (Expr.int 10)) (r, s)
  in
  let p = plan_with catalog lg in
  Alcotest.(check int) "one body" 1 (dml_bodies p);
  Alcotest.(check int) "1 target scan + 6 other-side leaves" 7 (scan_count p);
  let updated, _ = dml_agrees lg in
  Alcotest.(check (list int)) "b = 0..9 updated" [ 10 ] updated

(* A target predicate no leaf satisfies still plans one body: the plan
   verifies (the Planner verifies what it emits) and updates nothing. *)
let test_dml_every_leaf_excluded () =
  let catalog, _, r, s = rs_env () in
  let lg =
    rs_update ~on:"b" ~where:(fun b -> Expr.ge b (Expr.int 60)) (r, s)
  in
  Alcotest.(check int) "one body kept" 1 (dml_bodies (plan_with catalog lg));
  let updated, after = dml_agrees lg in
  Alcotest.(check (list int)) "nothing updated" [ 0 ] updated;
  let catalog, storage, _, _ = rs_env ~rows:true () in
  let before, _ =
    Mpp_exec.Exec.run ~catalog ~storage
      (plan_with catalog (Logical.get ~rel:0 "r"))
  in
  Support.check_rows_equal "r unchanged" before after

let test_parity_with_orca () =
  let catalog, storage, _, _ = env () in
  let lg = dpe_logical catalog in
  let p_planner = plan_with catalog lg in
  let p_orca = Orca.Optimizer.optimize (Orca.Optimizer.create ~catalog ()) lg in
  let r1, _ = Mpp_exec.Exec.run ~catalog ~storage p_planner in
  let r2, _ = Mpp_exec.Exec.run ~catalog ~storage p_orca in
  Support.check_rows_equal "planner = orca" r1 r2

let test_plan_size_vs_orca () =
  let catalog, _, _, _ = env () in
  let o_date =
    Mpp_catalog.Table.colref (Mpp_catalog.Catalog.find catalog "orders")
      ~rel:0 "date"
  in
  let lg =
    Logical.select
      (Expr.ge (Expr.col o_date) (Expr.date "2012-01-01"))
      (Logical.get ~rel:0 "orders")
  in
  let planner_kb =
    Mpp_plan.Plan_size.kilobytes ~catalog (plan_with catalog lg)
  in
  let orca_kb =
    Mpp_plan.Plan_size.kilobytes ~catalog
      (Orca.Optimizer.optimize (Orca.Optimizer.create ~catalog ()) lg)
  in
  Alcotest.(check bool) "full-range planner plan much larger" true
    (planner_kb > 3.0 *. orca_kb)

(* Whole-baseline soundness: on random range queries the legacy planner and
   Orca agree, even though their plans differ radically. *)
let prop_planner_orca_agree =
  let catalog, orders, date_dim = Support.star_schema () in
  ignore date_dim;
  let storage = Storage.create ~nsegments:4 in
  Support.load_orders storage orders 600;
  let o_date = Mpp_catalog.Table.colref orders ~rel:0 "date" in
  let date_of_day day =
    Value.Date (Date.add_days (Date.of_ymd 2012 1 1) day)
  in
  QCheck2.Test.make ~count:40 ~name:"planner and orca agree on range queries"
    QCheck2.Gen.(pair (int_range 0 730) (int_range 0 730))
    (fun (d1, d2) ->
      let lo = min d1 d2 and hi = max d1 d2 in
      let lg =
        Logical.select
          (Expr.between (Expr.col o_date)
             (Expr.Const (date_of_day lo))
             (Expr.Const (date_of_day hi)))
          (Logical.get ~rel:0 "orders")
      in
      let p1, _ =
        Mpp_exec.Exec.run ~catalog ~storage
          (Planner.plan (Planner.create ~catalog ()) lg)
      in
      let p2, _ =
        Mpp_exec.Exec.run ~catalog ~storage
          (Orca.Optimizer.optimize (Orca.Optimizer.create ~catalog ()) lg)
      in
      Support.rows_equal p1 p2)

let () =
  Alcotest.run "planner"
    [ ("expansion",
       [ Alcotest.test_case "inheritance expansion" `Quick test_expansion;
         Alcotest.test_case "constraint exclusion" `Quick
           test_constraint_exclusion;
         Alcotest.test_case "recognized as built" `Quick
           test_expansion_round_trip ]);
      ("dynamic elimination",
       [ Alcotest.test_case "rudimentary DPE with guards" `Quick
           test_rudimentary_dpe;
         Alcotest.test_case "multilevel unsupported" `Quick
           test_no_dpe_for_multilevel ]);
      ("dml",
       [ Alcotest.test_case "quadratic expansion" `Quick
           test_dml_quadratic_expansion;
         Alcotest.test_case "target constraint exclusion" `Quick
           test_dml_target_exclusion;
         Alcotest.test_case "every target leaf excluded" `Quick
           test_dml_every_leaf_excluded ]);
      ("comparison",
       [ Alcotest.test_case "result parity with orca" `Quick
           test_parity_with_orca;
         Alcotest.test_case "plan size vs orca" `Quick test_plan_size_vs_orca ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest [ prop_planner_orca_agree ]) ]
