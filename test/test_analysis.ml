(** Tests for the predicate abstract-interpretation engine (lib/analysis).

    Three layers:

    - {b units}: [scan_env] bounds, the decision procedures, expression
      simplification, [expr_of_set], the runtime-filter min-max cross-check
      and the linter, all on the hand-built [orders] schema;
    - {b properties}: QCheck pins the abstract domain to the concrete
      evaluator — whatever [Expr.eval] does on an in-env value, the
      abstract result admits it, [restrict] keeps satisfying values,
      [always_true] forces acceptance, and [simplify] is row-for-row
      equivalent under filter semantics;
    - {b plan equivalence}: simplification on vs off produces identical
      result sets for every query of the evaluation workload under both
      optimizers and for generated big-join queries, and the implied
      transitive restriction demonstrably cuts the partitions the
      [ss_sr_transitive_date] query opens (36 → 3 under both optimizers,
      36 with the pass disabled). *)

module A = Mpp_analysis.Analysis
module W = Mpp_workload
module Plan = Mpp_plan.Plan
module Cat = Mpp_catalog.Catalog
module Table = Mpp_catalog.Table
open Mpp_expr

let d = Expr.date
let key = Colref.make ~rel:0 ~index:2 ~name:"date" ~dtype:Value.Tdate
let ikey = Colref.make ~rel:0 ~index:0 ~name:"id" ~dtype:Value.Tint

let orders = lazy (Support.orders_schema ())
let orders_env () =
  let catalog, t = Lazy.force orders in
  (catalog, t, A.scan_env ~catalog ~rel:0 t.Table.oid)

(* ------------------------------------------------------------------ *)
(* Units                                                               *)
(* ------------------------------------------------------------------ *)

let test_scan_env () =
  let _, _, env = orders_env () in
  let av = A.find env key in
  Alcotest.(check bool) "storage holds no NULLs" false av.A.nullable;
  Alcotest.(check bool) "mid-2012 inside the union of leaf bounds" true
    (Interval.Set.contains av.A.range (Value.Date (Date.of_ymd 2012 6 15)));
  Alcotest.(check bool) "2011 outside" false
    (Interval.Set.contains av.A.range (Value.Date (Date.of_ymd 2011 12 31)));
  Alcotest.(check bool) "2014 outside" false
    (Interval.Set.contains av.A.range (Value.Date (Date.of_ymd 2014 1 1)));
  (* non-key columns are unconstrained but still non-nullable *)
  let id = A.find env ikey in
  Alcotest.(check bool) "id unconstrained" true
    (Interval.Set.is_full id.A.range);
  Alcotest.(check bool) "id non-nullable" false id.A.nullable

let test_decisions () =
  let _, _, env = orders_env () in
  Alcotest.(check bool) "below the table range contradicts" true
    (A.contradicts env (Expr.lt (Expr.col key) (d "2010-01-01")));
  Alcotest.(check bool) "satisfiable filter does not" false
    (A.contradicts env (Expr.ge (Expr.col key) (d "2013-06-01")));
  Alcotest.(check bool) "covering filter is always true" true
    (A.always_true env (Expr.ge (Expr.col key) (d "2012-01-01")));
  Alcotest.(check bool) "partial filter is not" false
    (A.always_true env (Expr.ge (Expr.col key) (d "2013-01-01")));
  Alcotest.(check bool) "narrower range implies wider" true
    (A.implies env
       (Expr.ge (Expr.col key) (d "2013-06-01"))
       (Expr.ge (Expr.col key) (d "2013-01-01")));
  Alcotest.(check bool) "wider does not imply narrower" false
    (A.implies env
       (Expr.ge (Expr.col key) (d "2013-01-01"))
       (Expr.ge (Expr.col key) (d "2013-06-01")))

let test_simplify_expr () =
  let _, _, env = orders_env () in
  let red = ref 0 and con = ref 0 in
  let report k _ =
    match k with `Redundant -> incr red | `Contradiction -> incr con
  in
  (* the second conjunct restates the table bound: dropped as redundant *)
  let e =
    Expr.conj
      [ Expr.ge (Expr.col key) (d "2013-06-01");
        Expr.ge (Expr.col key) (d "2012-01-01") ]
  in
  let s = A.simplify ~report env e in
  Alcotest.(check int) "one redundant conjunct reported" 1 !red;
  Alcotest.(check bool) "redundant conjunct dropped" true
    (Expr.equal s (Expr.ge (Expr.col key) (d "2013-06-01")));
  (* pairwise-contradictory conjuncts collapse the conjunction *)
  let e2 =
    Expr.conj
      [ Expr.ge (Expr.col key) (d "2013-06-01");
        Expr.lt (Expr.col key) (d "2013-01-01") ]
  in
  let s2 = A.simplify ~report env e2 in
  Alcotest.(check bool) "contradiction collapses to false" true
    (Expr.equal s2 Expr.false_);
  Alcotest.(check bool) "contradiction reported" true (!con >= 1);
  (* nothing to do: the very same expression comes back *)
  let e3 = Expr.ge (Expr.col key) (d "2013-06-01") in
  Alcotest.(check bool) "no-op returns the input physically" true
    (A.simplify env e3 == e3)

let test_minmax_violations () =
  let catalog, t, _ = orders_env () in
  let child =
    Plan.Table_scan
      { rel = 0;
        table_oid = t.Table.oid;
        filter = Some (Expr.ge (Expr.col key) (d "2013-01-01"));
        guard = None
      }
  in
  let date y m dy = Value.Date (Date.of_ymd y m dy) in
  let check_with lo hi =
    A.minmax_violations ~catalog ~child ~keys:[ key ]
      ~minmax:(fun _ -> Some (lo, hi))
  in
  Alcotest.(check (list string))
    "summary inside the static bounds is clean" []
    (check_with (date 2013 3 1) (date 2013 11 30));
  Alcotest.(check bool) "low endpoint below the filter bound flagged" true
    (check_with (date 2011 5 1) (date 2013 11 30) <> []);
  Alcotest.(check bool) "high endpoint past the table bound flagged" true
    (check_with (date 2013 3 1) (date 2015 1 1) <> []);
  Alcotest.(check (list string))
    "no non-null key seen is clean" []
    (A.minmax_violations ~catalog ~child ~keys:[ key ] ~minmax:(fun _ -> None))

let test_lint_plan () =
  let catalog, t, _ = orders_env () in
  let scan filter =
    Plan.Table_scan { rel = 0; table_oid = t.Table.oid; filter; guard = None }
  in
  let fs =
    A.Lint.plan ~catalog
      (Plan.Filter
         { pred = Expr.lt (Expr.col key) (d "2010-01-01");
           child = scan None
         })
  in
  Alcotest.(check bool) "contradictory filter linted" true
    (List.exists (fun f -> f.A.Lint.code = "lint/contradiction") fs);
  let fs2 =
    A.Lint.plan ~catalog
      (Plan.Filter
         { pred = Expr.ge (Expr.col key) (d "2012-01-01"); child = scan None })
  in
  Alcotest.(check bool) "covering filter linted as redundant" true
    (List.exists (fun f -> f.A.Lint.code = "lint/redundant-conjunct") fs2);
  Alcotest.(check (list string)) "selective filter is lint-clean" []
    (List.map
       (fun f -> f.A.Lint.code)
       (A.Lint.plan ~catalog
          (scan (Some (Expr.ge (Expr.col key) (d "2013-06-01"))))))

(* ------------------------------------------------------------------ *)
(* Properties: the abstract domain vs the concrete evaluator           *)
(* ------------------------------------------------------------------ *)

(* An environment whose [key] column can take exactly [union s (point v)],
   plus a concrete row binding [key := v]: by construction the row is
   in-env, so every abstract claim must admit what [Expr.eval] computes. *)
let env_and_row_gen =
  QCheck2.Gen.(
    map2
      (fun s v ->
        let range = Interval.Set.union s (Interval.Set.point v) in
        let aenv = A.set A.env_top key { A.range; nullable = false } in
        let eenv =
          { Expr.col = (fun _ -> v); param = (fun _ -> Value.Null) }
        in
        (aenv, eenv, v))
      Support.interval_set_gen Support.int_value_gen)

let with_pred g =
  QCheck2.Gen.(pair g (Support.predicate_gen key))

let prop_aeval_pred_sound =
  QCheck2.Test.make ~count:1000
    ~name:"aeval_pred admits the concrete three-valued outcome"
    (with_pred env_and_row_gen)
    (fun ((aenv, eenv, _), p) ->
      let ab = A.aeval_pred aenv p in
      match Expr.eval eenv p with
      | Value.Bool true -> ab.A.can_t
      | Value.Bool false -> ab.A.can_f
      | _ -> ab.A.can_n)

let prop_restrict_sound =
  QCheck2.Test.make ~count:1000
    ~name:"restrict keeps every satisfying value"
    (with_pred env_and_row_gen)
    (fun ((aenv, eenv, v), p) ->
      (not (Expr.eval_pred eenv p))
      ||
      let env' = A.restrict aenv p in
      (not (A.is_bottom env'))
      && Interval.Set.contains (A.find env' key).A.range v)

let prop_contradicts_sound =
  QCheck2.Test.make ~count:1000
    ~name:"contradicts means no in-env row passes"
    (with_pred env_and_row_gen)
    (fun ((aenv, eenv, _), p) ->
      (not (A.contradicts aenv p)) || not (Expr.eval_pred eenv p))

let prop_always_true_sound =
  QCheck2.Test.make ~count:1000
    ~name:"always_true means every in-env row passes"
    (with_pred env_and_row_gen)
    (fun ((aenv, eenv, _), p) ->
      (not (A.always_true aenv p)) || Expr.eval_pred eenv p)

let prop_simplify_row_equivalent =
  QCheck2.Test.make ~count:1000
    ~name:"simplify preserves filter semantics row-for-row"
    (with_pred env_and_row_gen)
    (fun ((aenv, eenv, _), p) ->
      Expr.eval_pred eenv (A.simplify aenv p) = Expr.eval_pred eenv p)

let prop_expr_of_set_membership =
  QCheck2.Test.make ~count:1000
    ~name:"expr_of_set evaluates to set membership"
    QCheck2.Gen.(pair Support.interval_set_gen Support.int_value_gen)
    (fun (s, v) ->
      let eenv = { Expr.col = (fun _ -> v); param = (fun _ -> Value.Null) } in
      Expr.eval_pred eenv (A.expr_of_set ikey s) = Interval.Set.contains s v)

(* ------------------------------------------------------------------ *)
(* Plan-level equivalence: simplification must never change results    *)
(* ------------------------------------------------------------------ *)

let wenv = lazy (W.Runner.setup_env ~scale:1 ~nsegments:4 ())

let run_rows env plan =
  fst
    (Mpp_exec.Exec.run ~catalog:env.W.Runner.catalog
       ~storage:env.W.Runner.storage plan)

let test_workload_simplify_equivalence () =
  let env = Lazy.force wenv in
  List.iter
    (fun (qu : W.Queries.query) ->
      List.iter
        (fun (kname, kind) ->
          let on_ =
            run_rows env (W.Runner.optimize_with ~simplify:true env kind qu)
          in
          let off =
            run_rows env (W.Runner.optimize_with ~simplify:false env kind qu)
          in
          Support.check_rows_equal
            (Printf.sprintf "%s [%s] simplify on/off" qu.W.Queries.name kname)
            on_ off)
        [ ("orca", W.Runner.Orca); ("planner", W.Runner.Legacy_planner) ])
    W.Queries.all

let test_biggen_simplify_equivalence () =
  List.iter
    (fun spec ->
      let benv = W.Biggen.generate spec in
      let plan kind simplify =
        W.Runner.optimize_logical ~stats:benv.W.Biggen.stats ~simplify
          ~catalog:benv.W.Biggen.catalog
          ~nsegments:(Mpp_storage.Storage.nsegments benv.W.Biggen.storage)
          kind benv.W.Biggen.logical
      in
      let orca = plan W.Runner.Orca and planner = plan W.Runner.Legacy_planner in
      let run p =
        fst
          (Mpp_exec.Exec.run ~catalog:benv.W.Biggen.catalog
             ~storage:benv.W.Biggen.storage p)
      in
      let base = run (orca false) in
      Support.check_rows_equal
        (benv.W.Biggen.name ^ ": orca simplified")
        base
        (run (orca true));
      Support.check_rows_equal
        (benv.W.Biggen.name ^ ": planner unsimplified")
        base
        (run (planner false));
      Support.check_rows_equal
        (benv.W.Biggen.name ^ ": planner simplified")
        base
        (run (planner true)))
    [ { W.Biggen.shape = W.Biggen.Star; nrels = 5; seed = 11 };
      { W.Biggen.shape = W.Biggen.Chain; nrels = 6; seed = 3 };
      { W.Biggen.shape = W.Biggen.Clique; nrels = 4; seed = 8 } ]

let test_transitive_pruning () =
  (* the acceptance scenario: the range predicate sits on store_returns,
     and only the equi-join equivalence class carries it onto the
     store_sales partition key — the strengthening pass turns 36 opened
     partitions into 3 under both optimizers, with identical results *)
  let env = Lazy.force wenv in
  let qu = W.Queries.find "ss_sr_transitive_date" in
  let baseline = ref [] in
  List.iter
    (fun kind ->
      let r = W.Runner.run env kind qu in
      let ss = List.assoc "store_sales" r.W.Runner.parts_scanned in
      Alcotest.(check int)
        (W.Runner.optimizer_kind_to_string kind ^ ": store_sales 3 of 36")
        3 ss;
      if !baseline = [] then baseline := r.W.Runner.rows
      else Support.check_rows_equal "optimizers agree" !baseline r.W.Runner.rows)
    [ W.Runner.Orca; W.Runner.Legacy_planner ];
  (* Orca's join-driven DPE still prunes at runtime with the pass off; the
     legacy planner has no runtime fallback here, so disabling the pass
     exposes the full table *)
  let off = W.Runner.optimize_with ~simplify:false env W.Runner.Legacy_planner qu in
  let rows, metrics =
    Mpp_exec.Exec.run ~catalog:env.W.Runner.catalog ~storage:env.W.Runner.storage
      off
  in
  let ss_oid = (Cat.find env.W.Runner.catalog "store_sales").Table.oid in
  Alcotest.(check int) "without the pass every partition opens" 36
    (Mpp_exec.Metrics.parts_scanned_of metrics ~root_oid:ss_oid);
  Support.check_rows_equal "pruning preserves the answer" !baseline rows

(* A selector level that mixes a row-independent conjunct with a row
   conjunct keeps both: adding a fact-side filter on the partitioning key
   to [ss_datedim_month] leaves [ss_sold_date = d_date AND ss_sold_date >=
   '2011-06-01'] on one level, which must still select by the join key, so
   Orca scans 1 of 36 store_sales partitions, as without the filter, and
   the count is unchanged (every November-2013 date passes the filter). *)
let test_mixed_selector_level () =
  let env = Lazy.force wenv in
  let base = W.Queries.find "ss_datedim_month" in
  let filtered =
    { base with
      W.Queries.name = "ss_datedim_month_filtered";
      sql = base.W.Queries.sql ^ " AND s.ss_sold_date >= '2011-06-01'" }
  in
  let run qu = W.Runner.run env W.Runner.Orca qu in
  let plain = run base and mixed = run filtered in
  List.iter
    (fun (what, r) ->
      Alcotest.(check int)
        (what ^ ": store_sales 1 of 36")
        1
        (List.assoc "store_sales" r.W.Runner.parts_scanned))
    [ ("unfiltered", plain); ("filtered", mixed) ];
  Support.check_rows_equal "the filter keeps every row" plain.W.Runner.rows
    mixed.W.Runner.rows

let () =
  Alcotest.run "analysis"
    [ ("units",
       [ Alcotest.test_case "scan_env bounds" `Quick test_scan_env;
         Alcotest.test_case "decisions" `Quick test_decisions;
         Alcotest.test_case "simplify expressions" `Quick test_simplify_expr;
         Alcotest.test_case "minmax cross-check" `Quick test_minmax_violations;
         Alcotest.test_case "linter" `Quick test_lint_plan ]);
      ("soundness properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_aeval_pred_sound; prop_restrict_sound; prop_contradicts_sound;
           prop_always_true_sound; prop_simplify_row_equivalent;
           prop_expr_of_set_membership ]);
      ("plan equivalence",
       [ Alcotest.test_case "workload, simplify on/off" `Slow
           test_workload_simplify_equivalence;
         Alcotest.test_case "big joins, simplify on/off" `Slow
           test_biggen_simplify_equivalence;
         Alcotest.test_case "transitive pruning (36 -> 3)" `Quick
           test_transitive_pruning;
         Alcotest.test_case "mixed selector level (1 of 36)" `Quick
           test_mixed_selector_level ]) ]
