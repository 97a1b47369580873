(** Runtime-join-filter equivalence suite.

    The filters' core contract: both [Runtime_filter_build] and
    [Runtime_filter] are semantic no-ops.  The same plan executed with
    [runtime_filters:true] and [:false] must produce identical row
    multisets — serially and through the domain pool — and the off
    configuration must record zero filter work.  Checked deterministically
    over every workload query under both optimizers, and property-based
    over QCheck-generated join queries (the shapes the annotation rewrite
    targets: selective dimension builds probing fact columns off the
    partition key, plus DPE stars where the redundancy skip applies).

    Also pins the {!Mpp_exec.Metrics} extension: the four filter counters
    survive [create]/[merge]/[pp]/[to_json] and a JSON round-trip, and
    merging with a fresh record (an "old artifact" with all-zero filter
    fields) is the identity on them; merging sums the scan counters and
    unions the per-root partition sets. *)

module W = Mpp_workload
module Exec = Mpp_exec.Exec
module Metrics = Mpp_exec.Metrics
module Json = Mpp_obs.Json

let env = lazy (W.Runner.setup_env ~scale:2 ~nsegments:4 ())

let exec_plan ?domains ~runtime_filters plan =
  let e = Lazy.force env in
  Exec.run ?domains ~runtime_filters ~catalog:e.W.Runner.catalog
    ~storage:e.W.Runner.storage plan

let sorted rows = List.sort compare rows

let check_no_filter_work what (m : Metrics.t) =
  Alcotest.(check int) (what ^ ": filter_built=0 when off") 0 m.Metrics.filter_built;
  Alcotest.(check int)
    (what ^ ": rows_filtered_scan=0 when off")
    0 m.Metrics.rows_filtered_scan;
  Alcotest.(check int)
    (what ^ ": rows_filtered_motion=0 when off")
    0 m.Metrics.rows_filtered_motion;
  Alcotest.(check int)
    (what ^ ": motion_rows_saved=0 when off")
    0 m.Metrics.motion_rows_saved

(* ------------------------------------------------------------------ *)
(* Deterministic: the full workload, both optimizers                    *)
(* ------------------------------------------------------------------ *)

let test_workload_equivalence () =
  List.iter
    (fun (qu : W.Queries.query) ->
      List.iter
        (fun (kname, kind) ->
          let what = Printf.sprintf "%s [%s]" qu.W.Queries.name kname in
          let plan = W.Runner.optimize_with (Lazy.force env) kind qu in
          let rows_on, _ = exec_plan ~runtime_filters:true plan in
          let rows_off, m_off = exec_plan ~runtime_filters:false plan in
          Alcotest.(check bool)
            (what ^ ": identical row multiset")
            true
            (sorted rows_on = sorted rows_off);
          check_no_filter_work what m_off)
        [ ("orca", W.Runner.Orca); ("planner", W.Runner.Legacy_planner) ])
    W.Queries.all

(* The RF-target queries actually exercise the machinery: at least one of
   them must build filters and drop probe rows, otherwise the equivalence
   above is vacuous. *)
let test_filters_actually_fire () =
  let qu = W.Queries.find "ss_customer_rf_scan" in
  let plan = W.Runner.optimize_with (Lazy.force env) W.Runner.Orca qu in
  let _, m = exec_plan ~runtime_filters:true plan in
  Alcotest.(check bool) "filters built" true (m.Metrics.filter_built > 0);
  Alcotest.(check bool)
    "probe rows dropped at the scan" true
    (m.Metrics.rows_filtered_scan > 0)

(* Min-max partition elimination: the selection-disabled plan of
   [ss_datedim_month] (its selector pushes all 36 store_sales partitions)
   with a runtime filter on every eligible join.  The filter's min-max
   summary of the November-2013 dates intersected with the partition index
   leaves the DynamicScan a single month to read; EXPLAIN ANALYZE must
   count the partitions the scan read, not the ones the selector pushed. *)
let test_minmax_elimination () =
  let e = W.Runner.setup_env ~scale:1 ~nsegments:4 () in
  let catalog = e.W.Runner.catalog and storage = e.W.Runner.storage in
  let plan =
    Mpp_plan.Rf_annotate.annotate ~catalog
      ~decide:(fun ~build:_ ~probe:_ ~build_keys:_ ~probe_keys:_ -> Some 64)
      (W.Runner.optimize_with e W.Runner.Orca_no_selection
         (W.Queries.find "ss_datedim_month"))
  in
  let ss_oid =
    (Mpp_catalog.Catalog.find catalog "store_sales").Mpp_catalog.Table.oid
  in
  (* pre-order index of the plan's one DynamicScan *)
  let rec scan_id id (p : Mpp_plan.Plan.t) =
    match p with
    | Mpp_plan.Plan.Dynamic_scan { root_oid; _ } when root_oid = ss_oid ->
        Some id
    | _ ->
        let rec kids id = function
          | [] -> None
          | c :: rest -> (
              match scan_id id c with
              | Some _ as r -> r
              | None -> kids (id + Mpp_plan.Plan.node_count c) rest)
        in
        kids (id + 1) (Mpp_plan.Plan.children p)
  in
  let scan =
    match scan_id 0 plan with
    | Some id -> id
    | None -> Alcotest.fail "no store_sales DynamicScan"
  in
  let run ~domains ~runtime_filters =
    let rows, m, ns =
      Exec.run_analyze ~domains ~runtime_filters ~catalog ~storage plan
    in
    let explained =
      match Mpp_exec.Node_stats.find ns scan with
      | Some n -> n.Mpp_exec.Node_stats.parts_scanned
      | None -> Alcotest.fail "DynamicScan not executed"
    in
    (sorted rows, Metrics.parts_scanned_of m ~root_oid:ss_oid, explained)
  in
  let rows_off, parts_off, _ = run ~domains:1 ~runtime_filters:false in
  let rows_on, parts_on, explained_on = run ~domains:1 ~runtime_filters:true in
  Alcotest.(check int) "without filters every partition is read" 36 parts_off;
  Alcotest.(check bool) "rows equal with filters on and off" true
    (rows_on = rows_off);
  Alcotest.(check bool) "min-max elimination drops partitions" true
    (parts_on < 36);
  Alcotest.(check int) "EXPLAIN ANALYZE counts the partitions read" parts_on
    explained_on;
  let rows_par, parts_par, explained_par =
    run ~domains:4 ~runtime_filters:true
  in
  Alcotest.(check bool) "4 domains: same rows" true (rows_par = rows_on);
  Alcotest.(check int) "4 domains: same partitions" parts_on parts_par;
  Alcotest.(check int) "4 domains: same EXPLAIN count" explained_on
    explained_par

(* ------------------------------------------------------------------ *)
(* Property-based: random join queries, serial and parallel             *)
(* ------------------------------------------------------------------ *)

(* Join shapes the annotation targets, over the demo schema: a selective
   dimension (customer state, item category, warehouse state) joined to a
   fact on a non-partition key, optionally with a date_dim DPE arm (where
   the streaming-selection redundancy skip kicks in). *)
let rf_sql_gen : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let dim_joins =
    [ ("store_sales", "ss_customer", "ss_price", "customer c", "c.c_id",
       "c.c_state",
       [ "CA"; "NY"; "TX"; "WA"; "OR"; "MA"; "IL"; "FL" ]);
      ("web_sales", "ws_customer", "ws_price", "customer c", "c.c_id",
       "c.c_state",
       [ "CA"; "NY"; "TX"; "WA"; "OR"; "MA"; "IL"; "FL" ]);
      ("store_sales", "ss_item", "ss_qty", "item i", "i.i_id",
       "i.i_category",
       [ "books"; "music"; "electronics"; "home"; "sports" ]);
      ("inventory", "inv_warehouse", "inv_qty", "warehouse w", "w.w_id",
       "w.w_state", [ "CA"; "NY"; "TX"; "WA" ]) ]
  in
  let agg = oneofl [ "count(*)"; "sum(%m)"; "avg(%m)"; "max(%m)" ] in
  let* fact, fkey, measure, dim, dkey, dcol, vals = oneofl dim_joins in
  let* v = oneofl vals in
  let* a = agg in
  let agg_sql =
    match a with
    | "count(*)" -> "count(*)"
    | s ->
        (* substitute %m with the fact measure *)
        let i = String.index s '%' in
        String.sub s 0 i ^ "f." ^ measure
        ^ String.sub s (i + 2) (String.length s - i - 2)
  in
  let* with_date = bool in
  let* y = int_range 2011 2013 in
  return
    (Printf.sprintf "SELECT %s FROM %s f, %s%s WHERE f.%s = %s AND %s = '%s'%s"
       agg_sql fact dim
       (if with_date then ", date_dim d" else "")
       fkey dkey dcol v
       (if with_date then
          Printf.sprintf " AND f.%s = d.d_date AND d.d_year = %d"
            (match fact with
            | "store_sales" -> "ss_sold_date"
            | "inventory" -> "inv_date"
            | _ -> "ws_sold_date_id")
          y
        else ""))

(* web_sales joins date_dim on the surrogate int, not d_date: patch the
   generated predicate for that one fact *)
let fixup sql =
  let target = "f.ws_sold_date_id = d.d_date" in
  let repl = "f.ws_sold_date_id = d.d_date_id" in
  let tl = String.length target in
  let buf = Buffer.create (String.length sql) in
  let rec go i =
    if i >= String.length sql then ()
    else if
      i + tl <= String.length sql
      && String.sub sql i tl = target
      && not (i + tl < String.length sql && sql.[i + tl] = '_')
    then (
      Buffer.add_string buf repl;
      go (i + tl))
    else (
      Buffer.add_char buf sql.[i];
      go (i + 1))
  in
  go 0;
  Buffer.contents buf

let equivalence_prop sql =
  let sql = fixup sql in
  let e = Lazy.force env in
  let qu = W.Queries.q "rf_prop" W.Queries.Equal sql in
  List.for_all
    (fun kind ->
      let plan = W.Runner.optimize_with e kind qu in
      let rows_on, _ = exec_plan ~runtime_filters:true plan in
      let rows_off, m_off = exec_plan ~runtime_filters:false plan in
      let rows_par_on, _ = exec_plan ~domains:4 ~runtime_filters:true plan in
      let base = sorted rows_off in
      sorted rows_on = base
      && sorted rows_par_on = base
      && m_off.Metrics.filter_built = 0
      && m_off.Metrics.rows_filtered_scan = 0
      && m_off.Metrics.rows_filtered_motion = 0)
    [ W.Runner.Orca; W.Runner.Legacy_planner ]

let equivalence_test =
  QCheck2.Test.make
    ~name:"random join queries: filters on = off, serial = parallel"
    ~count:60
    ~print:(fun s -> s)
    rf_sql_gen equivalence_prop

(* ------------------------------------------------------------------ *)
(* Metrics: the four new counters through the whole surface             *)
(* ------------------------------------------------------------------ *)

let populated () =
  let m = Metrics.create () in
  m.Metrics.filter_built <- 3;
  m.Metrics.rows_filtered_scan <- 1000;
  m.Metrics.rows_filtered_motion <- 250;
  m.Metrics.motion_rows_saved <- 750;
  (* one scan read leaves 1 and 3 of a four-leaf root: 9 rows *)
  let parts = Mpp_catalog.Bitset.create 4 in
  Mpp_catalog.Bitset.set_list parts [ 1; 3 ];
  Metrics.record_scan m ~root_oid:77 parts ~rows:9;
  m

let int_field name json =
  match Option.bind (Json.member name json) Json.to_int_opt with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "field %s missing or not an int" name)

let test_metrics_counters () =
  let m = populated () in
  (* merge with a fresh record (an artifact from before the counters
     existed serializes exactly like this) is the identity *)
  let merged = Metrics.merge m (Metrics.create ()) in
  Alcotest.(check int) "merge keeps filter_built" 3 merged.Metrics.filter_built;
  Alcotest.(check int)
    "merge keeps rows_filtered_scan" 1000 merged.Metrics.rows_filtered_scan;
  Alcotest.(check int)
    "merge keeps rows_filtered_motion" 250 merged.Metrics.rows_filtered_motion;
  Alcotest.(check int)
    "merge keeps motion_rows_saved" 750 merged.Metrics.motion_rows_saved;
  Alcotest.(check (list int))
    "merge keeps the scanned leaves" [ 1; 3 ]
    (Metrics.scanned_leaves merged ~root_oid:77);
  (* merge sums the counters and unions the partition sets *)
  let doubled = Metrics.merge m m in
  Alcotest.(check int) "merge sums" 2000 doubled.Metrics.rows_filtered_scan;
  Alcotest.(check int) "merge sums rows" 18 doubled.Metrics.tuples_scanned;
  Alcotest.(check int) "merge sums opens" 4 doubled.Metrics.partition_opens;
  Alcotest.(check int)
    "merge unions partitions" 2
    (Metrics.parts_scanned_of doubled ~root_oid:77);
  Alcotest.(check (list int)) "roots" [ 77 ] (Metrics.roots_scanned doubled);
  (* the merged record owns its sets *)
  Metrics.record_scan doubled ~root_oid:77 (Mpp_catalog.Bitset.full 4) ~rows:0;
  Alcotest.(check int)
    "merge does not alias its inputs" 2
    (Metrics.parts_scanned_of m ~root_oid:77);
  (* JSON round-trip: serialize, reparse, counters intact *)
  let json =
    match Json.parse_opt (Json.to_string (Metrics.to_json m)) with
    | Some j -> j
    | None -> Alcotest.fail "metrics JSON did not reparse"
  in
  Alcotest.(check int) "json filter_built" 3 (int_field "filter_built" json);
  Alcotest.(check int)
    "json rows_filtered_scan" 1000 (int_field "rows_filtered_scan" json);
  Alcotest.(check int)
    "json rows_filtered_motion" 250 (int_field "rows_filtered_motion" json);
  Alcotest.(check int)
    "json motion_rows_saved" 750 (int_field "motion_rows_saved" json);
  (* pp names every counter *)
  let rendered = Format.asprintf "%a" Metrics.pp m in
  List.iter
    (fun name ->
      let re = name in
      let rec find i =
        i + String.length re <= String.length rendered
        && (String.sub rendered i (String.length re) = re || find (i + 1))
      in
      Alcotest.(check bool) ("pp mentions " ^ name) true (find 0))
    [ "filter_built"; "rows_filtered_scan"; "rows_filtered_motion";
      "motion_rows_saved" ]

let () =
  Alcotest.run "runtime_filters"
    [ ("equivalence",
       [ Alcotest.test_case "workload on=off, both optimizers" `Slow
           test_workload_equivalence;
         Alcotest.test_case "filters fire on RF targets" `Quick
           test_filters_actually_fire;
         Alcotest.test_case "min-max partition elimination" `Quick
           test_minmax_elimination ]);
      ("property", [ QCheck_alcotest.to_alcotest ~long:true equivalence_test ]);
      ("metrics", [ Alcotest.test_case "counters everywhere" `Quick
                      test_metrics_counters ]) ]
