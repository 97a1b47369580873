(** Serial-vs-parallel equivalence: the domain-pool executor must be
    observationally identical to serial execution at any [?domains] setting.

    This holds by construction — per-segment operator tasks are independent
    and deterministic, and the {!Channel} / {!Metrics} shards are touched
    only by their segment's domain — and this suite pins it down:

    - identical result sets (sorted rows) for every workload query;
    - identical work counters (tuples scanned / moved, partition opens);
    - identical selected-partition sets, per root table, OID for OID.

    Runs the full evaluation workload through Orca plans plus hand-built
    join / DynamicScan plans on a multi-segment cluster, each with 1 domain
    and with 4 domains (oversubscription is fine — correctness must not
    depend on core count). *)

open Mpp_expr
module Cat = Mpp_catalog.Catalog
module Dist = Mpp_catalog.Distribution
module Storage = Mpp_storage.Storage
module Plan = Mpp_plan.Plan
module Exec = Mpp_exec.Exec
module Metrics = Mpp_exec.Metrics
module W = Mpp_workload

let serial_domains = 1
let parallel_domains = 4

module Node_stats = Mpp_exec.Node_stats

(* Per-node EXPLAIN ANALYZE stats must also be identical serial vs
   parallel — rows, per-segment row distribution, partition accounting,
   Motion volume, invocation counts.  Only wall times may differ. *)
let check_stats_equivalent ~what ~catalog ~storage ?params ?selection_enabled
    plan =
  let run domains =
    let _, _, st =
      Exec.run_analyze ?params ?selection_enabled ~domains ~catalog ~storage
        plan
    in
    st
  in
  let st_s = run serial_domains and st_p = run parallel_domains in
  Alcotest.(check int)
    (what ^ ": stats nsegments")
    (Node_stats.nsegments st_s) (Node_stats.nsegments st_p);
  for id = 0 to Plan.node_count plan - 1 do
    match (Node_stats.find st_s id, Node_stats.find st_p id) with
    | None, None -> ()
    | Some a, Some b ->
        let chk name va vb =
          Alcotest.(check int)
            (Printf.sprintf "%s: node %d %s" what id name)
            va vb
        in
        chk "rows" a.Node_stats.rows b.Node_stats.rows;
        chk "invocations" a.Node_stats.invocations b.Node_stats.invocations;
        chk "parts_scanned" a.Node_stats.parts_scanned
          b.Node_stats.parts_scanned;
        chk "parts_selected" a.Node_stats.parts_selected
          b.Node_stats.parts_selected;
        chk "parts_total" a.Node_stats.parts_total b.Node_stats.parts_total;
        chk "tuples_moved" a.Node_stats.tuples_moved b.Node_stats.tuples_moved;
        Alcotest.(check (array int))
          (Printf.sprintf "%s: node %d seg_rows" what id)
          a.Node_stats.seg_rows b.Node_stats.seg_rows
    | _ ->
        Alcotest.fail
          (Printf.sprintf "%s: node %d recorded in one run only" what id)
  done

(* Compare one plan's two executions end to end. *)
let check_equivalent ~what ~catalog ~storage ?params ?selection_enabled plan =
  let rows_s, m_s =
    Exec.run ?params ?selection_enabled ~domains:serial_domains ~catalog
      ~storage plan
  in
  let rows_p, m_p =
    Exec.run ?params ?selection_enabled ~domains:parallel_domains ~catalog
      ~storage plan
  in
  check_stats_equivalent ~what ~catalog ~storage ?params ?selection_enabled
    plan;
  Support.check_rows_equal (what ^ " rows") rows_s rows_p;
  Alcotest.(check int)
    (what ^ ": tuples_scanned")
    m_s.Metrics.tuples_scanned m_p.Metrics.tuples_scanned;
  Alcotest.(check int)
    (what ^ ": tuples_moved")
    m_s.Metrics.tuples_moved m_p.Metrics.tuples_moved;
  Alcotest.(check int)
    (what ^ ": partition_opens")
    m_s.Metrics.partition_opens m_p.Metrics.partition_opens;
  Alcotest.(check (list int))
    (what ^ ": roots with scanned partitions")
    (Metrics.roots_scanned m_s) (Metrics.roots_scanned m_p);
  List.iter
    (fun root ->
      Alcotest.(check (list int))
        (Printf.sprintf "%s: selected partitions of root %d" what root)
        (Metrics.scanned_leaves m_s ~root_oid:root)
        (Metrics.scanned_leaves m_p ~root_oid:root))
    (Metrics.roots_scanned m_s)

(* ---- the full evaluation workload, Orca plans ---- *)

let test_workload_queries () =
  let env = W.Runner.setup_env ~scale:1 ~nsegments:4 () in
  List.iter
    (fun (q : W.Queries.query) ->
      let plan = W.Runner.optimize_with env W.Runner.Orca q in
      check_equivalent ~what:q.W.Queries.name
        ~catalog:env.W.Runner.catalog ~storage:env.W.Runner.storage plan)
    W.Queries.all

(* ...and with partition selection disabled (every leaf scanned, so the
   parallel sections touch every shard of every channel slot) *)
let test_workload_selection_disabled () =
  let env = W.Runner.setup_env ~scale:1 ~nsegments:4 () in
  List.iter
    (fun (q : W.Queries.query) ->
      let plan = W.Runner.optimize_with env W.Runner.Orca q in
      check_equivalent
        ~what:(q.W.Queries.name ^ " (no selection)")
        ~selection_enabled:false ~catalog:env.W.Runner.catalog
        ~storage:env.W.Runner.storage plan)
    (List.filteri (fun i _ -> i mod 4 = 0) W.Queries.all)

(* ---- hand-built plans on a seven-segment cluster ---- *)

let odd_fixture () =
  let catalog = Cat.create () in
  let t =
    Cat.add_table catalog ~name:"t"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let dim =
    Cat.add_table catalog ~name:"dim"
      ~columns:[ ("k", Value.Tint); ("s", Value.Tstring) ]
      ~distribution:Dist.Replicated ()
  in
  let storage = Storage.create ~nsegments:7 in
  for i = 0 to 199 do
    Storage.insert storage t [| Value.Int i; Value.Int (i mod 11) |]
  done;
  for k = 0 to 10 do
    Storage.insert storage dim
      [| Value.Int k; Value.String (if k mod 2 = 0 then "even" else "odd") |]
  done;
  (catalog, storage, t, dim)

let col ~rel ~index ~name = Colref.make ~rel ~index ~name ~dtype:Value.Tint

let test_join_kinds_seven_segments () =
  let catalog, storage, t, dim = odd_fixture () in
  let t_b = col ~rel:0 ~index:1 ~name:"b" in
  let dim_k = col ~rel:1 ~index:0 ~name:"k" in
  let pred = Expr.eq (Expr.col dim_k) (Expr.col t_b) in
  List.iter
    (fun (name, kind) ->
      let plan =
        Plan.motion Plan.Gather
          (Plan.hash_join ~kind ~pred
             (Plan.table_scan ~rel:1 dim.Mpp_catalog.Table.oid)
             (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid))
      in
      check_equivalent ~what:(name ^ " join") ~catalog ~storage plan)
    [ ("inner", Plan.Inner); ("left outer", Plan.Left_outer);
      ("semi", Plan.Semi) ]

let test_agg_sort_limit_seven_segments () =
  let catalog, storage, t, _ = odd_fixture () in
  let t_a = col ~rel:0 ~index:0 ~name:"a" in
  let t_b = col ~rel:0 ~index:1 ~name:"b" in
  (* agg output layout is rel -1: [b; n; sum_a] — sort on the group key *)
  let g_b = Colref.make ~rel:(-1) ~index:0 ~name:"b" ~dtype:Value.Tint in
  let plan =
    Plan.Limit
      { rows = 5;
        child =
          Plan.Sort
            { keys = [ Expr.col g_b ];
              child =
                Plan.agg
                  ~group_by:[ Expr.col t_b ]
                  ~aggs:
                    [ ("n", Plan.Count_star); ("sum_a", Plan.Sum (Expr.col t_a)) ]
                  (Plan.motion Plan.Gather
                     (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid)) } }
  in
  check_equivalent ~what:"agg+sort+limit" ~catalog ~storage plan

(* Hand-built streaming-DPE plan: a join-driven selector (Figure 5(d))
   above the build side resolves partitions per join key through the
   selection index's point lookup and unions each segment's leaf set into
   the sharded channel via [propagate].  The scanned leaf sets per root
   (checked by [check_equivalent] through [Metrics.scanned_leaves])
   must be identical serial vs parallel. *)
let test_streaming_dpe_memoized () =
  let catalog = Cat.create () in
  let part =
    Mpp_catalog.Partition.single_level
      ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
      ~key_index:1 ~key_name:"b" ~scheme:Mpp_catalog.Partition.Range
      ~table_name:"fact"
      (Mpp_catalog.Partition.int_ranges ~start:0 ~width:10 ~count:20)
  in
  let fact =
    Cat.add_table catalog ~name:"fact"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ]) ~partitioning:part ()
  in
  let dim =
    Cat.add_table catalog ~name:"dim"
      ~columns:[ ("k", Value.Tint); ("s", Value.Tstring) ]
      ~distribution:Dist.Replicated ()
  in
  let storage = Storage.create ~nsegments:4 in
  for i = 0 to 499 do
    Storage.insert storage fact [| Value.Int i; Value.Int (i mod 200) |]
  done;
  (* duplicate keys, a key outside every partition, and a NULL key (routes
     nowhere) *)
  List.iter
    (fun k ->
      Storage.insert storage dim [| k; Value.String "x" |])
    [ Value.Int 7; Value.Int 7; Value.Int 63; Value.Int 63; Value.Int 140;
      Value.Int 9999; Value.Null ];
  let dim_k = col ~rel:1 ~index:0 ~name:"k" in
  let fact_b = Mpp_catalog.Table.colref fact ~rel:0 "b" in
  let join_pred = Expr.eq (Expr.col dim_k) (Expr.col fact_b) in
  let plan =
    Plan.motion Plan.Gather
      (Plan.hash_join ~kind:Plan.Inner ~pred:join_pred
         (Plan.partition_selector
            ~child:(Plan.table_scan ~rel:1 dim.Mpp_catalog.Table.oid)
            ~part_scan_id:1 ~root_oid:fact.Mpp_catalog.Table.oid
            ~keys:[ fact_b ]
            ~predicates:[ Some (Expr.eq (Expr.col fact_b) (Expr.col dim_k)) ]
            ())
         (Plan.dynamic_scan ~rel:0 ~part_scan_id:1
            fact.Mpp_catalog.Table.oid))
  in
  check_equivalent ~what:"streaming-DPE memoized selection" ~catalog ~storage
    plan;
  (* sanity: the selector actually pruned — only the 3 leaves holding the
     in-range keys {7, 63, 140} are ever scanned *)
  let _, m = Exec.run ~catalog ~storage plan in
  Alcotest.(check int) "3 of 20 partitions scanned" 3
    (List.length
       (Metrics.scanned_leaves m ~root_oid:fact.Mpp_catalog.Table.oid))

(* Dynamic selection: streaming selector feeding a DynamicScan through the
   sharded channel, exercised at both domain counts. *)
let test_dynamic_selection_parallel () =
  let env = W.Runner.setup_env ~scale:1 ~nsegments:4 () in
  let star =
    List.find
      (fun (q : W.Queries.query) -> q.W.Queries.expected = W.Queries.Orca_only)
      W.Queries.all
  in
  let plan = W.Runner.optimize_with env W.Runner.Orca star in
  check_equivalent ~what:star.W.Queries.name ~catalog:env.W.Runner.catalog
    ~storage:env.W.Runner.storage plan

let () =
  Alcotest.run "parallel"
    [ ("serial vs parallel",
       [ Alcotest.test_case "workload queries" `Quick test_workload_queries;
         Alcotest.test_case "selection disabled" `Quick
           test_workload_selection_disabled;
         Alcotest.test_case "join kinds, 7 segments" `Quick
           test_join_kinds_seven_segments;
         Alcotest.test_case "agg+sort+limit, 7 segments" `Quick
           test_agg_sort_limit_seven_segments;
         Alcotest.test_case "dynamic selection" `Quick
           test_dynamic_selection_parallel;
         Alcotest.test_case "streaming-DPE memoized selection" `Quick
           test_streaming_dpe_memoized ]) ]
