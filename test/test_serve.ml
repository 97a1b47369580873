(** Serving-layer tests: plan-cache correctness (cache-hit executions are
    row-identical to fresh optimization for randomized bind parameters,
    under both optimizers, serial and parallel executors), invalidation on
    catalog change, one verifier run per miss, a partitioned table added
    while serving, LRU eviction, the planning front door's root estimate
    against the optimizer's, and admission control (capacity-1
    serialization, memory budgets, Dpool/Channel accounting). *)

open Mpp_expr
module W = Mpp_workload
module Serve = Mpp_serve.Serve
module Normalize = Mpp_serve.Normalize
module Plan_cache = Mpp_serve.Plan_cache
module Exec = Mpp_exec.Exec
module Dpool = Mpp_exec.Dpool
module Metrics = Mpp_exec.Metrics
module Catalog = Mpp_catalog.Catalog
module Obs = Mpp_obs.Obs

let env = lazy (W.Runner.setup_env ~scale:1 ~nsegments:4 ())

let serve_config ?(optimizer = Serve.Orca) ?(workers = 2) ?(capacity = 4)
    ?(exec_domains = 1) ?mem_budget () =
  {
    Serve.optimizer;
    workers;
    capacity;
    exec_domains;
    mem_budget_bytes =
      Option.value mem_budget
        ~default:Serve.default_config.Serve.mem_budget_bytes;
  }

let with_server ?config env f =
  let config = match config with Some c -> c | None -> serve_config () in
  let srv =
    Serve.create ~config ~stats:env.W.Runner.stats
      ~catalog:env.W.Runner.catalog ~storage:env.W.Runner.storage ()
  in
  Fun.protect ~finally:(fun () -> Serve.close srv) (fun () -> f srv)

(* A fresh plan through the planning front door on [env]'s cluster (no
   cache), and its rows: the reference a cache-hit execution must be
   row-identical to. *)
let fresh_plan env kind sql =
  fst
    (Serve.plan ~stats:env.W.Runner.stats ~catalog:env.W.Runner.catalog
       ~nsegments:(Mpp_storage.Storage.nsegments env.W.Runner.storage)
       kind
       (Mpp_sql.Sql.to_logical env.W.Runner.catalog sql))

let fresh_rows env kind sql =
  fst
    (Exec.run ~catalog:env.W.Runner.catalog ~storage:env.W.Runner.storage
       (fresh_plan env kind sql))

(* ------------------------------------------------------------------ *)
(* Plan-cache correctness                                              *)

let date_str base_day =
  (* days spread over the 3-year partitioned range starting 2013-01-01 *)
  let y = 2013 + (base_day / 360) in
  let m = 1 + (base_day mod 360 / 30) in
  let d = 1 + (base_day mod 30) in
  Printf.sprintf "%04d-%02d-%02d" y m d

(* Randomized bind parameters against the partition key: the prepared
   statement keeps $1/$2 as pruning-relevant parameters, so every
   execution after the first is a cache hit that must still re-run
   partition selection for its own bindings. *)
let test_cache_hit_random_params optimizer exec_domains () =
  let env = Lazy.force env in
  let config = serve_config ~optimizer ~exec_domains () in
  with_server ~config env (fun srv ->
      let prepared =
        Serve.prepare srv
          "SELECT count(*), sum(ss_price) FROM store_sales WHERE \
           ss_sold_date >= $1 AND ss_sold_date < $2"
      in
      let rand = W.Rng.create ~seed:42L () in
      for trial = 1 to 8 do
        let a = W.Rng.int rand 1000 and span = 1 + W.Rng.int rand 300 in
        let lo = date_str a and hi = date_str (min 1079 (a + span)) in
        let r =
          Serve.execute srv ~session:0 prepared
            [ (1, Value.date_of_string lo); (2, Value.date_of_string hi) ]
        in
        let literal_sql =
          Printf.sprintf
            "SELECT count(*), sum(ss_price) FROM store_sales WHERE \
             ss_sold_date >= '%s' AND ss_sold_date < '%s'"
            lo hi
        in
        Support.check_rows_equal
          (Printf.sprintf "trial %d (%s/%s)" trial lo hi)
          r.Serve.rows
          (fresh_rows env optimizer literal_sql);
        Alcotest.(check bool)
          (Printf.sprintf "trial %d cache hit" trial)
          (trial > 1) r.Serve.cache_hit
      done;
      let s = Plan_cache.stats (Serve.cache srv) in
      Alcotest.(check int) "one miss" 1 s.Plan_cache.misses;
      Alcotest.(check int) "seven hits" 7 s.Plan_cache.hits)

(* Literal lifting: the same statement with different partition-key
   literals must normalize to one cache entry. *)
let test_lifted_literals_share_entry () =
  let env = Lazy.force env in
  with_server env (fun srv ->
      let sqls =
        List.map
          (fun (lo, hi) ->
            Printf.sprintf
              "SELECT count(*) FROM store_sales WHERE ss_sold_date >= '%s' \
               AND ss_sold_date < '%s'"
              lo hi)
          [ ("2013-03-01", "2013-06-01");
            ("2014-01-01", "2014-02-01");
            ("2015-05-01", "2015-11-01") ]
      in
      List.iteri
        (fun i sql ->
          let prepared = Serve.prepare srv sql in
          let r = Serve.execute srv ~session:0 prepared [] in
          Support.check_rows_equal sql r.Serve.rows
            (fresh_rows env Serve.Orca sql);
          Alcotest.(check bool)
            (Printf.sprintf "statement %d hit" i)
            (i > 0) r.Serve.cache_hit)
        sqls;
      let s = Plan_cache.stats (Serve.cache srv) in
      Alcotest.(check int) "single entry" 1 s.Plan_cache.entries)

(* Shape-relevant parameters: a predicate on a non-partitioning column is
   substituted back as a literal, so each distinct value is its own cache
   entry — and a repeated value is a hit. *)
let test_shape_relevant_values_reoptimize () =
  let env = Lazy.force env in
  with_server env (fun srv ->
      let sql n =
        Printf.sprintf
          "SELECT count(*) FROM store_sales WHERE ss_qty < %d" n
      in
      let run n =
        let prepared = Serve.prepare srv (sql n) in
        let r = Serve.execute srv ~session:0 prepared [] in
        Support.check_rows_equal (sql n) r.Serve.rows
          (fresh_rows env Serve.Orca (sql n));
        r.Serve.cache_hit
      in
      Alcotest.(check bool) "qty<3 cold" false (run 3);
      Alcotest.(check bool) "qty<7 also cold (shape value)" false (run 7);
      Alcotest.(check bool) "qty<3 again is a hit" true (run 3);
      let prepared = Serve.prepare srv (sql 3) in
      let classes = prepared.Serve.p_norm.Normalize.classes in
      Alcotest.(check bool) "has a shape-relevant slot" true
        (Array.exists (fun c -> c = Normalize.Shape) classes))

(* The full 43-query workload: cold then warm through the server, both
   optimizers; warm pass must be all cache hits that run no optimizer (no
   verifier run, where every optimize ends in one), and row-identical to
   the cold pass and to a fresh optimize+run. *)
let test_workload_roundtrip optimizer () =
  let env = Lazy.force env in
  let config = serve_config ~optimizer () in
  Alcotest.(check int) "workload statements" 43 (List.length W.Queries.all);
  let sink = Mpp_obs.Obs.create () in
  Mpp_obs.Obs.install sink;
  Fun.protect ~finally:Mpp_obs.Obs.uninstall (fun () ->
      with_server ~config env (fun srv ->
          List.iter
            (fun (qu : W.Queries.query) ->
              let prepared = Serve.prepare srv qu.W.Queries.sql in
              let cold = Serve.execute srv ~session:0 prepared [] in
              let verified = Mpp_obs.Obs.counter sink "verify.plans" in
              let warm = Serve.execute srv ~session:0 prepared [] in
              let name = qu.W.Queries.name in
              Alcotest.(check bool) (name ^ ": warm is a hit") true
                warm.Serve.cache_hit;
              Alcotest.(check int) (name ^ ": warm runs no optimizer") 0
                (Mpp_obs.Obs.counter sink "verify.plans" - verified);
              Support.check_rows_equal (name ^ ": warm = cold")
                warm.Serve.rows cold.Serve.rows;
              Support.check_rows_equal
                (name ^ ": serve = fresh")
                cold.Serve.rows
                (fresh_rows env optimizer qu.W.Queries.sql);
              (* Channel/metrics accounting: same plan, same execution —
                 scanned partitions and moved rows must agree exactly. *)
              Alcotest.(check int)
                (name ^ ": scanned parts agree")
                (Metrics.total_parts_scanned cold.Serve.metrics)
                (Metrics.total_parts_scanned warm.Serve.metrics))
            W.Queries.all))

(* Catalog invalidation: a DDL generation bump drops cached plans. *)
let test_invalidation_on_catalog_change () =
  let env = W.Runner.setup_env ~scale:1 ~nsegments:4 () in
  with_server env (fun srv ->
      let sql = "SELECT count(*) FROM store_sales WHERE ss_qty < 5" in
      let prepared = Serve.prepare srv sql in
      let r1 = Serve.execute srv ~session:0 prepared [] in
      let r2 = Serve.execute srv ~session:0 prepared [] in
      Alcotest.(check bool) "warm hit before DDL" true r2.Serve.cache_hit;
      ignore
        (Catalog.add_table env.W.Runner.catalog ~name:"serve_inval_probe"
           ~columns:[ ("x", Value.Tint) ]
           ~distribution:(Mpp_catalog.Distribution.Hashed [ 0 ])
           ());
      let r3 = Serve.execute srv ~session:0 prepared [] in
      Alcotest.(check bool) "post-DDL execution is a miss" false
        r3.Serve.cache_hit;
      Support.check_rows_equal "rows stable across invalidation"
        r1.Serve.rows r3.Serve.rows;
      let s = Plan_cache.stats (Serve.cache srv) in
      Alcotest.(check bool) "invalidation counted" true
        (s.Plan_cache.invalidations >= 1))

(* Each plan is verified once, by the optimizer that made it: a miss adds
   one verifier run and a hit adds none. *)
let test_one_verify_per_miss optimizer () =
  let env = Lazy.force env in
  let config = serve_config ~optimizer () in
  let sink = Mpp_obs.Obs.create () in
  Mpp_obs.Obs.install sink;
  Fun.protect ~finally:Mpp_obs.Obs.uninstall (fun () ->
      with_server ~config env (fun srv ->
          let verified () = Mpp_obs.Obs.counter sink "verify.plans" in
          let prepared =
            Serve.prepare srv
              "SELECT count(*) FROM store_sales WHERE ss_qty < 7 AND \
               ss_item > 2"
          in
          let before = verified () in
          let miss = Serve.execute srv ~session:0 prepared [] in
          let after_miss = verified () in
          let hit = Serve.execute srv ~session:0 prepared [] in
          Alcotest.(check (pair bool bool)) "miss, then hit" (false, true)
            (miss.Serve.cache_hit, hit.Serve.cache_hit);
          Alcotest.(check int) "a miss verifies once" 1 (after_miss - before);
          Alcotest.(check int) "a hit does not verify" 0
            (verified () - after_miss)))

(* A range-partitioned table created and loaded mid-session is queried
   through the server, its workers on two-domain pools: rows and
   partitions scanned equal a direct execution's. *)
let test_partitioned_ddl_while_serving () =
  let env = W.Runner.setup_env ~scale:1 ~nsegments:4 () in
  let catalog = env.W.Runner.catalog and storage = env.W.Runner.storage in
  let config = serve_config ~workers:2 ~exec_domains:2 () in
  with_server ~config env (fun srv ->
      ignore
        (Serve.execute srv ~session:0
           (Serve.prepare srv "SELECT count(*) FROM store_sales")
           []);
      let partitioning =
        Mpp_catalog.Partition.single_level
          ~alloc_oid:(fun () -> Catalog.alloc_oid catalog)
          ~key_index:0 ~key_name:"k" ~scheme:Mpp_catalog.Partition.Range
          ~table_name:"serve_ddl_probe"
          (Mpp_catalog.Partition.int_ranges ~start:0 ~width:10 ~count:8)
      in
      let tbl =
        Catalog.add_table catalog ~name:"serve_ddl_probe"
          ~columns:[ ("k", Value.Tint); ("v", Value.Tint) ]
          ~distribution:(Mpp_catalog.Distribution.Hashed [ 1 ])
          ~partitioning ()
      in
      Mpp_storage.Storage.load storage tbl
        (List.init 80 (fun i -> [| Value.Int i; Value.Int (i * 3) |]));
      let sql =
        "SELECT count(*), sum(v) FROM serve_ddl_probe WHERE k >= 20 AND k < 40"
      in
      let served = Serve.execute srv ~session:1 (Serve.prepare srv sql) [] in
      let rows, metrics =
        Exec.run ~catalog ~storage (fresh_plan env Serve.Orca sql)
      in
      Support.check_rows_equal "rows = direct execution" rows served.Serve.rows;
      let parts m =
        Metrics.parts_scanned_of m ~root_oid:tbl.Mpp_catalog.Table.oid
      in
      Alcotest.(check int) "two of eight partitions" 2 (parts metrics);
      Alcotest.(check int) "parts scanned = direct execution" (parts metrics)
        (parts served.Serve.metrics))

(* LRU eviction: a full cache touched at its oldest key evicts the
   second-oldest on the next insert. *)
let test_lru_eviction () =
  let env = Lazy.force env in
  let catalog = env.W.Runner.catalog in
  let plan = fresh_plan env Serve.Orca "SELECT count(*) FROM store" in
  let est = Mpp_plan.Est.none in
  let cache = Plan_cache.create () in
  let key i =
    Plan_cache.key ~fingerprint:(string_of_int i) ~kind:"orca" ~shape:""
  in
  for i = 0 to Plan_cache.capacity - 1 do
    Plan_cache.insert cache ~catalog (key i) plan est
  done;
  Alcotest.(check bool) "oldest key found" true
    (Plan_cache.find cache ~catalog (key 0) <> None);
  Plan_cache.insert cache ~catalog (key Plan_cache.capacity) plan est;
  Alcotest.(check bool) "second-oldest key evicted" true
    (Plan_cache.find cache ~catalog (key 1) = None);
  Alcotest.(check bool) "touched key kept" true
    (Plan_cache.find cache ~catalog (key 0) <> None);
  let s = Plan_cache.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Plan_cache.evictions;
  Alcotest.(check int) "still full" Plan_cache.capacity s.Plan_cache.entries

(* The eviction victim against the last-use scan it replaced: a model
   stamping each entry with a clock on every hit and insert, and evicting
   the entry with the smallest stamp.  Random finds and inserts over more
   keys than the cache holds must hit, miss and evict exactly as the model
   does. *)
let test_lru_matches_last_use () =
  let env = Lazy.force env in
  let catalog = env.W.Runner.catalog in
  let plan = fresh_plan env Serve.Orca "SELECT count(*) FROM store" in
  let est = Mpp_plan.Est.none in
  let cache = Plan_cache.create () in
  let key i =
    Plan_cache.key ~fingerprint:(string_of_int i) ~kind:"orca" ~shape:""
  in
  let model : (int, int) Hashtbl.t = Hashtbl.create 512 in
  let clock = ref 0 and evictions = ref 0 in
  let rs = Random.State.make [| 31 |] in
  let nkeys = Plan_cache.capacity + 64 in
  for step = 1 to 20_000 do
    incr clock;
    let i = Random.State.int rs nkeys in
    if Random.State.bool rs then begin
      let hit = Plan_cache.find cache ~catalog (key i) <> None in
      Alcotest.(check bool)
        (Printf.sprintf "step %d: find %d hits as in the model" step i)
        (Hashtbl.mem model i) hit;
      if hit then Hashtbl.replace model i !clock
    end
    else begin
      Plan_cache.insert cache ~catalog (key i) plan est;
      if Hashtbl.length model >= Plan_cache.capacity
         && not (Hashtbl.mem model i)
      then begin
        let victim, _ =
          Hashtbl.fold
            (fun k used (v, u) -> if used < u then (k, used) else (v, u))
            model (-1, max_int)
        in
        Hashtbl.remove model victim;
        incr evictions
      end;
      Hashtbl.replace model i !clock
    end
  done;
  let s = Plan_cache.stats cache in
  Alcotest.(check int) "evictions" !evictions s.Plan_cache.evictions;
  Alcotest.(check int) "entries" (Hashtbl.length model) s.Plan_cache.entries

(* ------------------------------------------------------------------ *)
(* The planning front door                                             *)

(* EXPLAIN's root estimate is the optimizer's own: for every Orca plan of
   the 43 templates and the generated big-join suite, the stamped root
   estimate equals the [estimated_rows] the optimizer costed the plan
   with (the attribute of its [optimize] span). *)
let test_root_estimate_matches_optimizer () =
  let env = Lazy.force env in
  let check ~stats ~catalog ~storage name lg =
    let sink = Obs.create () in
    Obs.install sink;
    let _, est =
      Fun.protect ~finally:Obs.uninstall (fun () ->
          Serve.plan ~stats ~catalog
            ~nsegments:(Mpp_storage.Storage.nsegments storage)
            Serve.Orca lg)
    in
    let costed =
      match Obs.find_span sink "optimize" with
      | Some sp -> (
          match List.assoc_opt "estimated_rows" sp.Obs.span_attrs with
          | Some (Mpp_obs.Json.Float r) -> Some r
          | _ -> None)
      | None -> None
    in
    Alcotest.(check (option (float 1e-9)))
      (name ^ ": root estimate = optimizer's") costed
      (Mpp_plan.Est.find est 0)
  in
  let { W.Runner.stats; catalog; storage; _ } = env in
  List.iter
    (fun (qu : W.Queries.query) ->
      check ~stats ~catalog ~storage qu.W.Queries.name
        (Mpp_sql.Sql.to_logical catalog qu.W.Queries.sql))
    W.Queries.all;
  List.iter
    (fun spec ->
      let { W.Biggen.name; catalog; storage; stats; logical } =
        W.Biggen.generate spec
      in
      check ~stats ~catalog ~storage name logical)
    (W.Biggen.default_suite ())

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)

let admission_queries =
  [
    "SELECT count(*) FROM store_sales WHERE ss_sold_date >= '2013-02-01' \
     AND ss_sold_date < '2013-05-01'";
    "SELECT ss_item, count(*) FROM store_sales ss, store_returns sr WHERE \
     ss_item = sr_item AND ss_item < 3 GROUP BY ss_item";
    "SELECT count(*) FROM web_sales WHERE ws_qty < 10";
    "SELECT s_state, count(*) FROM store_sales ss, store s WHERE ss_store \
     = s_id GROUP BY s_state";
  ]

(* Capacity 1, K queued sessions: every query's rows must equal a serial
   execution's, the controller must never have two queries in flight, and
   the Dpool accounting must match a serial baseline (no lost or
   duplicated parallel jobs). *)
let test_admission_capacity_one () =
  let env = Lazy.force env in
  let nsessions = 4 in
  let config = serve_config ~workers:2 ~capacity:1 ~exec_domains:1 () in
  with_server ~config env (fun srv ->
      let sessions =
        Array.init nsessions (fun _ ->
            List.map
              (fun sql -> (Serve.prepare srv sql, []))
              admission_queries)
      in
      let results = Serve.run_stream srv sessions in
      (* serial baseline through a private pool, counting Dpool jobs *)
      let baseline_pool = Dpool.create 1 in
      let baseline =
        List.map
          (fun sql ->
            fst
              (Exec.run ~pool:baseline_pool ~catalog:env.W.Runner.catalog
                 ~storage:env.W.Runner.storage
                 (fresh_plan env Serve.Orca sql)))
          admission_queries
      in
      let serial_jobs = Dpool.jobs_submitted baseline_pool in
      Dpool.shutdown baseline_pool;
      Array.iteri
        (fun s rs ->
          Alcotest.(check int)
            (Printf.sprintf "session %d completed all" s)
            (List.length admission_queries)
            (List.length rs);
          List.iteri
            (fun qi r ->
              Support.check_rows_equal
                (Printf.sprintf "session %d query %d = serial" s qi)
                r.Serve.rows
                (List.nth baseline qi))
            rs)
        results;
      let a = Serve.admission_stats srv in
      Alcotest.(check int) "peak in-flight is 1" 1 a.Serve.peak_in_flight;
      Alcotest.(check int) "all submitted completed"
        (nsessions * List.length admission_queries)
        a.Serve.completed;
      Alcotest.(check int) "no failures" 0 a.Serve.failed;
      (* Dpool accounting: the workers' private pools together ran the
         same parallel sections K sessions × the serial baseline. *)
      let served_jobs = Serve.worker_jobs_submitted srv in
      Alcotest.(check int) "dpool jobs = K × serial baseline"
        (nsessions * serial_jobs) served_jobs)

(* A memory budget smaller than any single query's estimate: queries are
   admitted one at a time (oversize-when-idle), so the budget is never
   exceeded by co-admission. *)
let test_admission_memory_budget () =
  let env = Lazy.force env in
  let config =
    serve_config ~workers:2 ~capacity:4 ~exec_domains:1 ~mem_budget:1.0 ()
  in
  with_server ~config env (fun srv ->
      let sessions =
        Array.init 3 (fun _ ->
            List.map
              (fun sql -> (Serve.prepare srv sql, []))
              admission_queries)
      in
      let results = Serve.run_stream srv sessions in
      Array.iter
        (fun rs ->
          Alcotest.(check int) "session completed all"
            (List.length admission_queries)
            (List.length rs))
        results;
      let a = Serve.admission_stats srv in
      Alcotest.(check int)
        "budget under any estimate => serialized" 1 a.Serve.peak_in_flight;
      Alcotest.(check int) "every admission was oversize-when-idle"
        a.Serve.completed a.Serve.oversize_admissions);
  (* and with a generous budget, co-admission stays within it *)
  let config2 = serve_config ~workers:2 ~capacity:2 ~exec_domains:1 () in
  with_server ~config:config2 env (fun srv ->
      let sessions =
        Array.init 3 (fun _ ->
            List.map
              (fun sql -> (Serve.prepare srv sql, []))
              admission_queries)
      in
      ignore (Serve.run_stream srv sessions);
      let a = Serve.admission_stats srv in
      Alcotest.(check bool) "peak within capacity" true
        (a.Serve.peak_in_flight <= 2);
      Alcotest.(check bool) "peak memory within budget" true
        (a.Serve.peak_mem_bytes
        <= Serve.default_config.Serve.mem_budget_bytes +. 1.0);
      Alcotest.(check int) "no oversize admissions" 0
        a.Serve.oversize_admissions)

let () =
  Alcotest.run "serve"
    [
      ( "plan cache",
        [
          Alcotest.test_case "random binds, orca, serial" `Slow
            (test_cache_hit_random_params Serve.Orca 1);
          Alcotest.test_case "random binds, orca, parallel" `Slow
            (test_cache_hit_random_params Serve.Orca 2);
          Alcotest.test_case "random binds, planner, serial" `Slow
            (test_cache_hit_random_params Serve.Planner 1);
          Alcotest.test_case "random binds, planner, parallel" `Slow
            (test_cache_hit_random_params Serve.Planner 2);
          Alcotest.test_case "lifted literals share an entry" `Quick
            test_lifted_literals_share_entry;
          Alcotest.test_case "shape-relevant values re-optimize" `Quick
            test_shape_relevant_values_reoptimize;
          Alcotest.test_case "workload round-trip, orca" `Slow
            (test_workload_roundtrip Serve.Orca);
          Alcotest.test_case "workload round-trip, planner" `Slow
            (test_workload_roundtrip Serve.Planner);
          Alcotest.test_case "invalidation on catalog change" `Quick
            test_invalidation_on_catalog_change;
          Alcotest.test_case "one verifier run per cache miss, orca" `Quick
            (test_one_verify_per_miss Serve.Orca);
          Alcotest.test_case "one verifier run per cache miss, planner"
            `Quick
            (test_one_verify_per_miss Serve.Planner);
          Alcotest.test_case "partitioned table added while serving" `Quick
            test_partitioned_ddl_while_serving;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "LRU victim = least recently used" `Quick
            test_lru_matches_last_use;
        ] );
      ( "front door",
        [
          Alcotest.test_case "root estimate = optimizer's" `Slow
            test_root_estimate_matches_optimizer;
        ] );
      ( "admission control",
        [
          Alcotest.test_case "capacity 1 serializes" `Slow
            test_admission_capacity_one;
          Alcotest.test_case "memory budgets" `Slow
            test_admission_memory_budget;
        ] );
    ]
