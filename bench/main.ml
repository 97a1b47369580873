(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (§4).

    Usage: [bench/main.exe [table2|table3|fig16|fig17|fig18a|fig18b|fig18c|
    ablation-memo|ablation-pwj|micro-exec|part-select|
    verify|join-filter|opt-scaling|all]] — no argument runs everything.
    [micro-exec] measures the executor hot path
    (interpreted vs compiled expressions, serial vs domain-pool join, the
    grouped-aggregation and two-key join kernels);
    [part-select] measures partition-selection cost vs partition count
    (legacy scan vs the selection index, the paper's Fig. 14 shape);
    [verify] measures plan-verifier cost against optimize time (the <1%
    overhead budget) and its scaling with plan size; [join-filter]
    measures runtime-join-filter speedup (on vs off, same plan) and
    Motion-row reduction from pre-Motion filtering; [profile] measures
    the PR-6 query profiler's overhead (off vs pool accounting vs full
    stats+trace) on the Table-2 scan; [opt-scaling] measures optimize
    time vs relation count on generated big-join graphs and optimize-time
    speedup vs domain count, asserting every domain count picks the
    identical plan; [serve] measures the concurrent serving layer's
    sustained QPS on the mixed workload, cold (empty plan cache) vs warm
    (normalized-fingerprint cache hits) over 1..K sessions; the
    [--smoke] variants are the tiny-input schema checks that
    [dune runtest] runs.  Whatever ran is also written as structured data
    to [BENCH_RESULTS.json]; sections merge with an existing file, so
    single experiments can be re-run without losing the rest.
    [check-regression [BASELINE]] compares a fresh [BENCH_RESULTS.json]
    against the committed [bench/BASELINE.json] (±20% per pinned metric)
    and exits 1 loudly on regression.

    Absolute numbers differ from the paper (its substrate was a 16-node
    Greenplum cluster over 256 GB of TPC-DS; ours is an in-process simulated
    cluster over synthetic data) — the claims under test are the *shapes*:
    who eliminates which partitions, how plan size scales with partition
    count, and where partition selection helps or hurts. *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Cat = Mpp_catalog.Catalog
module Table = Mpp_catalog.Table
module Part = Mpp_catalog.Partition
module Dist = Mpp_catalog.Distribution
module Storage = Mpp_storage.Storage
module W = Mpp_workload
module Json = Mpp_obs.Json
module Obs = Mpp_obs.Obs

(* A large minor heap and a lazy major GC keep collector scheduling from
   drowning the small per-partition overheads Table 2 measures. *)
let () =
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 24; space_overhead = 400 }

let line = String.make 72 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* Structured results: every experiment records a JSON section under its
   name; whatever ran is written to BENCH_RESULTS.json on exit. *)
let results : (string * Json.t) list ref = ref []
let record name json = results := !results @ [ (name, json) ]

(* Sections of a previous run that this run did not re-measure; re-running
   one experiment updates its section and keeps the rest. *)
let previous_results () =
  if not (Sys.file_exists "BENCH_RESULTS.json") then []
  else
    let doc =
      try
        let ic = open_in_bin "BENCH_RESULTS.json" in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            Json.parse_opt (really_input_string ic (in_channel_length ic)))
      with _ -> None
    in
    match doc with
    | Some (Json.Obj fields) -> (
        match List.assoc_opt "experiments" fields with
        | Some (Json.Obj exps) -> exps
        | _ -> [])
    | _ -> []

let write_results () =
  if !results <> [] then begin
    let kept =
      List.filter
        (fun (k, _) -> not (List.mem_assoc k !results))
        (previous_results ())
    in
    let json =
      Json.Obj
        [ ("schema", Json.String "mpp-parts-bench/1");
          ("experiments", Json.Obj (kept @ !results)) ]
    in
    Json.to_file "BENCH_RESULTS.json" json;
    Printf.printf "\nresults written to BENCH_RESULTS.json\n"
  end

(* Smoke-mode schema checks: the named field of a JSON section (failing
   with the experiment's name when it is missing) and whether a value is
   a positive, finite measurement. *)
let field ~what obj name =
  match obj with
  | Json.Obj fields -> (
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> failwith (what ^ " smoke: missing field " ^ name))
  | _ -> failwith (what ^ " smoke: section is not an object")

let measured = function
  | Json.Float f -> f > 0.0 && Float.is_finite f
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Timing harness: every experiment times through these                 *)
(* ------------------------------------------------------------------ *)

let median l =
  let s = List.sort Float.compare l in
  List.nth s (List.length s / 2)

let minimum l = List.fold_left Float.min Float.infinity l

(* Wall time of one call, in seconds, with its result. *)
let time_run f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* [n] timings of [f] in seconds per call, after [warmup] untimed calls.
   Each timing covers [batch] consecutive calls (divided back out), so
   sub-millisecond work rises above timer noise. *)
let samples ?(warmup = 1) ?(batch = 1) n f =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  List.init n (fun _ ->
      let t, () =
        time_run (fun () ->
            for _ = 1 to batch do
              ignore (f ())
            done)
      in
      t /. float_of_int batch)

(* [n] timings of each of two configurations, taken in pairs that
   alternate which side runs first, each after a major collection, so
   slow drift of the machine and GC debt left by the previous run land on
   both sides evenly instead of penalizing whichever runs later.  One
   untimed warm-up call of each side first. *)
let paired n f_a f_b =
  ignore (f_a ());
  ignore (f_b ());
  let timed f =
    Gc.major ();
    fst (time_run f)
  in
  let ta = ref [] and tb = ref [] in
  for i = 1 to n do
    if i land 1 = 0 then begin
      ta := timed f_a :: !ta;
      tb := timed f_b :: !tb
    end
    else begin
      tb := timed f_b :: !tb;
      ta := timed f_a :: !ta
    end
  done;
  (!ta, !tb)

(* Both medians of [paired], in milliseconds. *)
let paired_median_ms n f_a f_b =
  let ta, tb = paired n f_a f_b in
  (1000.0 *. median ta, 1000.0 *. median tb)

(* Adaptive nanoseconds per call: one untimed warm-up call, then batches
   of 1, 4, 16, ... calls until one batch runs at least [min_time]
   seconds, long enough to swamp timer resolution. *)
let ns_per_op ~min_time f =
  ignore (f ());
  let rec go reps =
    let dt, () =
      time_run (fun () ->
          for _ = 1 to reps do
            ignore (f ())
          done)
    in
    if dt >= min_time then 1e9 *. dt /. float_of_int reps else go (reps * 4)
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Table 2: partitioning overhead of a full scan                        *)
(* ------------------------------------------------------------------ *)

let table2 ?(smoke = false) () =
  header
    (if smoke then "Table 2: overhead of partitioning (smoke mode, tiny tables)"
     else "Table 2: overhead of partitioning (full scan of lineitem, 7 years)");
  Printf.printf "%-18s %-21s %-10s %-21s %-10s %-6s\n" "#parts"
    "unpart / part (ms)" "vs unpart" "empty: unpart / part" "empty: kw" "paper";
  let rows = if smoke then 2_000 else 500_000
  and runs = if smoke then 3 else 15
  and nsegments = 4 in
  let load scenario rows =
    let catalog = Cat.create () in
    let storage = Storage.create ~nsegments in
    let _ = W.Tpch.setup ~catalog ~storage ~scenario ~rows in
    let lg = Mpp_sql.Sql.to_logical catalog "SELECT count(*) FROM lineitem" in
    let plan = Orca.Optimizer.optimize (Orca.Optimizer.create ~catalog ()) lg in
    fun () -> Mpp_exec.Exec.run ~catalog ~storage plan
  in
  (* Minor-heap words one query allocates, averaged over [n] runs: what
     the per-partition bookkeeping costs the collector.  Reported, not
     gated. *)
  let minor_words_per_query n f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (f ())
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  (* Each partitioned scenario runs paired against the unpartitioned copy
     ([paired]: alternating order, a major collection before every timed
     run), so both sides see the same heap and the same machine drift; the
     two datasets are the only ones alive.  The same pair over empty
     tables times what partitioning adds besides reading rows — selector
     pushes, channel reads, one heap lookup per partition and segment —
     which is what a gap at many partitions is made of.  Every scenario's
     work counters are checked first: the full scan reads each partition
     on each segment, and every row once. *)
  let unpart = load W.Tpch.Unpartitioned rows
  and unpart_empty = load W.Tpch.Unpartitioned 0 in
  let timings =
    List.map
      (fun (scenario, paper) ->
        Gc.compact ();
        let part = load scenario rows and part_empty = load scenario 0 in
        let nparts = W.Tpch.scenario_parts scenario in
        let _, m = part () in
        let check what expected actual =
          if expected <> actual then
            failwith
              (Printf.sprintf "table2 %s: %s = %d, expected %d"
                 (W.Tpch.scenario_name scenario) what actual expected)
        in
        check "parts_scanned" nparts (Mpp_exec.Metrics.total_parts_scanned m);
        check "partition_opens" (nparts * nsegments)
          m.Mpp_exec.Metrics.partition_opens;
        check "tuples_scanned" rows m.Mpp_exec.Metrics.tuples_scanned;
        let base, t = paired_median_ms runs unpart part in
        let ebase, et = paired_median_ms runs unpart_empty part_empty in
        let ewords = minor_words_per_query runs part_empty in
        (scenario, paper, nparts, m, base, t, ebase, et, ewords))
      [ (W.Tpch.Parts_42, "3%"); (W.Tpch.Parts_84, "3%");
        (W.Tpch.Parts_169, "1%"); (W.Tpch.Parts_361, "2%") ]
  in
  let pct t base = 100.0 *. (t -. base) /. base in
  List.iter
    (fun (scenario, paper, _, _, base, t, ebase, et, ewords) ->
      Printf.printf
        "%-18s %8.2f / %-10.2f %+8.1f%%  %8.3f / %-10.3f %-10.1f %-6s\n"
        (W.Tpch.scenario_name scenario) base t (pct t base) ebase et
        (ewords /. 1000.0) paper)
    timings;
  let section =
    Json.List
      (List.map
         (fun (scenario, _, nparts, m, base, t, ebase, et, ewords) ->
           Json.Obj
             [ ("scenario", Json.String (W.Tpch.scenario_name scenario));
               ("nparts", Json.Int nparts);
               ("rows", Json.Int rows);
               ("parts_scanned",
                Json.Int (Mpp_exec.Metrics.total_parts_scanned m));
               ("partition_opens", Json.Int m.Mpp_exec.Metrics.partition_opens);
               ("tuples_scanned", Json.Int m.Mpp_exec.Metrics.tuples_scanned);
               ("unpart_ms", Json.Float base);
               ("scan_ms", Json.Float t);
               ("overhead_pct", Json.Float (pct t base));
               ("empty_unpart_ms", Json.Float ebase);
               ("empty_scan_ms", Json.Float et);
               ("empty_minor_words", Json.Float ewords);
               ("runs", Json.Int runs) ])
         timings)
  in
  record "table2" section;
  if smoke then begin
    (* the section re-parses, and every scenario carries its counts and
       timings *)
    let reparsed =
      match Json.parse_opt (Json.to_string section) with
      | Some (Json.List l) when List.length l = 4 -> l
      | _ -> failwith "table2 smoke: section is not a list of 4 scenarios"
    in
    List.iter
      (fun sc ->
        List.iter
          (fun name ->
            match field ~what:"table2" sc name with
            | Json.Int _ -> ()
            | _ -> failwith ("table2 smoke: " ^ name ^ " is not an int"))
          [ "nparts"; "rows"; "parts_scanned"; "partition_opens";
            "tuples_scanned"; "runs" ];
        List.iter
          (fun name ->
            match field ~what:"table2" sc name with
            | Json.Float f when Float.is_finite f -> ()
            | _ -> failwith ("table2 smoke: " ^ name ^ " is not a float"))
          [ "unpart_ms"; "scan_ms"; "overhead_pct"; "empty_unpart_ms";
            "empty_scan_ms"; "empty_minor_words" ])
      reparsed;
    print_endline
      "smoke OK: table2 scans every partition on every segment and every \
       row once at each granularity; section well formed"
  end

(* ------------------------------------------------------------------ *)
(* Table 3 + Figure 16: workload classification & parts scanned        *)
(* ------------------------------------------------------------------ *)

let workload_env = ref None

let get_env () =
  match !workload_env with
  | Some env -> env
  | None ->
      let env = W.Runner.setup_env ~scale:4 () in
      workload_env := Some env;
      env

let table3 () =
  header
    (Printf.sprintf "Table 3: workload classification (%d-query star-schema \
                     workload)"
       (List.length W.Queries.all));
  let env = get_env () in
  let outcomes = W.Classify.run_workload env in
  Printf.printf "%-52s %-10s %-8s %s\n" "Category" "queries" "ours" "paper";
  let paper = [ "11%"; "3%"; "80%"; "3%"; "3%" ] in
  let breakdown = W.Classify.breakdown outcomes in
  List.iter2
    (fun (cat, count, pct) p ->
      Printf.printf "%-52s %-10d %-8s %s\n"
        (W.Queries.category_to_string cat)
        count
        (Printf.sprintf "%.0f%%" pct)
        p)
    breakdown paper;
  record "table3"
    (Json.List
       (List.map
          (fun (cat, count, pct) ->
            Json.Obj
              [ ("category", Json.String (W.Queries.category_to_string cat));
                ("queries", Json.Int count);
                ("pct", Json.Float pct) ])
          breakdown))

let fig16 () =
  header
    "Figure 16: partitions scanned per table, aggregated over the workload";
  let env = get_env () in
  Printf.printf "%-18s %-9s %-9s %-14s\n" "table" "Planner" "Orca"
    "Orca saves";
  let rows = W.Classify.parts_by_table env in
  List.iter
    (fun (name, planner, orca, _total) ->
      Printf.printf "%-18s %-9d %-9d %-14s\n" name planner orca
        (if planner = 0 then "-"
         else
           Printf.sprintf "%.0f%%"
             (100.0 *. float_of_int (planner - orca) /. float_of_int planner)))
    rows;
  record "fig16"
    (Json.List
       (List.map
          (fun (name, planner, orca, total) ->
            Json.Obj
              [ ("table", Json.String name);
                ("planner_parts", Json.Int planner);
                ("orca_parts", Json.Int orca);
                ("total_parts", Json.Int total) ])
          rows))

(* ------------------------------------------------------------------ *)
(* Figure 17: runtime improvement from partition selection             *)
(* ------------------------------------------------------------------ *)

let fig17 () =
  header
    "Figure 17: relative runtime improvement, partition selection ON vs OFF";
  let env = get_env () in
  (* sub-millisecond executions are noise-dominated: time batches of five
     consecutive runs and take the median of five batches *)
  let measure kind qu =
    median (samples ~warmup:5 ~batch:5 5 (fun () -> W.Runner.run env kind qu))
  in
  let results =
    List.map
      (fun qu ->
        let off = measure W.Runner.Orca_no_selection qu in
        let on_ = measure W.Runner.Orca qu in
        (qu, off, on_, 100.0 *. (1.0 -. (on_ /. off))))
      W.Queries.all
  in
  (* the paper orders queries by (unselected) runtime and buckets them *)
  let sorted = List.sort (fun (_, a, _, _) (_, b, _, _) -> Float.compare a b)
      results in
  let n = List.length sorted in
  Printf.printf "%-28s %-12s %-12s %-12s %s\n" "query" "off (ms)" "on (ms)"
    "improvement" "block";
  List.iteri
    (fun i (qu, off, on_, imp) ->
      let block =
        if i < n / 3 then "short-running"
        else if i < 2 * n / 3 then "medium"
        else "long-running"
      in
      Printf.printf "%-28s %-12.2f %-12.2f %+10.1f%%  %s\n"
        qu.W.Queries.name (off *. 1000.) (on_ *. 1000.) imp block)
    sorted;
  let improved =
    List.filter (fun (_, _, _, imp) -> imp > 0.0) results |> List.length
  in
  let above50 =
    List.filter (fun (_, _, _, imp) -> imp >= 50.0) results |> List.length
  in
  let above70 =
    List.filter (fun (_, _, _, imp) -> imp >= 70.0) results |> List.length
  in
  Printf.printf
    "\nsummary: %d/%d queries improved; %d/%d improved >= 50%% (paper: more \
     than half); %d/%d improved >= 70%% (paper: over 25%%)\n"
    improved n above50 n above70 n;
  record "fig17"
    (Json.Obj
       [ ("queries",
          Json.List
            (List.map
               (fun (qu, off, on_, imp) ->
                 Json.Obj
                   [ ("query", Json.String qu.W.Queries.name);
                     ("off_ms", Json.Float (off *. 1000.0));
                     ("on_ms", Json.Float (on_ *. 1000.0));
                     ("improvement_pct", Json.Float imp) ])
               sorted));
         ("improved", Json.Int improved);
         ("above_50pct", Json.Int above50);
         ("above_70pct", Json.Int above70);
         ("total", Json.Int n) ])

(* ------------------------------------------------------------------ *)
(* Figure 18: plan size                                                 *)
(* ------------------------------------------------------------------ *)

(* 18(a): static elimination — plan size vs % of partitions selected. *)
let fig18a () =
  header
    "Figure 18(a): plan size vs % of partitions scanned (static elimination)";
  let catalog = Cat.create () in
  let storage = Storage.create ~nsegments:4 in
  let _ = W.Tpch.setup ~catalog ~storage ~scenario:W.Tpch.Parts_84 ~rows:0 in
  Printf.printf "%-12s %-14s %-14s\n" "% parts" "Planner (KB)" "Orca (KB)";
  let rows =
    List.map
      (fun pct ->
        let nparts = max 1 (84 * pct / 100) in
        (* cutoff date selecting the first [nparts] monthly partitions *)
        let cutoff = Date.add_months (Date.of_ymd 1992 1 1) nparts in
        let sql =
          Printf.sprintf "SELECT * FROM lineitem WHERE l_shipdate < '%s'"
            (Date.to_string cutoff)
        in
        let lg = Mpp_sql.Sql.to_logical catalog sql in
        let planner_plan =
          Mpp_planner.Planner.plan (Mpp_planner.Planner.create ~catalog ()) lg
        in
        let orca_plan =
          Orca.Optimizer.optimize (Orca.Optimizer.create ~catalog ()) lg
        in
        let pkb = Mpp_plan.Plan_size.kilobytes ~catalog planner_plan
        and okb = Mpp_plan.Plan_size.kilobytes ~catalog orca_plan in
        Printf.printf "%-12d %-14.1f %-14.1f\n" pct pkb okb;
        Json.Obj
          [ ("pct_parts", Json.Int pct);
            ("planner_kb", Json.Float pkb);
            ("orca_kb", Json.Float okb) ])
      [ 1; 25; 50; 75; 100 ]
  in
  record "fig18a" (Json.List rows)

(* Synthetic R(a,b), S(a,b) partitioned on b, as in §4.4.2/§4.4.3.
   [hash_on_key] distributes on b instead of a (co-location on the
   partitioning key, needed by the partition-wise-join ablation). *)
let make_rs ?(hash_on_key = false) ~nparts () =
  let catalog = Cat.create () in
  let part table_name =
    Part.single_level
      ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
      ~key_index:1 ~key_name:"b" ~scheme:Part.Range ~table_name
      (Part.int_ranges ~start:0 ~width:100 ~count:nparts)
  in
  let dist = Dist.Hashed [ (if hash_on_key then 1 else 0) ] in
  let _r =
    Cat.add_table catalog ~name:"r"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:dist ~partitioning:(part "r") ()
  in
  let _s =
    Cat.add_table catalog ~name:"s"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:dist ~partitioning:(part "s") ()
  in
  catalog

let fig18b () =
  header
    "Figure 18(b): plan size vs #partitions (join with dynamic elimination)";
  Printf.printf "%-12s %-14s %-14s\n" "#parts" "Planner (KB)" "Orca (KB)";
  let rows =
    List.map
      (fun nparts ->
        let catalog = make_rs ~nparts () in
        let sql = "SELECT * FROM r, s WHERE r.b = s.b AND s.a < 100" in
        let lg = Mpp_sql.Sql.to_logical catalog sql in
        let planner_plan =
          Mpp_planner.Planner.plan (Mpp_planner.Planner.create ~catalog ()) lg
        in
        let orca_plan =
          Orca.Optimizer.optimize (Orca.Optimizer.create ~catalog ()) lg
        in
        let pkb = Mpp_plan.Plan_size.kilobytes ~catalog planner_plan
        and okb = Mpp_plan.Plan_size.kilobytes ~catalog orca_plan in
        Printf.printf "%-12d %-14.1f %-14.1f\n" nparts pkb okb;
        Json.Obj
          [ ("nparts", Json.Int nparts);
            ("planner_kb", Json.Float pkb);
            ("orca_kb", Json.Float okb) ])
      [ 50; 100; 150; 200; 250; 300 ]
  in
  record "fig18b" (Json.List rows)

let fig18c () =
  header "Figure 18(c): plan size vs #partitions (DML over partitioned tables)";
  Printf.printf "%-12s %-14s %-14s\n" "#parts" "Planner (KB)" "Orca (KB)";
  let rows =
    List.map
      (fun nparts ->
        let catalog = make_rs ~nparts () in
        let sql = "UPDATE r SET b = s.b FROM s WHERE r.a = s.a" in
        let lg = Mpp_sql.Sql.to_logical catalog sql in
        let planner_plan =
          Mpp_planner.Planner.plan (Mpp_planner.Planner.create ~catalog ()) lg
        in
        let orca_plan =
          Orca.Optimizer.optimize (Orca.Optimizer.create ~catalog ()) lg
        in
        let pkb = Mpp_plan.Plan_size.kilobytes ~catalog planner_plan
        and okb = Mpp_plan.Plan_size.kilobytes ~catalog orca_plan in
        Printf.printf "%-12d %-14.1f %-14.1f\n" nparts pkb okb;
        Json.Obj
          [ ("nparts", Json.Int nparts);
            ("planner_kb", Json.Float pkb);
            ("orca_kb", Json.Float okb) ])
      [ 50; 100; 150; 200; 250; 300 ]
  in
  record "fig18c" (Json.List rows)

(* ------------------------------------------------------------------ *)
(* Ablation: memo property enforcement                                  *)
(* ------------------------------------------------------------------ *)

let ablation_memo () =
  header "Ablation: memo plan space for R join S (paper Figure 13/14)";
  let catalog = make_rs ~nparts:10 () in
  let r = Cat.find catalog "r" and s = Cat.find catalog "s" in
  let lg =
    Orca.Logical.join
      (Expr.eq
         (Expr.col (Table.colref r ~rel:0 "b"))
         (Expr.col (Table.colref s ~rel:1 "a")))
      (Orca.Logical.get ~rel:0 "r")
      (Orca.Logical.get ~rel:1 "s")
  in
  let alts = Orca.Memo.plan_space ~catalog ~limit:16 lg in
  Printf.printf "%d valid plan alternatives enumerated\n" (List.length alts);
  let with_dpe =
    List.filter
      (fun p ->
        Plan.fold
          (fun acc n ->
            acc
            || match n with
               | Plan.Partition_selector { predicates; child = Some _; _ } ->
                   List.exists Option.is_some predicates
               | _ -> false)
          false p)
      alts
  in
  Printf.printf
    "%d of them perform join-driven partition selection (the paper's Plan 4)\n"
    (List.length with_dpe);
  let best_cost =
    match Orca.Memo.best_plan ~catalog lg with
    | Some (plan, cost) ->
        Printf.printf "best plan (cost %.1f):\n%s\n" cost (Plan.to_string plan);
        Json.Float cost
    | None ->
        print_endline "no plan found";
        Json.Null
  in
  record "ablation_memo"
    (Json.Obj
       [ ("alternatives", Json.Int (List.length alts));
         ("with_dpe", Json.Int (List.length with_dpe));
         ("best_cost", best_cost) ]);
  match with_dpe with
  | p :: _ ->
      Printf.printf "example partition-selecting plan:\n%s\n" (Plan.to_string p)
  | [] -> ()

(* ------------------------------------------------------------------ *)
(* Ablation: partition-wise joins (paper §5 related work)              *)
(* ------------------------------------------------------------------ *)

(* The alternative the paper contrasts with (Herodotou et al., Oracle):
   expand a key-to-key join of identically partitioned tables into an
   Append of per-partition joins.  Execution is competitive — but plan size
   grows linearly with the partition count again, the exact property the
   DynamicScan representation was designed to avoid. *)
let ablation_pwj () =
  header
    "Ablation: partition-wise join (related-work alternative, paper Sec. 5)";
  Printf.printf "%-10s %-16s %-16s %-14s %-14s\n" "#parts" "DynScan (KB)"
    "PartWise (KB)" "DynScan ms" "PartWise ms";
  List.iter
    (fun nparts ->
      let catalog = make_rs ~hash_on_key:true ~nparts () in
      let storage = Storage.create ~nsegments:4 in
      let r = Cat.find catalog "r" and s = Cat.find catalog "s" in
      let rng = W.Rng.create () in
      let rows =
        List.init 20_000 (fun i ->
            let b = W.Rng.int rng (nparts * 100) in
            ( [| Value.Int i; Value.Int b |],
              [| Value.Int (W.Rng.int rng 20_000); Value.Int b |] ))
      in
      Storage.load storage r (List.map fst rows);
      Storage.load storage s (List.map snd rows);
      let lg =
        Mpp_sql.Sql.to_logical catalog
          "SELECT count(*) FROM r, s WHERE r.b = s.b AND s.a < 1000"
      in
      let optimize config =
        Orca.Optimizer.optimize (Orca.Optimizer.create ~config ~catalog ()) lg
      in
      let dyn = optimize Orca.Optimizer.default_config in
      let pwj =
        optimize
          { Orca.Optimizer.default_config with
            enable_partition_wise_join = true }
      in
      let time plan =
        let run () = Mpp_exec.Exec.run ~catalog ~storage plan in
        1000.0 *. minimum (samples 5 run)
      in
      let r1, _ = Mpp_exec.Exec.run ~catalog ~storage dyn in
      let r2, _ = Mpp_exec.Exec.run ~catalog ~storage pwj in
      assert (r1 = r2);
      let dkb = Mpp_plan.Plan_size.kilobytes ~catalog dyn
      and pkb = Mpp_plan.Plan_size.kilobytes ~catalog pwj
      and dms = time dyn
      and pms = time pwj in
      Printf.printf "%-10d %-16.1f %-16.1f %-14.2f %-14.2f\n" nparts dkb pkb
        dms pms;
      record
        (Printf.sprintf "ablation_pwj_%d" nparts)
        (Json.Obj
           [ ("nparts", Json.Int nparts);
             ("dynscan_kb", Json.Float dkb);
             ("partwise_kb", Json.Float pkb);
             ("dynscan_ms", Json.Float dms);
             ("partwise_ms", Json.Float pms) ]))
    [ 25; 50; 100; 200 ]

(* ------------------------------------------------------------------ *)
(* Executor hot path: compiled expressions and the domain pool          *)
(* ------------------------------------------------------------------ *)

(* The two claims behind the executor overhaul, measured directly:

   1. scan-filter: evaluating a predicate through the old interpreter
      contract (a per-row [Expr.env] whose [col] callback performs the
      linear layout search) vs the compiled [Expr.compile_pred] closure
      (offsets resolved once, per-row work is array loads);
   2. a hash join on a multi-segment cluster executed serially vs through
      the domain pool ([?domains]);
   3. the key-table kernels on one segment, serially, in ns per input
      row: grouped aggregation on 1 and 3 int keys, and a two-key hash
      join.

   [~smoke] runs the same code on tiny inputs and asserts only that both
   sides were measured and the JSON section has the right shape — no
   performance thresholds, so it is safe under [dune runtest] on any
   machine.  The honest parallel caveat: wall-clock speedup from domains
   requires actual cores; the [cores] field records what this host had. *)
let micro_exec ?(smoke = false) () =
  header
    (if smoke then "Micro: executor hot path (smoke mode, tiny inputs)"
     else "Micro: executor hot path (compiled expressions, domain pool)");
  let cores = Domain.recommended_domain_count () in
  let reps = if smoke then 3 else 7 in
  let best_of f = minimum (samples reps f) in
  (* ---- 1. scan-filter: interpreted env-per-row vs compiled ---- *)
  let nrows = if smoke then 2_000 else 400_000 in
  let rng = W.Rng.create () in
  let rows =
    Array.init nrows (fun i ->
        [| Value.Int i; Value.Int (W.Rng.int rng 100);
           Value.Int (W.Rng.int rng 1000) |])
  in
  let layout = [ (0, 3) ] in
  let cref index name = Colref.make ~rel:0 ~index ~name ~dtype:Value.Tint in
  let a = cref 0 "a" and b = cref 1 "b" and c = cref 2 "c" in
  let pred =
    Expr.And
      [ Expr.lt (Expr.col b) (Expr.int 50);
        Expr.Or
          [ Expr.ge (Expr.col c) (Expr.int 100);
            Expr.eq (Expr.col a) (Expr.int 0) ] ]
  in
  let offset_of rel =
    let rec go off = function
      | [] -> invalid_arg "micro_exec: rel not in layout"
      | (r, w) :: rest -> if r = rel then off else go (off + w) rest
    in
    go 0 layout
  in
  (* the pre-overhaul contract: one env record per row, layout search per
     column reference *)
  let env_of row =
    { Expr.col =
        (fun (cr : Colref.t) -> row.(offset_of cr.Colref.rel + cr.Colref.index));
      param = (fun _ -> Value.Null) }
  in
  let interpret () =
    let n = ref 0 in
    Array.iter (fun row -> if Expr.eval_pred (env_of row) pred then incr n) rows;
    !n
  in
  let compiled =
    Expr.compile_pred
      ~resolve:(fun cr -> offset_of cr.Colref.rel + cr.Colref.index)
      ~params:[||] pred
  in
  let run_compiled () =
    let n = ref 0 in
    Array.iter (fun row -> if compiled row then incr n) rows;
    !n
  in
  let n_interp = interpret () and n_comp = run_compiled () in
  assert (n_interp = n_comp);
  let t_interp = best_of interpret in
  let t_comp = best_of run_compiled in
  let ns_per_rows n t = 1e9 *. t /. float_of_int n in
  let ns_per = ns_per_rows nrows in
  let filter_speedup = t_interp /. t_comp in
  Printf.printf
    "scan-filter (%d rows, %d selected):\n\
    \  interpreted  %8.1f ns/row\n\
    \  compiled     %8.1f ns/row   (%.1fx)\n"
    nrows n_comp (ns_per t_interp) (ns_per t_comp) filter_speedup;
  (* ---- 2. serial vs domain-pool hash join on 8 segments ---- *)
  let nseg = 8 and domains = 4 in
  let catalog = Cat.create () in
  let dim =
    Cat.add_table catalog ~name:"dim"
      ~columns:[ ("k", Value.Tint); ("s", Value.Tstring) ]
      ~distribution:Dist.Replicated ()
  in
  let fact =
    Cat.add_table catalog ~name:"fact"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let storage = Storage.create ~nsegments:nseg in
  let ndim = if smoke then 50 else 1_000 in
  let nfact = if smoke then 2_000 else 200_000 in
  Storage.load storage dim
    (List.init ndim (fun k ->
         [| Value.Int k; Value.String (if k mod 2 = 0 then "even" else "odd") |]));
  Storage.load storage fact
    (List.init nfact (fun i -> [| Value.Int i; Value.Int (W.Rng.int rng ndim) |]));
  let dim_k = Colref.make ~rel:0 ~index:0 ~name:"k" ~dtype:Value.Tint in
  let fact_b = Colref.make ~rel:1 ~index:1 ~name:"b" ~dtype:Value.Tint in
  let join =
    Plan.motion Plan.Gather
      (Plan.hash_join ~kind:Plan.Inner
         ~pred:(Expr.eq (Expr.col dim_k) (Expr.col fact_b))
         (Plan.table_scan ~rel:0 dim.Table.oid)
         (Plan.table_scan ~rel:1 fact.Table.oid))
  in
  let run_with d =
    fst (Mpp_exec.Exec.run ~domains:d ~catalog ~storage join)
  in
  let serial_rows = run_with 1 and parallel_rows = run_with domains in
  assert (List.length serial_rows = List.length parallel_rows);
  let t_serial = best_of (fun () -> run_with 1) in
  let t_parallel = best_of (fun () -> run_with domains) in
  let join_speedup = t_serial /. t_parallel in
  Printf.printf
    "hash join (%d segments, %d fact rows, %d cores on this host):\n\
    \  serial       %8.2f ms\n\
    \  %d domains    %8.2f ms   (%.2fx)\n"
    nseg nfact cores (t_serial *. 1000.0) domains (t_parallel *. 1000.0)
    join_speedup;
  (* ---- 3. key-table kernels: grouped aggregation, two-key join ---- *)
  (* one segment, serial: the per-row cost of the kernel itself *)
  let kcatalog = Cat.create () in
  let kstorage = Storage.create ~nsegments:1 in
  let int_cols names = List.map (fun n -> (n, Value.Tint)) names in
  let grp =
    Cat.add_table kcatalog ~name:"grp"
      ~columns:(int_cols [ "g1"; "g2"; "g3"; "v" ])
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let nkrows = if smoke then 2_000 else 200_000 in
  Storage.load kstorage grp
    (List.init nkrows (fun _ ->
         [| Value.Int (W.Rng.int rng 100); Value.Int (W.Rng.int rng 4);
            Value.Int (W.Rng.int rng 3); Value.Int (W.Rng.int rng 1000) |]));
  let kcol rel i name =
    Expr.col (Colref.make ~rel ~index:i ~name ~dtype:Value.Tint)
  in
  let gcol = kcol 0 in
  let agg_plan ngroup =
    Plan.agg
      ~group_by:(List.filteri (fun i _ -> i < ngroup)
                   [ gcol 0 "g1"; gcol 1 "g2"; gcol 2 "g3" ])
      ~aggs:
        [ ("n", Plan.Count_star); ("s", Plan.Sum (gcol 3 "v"));
          ("m", Plan.Max (gcol 3 "v")) ]
      (Plan.table_scan ~rel:0 grp.Table.oid)
  in
  let kernel_ns plan =
    let run () =
      fst
        (Mpp_exec.Exec.run ~domains:1 ~catalog:kcatalog ~storage:kstorage plan)
    in
    (ns_per_rows nkrows (best_of run), List.length (run ()))
  in
  let agg1_ns, agg1_groups = kernel_ns (agg_plan 1) in
  let agg3_ns, agg3_groups = kernel_ns (agg_plan 3) in
  let dim2 =
    Cat.add_table kcatalog ~name:"dim2"
      ~columns:(int_cols [ "k1"; "k2"; "s" ])
      ~distribution:Dist.Replicated ()
  in
  Storage.load kstorage dim2
    (List.concat
       (List.init 100 (fun k1 ->
            List.init 4 (fun k2 ->
                [| Value.Int k1; Value.Int k2; Value.Int (k1 + k2) |]))));
  let join2 =
    Plan.hash_join ~kind:Plan.Inner
      ~pred:
        (Expr.And
           [ Expr.eq (kcol 1 0 "k1") (kcol 0 0 "g1");
             Expr.eq (kcol 1 1 "k2") (kcol 0 1 "g2") ])
      (Plan.table_scan ~rel:1 dim2.Table.oid)
      (Plan.table_scan ~rel:0 grp.Table.oid)
  in
  let join2_ns, join2_rows = kernel_ns join2 in
  Printf.printf
    "key-table kernels (%d rows, 1 segment, serial):\n\
    \  group by 1 key   %8.1f ns/row   (%d groups)\n\
    \  group by 3 keys  %8.1f ns/row   (%d groups)\n\
    \  2-key hash join  %8.1f ns/row   (%d rows out)\n"
    nkrows agg1_ns agg1_groups agg3_ns agg3_groups join2_ns join2_rows;
  let section =
    Json.Obj
      [ ("cores", Json.Int cores);
        ("smoke", Json.Bool smoke);
        ("scan_filter",
         Json.Obj
           [ ("rows", Json.Int nrows);
             ("selected", Json.Int n_comp);
             ("interpreted_ns_per_row", Json.Float (ns_per t_interp));
             ("compiled_ns_per_row", Json.Float (ns_per t_comp));
             ("speedup", Json.Float filter_speedup) ]);
        ("parallel_join",
         Json.Obj
           [ ("nsegments", Json.Int nseg);
             ("fact_rows", Json.Int nfact);
             ("serial_ms", Json.Float (t_serial *. 1000.0));
             ("parallel_ms", Json.Float (t_parallel *. 1000.0));
             ("domains", Json.Int domains);
             ("speedup", Json.Float join_speedup) ]);
        ("key_kernels",
         Json.Obj
           [ ("rows", Json.Int nkrows);
             ("agg_1key_ns_per_row", Json.Float agg1_ns);
             ("agg_3key_ns_per_row", Json.Float agg3_ns);
             ("join_2key_ns_per_row", Json.Float join2_ns) ]) ]
  in
  record "micro_exec" section;
  if smoke then begin
    (* schema assertions only — values must exist and be measurements, no
       performance thresholds *)
    let field = field ~what:"micro_exec" in
    let sf = field section "scan_filter" and pj = field section "parallel_join" in
    assert (measured (field sf "interpreted_ns_per_row"));
    assert (measured (field sf "compiled_ns_per_row"));
    assert (measured (field sf "speedup"));
    assert (measured (field pj "serial_ms"));
    assert (measured (field pj "parallel_ms"));
    let kk = field section "key_kernels" in
    assert (measured (field kk "agg_1key_ns_per_row"));
    assert (measured (field kk "agg_3key_ns_per_row"));
    assert (measured (field kk "join_2key_ns_per_row"));
    assert (match field section "cores" with Json.Int n -> n >= 1 | _ -> false);
    print_endline
      "smoke OK: micro_exec schema valid; interpreted and compiled paths both \
       measured"
  end

(* ------------------------------------------------------------------ *)
(* Partition-count scaling of selection (paper Fig. 14 shape)           *)
(* ------------------------------------------------------------------ *)

(* The index layer's claim, measured directly: selection cost must stay
   near-flat as the partition count P grows into the tens of thousands,
   where the legacy implementation (a scan of every leaf, plus an O(P)
   sibling rescan per default-arm check) grows linearly.  Four cases per P:

   - static:      a range restriction selecting ~P/8 leaves — the leaf
                  selector of Figure 5(a-c), once per query;
   - point:       a single-value restriction — one leaf survives;
   - streaming:   point restrictions cycling over distinct join keys — the
                  per-memo-key resolution of the DPE path (Figure 5(d));
   - default-arm: a range restriction on a layout with a Default partition,
                  forcing the covered-set check on every select.

   Each case times the legacy oracle against the indexed implementation
   (same restriction arrays, ns/select) and asserts they agree oid-for-oid
   before timing.  [~smoke] runs tiny P values and checks only the JSON
   schema, so it is safe under [dune runtest]. *)

let make_part ?(default_arm = false) ~nparts () =
  let next = ref 0 in
  let alloc_oid () =
    incr next;
    !next
  in
  let constrs =
    if default_arm then
      Part.int_ranges ~start:0 ~width:100 ~count:(nparts - 1)
      @ [ Part.Default ]
    else Part.int_ranges ~start:0 ~width:100 ~count:nparts
  in
  Part.single_level ~alloc_oid ~key_index:0 ~key_name:"b" ~scheme:Part.Range
    ~table_name:"t" constrs

let part_select ?(smoke = false) () =
  header
    (if smoke then "Bench: partition-selection scaling (smoke mode, tiny P)"
     else "Bench: partition-selection scaling, legacy scan vs index");
  let min_time = if smoke then 0.002 else 0.05 in
  let ns_per_op = ns_per_op ~min_time in
  let ps = if smoke then [ 16; 64 ] else [ 16; 128; 1024; 8192; 32768 ] in
  Printf.printf "%-8s %-12s %14s %14s %10s\n" "P" "case" "legacy ns"
    "indexed ns" "speedup";
  let static_speedup_8k = ref None in
  let points =
    List.map
      (fun nparts ->
        let p = make_part ~nparts () in
        let pd = make_part ~default_arm:true ~nparts () in
        let build_s, ix = time_run (fun () -> Part.Index.build p) in
        let ixd = pd.Part.index in
        let domain = nparts * 100 in
        let rset i = Interval.Set.of_interval_opt i in
        (* ~P/8 surviving leaves, mid-domain *)
        let static_r =
          let iv =
            Interval.closed_open
              (Value.Int (domain / 2))
              (Value.Int ((domain / 2) + (domain / 8)))
          in
          [| Some (rset iv) |]
        in
        let point_r =
          [| Some (Interval.Set.point (Value.Int ((domain / 2) + 50))) |]
        in
        (* distinct join-key tuples of the streaming-DPE path: one select
           per memoized key, keys cycling round-robin *)
        let nkeys = if smoke then 16 else 256 in
        let rng = W.Rng.create () in
        let stream_rs =
          Array.init nkeys (fun _ ->
              [| Some (Interval.Set.point (Value.Int (W.Rng.int rng domain)))
              |])
        in
        let stream_i = ref 0 in
        let next_stream () =
          let r = stream_rs.(!stream_i) in
          stream_i := (!stream_i + 1) mod nkeys;
          r
        in
        (* reaches into the last range leaves and the default arm *)
        let default_r =
          [| Some (rset (Interval.closed_open
                           (Value.Int (domain - 250))
                           (Value.Int (domain + 250))))
          |]
        in
        let case name part ix restriction =
          (match restriction with
          | Some r ->
              (* the oracle contract, checked before timing *)
              assert (Part.Index.select_oids ix r = Part.select_oids_legacy part r)
          | None ->
              Array.iter
                (fun r ->
                  assert (
                    Part.Index.select_oids ix r
                    = Part.select_oids_legacy part r))
                stream_rs);
          let arg () =
            match restriction with Some r -> r | None -> next_stream ()
          in
          let legacy = ns_per_op (fun () -> Part.select_oids_legacy part (arg ()))
          and indexed = ns_per_op (fun () -> Part.Index.select_oids ix (arg ())) in
          let speedup = legacy /. indexed in
          Printf.printf "%-8d %-12s %14.0f %14.0f %9.1fx\n" nparts name legacy
            indexed speedup;
          if name = "static" && nparts = 8192 then
            static_speedup_8k := Some speedup;
          ( name,
            Json.Obj
              [ ("legacy_ns", Json.Float legacy);
                ("indexed_ns", Json.Float indexed);
                ("speedup", Json.Float speedup) ] )
        in
        (* force left-to-right evaluation so the table prints in order *)
        let c_static = case "static" p ix (Some static_r) in
        let c_point = case "point" p ix (Some point_r) in
        let c_stream = case "streaming" p ix None in
        let c_default = case "default-arm" pd ixd (Some default_r) in
        let cases = [ c_static; c_point; c_stream; c_default ] in
        Json.Obj
          [ ("nparts", Json.Int nparts);
            ("index_build_ms", Json.Float (build_s *. 1000.0));
            ("cases", Json.Obj cases) ])
      ps
  in
  let section =
    Json.Obj
      ([ ("smoke", Json.Bool smoke); ("points", Json.List points) ]
      @
      match !static_speedup_8k with
      | Some s -> [ ("static_speedup_at_8k", Json.Float s) ]
      | None -> [])
  in
  record "part_select" section;
  (match !static_speedup_8k with
  | Some s ->
      Printf.printf
        "\nstatic case at P=8192: indexed selection %.1fx faster than the \
         legacy scan (target: >= 10x)\n"
        s
  | None -> ());
  if smoke then begin
    let field = field ~what:"part_select" in
    (match field section "points" with
    | Json.List (_ :: _ as pts) ->
        List.iter
          (fun pt ->
            assert (measured (field pt "index_build_ms"));
            match field pt "cases" with
            | Json.Obj cases ->
                assert (
                  List.map fst cases
                  = [ "static"; "point"; "streaming"; "default-arm" ]);
                List.iter
                  (fun (_, c) ->
                    assert (measured (field c "legacy_ns"));
                    assert (measured (field c "indexed_ns"));
                    assert (measured (field c "speedup")))
                  cases
            | _ -> failwith "part_select smoke: cases not an object")
          pts
    | _ -> failwith "part_select smoke: points missing or empty");
    print_endline
      "smoke OK: part_select schema valid; legacy and indexed selection both \
       measured and agree oid-for-oid"
  end

(* ------------------------------------------------------------------ *)
(* Verifier overhead                                                    *)
(* ------------------------------------------------------------------ *)

(* The always-on contract of lib/verify: both optimizers run every plan
   through the four static-analysis passes before handing it out, so the
   passes must cost a negligible slice of optimization itself.  Two
   measurements: (a) aggregate verify time vs optimize time over the whole
   evaluation workload, per optimizer (budget: <1%); (b) verify time vs
   plan size on the legacy Planner's per-leaf Append expansions at the
   paper's TPC-H partition counts, which should scale linearly (the
   structure pass's endpoint matching is the part that would go quadratic
   if regressed).  [~smoke] runs tiny inputs and asserts only the JSON
   schema and the oid-level agreement already enforced elsewhere. *)
let bench_verify ?(smoke = false) () =
  header
    (if smoke then "Bench: plan-verifier overhead (smoke mode, tiny inputs)"
     else "Bench: plan-verifier overhead (six passes vs optimize time)");
  let env = get_env () in
  let catalog = env.W.Runner.catalog in
  let reps = if smoke then 3 else 11 in
  let med f = median (samples reps f) in
  (* (a) workload aggregate, per optimizer.  Both optimizers run the
     verifier on every plan they emit, so the measured optimize time
     already contains one embedded verify; [raw] subtracts it back out to
     give the verifier's share of a pure optimization pass.  The
     end-to-end column adds execution — the denominator a query actually
     experiences. *)
  let queries = if smoke then [ List.hd W.Queries.all ] else W.Queries.all in
  let e2e_reps = if smoke then 1 else 3 in
  let kind_section kind =
    let opt_ms = ref 0.0 and ver_ms = ref 0.0 in
    let plans = ref 0 and nodes = ref 0 in
    List.iter
      (fun qu ->
        let plan = W.Runner.optimize_with env kind qu in
        let t_opt = med (fun () -> W.Runner.optimize_with env kind qu) in
        let t_ver = med (fun () -> Mpp_verify.Verify.check ~catalog plan) in
        opt_ms := !opt_ms +. (t_opt *. 1000.0);
        ver_ms := !ver_ms +. (t_ver *. 1000.0);
        incr plans;
        nodes := !nodes + Plan.node_count plan)
      queries;
    let raw_ms = Float.max (!opt_ms -. !ver_ms) 1e-9 in
    let pct = 100.0 *. !ver_ms /. raw_ms in
    let e2e_ms =
      1000.0
      *. median
           (samples e2e_reps (fun () ->
                List.iter (fun qu -> ignore (W.Runner.run env kind qu))
                  queries))
    in
    let pct_e2e = 100.0 *. !ver_ms /. e2e_ms in
    Printf.printf
      "%-8s optimize %9.3f ms   verify %8.4f ms   %6.2f%% of optimize   \
       %5.3f%% of end-to-end %9.1f ms   (%d plans, %d nodes)\n"
      (W.Runner.optimizer_kind_to_string kind)
      raw_ms !ver_ms pct pct_e2e e2e_ms !plans !nodes;
    Json.Obj
      [ ("optimize_ms", Json.Float raw_ms);
        ("verify_ms", Json.Float !ver_ms);
        ("overhead_pct", Json.Float pct);
        ("e2e_ms", Json.Float e2e_ms);
        ("overhead_pct_e2e", Json.Float pct_e2e);
        ("plans", Json.Int !plans);
        ("nodes", Json.Int !nodes);
        ("within_budget", Json.Bool (pct <= 1.0));
        ("within_budget_e2e", Json.Bool (pct_e2e <= 1.0)) ]
  in
  let orca_section = kind_section W.Runner.Orca in
  let planner_section = kind_section W.Runner.Legacy_planner in
  (* (b) verify time vs plan size: Planner Append expansions over the
     TPC-H lineitem scenarios (everything survives the filter, so the
     Append carries all P leaves) *)
  let scaling_point scenario =
    let catalog = Cat.create () in
    let storage = Storage.create ~nsegments:4 in
    let _ =
      W.Tpch.setup ~catalog ~storage ~scenario
        ~rows:(if smoke then 200 else 2_000)
    in
    let logical =
      Mpp_sql.Sql.to_logical catalog
        "SELECT count(*) FROM lineitem WHERE l_shipdate >= '1992-01-01'"
    in
    let plan =
      Mpp_planner.Planner.plan (Mpp_planner.Planner.create ~catalog ()) logical
    in
    let nodes = Plan.node_count plan in
    let t = med (fun () -> Mpp_verify.Verify.check ~catalog plan) in
    let us = t *. 1e6 in
    Printf.printf
      "P=%5d  %5d nodes   verify %9.1f us   %6.2f us/node\n"
      (W.Tpch.scenario_parts scenario)
      nodes us
      (us /. float_of_int nodes);
    Json.Obj
      [ ("parts", Json.Int (W.Tpch.scenario_parts scenario));
        ("nodes", Json.Int nodes);
        ("verify_us", Json.Float us);
        ("us_per_node", Json.Float (us /. float_of_int nodes)) ]
  in
  let scenarios =
    if smoke then [ W.Tpch.Parts_42 ]
    else [ W.Tpch.Parts_42; W.Tpch.Parts_84; W.Tpch.Parts_169;
           W.Tpch.Parts_361 ]
  in
  let points = List.map scaling_point scenarios in
  let section =
    Json.Obj
      [ ("smoke", Json.Bool smoke);
        ("note",
         Json.String
           "overhead_pct compares one verify against a pure in-process \
            optimization pass (microseconds per plan here; both are O(plan \
            size), so the ratio is scale-invariant).  Against paper-scale \
            optimize times (Orca spends 100ms-10s per TPC-DS query) the \
            verifier's ~0.6us/node (six passes) is far below the 1% \
            budget; \
            overhead_pct_e2e records the share of optimize+execute in this \
            harness.  us_per_node staying flat across the scaling sweep is \
            the O(plan size) claim.");
        ("workload",
         Json.Obj [ ("orca", orca_section); ("planner", planner_section) ]);
        ("scaling", Json.List points) ]
  in
  record "verify" section;
  if smoke then begin
    (* schema check only: the numbers are meaningless at tiny inputs *)
    let field = field ~what:"bench_verify" in
    let workload = field section "workload" in
    List.iter
      (fun k ->
        match field (field workload k) "overhead_pct" with
        | Json.Float _ -> ()
        | _ -> failwith ("bench_verify smoke: " ^ k ^ " overhead not a float"))
      [ "orca"; "planner" ];
    (match field section "scaling" with
    | Json.List (_ :: _) -> ()
    | _ -> failwith "bench_verify smoke: scaling points missing");
    print_endline
      "smoke OK: verify schema valid; both optimizers measured and the \
       scaling sweep ran"
  end

(* ------------------------------------------------------------------ *)
(* Runtime join filters                                                 *)
(* ------------------------------------------------------------------ *)

(* The runtime-join-filter claims, measured two ways:

   1. workload speedup: the RF-target workload queries (a selective
      dimension joined to a fact on a non-partition key — nothing for
      partition selection to do, everything for a Bloom filter) executed
      with the same Orca plan under [runtime_filters:true] vs [false].
      The plan is byte-identical across the two configurations; only the
      executor knob changes, so the delta is purely the filters' effect.

   2. Motion-row reduction: a hand-built redistribute-probe join (fact
      hashed on a non-join column, so every probe row must cross a
      Redistribute) with the consumer annotated [at_motion] below the
      send — the placement where dropped rows never pay Motion cost.
      [tuples_moved] with filters off vs on gives the reduction
      deterministically, no timing involved.

   Correctness is asserted inline before anything is timed: identical row
   multisets on vs off, zero filter counters when off, and the
   filtered scanned-leaf set a subset of the unfiltered one per root (the
   min-max partition pruning may only shrink the scan set).  [~smoke]
   runs the same assertions at tiny scale under [dune runtest]. *)
let join_filter ?(smoke = false) () =
  header
    (if smoke then "Bench: runtime join filters (smoke mode, tiny scale)"
     else "Bench: runtime join filters (Bloom + min-max), on vs off");
  let scale = if smoke then 1 else 64 in
  let env = W.Runner.setup_env ~scale () in
  let catalog = env.W.Runner.catalog and storage = env.W.Runner.storage in
  let reps = if smoke then 1 else 15 in
  let sorted_rows rows = List.sort compare rows in
  let is_subset a b = List.for_all (fun x -> List.mem x b) a in
  (* ---- 1. workload queries, filters on vs off ---- *)
  let target_names =
    [ "ss_customer_rf_scan"; "ws_customer_rf_scan"; "ss_star_rf_year";
      "ss_star_may" ]
  in
  let queries =
    List.filter
      (fun (qu : W.Queries.query) -> List.mem qu.W.Queries.name target_names)
      W.Queries.all
  in
  Printf.printf "%-22s %-10s %-10s %-9s %-13s %-7s\n" "query" "off (ms)"
    "on (ms)" "speedup" "dropped@scan" "built";
  let best_speedup = ref ("", 0.0) in
  let qsections =
    List.map
      (fun (qu : W.Queries.query) ->
        let plan = W.Runner.optimize_with env W.Runner.Orca qu in
        let exec rf =
          Mpp_exec.Exec.run ~runtime_filters:rf ~catalog ~storage plan
        in
        let rows_on, m_on = exec true in
        let rows_off, m_off = exec false in
        (* the filters are semantic no-ops *)
        assert (sorted_rows rows_on = sorted_rows rows_off);
        (* the off configuration does no filter work at all *)
        assert (
          m_off.Mpp_exec.Metrics.filter_built = 0
          && m_off.Mpp_exec.Metrics.rows_filtered_scan = 0
          && m_off.Mpp_exec.Metrics.rows_filtered_motion = 0
          && m_off.Mpp_exec.Metrics.motion_rows_saved = 0);
        (* min-max partition elimination only ever shrinks the scan set *)
        List.iter
          (fun root ->
            assert (
              is_subset
                (Mpp_exec.Metrics.scanned_leaves m_on ~root_oid:root)
                (Mpp_exec.Metrics.scanned_leaves m_off ~root_oid:root)))
          (Mpp_exec.Metrics.roots_scanned m_on);
        let off_ms, on_ms =
          paired_median_ms reps (fun () -> exec false) (fun () -> exec true)
        in
        let speedup = off_ms /. on_ms in
        if speedup > snd !best_speedup then
          best_speedup := (qu.W.Queries.name, speedup);
        Printf.printf "%-22s %-10.2f %-10.2f %8.2fx %-13d %-7d\n"
          qu.W.Queries.name off_ms on_ms speedup
          m_on.Mpp_exec.Metrics.rows_filtered_scan
          m_on.Mpp_exec.Metrics.filter_built;
        ( qu.W.Queries.name,
          Json.Obj
            [ ("off_ms", Json.Float off_ms);
              ("on_ms", Json.Float on_ms);
              ("speedup", Json.Float speedup);
              ("filter_built", Json.Int m_on.Mpp_exec.Metrics.filter_built);
              ("rows_filtered_scan",
               Json.Int m_on.Mpp_exec.Metrics.rows_filtered_scan);
              (* no [motion_rows_saved] here: the workload queries carry no
                 at_motion filter placements, so the per-query counter was
                 always zero — the real signal lives in the [motion] section
                 below *)
              ("rows_filtered_motion",
               Json.Int m_on.Mpp_exec.Metrics.rows_filtered_motion) ] ))
      queries
  in
  (* ---- 2. Motion-row reduction on a redistribute-probe join ---- *)
  let nseg = 4 in
  let mcat = Cat.create () in
  let dim =
    Cat.add_table mcat ~name:"jf_dim"
      ~columns:[ ("k", Value.Tint); ("s", Value.Tstring) ]
      ~distribution:Dist.Replicated ()
  in
  let fact =
    Cat.add_table mcat ~name:"jf_fact"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let mstore = Storage.create ~nsegments:nseg in
  let ndim = if smoke then 64 else 2_000 in
  let nfact = if smoke then 1_000 else 100_000 in
  let rng = W.Rng.create () in
  Storage.load mstore dim
    (List.init ndim (fun k ->
         [| Value.Int k;
            Value.String (if k mod 8 = 0 then "keep" else "drop") |]));
  Storage.load mstore fact
    (List.init nfact (fun i -> [| Value.Int i; Value.Int (W.Rng.int rng ndim) |]));
  let dim_k = Table.colref dim ~rel:0 "k" in
  let dim_s = Table.colref dim ~rel:0 "s" in
  let fact_b = Table.colref fact ~rel:1 "b" in
  (* fact is hashed on [a] but joins on [b]: every surviving probe row must
     cross the Redistribute, so the at_motion consumer placement is the one
     that saves Motion sends *)
  let mplan =
    Plan.motion Plan.Gather
      (Plan.hash_join ~kind:Plan.Inner
         ~pred:(Expr.eq (Expr.col dim_k) (Expr.col fact_b))
         (Plan.runtime_filter_build ~rf_id:1 ~keys:[ dim_k ]
            ~rows_est:(ndim / 8)
            (Plan.table_scan ~rel:0
               ~filter:(Expr.eq (Expr.col dim_s) (Expr.str "keep"))
               dim.Table.oid))
         (Plan.motion
            (Plan.Redistribute [ fact_b ])
            (Plan.runtime_filter ~at_motion:true ~rf_id:1 ~keys:[ fact_b ]
               (Plan.table_scan ~rel:1 fact.Table.oid))))
  in
  assert (not (Mpp_verify.Diag.has_errors (Mpp_verify.Verify.check ~catalog:mcat mplan)));
  let mexec rf =
    Mpp_exec.Exec.run ~runtime_filters:rf ~catalog:mcat ~storage:mstore mplan
  in
  let mrows_on, mm_on = mexec true in
  let mrows_off, mm_off = mexec false in
  assert (sorted_rows mrows_on = sorted_rows mrows_off);
  let moved_off = mm_off.Mpp_exec.Metrics.tuples_moved
  and moved_on = mm_on.Mpp_exec.Metrics.tuples_moved in
  assert (moved_on <= moved_off);
  let reduction =
    100.0 *. float_of_int (moved_off - moved_on) /. float_of_int moved_off
  in
  Printf.printf
    "\nredistribute-probe join (%d fact rows, 1-in-8 build side):\n\
    \  tuples moved: off=%d  on=%d  (-%.1f%%); rows dropped pre-Motion=%d, \
     Motion sends saved=%d\n"
    nfact moved_off moved_on reduction
    mm_on.Mpp_exec.Metrics.rows_filtered_motion
    mm_on.Mpp_exec.Metrics.motion_rows_saved;
  let bq, bs = !best_speedup in
  Printf.printf
    "\nacceptance: best workload speedup %.2fx on %s (target >= 1.2x) OR \
     Motion-row reduction %.1f%% (target >= 30%%)\n"
    bs bq reduction;
  let section =
    Json.Obj
      [ ("smoke", Json.Bool smoke);
        ("scale", Json.Int scale);
        ("queries", Json.Obj qsections);
        ("best_speedup_query", Json.String bq);
        ("best_speedup", Json.Float bs);
        ("motion",
         Json.Obj
           [ ("fact_rows", Json.Int nfact);
             ("moved_off", Json.Int moved_off);
             ("moved_on", Json.Int moved_on);
             ("reduction_pct", Json.Float reduction);
             ("rows_filtered_motion",
              Json.Int mm_on.Mpp_exec.Metrics.rows_filtered_motion);
             ("motion_rows_saved",
              Json.Int mm_on.Mpp_exec.Metrics.motion_rows_saved) ]) ]
  in
  record "join_filter" section;
  if smoke then
    print_endline
      "smoke OK: join_filter results identical on/off, off-config counters \
       zero, filtered scan sets subsets, Motion volume non-increasing"

(* ------------------------------------------------------------------ *)
(* Profiler overhead: table2 scan suite with the profiler off vs on     *)
(* ------------------------------------------------------------------ *)

(* The profiler promises to be free when off.  The disabled path is the
   default path (null trace, no stats, accounting flag false), so the
   measurable upper bound on its cost is the cheapest *enabled* layer:
   pool accounting on, stats and trace still off.  Three configurations
   over the Table-2 scan (lineitem, 42 parts), timed and reported:

     plain      — profiler fully off (what every non-profiled query runs)
     accounting — Dpool busy/wait accounting on, stats/trace off
     profile    — Node_stats + Perfetto trace + accounting (mppsim profile)

   Every run asserts accounting's cost by counting, not timing: on a
   one-domain pool with a read-counting clock, the query reads the clock
   exactly twice per job with accounting on and never with it off, and
   allocates the same minor words either way; and the disabled Obs sink,
   installed by default, records none of a query's events and allocates
   nothing over as many calls of each entry point.  [~smoke] also checks that
   the Perfetto export round-trips through our own JSON parser with
   monotone timestamps and a named track per pool domain. *)
let bench_profile ?(smoke = false) () =
  header
    (if smoke then "Bench: profiler overhead (smoke mode)"
     else "Bench: profiler overhead on the Table-2 scan suite");
  let rows = if smoke then 150_000 else 500_000 in
  Gc.compact ();
  let catalog = Cat.create () in
  let storage = Storage.create ~nsegments:4 in
  let _ = W.Tpch.setup ~catalog ~storage ~scenario:W.Tpch.Parts_42 ~rows in
  let lg = Mpp_sql.Sql.to_logical catalog "SELECT count(*) FROM lineitem" in
  let plan =
    Orca.Optimizer.optimize (Orca.Optimizer.create ~catalog ()) lg
  in
  let pool = Mpp_exec.Dpool.get ~domains:(Mpp_exec.Dpool.default_domains ()) in
  let run_plain () = ignore (Mpp_exec.Exec.run ~catalog ~storage plan) in
  let with_accounting f =
    Mpp_exec.Dpool.set_accounting pool true;
    Fun.protect
      ~finally:(fun () -> Mpp_exec.Dpool.set_accounting pool false)
      f
  in
  let run_accounting () = with_accounting run_plain in
  let run_profile () =
    with_accounting (fun () ->
        let stats = Mpp_exec.Node_stats.create () in
        let trace = Mpp_obs.Trace.create () in
        ignore (Mpp_exec.Exec.run ~stats ~trace ~catalog ~storage plan))
  in
  let reps = if smoke then 13 else 21 in
  (* paired alternating runs ([paired]): drift and GC debt land on both
     configurations evenly.  Medians, reported only: on a query of about
     a millisecond, host noise is larger than the overhead budget. *)
  let ms = List.map (fun t -> 1000.0 *. t) in
  let ta, tb = paired reps run_plain run_accounting in
  let ta', tc = paired reps run_plain run_profile in
  let plain_ms = Float.min (median (ms ta)) (median (ms ta'))
  and acct_ms = median (ms tb)
  and prof_ms = median (ms tc) in
  let pct over base = 100.0 *. (over -. base) /. base in
  Printf.printf
    "%-34s %10.2f ms\n%-34s %10.2f ms  (%+.2f%%)\n%-34s %10.2f ms  (%+.2f%%)\n"
    "profiler off (default path)" plain_ms "pool accounting on" acct_ms
    (pct acct_ms plain_ms) "full profile (stats+trace+acct)" prof_ms
    (pct prof_ms plain_ms);
  (* The gate counts instead: the same query on a one-domain pool whose
     clock counts its reads.  Accounting's whole cost is its clock reads
     and whatever it allocates, so with it off the run must read the clock
     zero times, with it on exactly twice per job, and both runs must
     allocate the same minor words over the same tasks. *)
  let reads = ref 0 in
  let counted =
    Mpp_exec.Dpool.create
      ~clock:(fun () ->
        incr reads;
        Mpp_exec.Dpool.wall_clock ())
      1
  in
  let census accounting =
    Mpp_exec.Dpool.set_accounting counted accounting;
    Mpp_exec.Dpool.reset_stats counted;
    reads := 0;
    let w0 = Gc.minor_words () in
    ignore (Mpp_exec.Exec.run ~pool:counted ~catalog ~storage plan);
    let words = Gc.minor_words () -. w0 in
    ( !reads,
      Mpp_exec.Dpool.jobs_submitted counted,
      (Mpp_exec.Dpool.stats counted).(0).Mpp_exec.Dpool.tasks,
      words )
  in
  ignore (census false);
  let reads_off, jobs, tasks, words_off = census false in
  let reads_on, jobs_on, tasks_on, words_on = census true in
  Mpp_exec.Dpool.set_accounting counted false;
  Printf.printf
    "%-34s %d job(s), %d task(s): %d clock read(s) on, %d off; %.0f minor \
     words on, %.0f off\n"
    "one-domain accounting census" jobs tasks reads_on reads_off words_on
    words_off;
  let fail fmt = Printf.ksprintf failwith ("profile: " ^^ fmt) in
  if jobs = 0 then fail "the census query submitted no pool job";
  if (jobs_on, tasks_on) <> (jobs, tasks) then
    fail "accounting changed the work: %d/%d jobs, %d/%d tasks" jobs_on jobs
      tasks_on tasks;
  if reads_off <> 0 then
    fail "accounting off read the clock %d time(s), expected none" reads_off;
  if reads_on <> 2 * jobs then
    fail "accounting on read the clock %d time(s) over %d job(s), expected %d"
      reads_on jobs (2 * jobs);
  if words_on <> words_off then
    fail
      "accounting on allocated %.0f minor words over %d task(s), off %.0f \
       (%.2f vs %.2f per task)"
      words_on tasks words_off
      (words_on /. float_of_int tasks)
      (words_off /. float_of_int tasks);
  (* The disabled sink, counted the same way.  An enabled sink counts the
     recording events one optimize+execute of the query emits (counter
     updates and spans).  With the null sink installed (the default) the
     same query must leave it empty, and each Obs entry point, called that
     many times on it, must allocate no minor words: the instrumentation
     costs a query one flag test per site and nothing else. *)
  let query () =
    ignore
      (Mpp_exec.Exec.run ~pool:counted ~catalog ~storage
         (Orca.Optimizer.optimize (Orca.Optimizer.create ~catalog ()) lg))
  in
  let sink = Obs.create () in
  Obs.install sink;
  query ();
  Obs.uninstall ();
  let rec nspans spans =
    List.fold_left (fun n sp -> n + 1 + nspans sp.Obs.span_children) 0 spans
  in
  let obs_events =
    List.fold_left (fun n (_, v) -> n + v) 0 (Obs.counters sink)
    + nspans (Obs.root_spans sink)
  in
  query ();
  if Obs.counters Obs.null <> [] || Obs.root_spans Obs.null <> [] then
    fail "the disabled sink recorded a query's events";
  let body () = () in
  let w0 = Gc.minor_words () in
  for _ = 1 to obs_events do
    Obs.incr Obs.null "bench.noop";
    Obs.add Obs.null "bench.noop" 2;
    Obs.span Obs.null "bench.noop" body;
    Obs.span_open Obs.null "bench.noop";
    Obs.annotate Obs.null "bench.noop" Json.Null;
    Obs.span_close Obs.null
  done;
  let obs_words = Gc.minor_words () -. w0 in
  Printf.printf
    "%-34s %d recording event(s) per query; %.0f minor words over %d calls \
     of each entry point\n"
    "disabled-sink census" obs_events obs_words obs_events;
  if obs_events = 0 then fail "the census query emitted no recording event";
  if obs_words <> 0.0 then
    fail "the disabled sink allocated %.0f minor words over %d calls" obs_words
      obs_events;
  (* one fully profiled run for the export round-trip check *)
  let stats = Mpp_exec.Node_stats.create () in
  let trace = Mpp_obs.Trace.create () in
  ignore
    (with_accounting (fun () ->
         Mpp_exec.Exec.run ~stats ~trace ~catalog ~storage plan));
  let exported = Json.to_string (Mpp_obs.Trace.to_json trace) in
  let roundtrip = Json.parse exported in
  let events =
    match Json.member "traceEvents" roundtrip with
    | Some (Json.List evs) -> evs
    | _ -> failwith "profile: traceEvents missing from exported trace"
  in
  let num = function
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> nan
  in
  let xs =
    List.filter
      (fun e -> Json.member "ph" e = Some (Json.String "X"))
      events
  in
  let rec monotone prev = function
    | [] -> true
    | e :: tl ->
        let ts = num (Json.member "ts" e) in
        ts >= prev && monotone ts tl
  in
  if not (monotone 0.0 xs) then
    failwith "profile: exported trace timestamps not monotone";
  let thread_names =
    List.filter
      (fun e -> Json.member "name" e = Some (Json.String "thread_name"))
      events
  in
  (* coordinator track + one per pool domain *)
  let expect_tracks = 1 + Mpp_exec.Dpool.size pool in
  if List.length thread_names <> expect_tracks then
    failwith
      (Printf.sprintf "profile: expected %d named tracks, trace has %d"
         expect_tracks
         (List.length thread_names));
  record "profile"
    (Json.Obj
       [ ("smoke", Json.Bool smoke);
         ("rows", Json.Int rows);
         ("reps", Json.Int reps);
         ("plain_ms", Json.Float plain_ms);
         ("accounting_ms", Json.Float acct_ms);
         ("profile_ms", Json.Float prof_ms);
         ("accounting_overhead_pct", Json.Float (pct acct_ms plain_ms));
         ("full_profile_overhead_pct", Json.Float (pct prof_ms plain_ms));
         ("trace_events", Json.Int (List.length xs));
         ("trace_tracks", Json.Int expect_tracks);
         ("census_jobs", Json.Int jobs);
         ("census_tasks", Json.Int tasks);
         ("census_clock_reads_on", Json.Int reads_on);
         ("census_clock_reads_off", Json.Int reads_off);
         ("census_minor_words_on", Json.Float words_on);
         ("census_minor_words_off", Json.Float words_off);
         ("obs_events_per_query", Json.Int obs_events);
         ("obs_disabled_minor_words", Json.Float obs_words) ]);
  if smoke then
    print_endline
      "smoke OK: pool accounting reads the clock twice per job and never \
       when off, and allocates nothing; the disabled Obs sink records \
       nothing and allocates nothing; Perfetto export round-trips with \
       monotone timestamps and a named track per domain"

(* ------------------------------------------------------------------ *)
(* Optimize-time scaling: big-join graphs                                *)
(* ------------------------------------------------------------------ *)

(* How optimize time grows with relation count on generated star/chain/
   clique graphs.  Each point also records [joinorder_states], the
   join-order search's kept states summed over its levels: a count that
   moves only when the beam or the search space changes, which
   check-regression pins for the smoke graphs (14 relations is past the
   point where the beam binds).  [~smoke] runs small graphs and checks
   the schema only. *)
let opt_scaling ?(smoke = false) () =
  header
    (if smoke then "Bench: optimize-time scaling (smoke mode, tiny graphs)"
     else "Bench: optimize-time scaling on big-join graphs");
  let shapes =
    [ (W.Biggen.Star, "star"); (W.Biggen.Chain, "chain");
      (W.Biggen.Clique, "clique") ]
  in
  let sizes = if smoke then [ 5; 8; 14 ] else [ 5; 10; 20; 30 ] in
  let reps = if smoke then 1 else 5 in
  let optimize_once benv =
    let opt =
      Orca.Optimizer.create ~stats:benv.W.Biggen.stats
        ~catalog:benv.W.Biggen.catalog ()
    in
    Orca.Optimizer.optimize opt benv.W.Biggen.logical
  in
  (* the warm-up call warms the stats caches *)
  let timed benv =
    median (samples reps (fun () -> optimize_once benv)) *. 1000.0
  in
  let states benv =
    let sink = Obs.create () in
    Obs.install sink;
    Fun.protect ~finally:Obs.uninstall (fun () -> ignore (optimize_once benv));
    Obs.counter sink "joinorder.states"
  in
  Printf.printf "%-10s %8s %14s %8s\n" "shape" "#rels" "optimize (ms)"
    "states";
  let points =
    List.concat_map
      (fun (shape, sname) ->
        List.map
          (fun nrels ->
            let benv = W.Biggen.generate { W.Biggen.shape; nrels; seed = 1 } in
            let ms = timed benv in
            let st = states benv in
            Printf.printf "%-10s %8d %14.2f %8d\n" sname nrels ms st;
            Json.Obj
              [ ("shape", Json.String sname);
                ("nrels", Json.Int nrels);
                ("optimize_ms", Json.Float ms);
                ("joinorder_states", Json.Int st) ])
          sizes)
      shapes
  in
  record "opt_scaling"
    (Json.Obj
       [ ("smoke", Json.Bool smoke);
         ("reps", Json.Int reps);
         ("points", Json.List points) ]);
  if smoke then print_endline "smoke OK: opt_scaling schema valid"

(* ------------------------------------------------------------------ *)
(* Predicate analysis: pass overhead and implied-predicate pruning      *)
(* ------------------------------------------------------------------ *)

(* Two claims.  (a) Overhead: running the whole workload end to end
   (optimize + execute) with the abstract-interpretation pass on vs off,
   per optimizer, with paired medians — the always-on pass must stay
   within 2% of what a query actually experiences.  (b) Payoff:
   on [ss_sr_transitive_date] the range predicate sits on store_returns
   and only the equi-join equivalence class carries it onto the
   store_sales partition key; the strengthening pass cuts the partitions
   the Planner opens from 36 to 3 (Orca's runtime DPE already recovers
   the pruning, so its delta shows at plan time, not scan time), with
   the result rows asserted identical in every configuration.  [~smoke]
   runs assertions (b) and the JSON schema only — timing at tiny inputs
   is noise. *)
let bench_analysis ?(smoke = false) () =
  header
    (if smoke then "Bench: predicate analysis (smoke mode, equivalence only)"
     else "Bench: predicate-analysis overhead and implied-predicate pruning");
  let env = get_env () in
  let catalog = env.W.Runner.catalog in
  let optimize kind ~simplify (qu : W.Queries.query) =
    let lg = Mpp_sql.Sql.to_logical catalog qu.W.Queries.sql in
    match kind with
    | `Planner ->
        let config = { Mpp_planner.Planner.default_config with simplify } in
        Mpp_planner.Planner.plan
          (Mpp_planner.Planner.create ~config ~catalog ())
          lg
    | `Orca ->
        Mpp_stats.Stats_source.clear_row_scales env.W.Runner.stats;
        List.iter
          (fun (name, factor) ->
            let t = Cat.find catalog name in
            Mpp_stats.Stats_source.set_row_scale env.W.Runner.stats
              ~table_oid:t.Table.oid ~factor)
          qu.W.Queries.misestimates;
        let config = { Orca.Optimizer.default_config with simplify } in
        let opt =
          Orca.Optimizer.create ~config ~stats:env.W.Runner.stats ~catalog ()
        in
        let plan = Orca.Optimizer.optimize opt lg in
        Mpp_stats.Stats_source.clear_row_scales env.W.Runner.stats;
        plan
  in
  let queries = if smoke then [ List.hd W.Queries.all ] else W.Queries.all in
  let reps = if smoke then 1 else 11 in
  let kind_section (kname, kind) =
    (* the gate denominator is what a query actually experiences —
       optimize + execute, like the PR 6 profiler gate; the pure-optimize
       share is recorded alongside (at this harness's microsecond plan
       times even a cheap extra walk is a double-digit share of optimize
       alone, just as the verifier's is — see the bench_verify note) *)
    let opt_on = ref 0.0 and opt_off = ref 0.0 in
    let on_ms = ref 0.0 and off_ms = ref 0.0 in
    List.iter
      (fun qu ->
        let t_opt_on, t_opt_off =
          paired_median_ms reps
            (fun () -> optimize kind ~simplify:true qu)
            (fun () -> optimize kind ~simplify:false qu)
        in
        opt_on := !opt_on +. t_opt_on;
        opt_off := !opt_off +. t_opt_off;
        let e2e simplify () =
          let plan = optimize kind ~simplify qu in
          ignore
            (Mpp_exec.Exec.run ~catalog ~storage:env.W.Runner.storage plan)
        in
        let t_on, t_off = paired_median_ms reps (e2e true) (e2e false) in
        on_ms := !on_ms +. t_on;
        off_ms := !off_ms +. t_off)
      queries;
    let pct_opt = 100.0 *. (!opt_on -. !opt_off) /. Float.max !opt_off 1e-9 in
    let pct = 100.0 *. (!on_ms -. !off_ms) /. Float.max !off_ms 1e-9 in
    Printf.printf
      "%-8s e2e %9.3f ms without analysis   %9.3f ms with   %+6.2f%%   \
       (optimize alone %+.1f%%)\n"
      kname !off_ms !on_ms pct pct_opt;
    ( kname,
      Json.Obj
        [ ("optimize_off_ms", Json.Float !opt_off);
          ("optimize_on_ms", Json.Float !opt_on);
          ("overhead_pct_optimize", Json.Float pct_opt);
          ("e2e_off_ms", Json.Float !off_ms);
          ("e2e_on_ms", Json.Float !on_ms);
          ("overhead_pct", Json.Float pct);
          ("within_budget", Json.Bool (pct <= 2.0)) ],
      (pct, !on_ms -. !off_ms) )
  in
  let kind_sections =
    List.map kind_section [ ("orca", `Orca); ("planner", `Planner) ]
  in
  (* (b) the transitive-pruning payoff, rows asserted identical *)
  let qu = W.Queries.find "ss_sr_transitive_date" in
  let ss_oid = (Cat.find catalog "store_sales").Table.oid in
  let run_parts kind simplify =
    let plan = optimize kind ~simplify qu in
    let rows, m =
      Mpp_exec.Exec.run ~catalog ~storage:env.W.Runner.storage plan
    in
    (List.sort compare rows, Mpp_exec.Metrics.parts_scanned_of m ~root_oid:ss_oid)
  in
  let rows_ref, orca_on = run_parts `Orca true in
  let pruning =
    List.map
      (fun (kname, kind, simplify) ->
        let rows, parts = run_parts kind simplify in
        if rows <> rows_ref then
          failwith
            ("bench_analysis: " ^ kname ^ " changed the transitive answer");
        (kname, parts))
      [ ("orca_off", `Orca, false);
        ("planner_on", `Planner, true);
        ("planner_off", `Planner, false) ]
  in
  let planner_on = List.assoc "planner_on" pruning in
  let planner_off = List.assoc "planner_off" pruning in
  Printf.printf
    "%-24s store_sales partitions: planner %d -> %d, orca %d -> %d (of 36)\n"
    qu.W.Queries.name planner_off planner_on
    (List.assoc "orca_off" pruning)
    orca_on;
  if not (planner_on < planner_off) then
    failwith
      "bench_analysis: implied-predicate strengthening did not reduce the \
       partitions opened";
  let section =
    Json.Obj
      [ ("smoke", Json.Bool smoke);
        ("note",
         Json.String
           "overhead_pct is the paired-median cost of the always-on \
            abstract-interpretation simplify/strengthen pass as a share of \
            optimize+execute (the PR 6 gate's denominator), gated at 2%; \
            overhead_pct_optimize is its share of the microsecond-scale \
            in-process optimization alone, recorded for scale context like \
            the verifier's.  transitive_pruning counts store_sales \
            partitions opened for ss_sr_transitive_date, whose only \
            partition-key restriction arrives through the equi-join \
            equivalence class.");
        ("workload",
         Json.Obj
           (List.map (fun (k, j, _) -> (k, j)) kind_sections));
        ("transitive_pruning",
         Json.Obj
           (("query", Json.String qu.W.Queries.name)
           :: ("parts_total", Json.Int 36)
           :: ("orca_on", Json.Int orca_on)
           :: List.map (fun (k, p) -> (k, Json.Int p)) pruning)) ]
  in
  record "analysis" section;
  if smoke then
    print_endline
      "smoke OK: analysis schema valid; simplification preserved the \
       transitive answer and the strengthening pass pruned the Planner's \
       scan set"
  else
    List.iter
      (fun (kname, _, (pct, delta_ms)) ->
        (* absolute noise floor: sub-half-millisecond deltas across the
           whole workload are scheduler jitter, not pass cost *)
        if pct > 2.0 && delta_ms > 0.5 then
          failwith
            (Printf.sprintf
               "bench_analysis: %s simplification overhead %+.2f%% \
                (%+.3f ms) exceeds the 2%% budget"
               kname pct delta_ms))
      kind_sections

(* ------------------------------------------------------------------ *)
(* Serving layer: plan-cache QPS, cold vs warm, 1..K sessions           *)
(* ------------------------------------------------------------------ *)

module Serve = Mpp_serve.Serve

(* [serve] — sustained-QPS measurement of the concurrent serving layer on
   the full mixed workload.  One cold pass (empty plan cache — every
   statement pays normalize + optimize + verify) establishes the floor;
   warm sweeps over 1..K concurrent sessions then replay the workload
   through the cache, where a hit costs only a fingerprint probe plus a
   partition re-selection at bind time.  Every warm result is asserted
   row-identical to the cold pass.  The multi-session >= single-session
   throughput check only applies on a multi-core host: with one core the
   sessions serialize on the single executor domain and concurrency can
   only add coordination overhead.  [~smoke] runs one tiny sweep and
   asserts the warm hit rate is positive and rows match. *)
let bench_serve ?(smoke = false) () =
  header
    (if smoke then "Bench: serving layer (smoke mode, tiny scale)"
     else "Bench: serving layer — plan-cache QPS, cold vs warm sessions");
  let scale = if smoke then 1 else 4 in
  let env = W.Runner.setup_env ~scale () in
  let cores = Domain.recommended_domain_count () in
  let max_sessions = if smoke then 2 else 4 in
  let repeat = if smoke then 1 else 3 in
  let config =
    { Serve.default_config with
      optimizer = Serve.Orca;
      workers = max 2 (min 4 cores);
      capacity = 4;
      exec_domains = 1 }
  in
  let srv =
    Serve.create ~config ~stats:env.W.Runner.stats
      ~catalog:env.W.Runner.catalog ~storage:env.W.Runner.storage ()
  in
  Fun.protect ~finally:(fun () -> Serve.close srv) @@ fun () ->
  let stmts =
    List.map
      (fun (qu : W.Queries.query) ->
        (Serve.prepare srv qu.W.Queries.sql, []))
      W.Queries.all
  in
  let nq = List.length stmts in
  let sorted_rows rows = List.sort compare (List.map Array.to_list rows) in
  (* one measured sweep: [n] sessions, [reps] workload passes per session *)
  let run_sweep n reps =
    let pass = List.concat (List.init reps (fun _ -> stmts)) in
    let seconds, out =
      time_run (fun () -> Serve.run_stream srv (Array.init n (fun _ -> pass)))
    in
    let rs = List.concat (Array.to_list out) in
    let total = List.length rs in
    let hits = List.length (List.filter (fun r -> r.Serve.cache_hit) rs) in
    let hit_opt_ms =
      match List.filter (fun r -> r.Serve.cache_hit) rs with
      | [] -> 0.0
      | hs ->
          List.fold_left (fun a r -> a +. r.Serve.opt_seconds) 0.0 hs
          *. 1000.0
          /. float_of_int (List.length hs)
    in
    (seconds, out, total, hits, hit_opt_ms)
  in
  (* ---- cold pass: empty cache, one session ---- *)
  let cold_s, cold_out, cold_n, cold_hits, _ = run_sweep 1 1 in
  let cold_qps = float_of_int cold_n /. cold_s in
  let cold_rows = List.map (fun r -> sorted_rows r.Serve.rows) cold_out.(0) in
  Printf.printf "cold: %d queries in %.3f s (%.1f QPS), %d cache hit(s)\n\n"
    cold_n cold_s cold_qps cold_hits;
  (* ---- warm sweeps, 1..K sessions ---- *)
  Printf.printf "%-10s %-10s %-10s %-10s %-12s\n" "sessions" "queries"
    "time (s)" "QPS" "hit opt(ms)";
  let warm_hit_rate = ref 0.0 in
  let warm1_qps = ref 0.0 in
  let best_multi_qps = ref 0.0 in
  let sweeps =
    List.map
      (fun n ->
        let seconds, out, total, hits, hit_opt_ms = run_sweep n repeat in
        (* every warm result must be row-identical to the cold pass *)
        Array.iter
          (List.iteri (fun i r ->
               if sorted_rows r.Serve.rows <> List.nth cold_rows (i mod nq)
               then
                 failwith
                   (Printf.sprintf
                      "bench_serve: warm rows differ from cold rows \
                       (sessions=%d, statement %d)"
                      n (i mod nq))))
          out;
        let qps = float_of_int total /. seconds in
        let hit_rate = float_of_int hits /. float_of_int (max total 1) in
        if n = 1 then begin
          warm1_qps := qps;
          warm_hit_rate := hit_rate
        end
        else best_multi_qps := Float.max !best_multi_qps qps;
        Printf.printf "%-10d %-10d %-10.3f %-10.1f %-12.3f\n" n total seconds
          qps hit_opt_ms;
        Json.Obj
          [ ("sessions", Json.Int n);
            ("queries", Json.Int total);
            ("seconds", Json.Float seconds);
            ("qps", Json.Float qps);
            ("hit_rate", Json.Float hit_rate);
            ("hit_opt_ms", Json.Float hit_opt_ms) ])
      (List.init max_sessions (fun i -> i + 1))
  in
  let warm_over_cold = !warm1_qps /. cold_qps in
  Printf.printf
    "\nwarm/cold QPS (1 session): %.2fx; warm hit rate: %.2f; cores: %d\n"
    warm_over_cold !warm_hit_rate cores;
  if !warm_hit_rate <= 0.0 then
    failwith "bench_serve: warm pass never hit the plan cache";
  (* a concurrency win is only promised when there is real parallelism *)
  if (not smoke) && cores > 1 && !best_multi_qps < 0.9 *. !warm1_qps then
    failwith
      (Printf.sprintf
         "bench_serve: multi-session QPS %.1f below single-session %.1f on \
          a %d-core host"
         !best_multi_qps !warm1_qps cores);
  let section =
    Json.Obj
      [ ("smoke", Json.Bool smoke);
        ("scale", Json.Int scale);
        ("cores", Json.Int cores);
        ("nqueries", Json.Int nq);
        ("cold_qps", Json.Float cold_qps);
        ("warm_hit_rate", Json.Float !warm_hit_rate);
        ("warm_over_cold", Json.Float warm_over_cold);
        ("sweeps", Json.List sweeps);
        ("serve", Serve.stats_to_json srv) ]
  in
  record "serve" section;
  if smoke then
    print_endline
      "smoke OK: serve warm hit rate positive, warm results row-identical \
       to cold, cached hits optimize in ~0 ms"

(* ------------------------------------------------------------------ *)
(* Regression gate: fresh BENCH_RESULTS.json vs committed baseline      *)
(* ------------------------------------------------------------------ *)

(* [check-regression [BASELINE]] — compare the metrics listed in the
   committed baseline (default [BASELINE.json] next to this executable's
   invocation directory, i.e. [bench/BASELINE.json] in the repo) against a
   fresh [BENCH_RESULTS.json], with a ±tolerance (default 20%) per metric.
   The baseline deliberately pins only machine-independent metrics
   (deterministic tuple/Motion counts from the seeded generators), so the
   gate is meaningful on any machine; paths are dotted keys into the
   [experiments] object.  A baseline may also carry a [min_metrics]
   object: one-sided floors (fresh >= pinned value) for ratios that must
   not collapse but have no meaningful upper bound, such as the serving
   layer's warm/cold QPS ratio.  Exits 1 loudly on any missing or
   out-of-band metric. *)
let check_regression baseline_file =
  header ("Regression check vs " ^ baseline_file);
  let load path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Json.parse (really_input_string ic (in_channel_length ic)))
  in
  if not (Sys.file_exists baseline_file) then begin
    Printf.eprintf "check-regression: baseline %s not found\n" baseline_file;
    exit 1
  end;
  if not (Sys.file_exists "BENCH_RESULTS.json") then begin
    Printf.eprintf
      "check-regression: no fresh BENCH_RESULTS.json here — run the \
       benchmarks first (e.g. bench/main.exe join-filter --smoke)\n";
    exit 1
  end;
  let baseline = load baseline_file in
  let fresh = load "BENCH_RESULTS.json" in
  let tolerance_pct =
    match Json.member "tolerance_pct" baseline with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 20.0
  in
  let metrics =
    match Json.member "metrics" baseline with
    | Some (Json.Obj kvs) -> kvs
    | _ ->
        Printf.eprintf
          "check-regression: baseline has no \"metrics\" object\n";
        exit 1
  in
  let experiments =
    match Json.member "experiments" fresh with
    | Some obj -> obj
    | None ->
        Printf.eprintf
          "check-regression: BENCH_RESULTS.json has no experiments\n";
        exit 1
  in
  let lookup path =
    let rec go j = function
      | [] -> Some j
      | k :: tl -> (
          match j with
          | Json.Obj _ -> Option.bind (Json.member k j) (fun v -> go v tl)
          | Json.List l -> (
              match int_of_string_opt k with
              | Some i when i >= 0 && i < List.length l ->
                  go (List.nth l i) tl
              | _ -> None)
          | _ -> None)
    in
    go experiments (String.split_on_char '.' path)
  in
  let as_float = function
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  let nfail = ref 0 in
  Printf.printf "%-44s %12s %12s  %s\n" "metric" "baseline" "fresh" "status";
  List.iter
    (fun (path, base_j) ->
      match (as_float (Some base_j), as_float (lookup path)) with
      | Some base, Some now ->
          let tol = tolerance_pct /. 100.0 *. Float.abs base in
          let ok = Float.abs (now -. base) <= tol in
          if not ok then incr nfail;
          Printf.printf "%-44s %12.3f %12.3f  %s\n" path base now
            (if ok then "ok"
             else
               Printf.sprintf "REGRESSION (>±%.0f%%)" tolerance_pct)
      | Some _, None ->
          incr nfail;
          Printf.printf "%-44s %12s %12s  MISSING in fresh results\n" path
            "-" "-"
      | None, _ ->
          incr nfail;
          Printf.printf "%-44s %12s %12s  baseline value not numeric\n" path
            "-" "-")
    metrics;
  let min_metrics =
    match Json.member "min_metrics" baseline with
    | Some (Json.Obj kvs) -> kvs
    | _ -> []
  in
  List.iter
    (fun (path, base_j) ->
      match (as_float (Some base_j), as_float (lookup path)) with
      | Some base, Some now ->
          let ok = now >= base in
          if not ok then incr nfail;
          Printf.printf "%-44s %12.3f %12.3f  %s\n" path base now
            (if ok then "ok (floor)" else "REGRESSION (below floor)")
      | Some _, None ->
          incr nfail;
          Printf.printf "%-44s %12s %12s  MISSING in fresh results\n" path
            "-" "-"
      | None, _ ->
          incr nfail;
          Printf.printf "%-44s %12s %12s  baseline value not numeric\n" path
            "-" "-")
    min_metrics;
  if !nfail > 0 then begin
    Printf.printf "\n%d metric(s) regressed or missing vs %s\n" !nfail
      baseline_file;
    exit 1
  end
  else
    Printf.printf "\nall %d metric(s) within ±%.0f%% of baseline\n"
      (List.length metrics + List.length min_metrics)
      tolerance_pct

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let all () =
  table2 ();
  table3 ();
  fig16 ();
  fig17 ();
  fig18a ();
  fig18b ();
  fig18c ();
  ablation_memo ();
  ablation_pwj ();
  micro_exec ();
  part_select ();
  bench_verify ();
  join_filter ();
  bench_profile ();
  opt_scaling ();
  bench_analysis ();
  bench_serve ()

let () =
  (match if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" with
  | "table2" ->
      table2 ~smoke:(Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke") ()
  | "table3" -> table3 ()
  | "fig16" -> fig16 ()
  | "fig17" -> fig17 ()
  | "fig18a" -> fig18a ()
  | "fig18b" -> fig18b ()
  | "fig18c" -> fig18c ()
  | "ablation-memo" -> ablation_memo ()
  | "ablation-pwj" -> ablation_pwj ()
  | "micro-exec" ->
      micro_exec
        ~smoke:(Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke") ()
  | "part-select" ->
      part_select
        ~smoke:(Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke") ()
  | "verify" ->
      bench_verify
        ~smoke:(Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke") ()
  | "join-filter" ->
      join_filter
        ~smoke:(Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke") ()
  | "profile" ->
      bench_profile
        ~smoke:(Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke") ()
  | "opt-scaling" ->
      opt_scaling
        ~smoke:(Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke") ()
  | "analysis" ->
      bench_analysis
        ~smoke:(Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke") ()
  | "serve" ->
      bench_serve
        ~smoke:(Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke") ()
  | "check-regression" | "--check-regression" ->
      check_regression
        (if Array.length Sys.argv > 2 then Sys.argv.(2) else "BASELINE.json")
  | "all" -> all ()
  | other ->
      Printf.eprintf
        "unknown experiment %s (expected table2|table3|fig16|fig17|fig18a|\
         fig18b|fig18c|ablation-memo|ablation-pwj|micro-exec|\
         part-select|verify|join-filter|profile|opt-scaling|\
         analysis|serve|check-regression|all)\n"
        other;
      exit 1);
  write_results ()
