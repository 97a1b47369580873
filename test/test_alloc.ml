(** Counted memory gates: the executor's row kernels, the streaming
    partition selector, the stored data, ANALYZE, plan simplification and
    the join-order search.

    Row kernels.  Five workload
    templates whose per-row path runs through a typed comparison, an IN
    list, a resolved date function, the Bloom probe, the key table
    (join build and probe, hash aggregation), the aggregate feeders and
    the streaming partition selector are
    run at scale 1 on a one-domain pool, so every task runs on the calling
    domain and [Gc.minor_words] sees all of it.  Minor words per scanned
    tuple must stay under each template's budget.  Words are counted, not
    timed: the figure repeats exactly from run to run.

    Budgets (minor words per scanned tuple: the whole statement's
    allocation over [Metrics.tuples_scanned], so each includes the
    statement's fixed cost of compiling, the channel and the result), with
    what the same statement allocates when one of its per-row steps
    allocates:

    - [ss_customer_rf_scan]: 2.5 (5.5 with a closure per Bloom probe);
    - [cs_group_by_month]: 4.0 (14.5 with an argument list and a date
      tuple per [month()] call);
    - [sr_reasons_and_date]: 17.0 (23.6 with a closure per IN-list test
      and per AND; 189 tuples, so the fixed cost dominates);
    - [ss_misestimate_no_dpe]: 2.5 (10.6 with a closure per Bloom
      insertion; its build side is store_sales);
    - [sr_dow_join]: 4.0 (1.80, 9 674 words over 5 384 tuples, with one
      index point lookup per selector input row; 9.96, 53 648 words, when
      the streaming selector builds a restriction, an interval set and two
      bitsets per distinct join key).

    Streaming selector.  A selector on store_sales' date level over
    20 000 input rows of dates on a one-domain pool, once per level shape
    — a point ([key = d]), a half-line ([key >= d]) and a mixed level
    ([key = d AND key >= '2012-06-01']) — must stay under
    [selector_budget], 0.5 minor words per input row: 0.08, 0.08 and 0.09
    (about 1 650 words per execution, all of it fixed cost) with one
    compiled form per level.  Re-analyzing the half-line per row (a
    substituted predicate, a restriction and a leaf set per row) read
    88.07, which fails.

    Stored data.  The live major-heap words that [Runner.setup_env
    ~scale:1] adds — a full major collection before and after, the env
    kept alive — must stay under [setup_budget]: 250 063 words when each
    load shares its batch's equal values and a replicated row is stored
    once for all segments, 292 826 with a copy per segment, 404 274 when
    every row keeps its own boxed values.  Like the kernel budgets, the
    figure repeats exactly.

    ANALYZE.  The words [Gc.allocated_bytes] reports for analyzing every
    table of the scale-1 catalog (a full collection on each side brings
    the major-heap counters up to date), over the values analyzed (rows
    times columns), must stay under [analyze_budget]: 3.94 words per value
    (374 722 words for 95 036 values, repeating exactly) with one value
    array per column, radix-sorted by key for Int and Date columns.
    Consing every row into one list and mapping it into a value list per
    column before a list sort read 48.37, and fails.

    Simplification.  The minor words [Analysis.simplify_plan] allocates
    over Orca's 43 unsimplified template plans at scale 1 (a warm-up pass
    first) must stay under [simplify_budget], 120 000: 86 411 words,
    repeating exactly, when a root scan's base environment reads each
    level's envelope from [Partition.t]; 166 976 when every derivation
    re-folds all leaf constraints into it, which fails.

    Join order.  The minor words of one [Joinorder.order] call on a
    24-relation clique and a 24-relation star (seeded rows and
    selectivities; one warm-up call first) must stay under
    [join_order_budget], 20 000 each.  The search allocates only per
    level and per graph, never per candidate (the level tables are
    sized up front and go straight to the major heap): 6 958 and 4 264
    words with one mask array and one selectivity array per leaf, and
    5 782 and 4 100 with one mask array and one [[1.0; s]] pair array
    per leaf.  Passing each candidate's cost to a helper that is not
    inlined boxes one float per candidate: 963 106 and 872 500 words,
    which fails. *)

module W = Mpp_workload
module Exec = Mpp_exec.Exec
module Metrics = Mpp_exec.Metrics
open Mpp_expr

let budgets =
  [ ("ss_customer_rf_scan", 2.5); ("cs_group_by_month", 4.0);
    ("sr_reasons_and_date", 17.0); ("ss_misestimate_no_dpe", 2.5);
    ("sr_dow_join", 4.0) ]

let setup_budget = 280_000

let analyze_budget = 4.5

let selector_budget = 0.5

let simplify_budget = 120_000.

let join_order_budget = 20_000.

let test_analyze_words () =
  let env = W.Runner.setup_env ~scale:1 ~nsegments:4 () in
  let tables = Mpp_catalog.Catalog.tables env.W.Runner.catalog in
  Gc.full_major ();
  let b0 = Gc.allocated_bytes () in
  let values =
    List.fold_left
      (fun acc t ->
        let st = Mpp_stats.Stats.analyze env.W.Runner.storage t in
        acc + (st.Mpp_stats.Stats.rowcount * Mpp_catalog.Table.ncols t))
      0 tables
  in
  Gc.full_major ();
  let words =
    (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8)
  in
  let per = words /. float_of_int values in
  Printf.printf "scale-1 analyze: %.0f words / %d values = %.2f (budget %.1f)\n"
    words values per analyze_budget;
  if values = 0 || per > analyze_budget then
    Alcotest.failf "analyze allocates %.2f words per value (budget %.1f)" per
      analyze_budget

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let test_setup_live_words () =
  let w0 = live_words () in
  let env = W.Runner.setup_env ~scale:1 ~nsegments:4 () in
  let words = live_words () - w0 in
  ignore (Sys.opaque_identity env);
  Printf.printf "scale-1 setup: %d live words (budget %d)\n" words
    setup_budget;
  if words > setup_budget then
    Alcotest.failf "scale-1 setup keeps %d live words (budget %d)" words
      setup_budget

let words_per_tuple env pool name =
  let q = List.find (fun q -> q.W.Queries.name = name) W.Queries.all in
  let plan = W.Runner.optimize_with env W.Runner.Orca q in
  let run () =
    Exec.run ~pool ~catalog:env.W.Runner.catalog ~storage:env.W.Runner.storage
      plan
  in
  (* warm: indexes and per-table caches are built on first use *)
  ignore (run ());
  let w0 = Gc.minor_words () in
  let _, m = run () in
  let words = Gc.minor_words () -. w0 in
  (words, m.Metrics.tuples_scanned)

let test_budgets () =
  let env = W.Runner.setup_env ~scale:1 ~nsegments:4 () in
  let pool = Mpp_exec.Dpool.create 1 in
  let over =
    List.filter_map
      (fun (name, budget) ->
        let words, tuples = words_per_tuple env pool name in
        let per = words /. float_of_int (max 1 tuples) in
        Printf.printf
          "%-24s %8.0f minor words / %6d tuples = %5.2f (budget %.1f)\n" name
          words tuples per budget;
        if tuples = 0 || per > budget then
          Some (Printf.sprintf "%s: %.2f (budget %.1f)" name per budget)
        else None)
      budgets
  in
  Mpp_exec.Dpool.shutdown pool;
  if over <> [] then
    Alcotest.failf "minor words per scanned tuple over budget: %s"
      (String.concat "; " over)

(* A streaming selector on store_sales' date level, driven by
   [selector_rows] input rows of dates (every 97th NULL) over 8 segments,
   each level shape once: the minor words of one execution over the input
   rows. *)
let selector_rows = 20_000

let test_selector_words () =
  let module Cat = Mpp_catalog.Catalog in
  let module Table = Mpp_catalog.Table in
  let module Plan = Mpp_plan.Plan in
  let catalog = Cat.create () in
  let storage = Mpp_storage.Storage.create ~nsegments:8 in
  let ss = (W.Tpcds.setup ~catalog ~storage ()).W.Tpcds.store_sales in
  let input =
    Cat.add_table catalog ~name:"selector_input"
      ~columns:[ ("i", Value.Tint); ("d", Value.Tdate) ]
      ~distribution:(Mpp_catalog.Distribution.Hashed [ 0 ]) ()
  in
  let first = Date.of_ymd 2010 12 1 in
  Mpp_storage.Storage.load storage input
    (List.init selector_rows (fun i ->
         [| Value.Int i;
            (if i mod 97 = 0 then Value.Null
             else Value.Date (Date.add_days first (i mod 1200))) |]));
  let key = Table.colref ss ~rel:1 "ss_sold_date" in
  let k = Expr.col key and d = Expr.col (Table.colref input ~rel:0 "d") in
  let pool = Mpp_exec.Dpool.create 1 in
  let over =
    List.filter_map
      (fun (name, pred) ->
        let plan =
          Plan.partition_selector
            ~child:(Plan.table_scan ~rel:0 input.Table.oid)
            ~part_scan_id:1 ~root_oid:ss.Table.oid ~keys:[ key ]
            ~predicates:[ Some pred ] ()
        in
        let run () =
          Exec.exec (Exec.create_ctx ~pool ~catalog ~storage ()) plan
        in
        ignore (run ());
        let w0 = Gc.minor_words () in
        let r = run () in
        let words = Gc.minor_words () -. w0 in
        let rows =
          Array.fold_left
            (fun n v -> n + Mpp_storage.Vec.length v)
            0 r.Exec.rows
        in
        let per = words /. float_of_int (max 1 rows) in
        Printf.printf
          "streaming selector, %-6s %8.0f minor words / %6d rows = %5.2f \
           (budget %.2f)\n"
          name words rows per selector_budget;
        if rows <> selector_rows || per > selector_budget then
          Some (Printf.sprintf "%s: %.2f over %d rows" name per rows)
        else None)
      [ ("point", Expr.eq k d); ("range", Expr.ge k d);
        ("mixed", Expr.conj [ Expr.eq k d; Expr.ge k (Expr.date "2012-06-01") ])
      ]
  in
  Mpp_exec.Dpool.shutdown pool;
  if over <> [] then
    Alcotest.failf "streaming selector words per input row over %.2f: %s"
      selector_budget (String.concat "; " over)

let test_simplify_words () =
  let env = W.Runner.setup_env ~scale:1 ~nsegments:4 () in
  let plans =
    List.map
      (W.Runner.optimize_with ~simplify:false env W.Runner.Orca)
      W.Queries.all
  in
  let simplify () =
    List.iter
      (fun plan ->
        ignore
          (Sys.opaque_identity
             (Mpp_analysis.Analysis.simplify_plan
                ~catalog:env.W.Runner.catalog plan)))
      plans
  in
  simplify ();
  let w0 = Gc.minor_words () in
  simplify ();
  let words = Gc.minor_words () -. w0 in
  Printf.printf "simplify_plan over %d plans: %.0f minor words (budget %.0f)\n"
    (List.length plans) words simplify_budget;
  if words > simplify_budget then
    Alcotest.failf "simplify_plan allocates %.0f minor words (budget %.0f)"
      words simplify_budget

(* A [shape] graph on [n] leaves, rows and selectivities drawn from a
   fixed linear congruential sequence. *)
let join_graph shape n =
  let rng = ref 24 in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng
  in
  let leaf_rows =
    Array.init n (fun _ -> float_of_int (1 + (next () mod 100_000)))
  in
  let pairs =
    match shape with
    | `Star -> List.init (n - 1) (fun i -> (0, i + 1))
    | `Clique ->
        List.concat_map
          (fun i -> List.init (n - i - 1) (fun d -> (i, i + d + 1)))
          (List.init n Fun.id)
  in
  let edges =
    Array.of_list
      (List.map
         (fun (a, b) ->
           ( (1 lsl a) lor (1 lsl b),
             1.0 /. float_of_int (1 + (next () mod 1000)) ))
         pairs)
  in
  Orca.Joinorder.make ~leaf_rows ~edges

let test_join_order_words () =
  let over =
    List.filter_map
      (fun (name, shape) ->
        let g = join_graph shape 24 in
        ignore (Orca.Joinorder.order g);
        let w0 = Gc.minor_words () in
        ignore (Sys.opaque_identity (Orca.Joinorder.order g));
        let words = Gc.minor_words () -. w0 in
        Printf.printf "join order, %s: %.0f minor words (budget %.0f)\n" name
          words join_order_budget;
        if words > join_order_budget then
          Some (Printf.sprintf "%s: %.0f" name words)
        else None)
      [ ("clique24", `Clique); ("star24", `Star) ]
  in
  if over <> [] then
    Alcotest.failf "Joinorder.order allocates over %.0f minor words: %s"
      join_order_budget (String.concat "; " over)

let () =
  Alcotest.run "alloc"
    [ ("row kernels",
       [ Alcotest.test_case "minor words per scanned tuple" `Quick
           test_budgets ]);
      ("selector",
       [ Alcotest.test_case "minor words per input row" `Quick
           test_selector_words ]);
      ("stored data",
       [ Alcotest.test_case "live words after scale-1 setup" `Quick
           test_setup_live_words ]);
      ("analyze",
       [ Alcotest.test_case "words per analyzed value" `Quick
           test_analyze_words ]);
      ("simplify",
       [ Alcotest.test_case "minor words over the 43 Orca plans" `Quick
           test_simplify_words ]);
      ("join order",
       [ Alcotest.test_case "minor words of one 24-relation search" `Quick
           test_join_order_words ])
    ]
