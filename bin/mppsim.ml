(** [mppsim] — a command-line front end to the simulated MPP cluster.

    Loads the TPC-DS-style demo schema (the one the paper's evaluation uses)
    and then explains or executes SQL against it with either optimizer:

    {v
    mppsim explain "SELECT count(*) FROM store_sales WHERE ss_sold_date >= '2013-10-01'"
    mppsim explain --analyze "SELECT ..."
    mppsim run --optimizer planner --trace out.json "SELECT ..."
    mppsim check --workload
    mppsim lint --workload
    mppsim repl
    mppsim schema
    v} *)

open Cmdliner
module Plan = Mpp_plan.Plan
module W = Mpp_workload
module Obs = Mpp_obs.Obs
module Json = Mpp_obs.Json
module Serve = Mpp_serve.Serve

let env_of ~scale ~segments =
  W.Runner.setup_env ~scale ~nsegments:segments ()

(* Every command plans through the serving layer's front door, on the
   cluster it runs against: the plan plus Orca's per-node plan-time row
   estimates (the legacy planner's estimate array is empty). *)
let plan_sql env kind ~selection sql =
  let { W.Runner.stats; catalog; storage; _ } = env in
  Serve.plan ~stats ~selection ~catalog
    ~nsegments:(Mpp_storage.Storage.nsegments storage) kind
    (Mpp_sql.Sql.to_logical catalog sql)

let print_metrics env metrics =
  (* every partitioned table in the catalog, not only the TPC-DS facts:
     ad-hoc schemas and dimension partitioning report correctly too *)
  let partitioned =
    List.filter Mpp_catalog.Table.is_partitioned
      (Mpp_catalog.Catalog.tables env.W.Runner.catalog)
  in
  let scanned =
    List.filter_map
      (fun (t : Mpp_catalog.Table.t) ->
        let n =
          Mpp_exec.Metrics.parts_scanned_of metrics
            ~root_oid:t.Mpp_catalog.Table.oid
        in
        if n > 0 then
          Some
            (Printf.sprintf "%s: %d/%d" t.Mpp_catalog.Table.name n
               (Mpp_catalog.Table.nparts t))
        else None)
      partitioned
  in
  Printf.printf "tuples scanned: %d; partitions scanned: %s\n"
    metrics.Mpp_exec.Metrics.tuples_scanned
    (if scanned = [] then "(none partitioned)" else String.concat ", " scanned);
  (* runtime-join-filter effect: only reported when a filter actually ran,
     so filter-free plans (and --no-runtime-filters runs) stay unchanged *)
  let m = metrics in
  if m.Mpp_exec.Metrics.filter_built > 0 then
    Printf.printf
      "runtime filters: built=%d; rows dropped at scan=%d, pre-Motion=%d; \
       Motion rows saved=%d\n"
      m.Mpp_exec.Metrics.filter_built m.Mpp_exec.Metrics.rows_filtered_scan
      m.Mpp_exec.Metrics.rows_filtered_motion
      m.Mpp_exec.Metrics.motion_rows_saved

(* ---------------- tracing ---------------- *)

let sink_for trace = match trace with None -> Obs.null | Some _ -> Obs.create ()

(* Export the process-wide trace plus whatever extra sections the command
   accumulated (EXPLAIN node list, executor metrics). *)
let write_trace trace sink extras =
  match trace with
  | None -> ()
  | Some file ->
      Obs.uninstall ();
      let json =
        match Obs.to_json sink with
        | Json.Obj fields -> Json.Obj (fields @ extras)
        | j -> j
      in
      Json.to_file file json;
      Printf.eprintf "trace written to %s\n%!" file

let do_explain ?(analyze = false) ?trace ?domains ?(runtime_filters = true)
    env kind selection sql =
  let sink = sink_for trace in
  if Obs.enabled sink then Obs.install sink;
  let plan, est = plan_sql env kind ~selection sql in
  let extras =
    if analyze then begin
      let _rows, metrics, stats =
        Mpp_exec.Exec.run_analyze ?domains ~runtime_filters
          ~catalog:env.W.Runner.catalog ~storage:env.W.Runner.storage plan
      in
      print_string (Mpp_exec.Explain.analyze ~est plan stats);
      print_metrics env metrics;
      [ ("explain", Mpp_exec.Explain.to_json ~est plan stats);
        ("metrics", Mpp_exec.Metrics.to_json metrics) ]
    end
    else begin
      print_endline (Plan.to_string plan);
      Printf.printf "plan size: %.1f KB, %d nodes\n"
        (Mpp_plan.Plan_size.kilobytes ~catalog:env.W.Runner.catalog plan)
        (Plan.node_count plan);
      []
    end
  in
  write_trace trace sink extras

(* One execution with per-node stats and per-domain pool accounting on:
   the context (metrics, pool and channel stats), the node stats, the
   result and the wall time of [exec] alone. *)
let profiled_exec ?domains ?trace ~runtime_filters env plan =
  let stats = Mpp_exec.Node_stats.create () in
  let ctx =
    Mpp_exec.Exec.create_ctx ~verify:true ?domains ~runtime_filters ~stats
      ?trace ~catalog:env.W.Runner.catalog ~storage:env.W.Runner.storage ()
  in
  let pool = ctx.Mpp_exec.Exec.pool in
  Mpp_exec.Dpool.reset_stats pool;
  Mpp_exec.Dpool.set_accounting pool true;
  let t0 = Unix.gettimeofday () in
  let res = Mpp_exec.Exec.exec ctx plan in
  let dt = Unix.gettimeofday () -. t0 in
  Mpp_exec.Dpool.set_accounting pool false;
  (ctx, stats, res, dt)

let print_rows rows dt =
  List.iteri
    (fun i row ->
      if i < 50 then begin
        Array.iteri
          (fun j v ->
            if j > 0 then print_string " | ";
            print_string (Mpp_expr.Value.to_string v))
          row;
        print_newline ()
      end
      else if i = 50 then Printf.printf "... (%d rows)\n" (List.length rows))
    rows;
  Printf.printf "(%d rows in %.2f ms)\n" (List.length rows) (dt *. 1000.0)

let do_run ?trace ?stats_json ?domains ?(runtime_filters = true) env kind
    selection sql =
  let sink = sink_for trace in
  if Obs.enabled sink then Obs.install sink;
  let plan, est = plan_sql env kind ~selection sql in
  match stats_json with
  | None ->
      let t0 = Unix.gettimeofday () in
      let rows, metrics =
        Mpp_exec.Exec.run ~verify:true ?domains ~runtime_filters
          ~catalog:env.W.Runner.catalog ~storage:env.W.Runner.storage plan
      in
      let dt = Unix.gettimeofday () -. t0 in
      print_rows rows dt;
      print_metrics env metrics;
      write_trace trace sink [ ("metrics", Mpp_exec.Metrics.to_json metrics) ]
  | Some file ->
      (* profiled run: per-node stats, per-domain pool accounting and
         channel occupancy, all dumped to one JSON artifact *)
      let ctx, stats, res, dt =
        profiled_exec ?domains ~runtime_filters env plan
      in
      let rows =
        List.concat
          (Array.to_list
             (Array.map Mpp_storage.Vec.to_list res.Mpp_exec.Exec.rows))
      in
      let metrics = Mpp_exec.Exec.metrics ctx in
      print_rows rows dt;
      print_metrics env metrics;
      Json.to_file file
        (Json.Obj
           [ ("query", Json.String sql);
             ("wall_ms", Json.Float (dt *. 1000.0));
             ("explain", Mpp_exec.Explain.to_json ~est plan stats);
             ("metrics", Mpp_exec.Metrics.to_json metrics);
             ("dpool", Mpp_exec.Dpool.stats_to_json ctx.Mpp_exec.Exec.pool);
             ("channel",
              Mpp_exec.Channel.stats_to_json ctx.Mpp_exec.Exec.channel) ]);
      Printf.eprintf "stats written to %s\n%!" file;
      write_trace trace sink [ ("metrics", Mpp_exec.Metrics.to_json metrics) ]

(* [mppsim profile] — run one query with the full profiler on: per-node
   stats with plan-time estimates, per-segment skew, per-domain pool
   accounting, and a Chrome/Perfetto trace-event timeline (one track per
   executor domain plus coordinator and optimizer tracks) written to a
   file loadable in ui.perfetto.dev. *)
let do_profile ?domains ?(runtime_filters = true) ~out env kind selection sql =
  let trace = Mpp_obs.Trace.create () in
  (* capture the optimizer's phase spans for the optimizer track *)
  let sink = Obs.create () in
  Obs.install sink;
  let plan, est = plan_sql env kind ~selection sql in
  Obs.uninstall ();
  Mpp_obs.Trace.declare_track trace ~tid:Mpp_exec.Exec.optimizer_tid
    "optimizer";
  Mpp_obs.Trace.add_obs_spans trace ~tid:Mpp_exec.Exec.optimizer_tid
    ~cat:"optimizer" (Obs.root_spans sink);
  let ctx, stats, res, dt =
    profiled_exec ?domains ~trace ~runtime_filters env plan
  in
  let nrows =
    Array.fold_left
      (fun acc v -> acc + Mpp_storage.Vec.length v)
      0 res.Mpp_exec.Exec.rows
  in
  print_string (Mpp_exec.Explain.analyze ~est plan stats);
  print_metrics env (Mpp_exec.Exec.metrics ctx);
  Printf.printf "(%d rows in %.2f ms)\n" nrows (dt *. 1000.0);
  Array.iteri
    (fun i (d : Mpp_exec.Dpool.domain_stats) ->
      Printf.printf
        "domain %d: %d task(s), busy %.2f ms, wait %.2f ms\n" i
        d.Mpp_exec.Dpool.tasks
        (d.Mpp_exec.Dpool.busy_s *. 1000.0)
        (d.Mpp_exec.Dpool.wait_s *. 1000.0))
    (Mpp_exec.Dpool.stats ctx.Mpp_exec.Exec.pool);
  Mpp_obs.Trace.write_file trace out;
  Printf.printf
    "trace written to %s (%d events, %d tracks) — open in ui.perfetto.dev\n"
    out
    (Mpp_obs.Trace.event_count trace)
    (List.length (Mpp_obs.Trace.track_ids trace))

(* [mppsim lint] — run the abstract-interpretation linter
   ({!Mpp_analysis.Analysis.Lint}) over the plans both optimizers produce
   with the simplifier disabled: redundant conjuncts, contradictory
   conjuncts and filters, and statically dead Append branches survive in
   the plan exactly as the query (or an optimizer bug) wrote them, and
   each is reported with its plan path and a stable [lint/…] code.  Exits
   1 when anything is flagged, so the [@lint] alias doubles as a
   workload-hygiene gate. *)
let lint_report ~catalog name kname plan nfind =
  let fs = Mpp_analysis.Analysis.Lint.plan ~catalog plan in
  nfind := !nfind + List.length fs;
  if fs <> [] then begin
    Printf.printf "%-28s %-8s\n" name kname;
    List.iter
      (fun f ->
        Format.printf "  %a@." Mpp_analysis.Analysis.Lint.pp_finding f)
      fs
  end

(* The statements [check] and [lint] sweep: every built-in workload query
   (with its injected misestimates, as the evaluation plans it), the
   generated big-join suite, and one SQL statement.  [f ~catalog name
   kname plan] is called for each under both optimizers, in that order;
   [plan ()] plans it on its own cluster. *)
let sweep env ~selection ?simplify ~workload ~biggen sql_opt f =
  let both ?(wrap = fun g -> g ()) ~stats ~catalog ~storage name lg =
    List.iter
      (fun (kname, kind) ->
        f ~catalog name kname (fun () ->
            wrap (fun () ->
                fst
                  (Serve.plan ~stats ~selection ?simplify ~catalog
                     ~nsegments:(Mpp_storage.Storage.nsegments storage)
                     kind lg))))
      [ ("orca", Serve.Orca); ("planner", Serve.Planner) ]
  in
  let { W.Runner.stats; catalog; storage; _ } = env in
  if workload then
    List.iter
      (fun (qu : W.Queries.query) ->
        both ~wrap:(W.Runner.with_misestimates env qu) ~stats ~catalog
          ~storage qu.W.Queries.name
          (Mpp_sql.Sql.to_logical catalog qu.W.Queries.sql))
      W.Queries.all;
  if biggen then
    List.iter
      (fun spec ->
        let { W.Biggen.name; catalog; storage; stats; logical } =
          W.Biggen.generate spec
        in
        both ~stats ~catalog ~storage name logical)
      (W.Biggen.default_suite ());
  Option.iter
    (fun sql ->
      both ~stats ~catalog ~storage "query"
        (Mpp_sql.Sql.to_logical catalog sql))
    sql_opt

(* The linter wants the plan as written, so both optimizers run with
   [simplify = false]; everything else stays at the defaults the normal
   pipeline uses. *)
let lint_sweep env selection ~workload ~biggen sql_opt nfind =
  sweep env ~selection ~simplify:false ~workload ~biggen sql_opt
    (fun ~catalog name kname plan ->
      lint_report ~catalog name kname (plan ()) nfind)

let do_lint env selection ~workload ~biggen sql_opt =
  let nfind = ref 0 in
  if not (workload || biggen) && sql_opt = None then begin
    prerr_endline "mppsim lint: provide a SQL argument, --workload or --biggen";
    exit 2
  end;
  lint_sweep env selection ~workload ~biggen sql_opt nfind;
  if !nfind > 0 then begin
    Printf.printf "%d lint finding(s)\n" !nfind;
    exit 1
  end
  else print_endline "no lint findings"

let serve_config ?(workers = 2) ?(capacity = 4) ?domains kind =
  {
    Serve.default_config with
    optimizer = kind;
    workers;
    capacity;
    exec_domains = (match domains with Some d -> d | None -> 1);
  }

let with_server env config f =
  let srv =
    Serve.create ~config ~stats:env.W.Runner.stats
      ~catalog:env.W.Runner.catalog ~storage:env.W.Runner.storage ()
  in
  Fun.protect ~finally:(fun () -> Serve.close srv) (fun () -> f srv)

let rows_sorted rows =
  List.sort
    (List.compare Mpp_expr.Value.compare)
    (List.map Array.to_list rows)

(* Why a statement failed, for the failures that are the statement's and
   not a bug in mppsim: SQL that does not lex, parse or bind, a row no
   partition accepts, a plan the verifier rejects.  [None] for anything
   else. *)
let statement_error = function
  | Mpp_sql.Sql.Error m -> Some m
  | Mpp_storage.Storage.No_partition_for_tuple { table; tuple } ->
      Some
        (Printf.sprintf "no partition of %s accepts the row (%s)" table
           (String.concat ", "
              (Array.to_list (Array.map Mpp_expr.Value.to_string tuple))))
  | Mpp_verify.Verify.Rejected (what, errs) ->
      Some
        (Printf.sprintf "%s rejected by the plan verifier: %s" what
           (String.concat "; " (List.map Mpp_verify.Diag.to_string errs)))
  | _ -> None

(* The interactive loops report a failed statement and read the next
   line. *)
let report_statement_error f =
  try f () with
  | Invalid_argument m -> Printf.printf "error: %s\n" m
  | e -> (
      match statement_error e with
      | Some m -> Printf.printf "error: %s\n" m
      | None -> raise e)

(* [mppsim check] — run the multi-pass plan verifier over the plans both
   optimizers produce (for one SQL statement, or for the whole built-in
   workload with [--workload]) and pretty-print the diagnostics, followed
   by the linter's findings on the same plan.  The optimizers already gate
   every plan they emit on the verifier's error diagnostics, so a plan
   that comes back at all can only carry warnings and lint findings,
   neither of which fails the run; an optimizer-side rejection is reported
   as a failure here too.  Exits 1 when anything fails, so the target
   doubles as a CI smoke test. *)
let do_check env selection ~workload ~biggen sql_opt =
  let nfail = ref 0 in
  let report ~catalog name kname = function
    | Error msg ->
        incr nfail;
        Printf.printf "%-28s %-8s rejected by optimizer: %s\n" name kname msg
    | Ok plan -> (
        let diags = Mpp_verify.Verify.check ~catalog plan in
        let findings = Mpp_analysis.Analysis.Lint.plan ~catalog plan in
        if Mpp_verify.Diag.has_errors diags then incr nfail;
        match (diags, findings) with
        | [], [] -> Printf.printf "%-28s %-8s clean\n" name kname
        | ds, fs ->
            Printf.printf "%-28s %-8s\n" name kname;
            if ds <> [] then
              Format.printf "%a@." Mpp_verify.Verify.pp_report ds;
            List.iter
              (fun f ->
                Format.printf "  %a@." Mpp_analysis.Analysis.Lint.pp_finding f)
              fs)
  in
  let guard f =
    match f () with
    | plan -> Ok plan
    | exception Mpp_verify.Verify.Rejected (_, errs) ->
        Error (String.concat "; " (List.map Mpp_verify.Diag.to_string errs))
  in
  if not (workload || biggen || sql_opt <> None) then begin
    prerr_endline "mppsim check: provide a SQL argument, --workload or --biggen";
    incr nfail
  end;
  let sql_opt = if workload || biggen then None else sql_opt in
  sweep env ~selection ~workload ~biggen sql_opt
    (fun ~catalog name kname plan -> report ~catalog name kname (guard plan));
  (* the same inputs also go through the pre-simplification linter: a
     query carrying a redundant or contradictory predicate is workload rot
     even when the simplifier cleans the plan up *)
  let nfind = ref 0 in
  lint_sweep env selection ~workload ~biggen sql_opt nfind;
  if !nfind > 0 then Printf.printf "%d lint finding(s)\n" !nfind;
  (* serving-layer smoke: a prepared-statement round trip over the whole
     workload — the second execution of each statement must come out of
     the plan cache and return exactly the cold pass's rows *)
  if workload then begin
    let config = serve_config ~workers:2 ~capacity:2 Serve.Orca in
    let serve_fail = ref 0 in
    with_server env config (fun srv ->
        List.iter
          (fun (qu : W.Queries.query) ->
            match
              let p = Serve.prepare srv qu.W.Queries.sql in
              let cold = Serve.execute srv ~session:0 p [] in
              let warm = Serve.execute srv ~session:1 p [] in
              (cold, warm)
            with
            | cold, warm ->
                if not warm.Serve.cache_hit then begin
                  incr serve_fail;
                  Printf.printf "%-28s %-8s warm execution missed the cache\n"
                    qu.W.Queries.name "serve"
                end;
                if rows_sorted cold.Serve.rows <> rows_sorted warm.Serve.rows
                then begin
                  incr serve_fail;
                  Printf.printf "%-28s %-8s warm rows differ from cold rows\n"
                    qu.W.Queries.name "serve"
                end
            | exception e ->
                incr serve_fail;
                Printf.printf "%-28s %-8s failed: %s\n" qu.W.Queries.name
                  "serve" (Printexc.to_string e))
          W.Queries.all;
        let c = Mpp_serve.Plan_cache.stats (Serve.cache srv) in
        Printf.printf
          "serve: %d statements round-tripped, %d cache hit(s), %d miss(es)\n"
          (List.length W.Queries.all)
          c.Mpp_serve.Plan_cache.hits c.Mpp_serve.Plan_cache.misses);
    nfail := !nfail + !serve_fail
  end;
  if !nfail + !nfind > 0 then begin
    Printf.printf "%d plan(s) failed verification or lint\n" (!nfail + !nfind);
    exit 1
  end
  else print_endline "all plans verify clean"

let do_schema env =
  List.iter
    (fun (t : Mpp_catalog.Table.t) ->
      Printf.printf "%-18s %4d column(s), %4d partition(s), %s\n"
        t.Mpp_catalog.Table.name
        (Mpp_catalog.Table.ncols t)
        (Mpp_catalog.Table.nparts t)
        (Mpp_catalog.Distribution.to_string t.Mpp_catalog.Table.distribution))
    (Mpp_catalog.Catalog.tables env.W.Runner.catalog)

let do_repl ?domains ?runtime_filters env kind selection =
  print_endline
    "mppsim repl — TPC-DS demo schema loaded; \\q quits, \\schema lists \
     tables, \\explain SQL shows the plan";
  let rec loop () =
    print_string "mppsim> ";
    match read_line () with
    | exception End_of_file -> ()
    | "\\q" -> ()
    | "" -> loop ()
    | "\\schema" ->
        do_schema env;
        loop ()
    | line ->
        let explain, sql =
          if String.length line > 9 && String.sub line 0 9 = "\\explain " then
            (true, String.sub line 9 (String.length line - 9))
          else (false, line)
        in
        report_statement_error (fun () ->
            if explain then
              do_explain ?domains ?runtime_filters env kind selection sql
            else do_run ?domains ?runtime_filters env kind selection sql);
        loop ()
  in
  loop ()

(* ---------------- serving layer ---------------- *)

(* [mppsim serve] — an interactive front end over the serving layer: plain
   SQL statements run through the normalized plan cache; [\prepare] /
   [\execute] exercise explicit bind parameters. *)
let do_serve ?stats_json ?(workers = 2) ?(capacity = 4) ?domains env kind =
  let config = serve_config ~workers ~capacity ?domains kind in
  with_server env config (fun srv ->
      let named = Hashtbl.create 16 in
      let anon = Hashtbl.create 64 in
      print_endline
        "mppsim serve — plan-cached sessions on the demo schema; \\q quits, \
         \\prepare NAME SQL, \\execute NAME [v1 v2 ...], \\stats prints \
         cache/admission counters; plain SQL runs through the cache";
      let parse_value s =
        if
          String.length s = 10
          && s.[4] = '-'
          && s.[7] = '-'
          && String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) s
        then Mpp_expr.Value.date_of_string s
        else
          match int_of_string_opt s with
          | Some i -> Mpp_expr.Value.Int i
          | None -> (
              match float_of_string_opt s with
              | Some f -> Mpp_expr.Value.Float f
              | None -> Mpp_expr.Value.String s)
      in
      let run_prepared prepared binds =
        let r = Serve.execute srv ~session:0 prepared binds in
        print_rows r.Serve.rows (r.Serve.opt_seconds +. r.Serve.exec_seconds);
        Printf.printf "cache %s; optimizer %.3f ms; executor %.3f ms\n"
          (if r.Serve.cache_hit then "hit" else "miss")
          (r.Serve.opt_seconds *. 1000.0)
          (r.Serve.exec_seconds *. 1000.0)
      in
      let prefixed p line =
        if
          String.length line > String.length p
          && String.sub line 0 (String.length p) = p
        then Some (String.sub line (String.length p)
                     (String.length line - String.length p))
        else None
      in
      let rec loop () =
        print_string "serve> ";
        match read_line () with
        | exception End_of_file -> ()
        | "\\q" -> ()
        | "" -> loop ()
        | "\\stats" ->
            print_endline (Json.to_string_pretty (Serve.stats_to_json srv));
            loop ()
        | line ->
            report_statement_error (fun () ->
               match prefixed "\\prepare " line with
               | Some rest -> (
                   match String.index_opt rest ' ' with
                   | Some i ->
                       let name = String.sub rest 0 i in
                       let sql =
                         String.sub rest (i + 1) (String.length rest - i - 1)
                       in
                       let p = Serve.prepare srv ~name sql in
                       Hashtbl.replace named name p;
                       Printf.printf "prepared %s (%d parameter slot(s))\n"
                         name
                         (Mpp_serve.Normalize.nparams p.Serve.p_norm)
                   | None -> print_endline "usage: \\prepare NAME SQL")
               | None -> (
                   match prefixed "\\execute " line with
                   | Some rest -> (
                       match
                         String.split_on_char ' ' rest
                         |> List.filter (fun s -> s <> "")
                       with
                       | name :: vals -> (
                           match Hashtbl.find_opt named name with
                           | Some p ->
                               let binds =
                                 List.mapi
                                   (fun i v -> (i + 1, parse_value v))
                                   vals
                               in
                               run_prepared p binds
                           | None ->
                               Printf.printf "no prepared statement %s\n"
                                 name)
                       | [] -> print_endline "usage: \\execute NAME [v1 ...]")
                   | None ->
                       (* plain SQL: normalize + cache, so repeating the
                          statement (even with different literals) hits *)
                       let p =
                         match Hashtbl.find_opt anon line with
                         | Some p -> p
                         | None ->
                             let p = Serve.prepare srv line in
                             Hashtbl.replace anon line p;
                             p
                       in
                       run_prepared p []));
            loop ()
      in
      loop ();
      match stats_json with
      | Some file ->
          Json.to_file file (Serve.stats_to_json srv);
          Printf.eprintf "serve stats written to %s\n%!" file
      | None -> ())

(* ---------------- cmdliner wiring ---------------- *)

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ]
         ~doc:"Trace optimizer decisions (selector placement, join \
               orientation) to stderr.")

let setup_logs verbose =
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug)
  end

let optimizer_arg =
  let kind_conv =
    Arg.enum [ ("orca", Serve.Orca); ("planner", Serve.Planner) ]
  in
  Arg.(value & opt kind_conv Serve.Orca & info [ "optimizer"; "o" ]
         ~doc:"Optimizer to use: orca (default) or planner.")

let no_selection_arg =
  Arg.(value & flag & info [ "no-selection" ]
         ~doc:"Disable partition selection (the Figure-17 ablation).")

let scale_arg =
  Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Demo data scale factor.")

let segments_arg =
  Arg.(value & opt int 4 & info [ "segments" ] ~doc:"Number of segments.")

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL")

let sql_opt_arg = Arg.(value & pos 0 (some string) None & info [] ~docv:"SQL")

let analyze_arg =
  Arg.(value & flag & info [ "analyze" ]
         ~doc:"Execute the plan and annotate every node with actual rows, \
               partitions scanned/total and wall time (EXPLAIN ANALYZE).")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write a JSON trace (optimizer counters and spans, executor \
               metrics) to $(docv).")

let parallel_arg =
  Arg.(value & opt (some int) None & info [ "parallel"; "p" ] ~docv:"N"
         ~doc:"Execute with $(docv) OCaml domains (per-segment parallelism). \
               Defaults to $(b,MPP_DOMAINS), else 1 (serial). Results are \
               identical at any setting.")

let runtime_filters_arg =
  Term.(
    const not
    $ Arg.(value & flag & info [ "no-runtime-filters" ]
             ~doc:"Disable runtime join filters in the executor (the Bloom \
                   + min-max filters built during hash-join builds and \
                   pushed to probe-side scans and Motion sends). The plan \
                   is unchanged — annotated filter operators become no-ops \
                   — so this isolates the filters' execution-time effect."))

(* The flags every query command shares — optimizer choice, partition
   selection, the demo cluster's scale and segment count, optimizer
   logging — as one term yielding [(env, kind, selection)].  [check] and
   [lint] run both optimizers and leave out [--optimizer]; [serve] has no
   selection switch.  Each command applies it last: terms are evaluated
   left to right, so a bad argument is reported before the demo cluster
   is loaded. *)
let cluster_term ?(optimizer = true) ?(selection = true) () =
  Term.(
    const (fun kind no_selection scale segments verbose ->
        setup_logs verbose;
        (env_of ~scale ~segments, kind, not no_selection))
    $ (if optimizer then optimizer_arg else const Serve.Orca)
    $ (if selection then no_selection_arg else const false)
    $ scale_arg $ segments_arg $ verbose_arg)

(* A failed statement ([statement_error]) and an output file that cannot
   be written are the caller's errors, not the program's: report them as
   [mppsim: error: <message>] on stderr and exit with [bad_sql_exit] or
   [bad_output_exit], codes nothing else in mppsim uses (0 success, 1
   verification or lint findings, 2 missing input, 124 usage, 125
   internal error). *)
let bad_sql_exit = 3
let bad_output_exit = 4

let exits =
  Cmd.Exit.info bad_sql_exit
    ~doc:"on SQL that does not lex, parse or bind, and on a statement that \
          fails: a row that no partition accepts, or a plan the verifier \
          rejects."
  :: Cmd.Exit.defaults

let output_exit =
  Cmd.Exit.info bad_output_exit
    ~doc:"on an output file ($(b,--trace), $(b,--stats-json), $(b,--out)) \
          that cannot be written."

let findings_exits =
  Cmd.Exit.info 1 ~doc:"on any error-severity diagnostic or lint finding."
  :: exits

let on_user_error f =
  let fail code msg =
    Printf.eprintf "mppsim: error: %s\n%!" msg;
    exit code
  in
  try f () with
  | Sys_error msg -> fail bad_output_exit msg
  | e -> (
      match statement_error e with
      | Some msg -> fail bad_sql_exit msg
      | None -> raise e)

let explain_cmd =
  Cmd.v
    (Cmd.info "explain" ~exits:(output_exit :: exits)
       ~doc:"Show the plan for a SQL statement.")
    Term.(
      const
        (fun analyze trace domains runtime_filters sql (env, kind, sel) ->
          on_user_error (fun () ->
              do_explain ~analyze ?trace ?domains ~runtime_filters env kind
                sel sql))
      $ analyze_arg $ trace_arg $ parallel_arg $ runtime_filters_arg
      $ sql_arg $ cluster_term ())

let stats_json_arg =
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
         ~doc:"Write the full execution profile (per-node EXPLAIN ANALYZE \
               stats with estimates and per-segment skew, executor metrics, \
               per-domain pool accounting, channel occupancy) as JSON to \
               $(docv).")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~exits:(output_exit :: exits)
       ~doc:"Execute a SQL statement on the demo cluster.")
    Term.(
      const
        (fun trace stats_json domains runtime_filters sql (env, kind, sel) ->
          on_user_error (fun () ->
              do_run ?trace ?stats_json ?domains ~runtime_filters env kind
                sel sql))
      $ trace_arg $ stats_json_arg $ parallel_arg $ runtime_filters_arg
      $ sql_arg $ cluster_term ())

let profile_cmd =
  let out_arg =
    Arg.(value & opt string "profile.json" & info [ "out" ] ~docv:"FILE"
           ~doc:"Trace-event output file (default $(b,profile.json)); open \
                 it in ui.perfetto.dev or chrome://tracing.")
  in
  Cmd.v
    (Cmd.info "profile" ~exits:(output_exit :: exits)
       ~doc:
         "Execute a SQL statement with the full profiler on: EXPLAIN \
          ANALYZE with plan-time estimates and per-segment skew, per-domain \
          busy/wait accounting, and a Chrome/Perfetto trace-event timeline \
          with one track per executor domain plus coordinator and optimizer \
          tracks.")
    Term.(
      const (fun out domains runtime_filters sql (env, kind, sel) ->
          on_user_error (fun () ->
              do_profile ?domains ~runtime_filters ~out env kind sel sql))
      $ out_arg $ parallel_arg $ runtime_filters_arg $ sql_arg
      $ cluster_term ())

let repl_cmd =
  Cmd.v (Cmd.info "repl" ~doc:"Interactive SQL prompt on the demo cluster.")
    Term.(
      const (fun domains runtime_filters (env, kind, sel) ->
          do_repl ?domains ~runtime_filters env kind sel)
      $ parallel_arg $ runtime_filters_arg $ cluster_term ())

let check_cmd =
  let workload_arg =
    Arg.(value & flag & info [ "workload" ]
           ~doc:"Check every built-in workload query instead of one SQL \
                 statement.")
  in
  let biggen_arg =
    Arg.(value & flag & info [ "biggen" ]
           ~doc:"Check the generated big-join suite (star/chain/clique at \
                 10/16/24 relations): both optimizers must verify clean.")
  in
  Cmd.v
    (Cmd.info "check" ~exits:findings_exits
       ~doc:
         "Statically verify the plans both optimizers produce (structure, \
          schema, distribution, partition accounting, runtime filters, \
          pruning soundness) and run the predicate linter over the same \
          inputs; exit 1 on any error-severity diagnostic or lint \
          finding.")
    Term.(
      const (fun workload biggen sql (env, _, sel) ->
          on_user_error (fun () -> do_check env sel ~workload ~biggen sql))
      $ workload_arg $ biggen_arg $ sql_opt_arg
      $ cluster_term ~optimizer:false ())

let lint_cmd =
  let workload_arg =
    Arg.(value & flag & info [ "workload" ]
           ~doc:"Lint every built-in workload query instead of one SQL \
                 statement.")
  in
  let biggen_arg =
    Arg.(value & flag & info [ "biggen" ]
           ~doc:"Lint the generated big-join suite under both optimizers.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~exits:
         (Cmd.Exit.info 2
            ~doc:"when given no SQL, $(b,--workload) or $(b,--biggen)."
         :: findings_exits)
       ~doc:
         "Run the predicate-analysis linter over the unsimplified plans \
          both optimizers produce: redundant conjuncts, contradictory \
          conjuncts and filters, statically dead Append branches. Exit 1 \
          on any finding.")
    Term.(
      const (fun workload biggen sql (env, _, sel) ->
          on_user_error (fun () -> do_lint env sel ~workload ~biggen sql))
      $ workload_arg $ biggen_arg $ sql_opt_arg
      $ cluster_term ~optimizer:false ())

let workers_arg =
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
         ~doc:"Number of executor worker domains serving admitted queries.")

let capacity_arg =
  Arg.(value & opt int 4 & info [ "capacity" ] ~docv:"N"
         ~doc:"Admission-control capacity: maximum queries in flight.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve" ~exits:(output_exit :: Cmd.Exit.defaults)
       ~doc:
         "Interactive serving front end on the demo cluster: prepared \
          statements with bind parameters, a normalized plan cache \
          (literals lifted to parameters, pruning-sensitive slots reused \
          without re-optimization) and admission control. Plain SQL runs \
          through the cache; $(b,\\\\prepare)/$(b,\\\\execute) exercise \
          explicit binds and $(b,\\\\stats) prints cache and admission \
          counters.")
    Term.(
      const (fun stats_json workers capacity domains (env, kind, _) ->
          on_user_error (fun () ->
              do_serve ?stats_json ~workers ~capacity ?domains env kind))
      $ stats_json_arg $ workers_arg $ capacity_arg $ parallel_arg
      $ cluster_term ~selection:false ())

let schema_cmd =
  Cmd.v (Cmd.info "schema" ~doc:"List the demo schema's tables.")
    Term.(const (fun sc sg ->
              do_schema (env_of ~scale:sc ~segments:sg))
          $ scale_arg $ segments_arg)

let main =
  Cmd.group
    (Cmd.info "mppsim" ~version:"1.0.0"
       ~doc:
         "Simulated MPP database with partitioned-table optimization \
          (SIGMOD 2014 reproduction).")
    [ explain_cmd; run_cmd; profile_cmd; repl_cmd; serve_cmd; check_cmd;
      lint_cmd; schema_cmd ]

let () = exit (Cmd.eval main)
