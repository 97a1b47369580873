(** Verifier overhead. *)

open Harness

(* The always-on contract of lib/verify: both optimizers run every plan
   through the six static-analysis passes before handing it out, so the
   passes must cost a negligible slice of optimization itself.  Two
   measurements: (a) aggregate verify time vs optimize time over the whole
   evaluation workload, per optimizer (budget: <1%); (b) verify time vs
   plan size on the legacy Planner's per-leaf Append expansions at the
   paper's TPC-H partition counts, which should scale linearly (the
   structure pass's endpoint matching is the part that would go quadratic
   if regressed).  [~smoke] runs tiny inputs and asserts only the JSON
   schema and the oid-level agreement already enforced elsewhere. *)
let run ~smoke =
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
      W.Runner.optimize_logical ~catalog ~nsegments:(Storage.nsegments storage)
        W.Runner.Legacy_planner logical
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
