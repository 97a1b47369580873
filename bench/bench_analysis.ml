(** Predicate analysis: pass overhead and implied-predicate pruning. *)

open Harness

(* Two claims.  (a) Overhead: running the whole workload end to end
   (optimize + execute) with the abstract-interpretation pass on vs off,
   per optimizer, with paired medians — the always-on pass must stay
   within 2% of what a query actually experiences.  (b) Payoff:
   on [ss_sr_transitive_date] the range predicate sits on store_returns
   and only the equi-join equivalence class carries it onto the
   store_sales partition key; the strengthening pass cuts the partitions
   the Planner opens from 36 to 3 (Orca's join-driven selector reaches
   the same 3 by the join keys alone; with the pass on, its level holds
   the strengthened range as well and the compiled selector intersects
   both per build row, so Orca's delta shows at plan time, not scan
   time), with the result rows asserted identical in every
   configuration.  [~smoke]
   runs assertions (b) and the JSON schema only — timing at tiny inputs
   is noise. *)
let run ~smoke =
  header
    (if smoke then "Bench: predicate analysis (smoke mode, equivalence only)"
     else "Bench: predicate-analysis overhead and implied-predicate pruning");
  let env = get_env () in
  let catalog = env.W.Runner.catalog in
  let queries = if smoke then [ List.hd W.Queries.all ] else W.Queries.all in
  let reps = if smoke then 1 else 11 in
  let kind_section (kname, kind) =
    (* the gate denominator is what a query actually experiences —
       optimize + execute, like the profiler gate; the pure-optimize
       share is recorded alongside (at this harness's microsecond plan
       times even a cheap extra walk is a double-digit share of optimize
       alone, just as the verifier's is — see the bench_verify note) *)
    let opt_on = ref 0.0 and opt_off = ref 0.0 in
    let on_ms = ref 0.0 and off_ms = ref 0.0 in
    List.iter
      (fun qu ->
        let t_opt_on, t_opt_off =
          paired_median_ms reps
            (fun () -> W.Runner.optimize_with ~simplify:true env kind qu)
            (fun () -> W.Runner.optimize_with ~simplify:false env kind qu)
        in
        opt_on := !opt_on +. t_opt_on;
        opt_off := !opt_off +. t_opt_off;
        let e2e simplify () =
          let plan = W.Runner.optimize_with ~simplify env kind qu in
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
    List.map kind_section
      [ ("orca", W.Runner.Orca); ("planner", W.Runner.Legacy_planner) ]
  in
  (* (b) the transitive-pruning payoff, rows asserted identical *)
  let qu = W.Queries.find "ss_sr_transitive_date" in
  let ss_oid = (Cat.find catalog "store_sales").Table.oid in
  let run_parts kind simplify =
    let plan = W.Runner.optimize_with ~simplify env kind qu in
    let rows, m =
      Mpp_exec.Exec.run ~catalog ~storage:env.W.Runner.storage plan
    in
    (List.sort compare rows, Mpp_exec.Metrics.parts_scanned_of m ~root_oid:ss_oid)
  in
  let rows_ref, orca_on = run_parts W.Runner.Orca true in
  let pruning =
    List.map
      (fun (kname, kind, simplify) ->
        let rows, parts = run_parts kind simplify in
        if rows <> rows_ref then
          failwith
            ("bench_analysis: " ^ kname ^ " changed the transitive answer");
        (kname, parts))
      [ ("orca_off", W.Runner.Orca, false);
        ("planner_on", W.Runner.Legacy_planner, true);
        ("planner_off", W.Runner.Legacy_planner, false) ]
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
            optimize+execute (what a query experiences), gated at 2%; \
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
