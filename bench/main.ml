(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (§4), plus the ablations and the engineering benches.

    Usage: [bench/main.exe [EXPERIMENT [--smoke] | all [--smoke] |
    check-regression [BASELINE]]], where EXPERIMENT is a name in
    [experiments] below; no argument runs every experiment.  Each
    experiment lives in the file named after it.  The [--smoke] variants
    are the tiny-input checks that [dune runtest] runs; an experiment
    without one runs in full.  Whatever ran is also written as structured
    data to [BENCH_RESULTS.json]; sections merge with an existing file, so
    single experiments can be re-run without losing the rest.
    [check-regression] compares a fresh [BENCH_RESULTS.json] against the
    committed [bench/BASELINE.json] and exits 1 loudly on regression.

    Absolute numbers differ from the paper (its substrate was a 16-node
    Greenplum cluster over 256 GB of TPC-DS; ours is an in-process simulated
    cluster over synthetic data) — the claims under test are the *shapes*:
    who eliminates which partitions, how plan size scales with partition
    count, and where partition selection helps or hurts. *)

let experiments =
  [ ("table2", Table2.run);
    ("table3", Table3.run);
    ("fig16", Fig16.run);
    ("fig17", Fig17.run);
    ("fig18a", Fig18.run_a);
    ("fig18b", Fig18.run_b);
    ("fig18c", Fig18.run_c);
    ("ablation-memo", Ablation_memo.run);
    ("ablation-pwj", Ablation_pwj.run);
    ("micro-exec", Micro_exec.run);
    ("part-select", Part_select.run);
    ("verify", Bench_verify.run);
    ("join-filter", Join_filter.run);
    ("profile", Bench_profile.run);
    ("opt-scaling", Opt_scaling.run);
    ("analysis", Bench_analysis.run) ]

let () =
  let arg i = if Array.length Sys.argv > i then Some Sys.argv.(i) else None in
  let smoke = arg 2 = Some "--smoke" in
  (match arg 1 with
  | None | Some "all" -> List.iter (fun (_, run) -> run ~smoke) experiments
  | Some ("check-regression" | "--check-regression") ->
      Check_regression.run (Option.value (arg 2) ~default:"BASELINE.json")
  | Some name -> (
      match List.assoc_opt name experiments with
      | Some run -> run ~smoke
      | None ->
          Printf.eprintf "unknown experiment %s (expected %s)\n" name
            (String.concat "|"
               (List.map fst experiments @ [ "check-regression"; "all" ]));
          exit 1));
  Harness.write_results ()
