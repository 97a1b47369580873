(** Regression gate: a fresh BENCH_RESULTS.json against the committed
    baseline.

    [check-regression [BASELINE]] compares the metrics listed in the
    baseline (default [BASELINE.json] in the invocation directory, i.e.
    [bench/BASELINE.json] in the repo) against a fresh [BENCH_RESULTS.json],
    with a ±tolerance (default 20%) per metric.  The baseline pins only
    machine-independent metrics (deterministic tuple/Motion counts from
    the seeded generators, join-order state counts), so the gate is
    meaningful on any machine; paths are dotted keys into the
    [experiments] object.  Exits 1 loudly on any missing or out-of-band
    metric. *)

open Harness

let run baseline_file =
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
  if !nfail > 0 then begin
    Printf.printf "\n%d metric(s) regressed or missing vs %s\n" !nfail
      baseline_file;
    exit 1
  end
  else
    Printf.printf "\nall %d metric(s) within ±%.0f%% of baseline\n"
      (List.length metrics) tolerance_pct
