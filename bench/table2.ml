(** Table 2: partitioning overhead of a full scan. *)

open Harness

let run ~smoke =
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
    let plan = W.Runner.optimize_logical ~catalog ~nsegments W.Runner.Orca lg in
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
