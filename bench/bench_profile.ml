(** Profiler overhead: table2 scan suite with the profiler off vs on. *)

open Harness

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
let run ~smoke =
  header
    (if smoke then "Bench: profiler overhead (smoke mode)"
     else "Bench: profiler overhead on the Table-2 scan suite");
  let rows = if smoke then 150_000 else 500_000 in
  Gc.compact ();
  let catalog = Cat.create () in
  let storage = Storage.create ~nsegments:4 in
  let _ = W.Tpch.setup ~catalog ~storage ~scenario:W.Tpch.Parts_42 ~rows in
  let lg = Mpp_sql.Sql.to_logical catalog "SELECT count(*) FROM lineitem" in
  let optimize () =
    W.Runner.optimize_logical ~catalog ~nsegments:(Storage.nsegments storage)
      W.Runner.Orca lg
  in
  let plan = optimize () in
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
      (Mpp_exec.Exec.run ~pool:counted ~catalog ~storage (optimize ()))
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
