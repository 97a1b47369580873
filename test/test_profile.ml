(** Unit suite for the PR-6 query profiler: skew and estimate-error math
    under a deterministic clock, the Chrome/Perfetto trace-event export
    shape (valid JSON, monotone timestamps, one named track per domain),
    domain-safe [Obs] counters under a parallel hammer, and the dpool /
    channel accounting counters. *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Est = Mpp_plan.Est
module Node_stats = Mpp_exec.Node_stats
module Dpool = Mpp_exec.Dpool
module Channel = Mpp_exec.Channel
module Obs = Mpp_obs.Obs
module Trace = Mpp_obs.Trace
module Json = Mpp_obs.Json

(* A fake clock advancing a fixed step per read: fully deterministic
   timings for everything below. *)
let ticking ?(step = 0.001) () =
  let t = ref 0.0 in
  fun () ->
    let v = !t in
    t := !t +. step;
    v

(* ---- skew math ---- *)

let test_skew_math () =
  let st = Node_stats.create ~clock:(ticking ()) ~nsegments:4 () in
  Alcotest.(check int) "nsegments" 4 (Node_stats.nsegments st);
  let n = Node_stats.node st 0 in
  (* balanced: 25 rows on each of 4 segments *)
  Array.iteri (fun i _ -> n.Node_stats.seg_rows.(i) <- 25) n.Node_stats.seg_rows;
  Alcotest.(check (float 1e-9)) "balanced skew" 1.0 (Node_stats.skew n);
  let s = Node_stats.rows_summary n in
  Alcotest.(check int) "balanced min" 25 s.Node_stats.seg_min;
  Alcotest.(check int) "balanced max" 25 s.Node_stats.seg_max;
  Alcotest.(check (float 1e-9)) "balanced mean" 25.0 s.Node_stats.seg_mean;
  (* fully concentrated: all 100 rows on one segment → skew = nsegments *)
  let c = Node_stats.node st 1 in
  c.Node_stats.seg_rows.(2) <- 100;
  Alcotest.(check (float 1e-9)) "concentrated skew" 4.0 (Node_stats.skew c);
  (* empty node: no rows anywhere → skew defined as 1.0, not NaN *)
  let e = Node_stats.node st 2 in
  Alcotest.(check (float 1e-9)) "empty skew" 1.0 (Node_stats.skew e);
  (* 2:1 imbalance: mean 75, max 150 → 2.0 *)
  let h = Node_stats.node st 3 in
  h.Node_stats.seg_rows.(0) <- 150;
  h.Node_stats.seg_rows.(1) <- 50;
  h.Node_stats.seg_rows.(2) <- 50;
  h.Node_stats.seg_rows.(3) <- 50;
  Alcotest.(check (float 1e-9)) "2x skew" 2.0 (Node_stats.skew h)

(* ---- estimate error-factor math ---- *)

let test_error_factor () =
  let chk what ~est ~actual expect =
    Alcotest.(check (float 1e-9))
      what expect
      (Est.error_factor ~est ~actual)
  in
  chk "exact" ~est:100.0 ~actual:100 1.0;
  chk "2x over" ~est:200.0 ~actual:100 2.0;
  chk "4x under" ~est:25.0 ~actual:100 4.0;
  (* both sides clamp to >= 1 row: a zero never divides *)
  chk "zero actual" ~est:10.0 ~actual:0 10.0;
  chk "zero estimate" ~est:0.0 ~actual:10 10.0;
  chk "both zero" ~est:0.0 ~actual:0 1.0

let test_est_of_plan () =
  let cat = Mpp_catalog.Catalog.create () in
  let t =
    Mpp_catalog.Catalog.add_table cat ~name:"t"
      ~columns:[ ("a", Value.Tint) ]
      ~distribution:(Mpp_catalog.Distribution.Hashed [ 0 ]) ()
  in
  let scan = Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid in
  let plan = Plan.motion Plan.Gather scan in
  (* pre-order: 0 = Motion, 1 = scan *)
  let est =
    Est.of_plan
      ~estimate:(function Plan.Motion _ -> 7.0 | _ -> 42.0)
      plan
  in
  Alcotest.(check (option (float 1e-9))) "root" (Some 7.0) (Est.find est 0);
  Alcotest.(check (option (float 1e-9))) "child" (Some 42.0) (Est.find est 1);
  Alcotest.(check (option (float 1e-9))) "out of range" None (Est.find est 2);
  (* a throwing or NaN estimator yields no estimate, not a crash *)
  let bad =
    Est.of_plan
      ~estimate:(function
        | Plan.Motion _ -> failwith "boom" | _ -> Float.nan)
      plan
  in
  Alcotest.(check (option (float 1e-9))) "raise -> None" None (Est.find bad 0);
  Alcotest.(check (option (float 1e-9))) "nan -> None" None (Est.find bad 1);
  Alcotest.(check (option (float 1e-9)))
    "none is empty" None
    (Est.find Est.none 0)

(* ---- Perfetto trace export shape ---- *)

let members_exn what k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing %s" what k

let as_num what = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> Alcotest.failf "%s: not numeric" what

let test_trace_export_shape () =
  let clock = ticking ~step:0.5 () in
  let tr = Trace.create ~clock () in
  Alcotest.(check bool) "enabled" true (Trace.enabled tr);
  Trace.declare_track tr ~tid:0 "coordinator";
  Trace.declare_track tr ~tid:2 "domain-0";
  Trace.declare_track tr ~tid:3 "domain-1";
  Trace.declare_track tr ~tid:3 "domain-1" (* idempotent *);
  (* emit out of order: export must still be ts-sorted *)
  Trace.emit tr ~tid:3 ~name:"late" ~start:10.0 ~stop:11.0 ();
  Trace.emit tr ~tid:2 ~name:"early" ~start:1.0 ~stop:2.5 ();
  Trace.emit tr ~tid:0 ~name:"backwards" ~start:5.0 ~stop:4.0 ()
  (* negative interval clamps to dur 0 *);
  Alcotest.(check int) "event count" 3 (Trace.event_count tr);
  Alcotest.(check (list int)) "track ids" [ 0; 2; 3 ] (Trace.track_ids tr);
  (* the export round-trips through our own parser *)
  let json = Json.parse (Json.to_string (Trace.to_json tr)) in
  let events =
    match members_exn "export" "traceEvents" json with
    | Json.List l -> l
    | _ -> Alcotest.fail "traceEvents not a list"
  in
  let meta, xs =
    List.partition
      (fun e -> Json.member "ph" e = Some (Json.String "M"))
      events
  in
  (* one process_name + one thread_name per declared track, and metadata
     precedes every X event *)
  Alcotest.(check int) "metadata events" 4 (List.length meta);
  let names =
    List.filter_map
      (fun e ->
        if Json.member "name" e = Some (Json.String "thread_name") then
          Option.bind (Json.member "args" e) (Json.member "name")
        else None)
      meta
  in
  Alcotest.(check (list string))
    "one named track per domain"
    [ "coordinator"; "domain-0"; "domain-1" ]
    (List.map (function Json.String s -> s | _ -> "?") names);
  (match events with
  | first :: _ ->
      Alcotest.(check bool)
        "metadata first" true
        (Json.member "ph" first = Some (Json.String "M"))
  | [] -> Alcotest.fail "empty export");
  Alcotest.(check int) "X events" 3 (List.length xs);
  (* ts are relative to the trace epoch, microseconds, monotone *)
  let ts = List.map (fun e -> as_num "ts" (members_exn "X" "ts" e)) xs in
  Alcotest.(check bool)
    "monotone ts" true
    (List.sort compare ts = ts);
  List.iter
    (fun t -> Alcotest.(check bool) "non-negative ts" true (t >= 0.0))
    ts;
  let by_name n =
    List.find
      (fun e -> Json.member "name" e = Some (Json.String n))
      xs
  in
  Alcotest.(check (float 1e-6))
    "dur in us"
    1.5e6
    (as_num "dur" (members_exn "early" "dur" (by_name "early")));
  Alcotest.(check (float 1e-6))
    "negative interval clamps" 0.0
    (as_num "dur" (members_exn "backwards" "dur" (by_name "backwards")));
  (* reset drops everything *)
  Trace.reset tr;
  Alcotest.(check int) "reset events" 0 (Trace.event_count tr);
  Alcotest.(check (list int)) "reset tracks" [] (Trace.track_ids tr)

let test_trace_null_and_obs_spans () =
  (* the null collector is free and inert *)
  Trace.emit Trace.null ~tid:0 ~name:"x" ~start:0.0 ~stop:1.0 ();
  Trace.declare_track Trace.null ~tid:0 "x";
  Alcotest.(check bool) "null disabled" false (Trace.enabled Trace.null);
  Alcotest.(check int) "null events" 0 (Trace.event_count Trace.null);
  (* Obs span trees render as nested events on one track *)
  let clock = ticking ~step:0.25 () in
  let sink = Obs.create ~clock () in
  Obs.span sink "optimize" (fun () ->
      Obs.span sink "explore" (fun () -> ());
      Obs.span sink "implement" (fun () -> ()));
  let tr = Trace.create ~clock () in
  Trace.declare_track tr ~tid:1 "optimizer";
  Trace.add_obs_spans tr ~tid:1 (Obs.root_spans sink);
  Alcotest.(check int) "span events" 3 (Trace.event_count tr);
  let json = Trace.to_json tr in
  let events =
    match members_exn "export" "traceEvents" json with
    | Json.List l -> l
    | _ -> Alcotest.fail "traceEvents not a list"
  in
  let xs =
    List.filter
      (fun e -> Json.member "ph" e = Some (Json.String "X"))
      events
  in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        "span events on the optimizer track" true
        (Json.member "tid" e = Some (Json.Int 1)))
    xs

(* ---- trace events from a real parallel execution ---- *)

let test_trace_from_parallel_run () =
  let env = Mpp_workload.Runner.setup_env ~scale:1 ~nsegments:4 () in
  let q = List.hd Mpp_workload.Queries.all in
  let plan =
    Mpp_workload.Runner.optimize_with env Mpp_workload.Runner.Orca q
  in
  let trace = Trace.create () in
  let _rows, _m, _st =
    Mpp_exec.Exec.run_analyze ~trace ~domains:4
      ~catalog:env.Mpp_workload.Runner.catalog
      ~storage:env.Mpp_workload.Runner.storage plan
  in
  Alcotest.(check bool)
    "events recorded" true
    (Trace.event_count trace > 0);
  (* coordinator track plus one per pool domain, all declared up front *)
  let expect = Mpp_exec.Exec.coordinator_tid :: List.init 4 Mpp_exec.Exec.domain_tid in
  Alcotest.(check (list int))
    "declared tracks" (List.sort compare expect)
    (Trace.track_ids trace);
  (* export parses and is ts-monotone *)
  let json = Json.parse (Json.to_string (Trace.to_json trace)) in
  let xs =
    match members_exn "export" "traceEvents" json with
    | Json.List l ->
        List.filter
          (fun e -> Json.member "ph" e = Some (Json.String "X"))
          l
    | _ -> Alcotest.fail "traceEvents not a list"
  in
  let ts = List.map (fun e -> as_num "ts" (members_exn "X" "ts" e)) xs in
  Alcotest.(check bool) "monotone ts" true (List.sort compare ts = ts)

(* ---- Obs counters under the domain pool ---- *)

let test_obs_parallel_hammer () =
  let sink = Obs.create () in
  let pool = Dpool.get ~domains:4 in
  let tasks = 64 and per_task = 500 in
  Dpool.parallel_for pool tasks (fun i ->
      for _ = 1 to per_task do
        Obs.incr sink "hammer.hits"
      done;
      Obs.add sink (Printf.sprintf "hammer.task%d" (i mod 4)) 1);
  (* every increment from every domain is accounted for *)
  Alcotest.(check int)
    "no lost increments" (tasks * per_task)
    (Obs.counter sink "hammer.hits");
  let spread =
    List.fold_left ( + ) 0
      (List.map
         (fun i -> Obs.counter sink (Printf.sprintf "hammer.task%d" i))
         [ 0; 1; 2; 3 ])
  in
  Alcotest.(check int) "per-task counters sum" tasks spread;
  (* merged view also reaches the sorted listing *)
  Alcotest.(check bool)
    "counters lists the merged total" true
    (List.mem ("hammer.hits", tasks * per_task) (Obs.counters sink))

(* ---- dpool busy/wait accounting ---- *)

let test_dpool_accounting () =
  let pool = Dpool.create 3 in
  Fun.protect
    ~finally:(fun () -> Dpool.shutdown pool)
    (fun () ->
      Alcotest.(check bool) "off by default" false (Dpool.accounting pool);
      Dpool.set_accounting pool true;
      Dpool.reset_stats pool;
      let total = Atomic.make 0 in
      Dpool.parallel_for pool 32 (fun i -> ignore (Atomic.fetch_and_add total i));
      Dpool.parallel_for pool 2 (fun _ -> ());
      Alcotest.(check int) "jobs submitted" 2 (Dpool.jobs_submitted pool);
      Alcotest.(check int) "max tasks" 32 (Dpool.max_tasks pool);
      let stats = Dpool.stats pool in
      Alcotest.(check int) "one counter slot per domain" 3 (Array.length stats);
      let tasks =
        Array.fold_left (fun a d -> a + d.Dpool.tasks) 0 stats
      in
      Alcotest.(check int) "every task accounted" 34 tasks;
      Array.iter
        (fun d ->
          Alcotest.(check bool) "busy time non-negative" true (d.Dpool.busy_s >= 0.0);
          Alcotest.(check bool) "wait time non-negative" true (d.Dpool.wait_s >= 0.0))
        stats;
      (* JSON export carries one object per domain *)
      (match Json.member "domains" (Dpool.stats_to_json pool) with
      | Some (Json.List l) ->
          Alcotest.(check int) "json domains" 3 (List.length l)
      | _ -> Alcotest.fail "dpool stats json: domains missing");
      Dpool.reset_stats pool;
      Alcotest.(check int) "reset clears" 0 (Dpool.jobs_submitted pool))

(* ---- channel occupancy counters ---- *)

let test_channel_occupancy () =
  let ch = Channel.create ~nsegments:2 in
  let bits l =
    let b = Mpp_catalog.Bitset.create 128 in
    Mpp_catalog.Bitset.set_list b l;
    b
  in
  Channel.propagate ch ~segment:0 ~part_scan_id:1 (bits [ 100 ]);
  (* a dedup hit *)
  Channel.propagate ch ~segment:0 ~part_scan_id:1 (bits [ 100 ]);
  Channel.propagate ch ~segment:0 ~part_scan_id:1 (bits [ 100; 101; 102 ]);
  Channel.propagate ch ~segment:0 ~part_scan_id:2 (bits [ 100 ]);
  Channel.propagate ch ~segment:1 ~part_scan_id:1 (bits [ 100 ]);
  let s0 = Channel.seg_stats ch ~segment:0 in
  Alcotest.(check int) "seg0 offered" 6 s0.Channel.offered;
  Alcotest.(check int) "seg0 admitted" 4 s0.Channel.admitted;
  Alcotest.(check int) "seg0 occupancy sums its slots" 4 s0.Channel.occupancy;
  let s1 = Channel.seg_stats ch ~segment:1 in
  Alcotest.(check int) "seg1 admitted" 1 s1.Channel.admitted;
  (* reading the channel does not perturb the counters *)
  ignore (Channel.consume ch ~segment:0 ~part_scan_id:1);
  ignore (Channel.mem ch ~segment:0 ~part_scan_id:1 100);
  Alcotest.(check int)
    "reads do not count" 6
    (Channel.seg_stats ch ~segment:0).Channel.offered;
  Channel.reset ch;
  let r = Channel.seg_stats ch ~segment:0 in
  Alcotest.(check int) "reset offered" 0 r.Channel.offered;
  Alcotest.(check int) "reset occupancy" 0 r.Channel.occupancy

let () =
  Alcotest.run "profile"
    [ ("skew and estimates",
       [ Alcotest.test_case "skew math" `Quick test_skew_math;
         Alcotest.test_case "error factor" `Quick test_error_factor;
         Alcotest.test_case "Est.of_plan" `Quick test_est_of_plan ]);
      ("perfetto export",
       [ Alcotest.test_case "export shape" `Quick test_trace_export_shape;
         Alcotest.test_case "null sink and obs spans" `Quick
           test_trace_null_and_obs_spans;
         Alcotest.test_case "parallel run trace" `Quick
           test_trace_from_parallel_run ]);
      ("accounting",
       [ Alcotest.test_case "obs parallel hammer" `Quick
           test_obs_parallel_hammer;
         Alcotest.test_case "dpool accounting" `Quick test_dpool_accounting;
         Alcotest.test_case "channel occupancy" `Quick
           test_channel_occupancy ]) ]
