(** The serving benchmark.

    [main.exe --workload W --seed N --seconds S --trace 0|1] sets up one
    workload, checks every answer against a partition-oblivious reference
    path, runs the workload's statement pass in a closed loop for [S]
    seconds through {!Mpp_serve.Serve} (one session, one worker, one
    executor domain), and prints each metric by name with its unit.  The
    last line of standard output is one JSON object:
    [{"correct", "attempted", "failed", "metrics"}].

    [--trace 0] reports the end-to-end metrics.  [--trace 1] drives the
    same statements through the serving layer's public functions one layer
    at a time, attributes time to each layer, and reports the per-layer
    metrics plus the tracing overhead.  perfbench/README.md explains the
    workloads, the metrics and the host calibration. *)

open Mpp_expr
module Catalog = Mpp_catalog.Catalog
module Table = Mpp_catalog.Table
module Partition = Mpp_catalog.Partition
module Storage = Mpp_storage.Storage
module Stats_source = Mpp_stats.Stats_source
module Plan = Mpp_plan.Plan
module Est = Mpp_plan.Est
module Exec = Mpp_exec.Exec
module Metrics = Mpp_exec.Metrics
module Node_stats = Mpp_exec.Node_stats
module Dpool = Mpp_exec.Dpool
module Obs = Mpp_obs.Obs
module Trace = Mpp_obs.Trace
module Json = Mpp_obs.Json
module Optimizer = Orca.Optimizer
module Logical = Orca.Logical
module Serve = Mpp_serve.Serve
module Normalize = Mpp_serve.Normalize
module Plan_cache = Mpp_serve.Plan_cache
module Runner = Mpp_workload.Runner
module Queries = Mpp_workload.Queries
module Biggen = Mpp_workload.Biggen
module Verify = Mpp_verify.Verify
module Diag = Mpp_verify.Diag

(** Monotonic clock, seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type workload = {
  name : string;
  scale : int;  (** TPC-DS scale factor; bigjoin_plan generates its own data *)
}

let workloads =
  [ { name = "reports_warm"; scale = 16 };
    { name = "adhoc_cold"; scale = 1 };
    { name = "ingest_mixed"; scale = 4 };
    { name = "bigjoin_plan"; scale = 0 } ]

(** Set-ups per end-to-end run; [setup_s] is their median. *)
let setup_runs = 5

(** Relations per big-join graph.  Nine sizes make 27 graphs, an odd
    number, so the median timing falls in the middle of one graph's timings
    rather than on the edge between two graphs of different cost. *)
let bigjoin_sizes = [ 10; 11; 12; 14; 16; 18; 20; 22; 24 ]

(* ------------------------------------------------------------------ *)
(* Growable float vectors and order statistics                         *)

module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0.0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

let percentile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs = percentile xs 0.5

(* ------------------------------------------------------------------ *)
(* Instances: a loaded workload ready to run                           *)

type served = {
  env : Runner.env;
  srv : Serve.t;
  prepared : Serve.prepared array;
}

type big = { specs : Biggen.spec array; envs : Biggen.env array }
type instance = Served of served | Big of big

let close = function Served s -> Serve.close s.srv | Big _ -> ()

(** One statement's observable result. *)
type outcome = {
  rows : Value.t array list;
  parts : int;  (** leaf partitions scanned; for a plan, planned *)
  moved : int;  (** Motion tuples; for a plan, estimated *)
  metrics : Metrics.t option;
  plan : Plan.t option;
}

let empty = { rows = []; parts = 0; moved = 0; metrics = None; plan = None }

(* Force every lazily built statistic: histograms of every column of every
   table.  The first query touching a table would otherwise pay for it. *)
let build_stats stats catalog =
  List.iter
    (fun (t : Table.t) ->
      ignore (Stats_source.table_stats stats t);
      Array.iteri
        (fun i _ -> ignore (Stats_source.column_stats stats t ~col_index:i))
        t.Table.columns)
    (Catalog.tables catalog)

let serve_config =
  { Serve.default_config with
    optimizer = Serve.Orca;
    workers = 1;
    capacity = 1;
    exec_domains = 1 }

let optimize_big (e : Biggen.env) =
  let config =
    { Optimizer.default_config with
      nsegments = Storage.nsegments e.Biggen.storage;
      opt_domains = 1 }
  in
  let opt = Optimizer.create ~config ~stats:e.Biggen.stats ~catalog:e.Biggen.catalog () in
  (opt, Optimizer.optimize opt e.Biggen.logical)

let planned_parts plan =
  Plan.fold
    (fun acc -> function
      | Plan.Dynamic_scan { ds_nparts; _ } when ds_nparts > 0 -> acc + ds_nparts
      | _ -> acc)
    0 plan

let first_int = function
  | [ [| Value.Int n |] ] -> n
  | _ -> -1

(* Rows each table gained and lost through the workload's writes, as the
   writes themselves reported them; reset by every set-up. *)
let inserted : (string, int) Hashtbl.t = Hashtbl.create 8
let deleted : (string, int) Hashtbl.t = Hashtbl.create 8

let bump tbl k n =
  Hashtbl.replace tbl k (n + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let tally (stmt : Gen.stmt) rows =
  match stmt with
  | Gen.Write { table; rows = expect; _ } ->
      bump (if expect > 0 then inserted else deleted) table (first_int rows)
  | _ -> ()

(* The SQL text of a statement sent as text.  [pass] numbers the passes
   (0 = warm-up) so INSERT sentinels differ from pass to pass. *)
let sql_text ~pass = function
  | Gen.Text sql -> Some sql
  | Gen.Write { sql; _ } -> Some (sql ~pass)
  | Gen.Bind _ | Gen.Plan _ -> None

(* The prepared statement and bindings a served statement runs with; SQL
   text is prepared on the spot, as a client sending text would have it. *)
let prepared_of (s : served) ~pass (stmt : Gen.stmt) =
  match (stmt, sql_text ~pass stmt) with
  | Gen.Bind { prep; binds }, _ -> (s.prepared.(prep), binds)
  | _, Some sql -> (Serve.prepare s.srv sql, [])
  | _, None -> invalid_arg "a plan is not a served statement"

(** Submit one statement and wait for its result by polling the ticket.
    Blocking in [Serve.await] would leave the coordinator domain asleep,
    and then every minor collection the worker starts has to wait for the
    OS to wake that domain up: a cost set by the host's scheduler, which
    moved the heavy statements' latency by up to 2x between runs of the
    same seed (perfbench/README.md).  The racy read of [tk_state] only
    decides when to stop spinning; [Serve.await] then reads the result
    under the server's lock. *)
let execute (s : served) prepared binds =
  let tk = Serve.submit s.srv ~session:0 prepared binds in
  let rec spin () =
    match tk.Serve.tk_state with
    | Serve.Queued | Serve.Running ->
        Domain.cpu_relax ();
        spin ()
    | Serve.Done _ | Serve.Failed _ -> ()
  in
  spin ();
  Serve.await s.srv tk

(** Execute one statement on the measured path. *)
let run_stmt inst ~pass (stmt : Gen.stmt) =
  match (inst, stmt) with
  | Served s, (Gen.Bind _ | Gen.Text _ | Gen.Write _) ->
      let prepared, binds = prepared_of s ~pass stmt in
      let r = execute s prepared binds in
      tally stmt r.Serve.rows;
      let m = r.Serve.metrics in
      { rows = r.Serve.rows;
        parts = Metrics.total_parts_scanned m;
        moved = m.Metrics.tuples_moved;
        metrics = Some m;
        plan = None }
  | Big b, Gen.Plan i ->
      let _, plan = optimize_big b.envs.(i) in
      { empty with plan = Some plan; parts = planned_parts plan }
  | _ -> invalid_arg "statement does not belong to this workload"

(* ------------------------------------------------------------------ *)
(* Host calibration                                                    *)

let probes = Fvec.create ()

let probe () =
  let p = Probe.run () in
  Fvec.push probes p;
  p

(** Run [f], returning its result and its host-scaled duration in seconds:
    raw time × reference / (mean of the probes taken before and after). *)
let scaled f =
  let p0 = probe () in
  let t0 = now () in
  let x = f () in
  let dt = now () -. t0 in
  let p1 = probe () in
  (x, dt *. Probe.reference_ms /. ((p0 +. p1) /. 2.0))

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)

let attempted = ref 0
let failed = ref 0
let notes = ref []

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      if List.length !notes < 10 then notes := msg :: !notes)
    fmt

let value_close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      x = y
      || Float.abs (x -. y)
         <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | _ -> Value.equal a b

let same_rows a b =
  let norm rs = List.sort compare (List.map Array.to_list rs) in
  let a = norm a and b = norm b in
  List.length a = List.length b
  && List.for_all2
       (fun r s -> List.length r = List.length s && List.for_all2 value_close r s)
       a b

(** The reference answer: Orca with partition selection and simplification
    off, executed serially without runtime filters and without the plan
    cache. *)
let reference (s : served) (stmt : Gen.stmt) =
  let catalog = s.env.Runner.catalog and storage = s.env.Runner.storage in
  let lg =
    match stmt with
    | Gen.Bind { prep; binds } ->
        (* every slot substituted: the reference optimizes the literal
           statement, not the cached parameterized shape *)
        let norm = s.prepared.(prep).Serve.p_norm in
        Normalize.specialize
          { norm with
            Normalize.classes = Array.map (fun _ -> Normalize.Shape) norm.Normalize.classes }
          (Normalize.params norm binds)
    | Gen.Text sql -> Mpp_sql.Sql.to_logical catalog sql
    | Gen.Write _ | Gen.Plan _ -> invalid_arg "reference: not a read"
  in
  let config =
    { Optimizer.default_config with
      enable_partition_selection = false;
      simplify = false;
      nsegments = Storage.nsegments storage }
  in
  let opt = Optimizer.create ~config ~stats:s.env.Runner.stats ~catalog () in
  fst
    (Exec.run ~runtime_filters:false ~domains:1 ~catalog ~storage
       (Optimizer.optimize opt lg))

let stmt_key = function
  | Gen.Bind { prep; binds } ->
      String.concat ","
        (string_of_int prep
        :: List.map (fun (i, v) -> string_of_int i ^ "=" ^ Value.to_string v) binds)
  | Gen.Text sql -> sql
  | Gen.Write _ -> "write"
  | Gen.Plan i -> "plan" ^ string_of_int i

(* Estimated tuples through the plan's Motions. *)
let estimated_moved opt lg plan =
  let est = Est.of_plan ~estimate:(Optimizer.row_estimator opt lg) plan in
  let total = ref 0.0 in
  let rec go idx node =
    (match (node, Est.find est idx) with
    | Plan.Motion _, Some r -> total := !total +. r
    | _ -> ());
    List.fold_left go (idx + 1) (Plan.children node)
  in
  ignore (go 0 plan);
  int_of_float !total

(* A write must report the number of rows its batch holds. *)
let check_write (stmt : Gen.stmt) (o : outcome) =
  match stmt with
  | Gen.Write { table; rows; _ } ->
      let n = first_int o.rows in
      if n <> abs rows then
        fail "%s: %s reported %d rows, expected %d" table
          (if rows > 0 then "INSERT" else "DELETE") n (abs rows)
  | _ -> ()

(** The check pass, outside every timed region: run the pass once more on
    the measured path and compare each read with the reference answer at
    the same point of the sequence; each plan must verify clean and equal
    the plan the warm pass produced. *)
let check_pass inst pass ~warm_plans ~memo =
  let outcomes = Array.make (Array.length pass) empty in
  let static_data = Array.for_all (fun s -> not (Gen.is_write s)) pass in
  Array.iteri
    (fun i stmt ->
      incr attempted;
      match run_stmt inst ~pass:1 stmt with
      | exception e -> fail "statement %d raised %s" i (Printexc.to_string e)
      | o -> (
          match (inst, stmt) with
          | Served _, Gen.Write _ ->
              outcomes.(i) <- o;
              check_write stmt o
          | Served s, _ ->
              let expect =
                let key = stmt_key stmt in
                match Hashtbl.find_opt memo key with
                | Some r when static_data -> r
                | _ ->
                    let r = reference s stmt in
                    Hashtbl.replace memo key r;
                    r
              in
              if not (same_rows o.rows expect) then
                fail "statement %d differs from the reference: %s" i (stmt_key stmt);
              outcomes.(i) <- o
          | Big b, Gen.Plan k ->
              let e = b.envs.(k) in
              let opt, plan = optimize_big e in
              let diags = Verify.check ~catalog:e.Biggen.catalog plan in
              if Diag.has_errors diags then
                fail "%s: plan does not verify" (Biggen.spec_name b.specs.(k));
              if Some plan <> warm_plans.(i) || Some plan <> o.plan then
                fail "%s: re-optimization gave a different plan"
                  (Biggen.spec_name b.specs.(k));
              outcomes.(i) <- { o with moved = estimated_moved opt e.Biggen.logical plan }
          | Big _, _ -> fail "statement %d: not a plan" i))
    pass;
  outcomes

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

type setup = {
  inst : instance;
  pass : Gen.stmt array;
  setup_s : float;  (** host-scaled, process start excluded *)
  stats_s : float;  (** host-scaled histogram builds *)
  loaded : (string * int) list;  (** written tables' row counts after load *)
  warm_plans : Plan.t option array;
}

let make_pass w ~seed (inst : instance) =
  match (w.name, inst) with
  | "reports_warm", Served s -> Gen.reports ~seed ~reps:6 s.prepared
  | "adhoc_cold", Served _ -> Gen.adhoc ~seed ~n:600
  | "ingest_mixed", Served s ->
      Gen.ingest ~seed ~rounds:43 ~reads_per_round:4 s.prepared
  | "bigjoin_plan", Big b -> Gen.bigjoin_pass ~seed (Array.length b.specs)
  | _ -> invalid_arg "make_pass"

(** Load, build statistics, start the server, prepare, and run one warm
    pass: everything lazy is forced here, before any timing. *)
let setup w ~seed ~on_warm =
  let loaded_data, load_s =
    scaled (fun () ->
        if w.name = "bigjoin_plan" then
          let specs = Array.of_list (Gen.bigjoin_specs ~sizes:bigjoin_sizes) in
          Either.Right { specs; envs = Array.map (Biggen.generate ~nsegments:4) specs }
        else Either.Left (Runner.setup_env ~scale:w.scale ()))
  in
  let (), stats_s =
    scaled (fun () ->
        match loaded_data with
        | Either.Left env -> build_stats env.Runner.stats env.Runner.catalog
        | Either.Right b ->
            Array.iter
              (fun (e : Biggen.env) -> build_stats e.Biggen.stats e.Biggen.catalog)
              b.envs)
  in
  let inst, start_s =
    scaled (fun () ->
        match loaded_data with
        | Either.Left env ->
            let srv =
              Serve.create ~config:serve_config ~stats:env.Runner.stats
                ~catalog:env.Runner.catalog ~storage:env.Runner.storage ()
            in
            let prepared =
              if w.name = "adhoc_cold" then [||]
              else
                Array.of_list
                  (List.map
                     (fun (q : Queries.query) -> Serve.prepare srv q.Queries.sql)
                     Queries.all)
            in
            Served { env; srv; prepared }
        | Either.Right b -> Big b)
  in
  let pass = make_pass w ~seed inst in
  let loaded =
    match inst with
    | Served s ->
        List.map
          (fun (t : Gen.target) ->
            (t.Gen.ttable,
             Storage.count_table s.env.Runner.storage
               (Catalog.find s.env.Runner.catalog t.Gen.ttable)))
          Gen.targets
    | Big _ -> []
  in
  Hashtbl.reset inserted;
  Hashtbl.reset deleted;
  let warm_plans = Array.make (Array.length pass) None in
  let (), warm_s =
    scaled (fun () ->
        on_warm (fun () ->
            Array.iteri
              (fun i stmt ->
                match run_stmt inst ~pass:0 stmt with
                | o -> warm_plans.(i) <- o.plan
                | exception e ->
                    incr attempted;
                    fail "warm-up statement %d raised %s" i (Printexc.to_string e))
              pass))
  in
  { inst; pass; setup_s = load_s +. stats_s +. start_s +. warm_s; stats_s; loaded;
    warm_plans }

(* ------------------------------------------------------------------ *)
(* The timed closed loop                                               *)

let batch_s = 0.1

type timing = {
  lat_ms : float array;  (** host-scaled, one per statement *)
  raw_lat_ms : float array;
  busy_s : float;  (** host-scaled wall time of the statements *)
  raw_busy_s : float;
  stmts : int;
  passes : int;
}

(** Run whole passes until [seconds] have elapsed (at least one).  After
    every batch of about 100 ms a probe runs, and the batch's timings are
    scaled by the median of the last three probes (the one just after the
    batch included): a window of about 300 ms that follows the host's
    phases but not a single probe's hiccup.  [on_first]
    sees the first pass's outcomes; [first_pass] numbers that pass. *)
let timed_loop ~seconds ~first_pass pass run ~on_first =
  let lat = Fvec.create () and raw_lat = Fvec.create () in
  let batch = Fvec.create () in
  let recent = Array.make 3 (probe ()) and next = ref 0 in
  let busy = ref 0.0 and raw = ref 0.0 and n = ref 0 and passes = ref 0 in
  let flush b0 b1 =
    recent.(!next mod 3) <- probe ();
    incr next;
    let f = Probe.reference_ms /. median recent in
    for k = 0 to batch.Fvec.n - 1 do
      Fvec.push lat (batch.Fvec.a.(k) *. f *. 1000.0);
      Fvec.push raw_lat (batch.Fvec.a.(k) *. 1000.0)
    done;
    batch.Fvec.n <- 0;
    busy := !busy +. ((b1 -. b0) *. f);
    raw := !raw +. (b1 -. b0)
  in
  let deadline = now () +. seconds in
  while !passes = 0 || now () < deadline do
    let b0 = ref (now ()) in
    let len = Array.length pass in
    for i = 0 to len - 1 do
      let t0 = now () in
      let o =
        match run ~pass:(first_pass + !passes) pass.(i) with
        | o -> Some o
        | exception e ->
            fail "statement %d raised %s" i (Printexc.to_string e);
            None
      in
      let t1 = now () in
      Fvec.push batch (t1 -. t0);
      incr n;
      if !passes = 0 then on_first i o;
      if t1 -. !b0 >= batch_s || i = len - 1 then begin
        flush !b0 t1;
        b0 := now ()
      end
    done;
    incr passes
  done;
  attempted := !attempted + !n;
  { lat_ms = Fvec.to_array lat; raw_lat_ms = Fvec.to_array raw_lat; busy_s = !busy; raw_busy_s = !raw; stmts = !n;
    passes = !passes }

(** Compare the first timed pass with the check pass: same rows for every
    read, same plan for every big join, same row count for every write. *)
let compare_with_check (checked : outcome array) pass =
  fun i (o : outcome option) ->
    match o with
    | None -> ()
    | Some o -> (
        let c = checked.(i) in
        match pass.(i) with
        | Gen.Plan _ -> if o.plan <> c.plan then fail "plan %d changed between passes" i
        | Gen.Write _ -> check_write pass.(i) o
        | _ -> if not (same_rows o.rows c.rows) then fail "statement %d changed between passes" i)

(* Written tables must hold loaded + inserted - deleted rows. *)
let check_row_counts (st : setup) =
  match st.inst with
  | Big _ -> ()
  | Served s ->
      List.iter
        (fun (table, loaded) ->
          let get tbl = Option.value ~default:0 (Hashtbl.find_opt tbl table) in
          let expect = loaded + get inserted - get deleted in
          let actual =
            Storage.count_table s.env.Runner.storage (Catalog.find s.env.Runner.catalog table)
          in
          if actual <> expect then
            fail "%s holds %d rows, expected %d (loaded %d + inserted %d - deleted %d)"
              table actual expect loaded (get inserted) (get deleted))
        st.loaded

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

type metric = { mname : string; unit_ : string; value : float }

let m mname unit_ value = { mname; unit_; value }

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let print_result metrics =
  List.iter (fun x -> Printf.printf "  %-30s %16.6f %s\n" x.mname x.value x.unit_) metrics;
  let bad = List.filter (fun x -> not (Float.is_finite x.value)) metrics in
  List.iter (fun x -> fail "metric %s is not finite" x.mname) bad;
  if !notes <> [] then begin
    print_endline "failures:";
    List.iter (fun n -> Printf.printf "  %s\n" n) (List.rev !notes)
  end;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) (max 1 !attempted) !failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.mname
              (json_number (if Float.is_finite x.value then x.value else 0.0))
              x.unit_)
          metrics))

let mb words = float_of_int words *. 8.0 /. 1048576.0

(* What the loaded system holds: live words after a full collection.  The
   peak heap size depends on when major cycles happen to finish, and read
   60 or 88 MB on the same ingest_mixed run; it is printed for reference. *)
let live_heap_mb () =
  Gc.full_major ();
  mb (Gc.stat ()).Gc.live_words

let per_stmt total n = float_of_int total /. float_of_int (max 1 n)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)

(* [count] set-ups in a row, each released before the next; returns their
   host-scaled times and the last one. *)
let setups w ~seed ~count ~on_warm =
  let rec go k times last =
    if k = count then (List.rev times, Option.get last)
    else begin
      Option.iter (fun (st : setup) -> close st.inst) last;
      (* free the last set-up's data but keep the heap mapped: the next
         set-up then pays for its own work, not for the kernel handing the
         memory back *)
      Gc.full_major ();
      let st = setup w ~seed ~on_warm in
      go (k + 1) (st.setup_s :: times) (Some st)
    end
  in
  go 0 [] None

let run_end_to_end w ~seed ~seconds =
  let started = now () in
  let times, st = setups w ~seed ~count:setup_runs ~on_warm:(fun f -> f ()) in
  let setup_s = median (Array.of_list times) in
  let live_mb = live_heap_mb () in
  let memo = Hashtbl.create 256 in
  let checked = check_pass st.inst st.pass ~warm_plans:st.warm_plans ~memo in
  Gc.full_major ();
  let first = Array.make (Array.length st.pass) None in
  let t =
    timed_loop ~seconds ~first_pass:2 st.pass (run_stmt st.inst)
      ~on_first:(fun i o -> first.(i) <- o)
  in
  Array.iteri (compare_with_check checked st.pass) first;
  check_row_counts st;
  close st.inst;
  let n = Array.length st.pass in
  let sum f = Array.fold_left (fun a o -> a + f o) 0 checked in
  let probe_ms = median (Fvec.to_array probes) in
  Printf.printf
    "workload %s seed %d: %d statements per pass, %d passes, %d timed statements, \
     %.1f s wall, peak heap %.1f MB\n"
    w.name seed n t.passes t.stmts (now () -. started) (mb (Gc.quick_stat ()).Gc.top_heap_words);
  Printf.printf
    "  raw: %.1f statements/s, p50 %.4f ms, p95 %.4f ms, p99 %.4f ms; probe median %.3f ms \
     (reference %.1f ms, %d probes)\n\
    \  scaled p95 %.4f ms; set-ups: %s s; error_rate %.4f\n"
    (float_of_int t.stmts /. t.raw_busy_s)
    (percentile t.raw_lat_ms 0.50) (percentile t.raw_lat_ms 0.95) (percentile t.raw_lat_ms 0.99)
    probe_ms Probe.reference_ms probes.Fvec.n (percentile t.lat_ms 0.95)
    (String.concat ", " (List.map (Printf.sprintf "%.3f") times))
    (per_stmt !failed !attempted);
  (* the latencies are in execution order, so entry [j] ran [pass.(j mod n)] *)
  let writes =
    Array.of_list
      (List.filteri (fun j _ -> Gen.is_write st.pass.(j mod n)) (Array.to_list t.lat_ms))
  in
  if Array.length writes > 0 then
    Printf.printf "  writes (INSERT and DELETE): %d, p50 %.4f ms, p99 %.4f ms\n"
      (Array.length writes) (percentile writes 0.50) (percentile writes 0.99);
  print_result
    [ m "setup_s" "s" setup_s;
      m "qps" "1/s" (float_of_int t.stmts /. t.busy_s);
      m "latency_p50_ms" "ms" (percentile t.lat_ms 0.50);
      m "latency_p99_ms" "ms" (percentile t.lat_ms 0.99);
      m "parts_scanned_per_stmt" "count" (per_stmt (sum (fun o -> o.parts)) n);
      m "rows_moved_per_stmt" "count" (per_stmt (sum (fun o -> o.moved)) n);
      m "live_heap_mb" "MB" live_mb ]

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

(* Time and calls per layer.  [layers] covers the traced statements only;
   [calls] also keeps the optimizer spans of the warm-up pass, the only
   place reports_warm optimizes at all. *)
type acc = { mutable secs : float; mutable n : int }

let layers : (string, acc) Hashtbl.t = Hashtbl.create 32
let calls : (string, acc) Hashtbl.t = Hashtbl.create 32
let counters : (string, int) Hashtbl.t = Hashtbl.create 32

let add tbl name dt =
  match Hashtbl.find_opt tbl name with
  | Some a ->
      a.secs <- a.secs +. dt;
      a.n <- a.n + 1
  | None -> Hashtbl.replace tbl name { secs = dt; n = 1 }

let get tbl name = Option.value ~default:{ secs = 0.0; n = 0 } (Hashtbl.find_opt tbl name)

(* Spans of the first traced pass, keyed by statement id, kept in memory
   and written through Mpp_obs.Trace at the end. *)
let recorder = ref Trace.null
let stmt_id = ref 0
let coordinator_tid = 0
let optimizer_tid = 1

let in_layer name f =
  let t0 = now () in
  let x = f () in
  let t1 = now () in
  add layers name (t1 -. t0);
  if Trace.enabled !recorder then
    Trace.emit !recorder ~tid:coordinator_tid ~cat:"layer"
      ~args:[ ("stmt", Json.Int !stmt_id) ] ~name ~start:t0 ~stop:t1 ();
  x

let sink = Obs.create ~clock:now ()

(* Move the optimizer's and verifier's Obs spans and counters out of the
   sink: every span into [calls], and into [layers] when [into_layers]. *)
let harvest ~into_layers =
  let rec walk (sp : Obs.span) =
    add calls sp.Obs.span_name sp.Obs.span_elapsed;
    if into_layers then add layers ("obs." ^ sp.Obs.span_name) sp.Obs.span_elapsed;
    List.iter walk sp.Obs.span_children
  in
  let roots = Obs.root_spans sink in
  List.iter walk roots;
  if Trace.enabled !recorder then
    Trace.add_obs_spans !recorder ~tid:optimizer_tid ~cat:"optimizer" roots;
  List.iter (fun (k, v) -> bump counters k v) (Obs.counters sink);
  Obs.reset sink

let category = function
  | Plan.Table_scan _ | Plan.Dynamic_scan _ -> "exec.scan"
  | Plan.Hash_join _ | Plan.Nl_join _ -> "exec.join"
  | Plan.Agg _ -> "exec.agg"
  | Plan.Motion _ -> "exec.motion"
  | Plan.Append _ -> "exec.append"
  | Plan.Sort _ -> "exec.sort"
  | Plan.Partition_selector _ -> "select.selector"
  | Plan.Insert _ -> "storage.insert"
  | Plan.Delete _ | Plan.Update _ -> "storage.delete"
  | _ -> "exec.other"

(* Self time per operator: a node's inclusive time minus its children's. *)
let attribute plan ns =
  let time i = match Node_stats.find ns i with Some n -> n.Node_stats.time_s | None -> 0.0 in
  let rec go idx node =
    let next, kids =
      List.fold_left
        (fun (j, t) c -> (go j c, t +. time j))
        (idx + 1, 0.0) (Plan.children node)
    in
    add layers (category node) (Float.max 0.0 (time idx -. kids));
    next
  in
  ignore (go 0 plan)

let leaves catalog names =
  List.fold_left
    (fun acc name ->
      match (Catalog.find catalog name).Table.partitioning with
      | Some p -> acc + List.length (Partition.leaf_oids p)
      | None -> acc)
    0 names

let pool = lazy (Dpool.create 1)

(** The measured path taken apart: [Serve.prepare], then [Serve.resolve]'s
    steps (normalize, cache probe, optimize + verify-at-insert on a miss),
    then [Exec.run] with per-node statistics, each timed as its own layer.
    Shares the server's plan cache, so hits and misses match the
    untraced run. *)
let decomposed inst ~pass (stmt : Gen.stmt) =
  incr stmt_id;
  in_layer "stmt" @@ fun () ->
  match (inst, stmt) with
  | Served s, (Gen.Bind _ | Gen.Text _ | Gen.Write _) ->
      let catalog = s.env.Runner.catalog and storage = s.env.Runner.storage in
      let norm, binds =
        match (stmt, sql_text ~pass stmt) with
        | Gen.Bind { prep; binds }, _ -> (s.prepared.(prep).Serve.p_norm, binds)
        | _, sql ->
            let sql = Option.get sql in
            let lg = in_layer "sql" (fun () -> Mpp_sql.Sql.to_logical catalog sql) in
            (in_layer "normalize" (fun () -> Normalize.of_logical ~catalog lg), [])
      in
      let params, key =
        in_layer "normalize" (fun () ->
            let params = Normalize.params norm binds in
            ( params,
              Plan_cache.key ~fingerprint:norm.Normalize.fingerprint
                ~kind:(Serve.optimizer_to_string serve_config.Serve.optimizer)
                ~shape:(Normalize.shape_key norm params) ))
      in
      let cache = Serve.cache s.srv in
      let plan =
        match in_layer "cache.probe" (fun () -> Plan_cache.find cache ~catalog key) with
        | Some (plan, _) -> plan
        | None ->
            let lg = in_layer "normalize" (fun () -> Normalize.specialize norm params) in
            let plan, est = in_layer "optimize" (fun () -> Serve.optimize s.srv lg) in
            in_layer "cache.insert" (fun () -> Plan_cache.insert cache ~catalog key plan est);
            plan
      in
      let ns = Node_stats.create ~clock:now () in
      let rows, m =
        in_layer "exec" (fun () ->
            Exec.run ~params ~verify:false ~stats:ns ~pool:(Lazy.force pool) ~catalog
              ~storage plan)
      in
      tally stmt rows;
      attribute plan ns;
      harvest ~into_layers:true;
      (match stmt with
      | Gen.Write { rows; _ } when rows > 0 -> bump counters "rows.inserted" rows
      | _ -> ());
      bump counters "parts.total"
        (leaves catalog (List.map snd (Logical.base_tables norm.Normalize.tree)));
      { rows; parts = Metrics.total_parts_scanned m; moved = m.Metrics.tuples_moved;
        metrics = Some m; plan = None }
  | Big b, Gen.Plan i ->
      let e = b.envs.(i) in
      let _, plan = in_layer "optimize" (fun () -> optimize_big e) in
      harvest ~into_layers:true;
      let total =
        Plan.fold
          (fun acc -> function
            | Plan.Dynamic_scan { root_oid; _ } ->
                acc + leaves e.Biggen.catalog [ (Catalog.find_oid e.Biggen.catalog root_oid).Table.name ]
            | _ -> acc)
          0 plan
      in
      bump counters "parts.total" total;
      { empty with plan = Some plan; parts = planned_parts plan }
  | _ -> invalid_arg "statement does not belong to this workload"

(** The untraced path again, recording the server's admission wait and
    the coordinator/worker hand-off (latency not spent resolving, waiting
    or executing). *)
let served_timed inst ~pass (stmt : Gen.stmt) =
  match (inst, stmt) with
  | Served s, (Gen.Bind _ | Gen.Text _ | Gen.Write _) ->
      let prepared, binds = prepared_of s ~pass stmt in
      let t0 = now () in
      let r = execute s prepared binds in
      let lat = now () -. t0 in
      tally stmt r.Serve.rows;
      add layers "serve.wait" r.Serve.wait_seconds;
      add layers "serve.handoff"
        (Float.max 0.0
           (lat -. r.Serve.opt_seconds -. r.Serve.wait_seconds -. r.Serve.exec_seconds));
      { empty with rows = r.Serve.rows }
  | _ -> run_stmt inst ~pass stmt

let run_traced w ~seed ~seconds =
  let started = now () in
  let _, st =
    setups w ~seed ~count:1 ~on_warm:(fun f ->
        Obs.install sink;
        Fun.protect ~finally:Obs.uninstall f)
  in
  harvest ~into_layers:false;
  let memo = Hashtbl.create 256 in
  let checked = check_pass st.inst st.pass ~warm_plans:st.warm_plans ~memo in
  Gc.full_major ();
  (* phase A: the decomposed, traced path *)
  let n = Array.length st.pass in
  let cache_stats () =
    match st.inst with Served s -> Some (Plan_cache.stats (Serve.cache s.srv)) | Big _ -> None
  in
  let c0 = cache_stats () and g0 = Gc.quick_stat () in
  let c1 = ref c0 and g1 = ref g0 and first_counters = ref [] in
  let first = Array.make n None in
  recorder := Trace.create ~clock:now ();
  Trace.declare_track !recorder ~tid:coordinator_tid "coordinator";
  Trace.declare_track !recorder ~tid:optimizer_tid "optimizer";
  let trace_out = !recorder in
  Obs.install sink;
  let a =
    timed_loop ~seconds:(seconds *. 0.6) ~first_pass:2 st.pass (decomposed st.inst)
      ~on_first:(fun i o ->
        first.(i) <- o;
        if i = n - 1 then begin
          c1 := cache_stats ();
          g1 := Gc.quick_stat ();
          first_counters := Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters [];
          recorder := Trace.null
        end)
  in
  Obs.uninstall ();
  Array.iteri (compare_with_check checked st.pass) first;
  let a_layers = Hashtbl.copy layers in
  Hashtbl.reset layers;
  (* phase B: the untraced path, for the tracing overhead and the server's
     wait and hand-off times *)
  let b =
    timed_loop ~seconds:(seconds *. 0.4) ~first_pass:(2 + 10_000) st.pass
      (served_timed st.inst) ~on_first:(fun _ _ -> ())
  in
  let b_layers = Hashtbl.copy layers in
  check_row_counts st;
  close st.inst;
  (* ---- report ---- *)
  let fa = a.busy_s /. a.raw_busy_s and fb = b.busy_s /. b.raw_busy_s in
  (* host-scaled ms per traced statement *)
  let la name = (get a_layers name).secs *. fa *. 1000.0 /. float_of_int a.stmts in
  let lb name = (get b_layers name).secs *. fb *. 1000.0 /. float_of_int b.stmts in
  let share names =
    100.0 *. List.fold_left (fun acc nm -> acc +. la nm) 0.0 names /. la "stmt"
  in
  (* host-scaled ms per call, warm-up pass included *)
  let per_call name per =
    (get calls name).secs *. fa *. 1000.0 /. float_of_int (max 1 (get calls per).n)
  in
  (* counts over the warm-up pass plus the first traced pass: both are
     fixed by the seed, so these repeat exactly *)
  let fc name = Option.value ~default:0 (List.assoc_opt name !first_counters) in
  let per_opt name = float_of_int (fc name) /. float_of_int (max 1 (fc "optimizer.queries")) in
  let sum f = Array.fold_left (fun acc o -> match o with Some o -> acc + f o | None -> acc) 0 first in
  let msum f = sum (fun o -> match o.metrics with Some m -> f m | None -> 0) in
  let hits, lookups, evictions =
    match (c0, !c1) with
    | Some x, Some y ->
        ( y.Plan_cache.hits - x.Plan_cache.hits,
          y.Plan_cache.hits + y.Plan_cache.misses - x.Plan_cache.hits - x.Plan_cache.misses,
          y.Plan_cache.evictions - x.Plan_cache.evictions )
    | _ -> (0, 0, 0)
  in
  let gc f = (f !g1 -. f g0) /. float_of_int n in
  let gci f = gc (fun s -> float_of_int (f s)) *. 1000.0 in
  let a_ms = a.busy_s *. 1000.0 /. float_of_int a.stmts
  and b_ms = b.busy_s *. 1000.0 /. float_of_int b.stmts in
  let deletes = (get a_layers "storage.delete").n in
  Printf.printf
    "traced workload %s seed %d: %d statements per pass; traced path %d statements \
     (%d passes), untraced path %d; %.1f s wall\n"
    w.name seed n a.stmts a.passes b.stmts (now () -. started);
  Printf.printf "  per statement (host-scaled ms; serve.* from the untraced path):\n";
  List.iter
    (fun (k, v) -> Printf.printf "    %-24s %12.6f\n" k v)
    [ ("sql.parse_bind_ms", la "sql"); ("serve.normalize_ms", la "normalize");
      ("cache.probe_ms", la "cache.probe"); ("cache.insert_verify_ms", la "cache.insert");
      ("serve.wait_ms", lb "serve.wait"); ("serve.handoff_ms", lb "serve.handoff");
      ("opt.total_ms", la "obs.optimize"); ("opt.physical_ms", la "obs.optimize.physical");
      ("opt.join_reorder_ms", la "obs.optimize.join_reorder");
      ("opt.placement_ms", la "obs.optimize.placement");
      ("opt.runtime_filters_ms", la "obs.optimize.runtime_filters");
      ("opt.simplify_ms", la "obs.optimize.simplify"); ("verify_ms", la "obs.verify");
      ("exec.total_ms", la "exec"); ("exec.scan_ms", la "exec.scan");
      ("exec.join_ms", la "exec.join"); ("exec.agg_ms", la "exec.agg");
      ("exec.motion_ms", la "exec.motion"); ("exec.append_ms", la "exec.append");
      ("exec.sort_ms", la "exec.sort"); ("exec.other_ms", la "exec.other");
      ("select.selector_ms", la "select.selector");
      ("storage.insert_ms", la "storage.insert"); ("storage.delete_ms", la "storage.delete") ];
  Printf.printf
    "  per call: cache.probe_us %.3f; storage.insert_us_per_row %.3f; storage.delete_ms \
     %.4f per DELETE (%d)\n"
    ((get a_layers "cache.probe").secs *. fa *. 1e6
     /. float_of_int (max 1 (get a_layers "cache.probe").n))
    ((get a_layers "storage.insert").secs *. fa *. 1e6
     /. float_of_int (max 1 (Gen.rows_per_insert * (get a_layers "storage.insert").n)))
    ((get a_layers "storage.delete").secs *. fa *. 1000.0 /. float_of_int (max 1 deletes))
    deletes;
  Printf.printf
    "  statement time: traced %.4f ms, untraced %.4f ms; tracing overhead %+.1f%%\n" a_ms
    b_ms (100.0 *. (a_ms -. b_ms) /. b_ms);
  Printf.printf
    "  memo.groups %d, memo.group_exprs %d: the production optimizer path does not use \
     the memo\n"
    (fc "memo.groups") (fc "memo.group_exprs");
  (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf "perfbench/out/trace-%s-s%d.json" w.name seed in
  Trace.write_file trace_out path;
  Printf.printf "  spans of the first traced pass: %s (%d events)\n" path
    (Trace.event_count trace_out);
  print_result
    [ m "opt.total_ms" "ms" (per_call "optimize" "optimize");
      m "opt.physical_ms" "ms" (per_call "optimize.physical" "optimize");
      m "opt.join_reorder_ms" "ms" (per_call "optimize.join_reorder" "optimize");
      m "opt.placement_ms" "ms" (per_call "optimize.placement" "optimize");
      m "opt.runtime_filters_ms" "ms" (per_call "optimize.runtime_filters" "optimize");
      m "opt.simplify_ms" "ms" (per_call "optimize.simplify" "optimize");
      m "verify_ms" "ms" (per_call "verify" "verify");
      m "stats.build_s" "s" st.stats_s;
      m "host.probe_ms" "ms" (median (Fvec.to_array probes));
      m "sql.share_pct" "%" (share [ "sql" ]);
      m "normalize.share_pct" "%" (share [ "normalize" ]);
      m "cache.share_pct" "%" (share [ "cache.probe"; "cache.insert" ]);
      m "opt.share_pct" "%" (share [ "optimize" ]);
      m "exec.share_pct" "%" (share [ "exec" ]);
      m "exec.scan_share_pct" "%" (share [ "exec.scan" ]);
      m "exec.join_share_pct" "%" (share [ "exec.join" ]);
      m "exec.agg_share_pct" "%" (share [ "exec.agg" ]);
      m "exec.motion_share_pct" "%" (share [ "exec.motion" ]);
      m "select.share_pct" "%" (share [ "select.selector" ]);
      m "storage.share_pct" "%" (share [ "storage.insert"; "storage.delete" ]);
      m "joinorder.states" "count" (per_opt "joinorder.states");
      m "optimizer.plans_costed" "count" (per_opt "optimizer.plans_costed");
      m "cache.hit_rate" "fraction" (per_stmt hits lookups);
      m "cache.evictions" "count" (float_of_int evictions);
      m "exec.rows_scanned_per_stmt" "count" (per_stmt (msum (fun m -> m.Metrics.tuples_scanned)) n);
      m "exec.rows_filtered_per_stmt" "count"
        (per_stmt
           (msum (fun m -> m.Metrics.rows_filtered_scan + m.Metrics.rows_filtered_motion))
           n);
      m "select.parts_ratio" "fraction"
        (per_stmt (sum (fun o -> o.parts)) (max 1 (fc "parts.total")));
      m "gc.alloc_words_per_stmt" "words" (gc (fun s -> s.Gc.minor_words));
      m "gc.promoted_words_per_stmt" "words" (gc (fun s -> s.Gc.promoted_words));
      m "gc.minor_per_kstmt" "1/kstmt" (gci (fun s -> s.Gc.minor_collections));
      m "gc.major_per_kstmt" "1/kstmt" (gci (fun s -> s.Gc.major_collections)) ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  | Some w ->
      if !trace = 0 then run_end_to_end w ~seed:!seed ~seconds:!seconds
      else run_traced w ~seed:!seed ~seconds:!seconds
