(** The serving layer: a coordinator front end multiplexing N sessions'
    prepared statements over the plan cache and a pool of executor worker
    domains, behind an admission controller.

    Division of labor (the Citus-style coordinator model):
    - {e prepare} and {e plan resolution} run on the coordinator thread:
      cache probe, and on a miss optimize (which verifies) → insert.  The
      cache and both optimizers are therefore never touched concurrently.
    - {e execution} runs on worker domains.  Each worker owns a private
      {!Mpp_exec.Dpool} — a pool has a single job slot, so two domains
      must never submit to the same pool (see {!Mpp_exec.Exec.create_ctx}'s
      [?pool]).
    - the {e admission controller} bounds in-flight queries ([capacity]),
      schedules per-session round-robin / FIFO, and
      enforces a global estimated-memory budget derived from the plans'
      [est_rows]: a query is only co-admitted while the in-flight memory
      estimate stays under budget; an over-budget query is admitted only
      when nothing else is in flight (it must not starve forever). *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Est = Mpp_plan.Est
module Catalog = Mpp_catalog.Catalog
module Storage = Mpp_storage.Storage
module Exec = Mpp_exec.Exec
module Dpool = Mpp_exec.Dpool
module Metrics = Mpp_exec.Metrics
module Json = Mpp_obs.Json

type optimizer = Orca | Planner

let optimizer_to_string = function Orca -> "orca" | Planner -> "planner"

type config = {
  optimizer : optimizer;
  workers : int;  (** executor worker domains *)
  capacity : int;  (** max queries in flight *)
  mem_budget_bytes : float;  (** global estimated-memory budget *)
  exec_domains : int;  (** Dpool size of each worker's private pool *)
}

let default_config =
  {
    optimizer = Orca;
    workers = 2;
    capacity = 4;
    mem_budget_bytes = 256. *. 1024. *. 1024.;
    exec_domains = 1;
  }

(* ------------------------------------------------------------------ *)
(* Memory estimates                                                    *)

let bytes_per_row = 16.0
let default_node_mem = 64. *. 1024.

(** Estimated working set: one charge per pipeline breaker (hash-join
    build side, sort/aggregate input, runtime-filter build), [est_rows] ×
    a nominal row width.  Unknown estimates (the legacy Planner stamps
    none) charge a fixed default so admission accounting still has
    something to enforce. *)
let mem_estimate plan est =
  let total = ref 0.0 in
  let charge idx =
    match Est.find est idx with
    | Some r when r > 0.0 -> total := !total +. (r *. bytes_per_row)
    | _ -> total := !total +. default_node_mem
  in
  let rec go idx node =
    (match node with
    | Plan.Hash_join _ -> charge (idx + 1)  (* build side, pre-order idx+1 *)
    | Plan.Sort _ | Plan.Agg _ -> charge (idx + 1)
    | Plan.Runtime_filter_build { rows_est; _ } ->
        total := !total +. (float_of_int (max rows_est 0) *. 1.25)
    | _ -> ());
    List.fold_left go (idx + 1) (Plan.children node)
  in
  ignore (go 0 plan);
  max !total default_node_mem

(* ------------------------------------------------------------------ *)
(* Types                                                               *)

type prepared = {
  p_name : string;
  p_sql : string;
  p_norm : Normalize.t;
}

type result = {
  rows : Value.t array list;
  metrics : Metrics.t;
  cache_hit : bool;
  opt_seconds : float;  (** plan resolution: ~0 on a cache hit *)
  exec_seconds : float;
  wait_seconds : float;  (** queued behind admission *)
  mem_est_bytes : float;
}

type state =
  | Queued
  | Running
  | Done of result
  | Failed of exn

type ticket = {
  tk_session : int;
  tk_plan : Plan.t;
  tk_params : Value.t array;
  tk_mem : float;
  tk_cache_hit : bool;
  tk_opt_seconds : float;
  tk_submitted : float;
  mutable tk_state : state;
}

type t = {
  cfg : config;
  catalog : Catalog.t;
  storage : Storage.t;
  stats : Mpp_stats.Stats_source.t option;
  cache : Plan_cache.t;
  lock : Mutex.t;
  work_cv : Condition.t;
  done_cv : Condition.t;
  mutable queued : ticket list;  (** submission order *)
  mutable rr_last : int;  (** last session served *)
  mutable in_flight : int;
  mutable mem_in_flight : float;
  mutable shutdown : bool;
  mutable workers : unit Domain.t list;
  mutable pools : Dpool.t list;  (** the workers' private pools *)
  (* accounting, for the admission tests and [--stats-json] *)
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable oversize_admissions : int;
  mutable peak_in_flight : int;
  mutable peak_mem_bytes : float;
  mutable peak_queued : int;
}

(* ------------------------------------------------------------------ *)
(* Admission policy                                                    *)

let fits t tk =
  t.mem_in_flight +. tk.tk_mem <= t.cfg.mem_budget_bytes

(** The next ticket to admit, under the lock: sessions in round-robin
    order starting after the last session served; within a session, FIFO
    (the queue is in submission order).  The first candidate in that order
    whose memory estimate fits is taken; when nothing is in flight the head
    candidate is admitted even over budget. *)
let select_next t =
  if t.in_flight >= t.cfg.capacity then None
  else begin
    let sessions =
      List.sort_uniq Int.compare (List.map (fun tk -> tk.tk_session) t.queued)
    in
    let after, upto = List.partition (fun s -> s > t.rr_last) sessions in
    let candidates =
      List.filter_map
        (fun s -> List.find_opt (fun tk -> tk.tk_session = s) t.queued)
        (after @ upto)
    in
    match List.find_opt (fits t) candidates with
    | Some tk -> Some tk
    | None -> (
        match candidates with
        | tk :: _ when t.in_flight = 0 ->
            t.oversize_admissions <- t.oversize_admissions + 1;
            Some tk
        | _ -> None)
  end

let admit t tk =
  t.queued <- List.filter (fun x -> x != tk) t.queued;
  t.rr_last <- tk.tk_session;
  t.in_flight <- t.in_flight + 1;
  t.mem_in_flight <- t.mem_in_flight +. tk.tk_mem;
  if t.in_flight > t.peak_in_flight then t.peak_in_flight <- t.in_flight;
  if t.mem_in_flight > t.peak_mem_bytes then
    t.peak_mem_bytes <- t.mem_in_flight;
  tk.tk_state <- Running

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)

let worker_loop t =
  let pool = Dpool.create t.cfg.exec_domains in
  Mutex.lock t.lock;
  t.pools <- pool :: t.pools;
  Mutex.unlock t.lock;
  let rec loop () =
    Mutex.lock t.lock;
    let rec next () =
      if t.shutdown then None
      else
        match select_next t with
        | Some tk ->
            admit t tk;
            Some tk
        | None ->
            Condition.wait t.work_cv t.lock;
            next ()
    in
    let tk = next () in
    Mutex.unlock t.lock;
    match tk with
    | None -> Dpool.shutdown pool
    | Some tk ->
        let started = Unix.gettimeofday () in
        let outcome =
          try
            let rows, metrics =
              Exec.run ~params:tk.tk_params ~verify:false ~pool
                ~catalog:t.catalog ~storage:t.storage tk.tk_plan
            in
            Done
              {
                rows;
                metrics;
                cache_hit = tk.tk_cache_hit;
                opt_seconds = tk.tk_opt_seconds;
                exec_seconds = Unix.gettimeofday () -. started;
                wait_seconds = started -. tk.tk_submitted;
                mem_est_bytes = tk.tk_mem;
              }
          with e -> Failed e
        in
        Mutex.lock t.lock;
        t.in_flight <- t.in_flight - 1;
        t.mem_in_flight <- t.mem_in_flight -. tk.tk_mem;
        tk.tk_state <- outcome;
        (match outcome with
        | Failed _ -> t.failed <- t.failed + 1
        | _ -> t.completed <- t.completed + 1);
        Condition.broadcast t.done_cv;
        Condition.broadcast t.work_cv;
        Mutex.unlock t.lock;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Server lifecycle                                                    *)

let create ?(config = default_config) ?stats ~catalog ~storage () =
  if config.workers < 1 then invalid_arg "Serve.create: workers < 1";
  if config.capacity < 1 then invalid_arg "Serve.create: capacity < 1";
  let t =
    {
      cfg = config;
      catalog;
      storage;
      stats;
      cache = Plan_cache.create ();
      lock = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      queued = [];
      rr_last = -1;
      in_flight = 0;
      mem_in_flight = 0.0;
      shutdown = false;
      workers = [];
      pools = [];
      submitted = 0;
      completed = 0;
      failed = 0;
      oversize_admissions = 0;
      peak_in_flight = 0;
      peak_mem_bytes = 0.0;
      peak_queued = 0;
    }
  in
  t.workers <-
    List.init config.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let close t =
  Mutex.lock t.lock;
  t.shutdown <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let cache t = t.cache

(** Total parallel jobs submitted across the workers' private pools —
    the Dpool-accounting hook the admission tests compare against a
    serial baseline. *)
let worker_jobs_submitted t =
  Mutex.lock t.lock;
  let pools = t.pools in
  Mutex.unlock t.lock;
  List.fold_left (fun acc p -> acc + Dpool.jobs_submitted p) 0 pools

(* ------------------------------------------------------------------ *)
(* Prepare and plan resolution                                         *)

let prepare t ?(name = "") sql =
  let lg = Mpp_sql.Sql.to_logical t.catalog sql in
  { p_name = name; p_sql = sql; p_norm = Normalize.of_logical ~catalog:t.catalog lg }

(** The one way to plan a statement.  Picks Orca or the legacy Planner,
    gives it the production settings — the cluster's segment count for
    Orca's cost model, partition selection on unless the Figure-17
    ablation turns it off, the simplification pass on unless a linter
    wants the plan as written — and stamps Orca's per-node plan-time row
    estimates against the same stats the costing saw.  The Planner has no
    cardinality model and no selection switch: its estimates are
    {!Est.none}. *)
let plan ?stats ?(selection = true) ?(simplify = true) ~catalog ~nsegments
    kind lg : Plan.t * Est.t =
  match kind with
  | Planner ->
      let pl = Mpp_planner.Planner.create ~simplify ~catalog () in
      (Mpp_planner.Planner.plan pl lg, Est.none)
  | Orca ->
      let config =
        { Orca.Optimizer.default_config with
          enable_partition_selection = selection;
          simplify;
          nsegments }
      in
      let opt = Orca.Optimizer.create ~config ?stats ~catalog () in
      let plan = Orca.Optimizer.optimize opt lg in
      (plan, Est.of_plan ~estimate:(Orca.Optimizer.row_estimator opt lg) plan)

let optimize t lg =
  plan ?stats:t.stats ~catalog:t.catalog
    ~nsegments:(Storage.nsegments t.storage) t.cfg.optimizer lg

(** Coordinator-side plan resolution: cache probe, else optimize (the
    optimizer verifies its plan) + insert.  Returns (plan, est, hit,
    seconds). *)
let resolve t prepared params =
  let key =
    Plan_cache.key
      ~fingerprint:prepared.p_norm.Normalize.fingerprint
      ~kind:(optimizer_to_string t.cfg.optimizer)
      ~shape:(Normalize.shape_key prepared.p_norm params)
  in
  let t0 = Unix.gettimeofday () in
  match Plan_cache.find t.cache ~catalog:t.catalog key with
  | Some (plan, est) -> (plan, est, true, Unix.gettimeofday () -. t0)
  | None ->
      let lg = Normalize.specialize prepared.p_norm params in
      let plan, est = optimize t lg in
      Plan_cache.insert t.cache ~catalog:t.catalog key plan est;
      (plan, est, false, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Submission                                                          *)

let submit t ~session prepared binds =
  let params = Normalize.params prepared.p_norm binds in
  let plan, est, hit, opt_seconds = resolve t prepared params in
  let mem = mem_estimate plan est in
  Mutex.lock t.lock;
  let tk =
    {
      tk_session = session;
      tk_plan = plan;
      tk_params = params;
      tk_mem = mem;
      tk_cache_hit = hit;
      tk_opt_seconds = opt_seconds;
      tk_submitted = Unix.gettimeofday ();
      tk_state = Queued;
    }
  in
  t.submitted <- t.submitted + 1;
  t.queued <- t.queued @ [ tk ];
  let q = List.length t.queued in
  if q > t.peak_queued then t.peak_queued <- q;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.lock;
  tk

let await t tk =
  Mutex.lock t.lock;
  let rec wait () =
    match tk.tk_state with
    | Done r ->
        Mutex.unlock t.lock;
        r
    | Failed e ->
        Mutex.unlock t.lock;
        raise e
    | Queued | Running ->
        Condition.wait t.done_cv t.lock;
        wait ()
  in
  wait ()

(** One-shot convenience: submit and wait. *)
let execute t ~session prepared binds =
  await t (submit t ~session prepared binds)

(* ------------------------------------------------------------------ *)
(* Closed-loop session driver                                          *)

(** Drive one closed loop per session: session [i] submits
    [sessions.(i)]'s statements in order, keeping exactly one of its own
    queries in flight at a time (the next is submitted as soon as the
    previous completes — concurrency comes from the sessions, capacity
    from the admission controller).  Returns per-session results in
    submission order. *)
let run_stream t sessions =
  let n = Array.length sessions in
  let results = Array.map (fun _ -> []) sessions in
  let pending = Array.map (fun l -> ref l) sessions in
  let current = Array.make n None in
  let submit_next i =
    match !(pending.(i)) with
    | [] -> ()
    | (prepared, binds) :: rest ->
        pending.(i) <- ref rest;
        current.(i) <-
          Some (submit t ~session:i prepared binds)
  in
  for i = 0 to n - 1 do
    submit_next i
  done;
  let live () = Array.exists (fun c -> c <> None) current in
  while live () do
    (* harvest every completed session slot, then refill *)
    let ready = ref [] in
    Mutex.lock t.lock;
    let rec wait () =
      Array.iteri
        (fun i c ->
          match c with
          | Some tk -> (
              match tk.tk_state with
              | Done _ | Failed _ -> ready := (i, tk) :: !ready
              | Queued | Running -> ())
          | None -> ())
        current;
      if !ready = [] then begin
        Condition.wait t.done_cv t.lock;
        wait ()
      end
    in
    wait ();
    Mutex.unlock t.lock;
    List.iter
      (fun (i, tk) ->
        (match tk.tk_state with
        | Done r -> results.(i) <- r :: results.(i)
        | Failed e -> raise e
        | Queued | Running -> assert false);
        current.(i) <- None;
        submit_next i)
      (List.sort (fun (a, _) (b, _) -> Int.compare a b) !ready)
  done;
  Array.map List.rev results

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

type admission_stats = {
  submitted : int;
  completed : int;
  failed : int;
  oversize_admissions : int;
  peak_in_flight : int;
  peak_mem_bytes : float;
  peak_queued : int;
  capacity : int;
  mem_budget_bytes : float;
}

let admission_stats (t : t) : admission_stats =
  Mutex.lock t.lock;
  let s =
    {
      submitted = t.submitted;
      completed = t.completed;
      failed = t.failed;
      oversize_admissions = t.oversize_admissions;
      peak_in_flight = t.peak_in_flight;
      peak_mem_bytes = t.peak_mem_bytes;
      peak_queued = t.peak_queued;
      capacity = t.cfg.capacity;
      mem_budget_bytes = t.cfg.mem_budget_bytes;
    }
  in
  Mutex.unlock t.lock;
  s

let admission_stats_to_json t =
  let s = admission_stats t in
  Json.Obj
    [
      ("submitted", Json.Int s.submitted);
      ("completed", Json.Int s.completed);
      ("failed", Json.Int s.failed);
      ("oversize_admissions", Json.Int s.oversize_admissions);
      ("peak_in_flight", Json.Int s.peak_in_flight);
      ("peak_mem_bytes", Json.Float s.peak_mem_bytes);
      ("peak_queued", Json.Int s.peak_queued);
      ("capacity", Json.Int s.capacity);
      ("mem_budget_bytes", Json.Float s.mem_budget_bytes);
    ]

let stats_to_json t =
  Json.Obj
    [
      ("cache", Plan_cache.stats_to_json t.cache);
      ("admission", admission_stats_to_json t);
    ]
