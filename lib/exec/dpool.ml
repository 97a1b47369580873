(** A small reusable OCaml 5 domain pool for segment-parallel execution.

    The executor's per-operator work is "for each segment, compute that
    segment's output" — an embarrassingly parallel loop over a handful of
    independent tasks (the MPP shared-nothing argument: segments share no
    mutable state once {!Channel} and {!Metrics} are sharded per segment).
    A pool of [size - 1] worker domains picks tasks off an atomic counter;
    the submitting domain participates too, so [create 4] uses exactly four
    domains including the caller.

    Jobs are submitted one at a time (the executor's plan walk is serial;
    only the per-segment loops fan out), so the pool needs no task queue —
    just a current-job slot guarded by a mutex, a generation counter so
    workers never re-run an exhausted job, and a completion count the
    submitter waits on.  Exceptions raised by tasks are captured and
    re-raised in the submitting domain after the job drains.

    Profiler accounting: every pool carries per-domain counters — tasks
    run, busy time inside task bodies, wait (idle) time parked on the work
    condition — plus job-level counters (jobs submitted, largest task
    fan-out).  Task-body timing is gated behind {!set_accounting} (off by
    default) so the disabled profiler adds only a branch; the cheap integer
    counters are always on.  Every timing goes through the pool's clock,
    which returns integer nanoseconds, so reading it and accumulating into
    the counters allocates nothing; tests inject a clock that counts its
    reads.  Each worker knows its {e index} (submitter = 0, spawned workers
    1..size-1), exposed through {!worker_index} so profiling code running
    inside a task can attribute work to the executing domain. *)

type job = {
  f : int -> unit;
  n : int;  (** tasks are [f 0 .. f (n - 1)] *)
  next : int Atomic.t;  (** next task index to claim *)
  completed : int Atomic.t;
  mutable error : (exn * Printexc.raw_backtrace) option;
}

(* Per-domain accounting slots: worker [i] is the only writer of slot [i]
   (the shard-per-toucher discipline used everywhere else), so the slots
   need no locks.  Reads happen between jobs. *)
type domain_counters = {
  mutable d_tasks : int;  (** tasks this domain ran *)
  mutable d_busy_ns : int;  (** nanoseconds inside task bodies (gated) *)
  mutable d_wait_ns : int;  (** nanoseconds parked waiting for work *)
}

type t = {
  size : int;  (** total domains participating, caller included *)
  mutex : Mutex.t;
  work_cv : Condition.t;  (** workers wait here for a new generation *)
  done_cv : Condition.t;  (** the submitter waits here for completion *)
  mutable generation : int;
  mutable job : job option;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  mutable accounting : bool;  (** time task bodies into [counters] *)
  clock : unit -> int;  (** nanoseconds; every timing reads it *)
  counters : domain_counters array;  (** slot per worker index *)
  mutable jobs_submitted : int;
  mutable max_tasks : int;  (** largest single-job fan-out seen *)
}

let size t = t.size

(* The executing worker's index within its pool: 0 for the submitting
   domain (and for any domain that never joined a pool), 1..size-1 for
   spawned workers.  Domain-local so closures running inside a task can
   ask "which domain am I on?" — the profiler's track id. *)
let ix_key : int Domain.DLS.key = Domain.DLS.new_key (fun () -> 0)
let worker_index () = Domain.DLS.get ix_key

let set_accounting t on = t.accounting <- on
let accounting t = t.accounting

type domain_stats = { tasks : int; busy_s : float; wait_s : float }

let seconds ns = float_of_int ns *. 1e-9

let stats t =
  Array.map
    (fun c ->
      { tasks = c.d_tasks; busy_s = seconds c.d_busy_ns;
        wait_s = seconds c.d_wait_ns })
    t.counters

let jobs_submitted t = t.jobs_submitted
let max_tasks t = t.max_tasks

let reset_stats t =
  Array.iter
    (fun c ->
      c.d_tasks <- 0;
      c.d_busy_ns <- 0;
      c.d_wait_ns <- 0)
    t.counters;
  t.jobs_submitted <- 0;
  t.max_tasks <- 0

(* Claim and run tasks until the job is exhausted; returns having
   contributed [completed] increments for every task it ran.  [ix] is the
   calling worker's index — its accounting slot. *)
let drain t ~ix (job : job) =
  let c = t.counters.(ix) in
  let rec loop () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.n then begin
      let t0 = if t.accounting then t.clock () else 0 in
      (try job.f i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.mutex;
         if job.error = None then job.error <- Some (e, bt);
         Mutex.unlock t.mutex);
      if t.accounting then c.d_busy_ns <- c.d_busy_ns + (t.clock () - t0);
      c.d_tasks <- c.d_tasks + 1;
      let done_ = 1 + Atomic.fetch_and_add job.completed 1 in
      if done_ = job.n then begin
        (* last task finished (maybe on a worker): wake the submitter *)
        Mutex.lock t.mutex;
        Condition.broadcast t.done_cv;
        Mutex.unlock t.mutex
      end;
      loop ()
    end
  in
  loop ()

let worker t ix () =
  Domain.DLS.set ix_key ix;
  let c = t.counters.(ix) in
  let last_gen = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    let w0 = t.clock () in
    while (not t.stop) && t.generation = !last_gen do
      Condition.wait t.work_cv t.mutex
    done;
    c.d_wait_ns <- c.d_wait_ns + (t.clock () - w0);
    if t.stop then Mutex.unlock t.mutex
    else begin
      last_gen := t.generation;
      let job = t.job in
      Mutex.unlock t.mutex;
      (match job with Some j -> drain t ~ix j | None -> ());
      loop ()
    end
  in
  loop ()

let wall_clock () = int_of_float (Unix.gettimeofday () *. 1e9)

let create ?(clock = wall_clock) size =
  let size = max 1 size in
  let t =
    {
      size;
      mutex = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      generation = 0;
      job = None;
      stop = false;
      domains = [];
      accounting = false;
      clock;
      counters =
        Array.init size (fun _ -> { d_tasks = 0; d_busy_ns = 0; d_wait_ns = 0 });
      jobs_submitted = 0;
      max_tasks = 0;
    }
  in
  t.domains <- List.init (size - 1) (fun i -> Domain.spawn (worker t (i + 1)));
  t

(** Run [f 0 .. f (n - 1)] across the pool's domains; returns when all have
    finished.  With a pool of size 1 (or a single task) this is a plain
    serial loop — no synchronization on the serial path. *)
let parallel_for t n f =
  if n <= 0 then ()
  else begin
    t.jobs_submitted <- t.jobs_submitted + 1;
    if n > t.max_tasks then t.max_tasks <- n;
    if t.size = 1 || n = 1 then begin
      let c = t.counters.(0) in
      if t.accounting then begin
        let t0 = t.clock () in
        for i = 0 to n - 1 do
          f i
        done;
        c.d_busy_ns <- c.d_busy_ns + (t.clock () - t0)
      end
      else
        for i = 0 to n - 1 do
          f i
        done;
      c.d_tasks <- c.d_tasks + n
    end
    else begin
      let job =
        { f; n; next = Atomic.make 0; completed = Atomic.make 0; error = None }
      in
      Mutex.lock t.mutex;
      t.job <- Some job;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work_cv;
      Mutex.unlock t.mutex;
      (* the submitter pulls tasks like any worker *)
      drain t ~ix:0 job;
      Mutex.lock t.mutex;
      let w0 = t.clock () in
      while Atomic.get job.completed < n do
        Condition.wait t.done_cv t.mutex
      done;
      t.counters.(0).d_wait_ns <- t.counters.(0).d_wait_ns + (t.clock () - w0);
      t.job <- None;
      Mutex.unlock t.mutex;
      match job.error with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

(** [map_init t n f] is [Array.init n f] with the [f i] computed across the
    pool.  [f] must be pure per index (indices are computed exactly once). *)
let map_init t n f =
  if n <= 0 then [||]
  else begin
    let results = Array.make n None in
    parallel_for t n (fun i -> results.(i) <- Some (f i));
    Array.map (function Some x -> x | None -> assert false) results
  end

(** Stop the worker domains and join them.  The pool must not be used
    afterwards. *)
let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

(* ------------------------------------------------------------------ *)
(* Process-wide pools                                                  *)
(* ------------------------------------------------------------------ *)

(** Default parallelism: the [MPP_DOMAINS] environment variable; 1 (serial)
    when unset or invalid.  Deliberately not clamped to the core count —
    oversubscribing is how the determinism suite exercises the parallel
    paths on small machines. *)
let default_domains () =
  match Sys.getenv_opt "MPP_DOMAINS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1)

(* One cached pool per requested size, created on first use and kept for the
   process lifetime — executors come and go per query; domains should not. *)
let pools : (int, t) Hashtbl.t = Hashtbl.create 4
let pools_mutex = Mutex.create ()

let serial = create 1

(** A process-wide pool of [domains] total domains, created on first use and
    cached (so per-query executors never pay domain spawns). *)
let get ~domains =
  let domains = max 1 domains in
  if domains = 1 then serial
  else begin
    Mutex.lock pools_mutex;
    let pool =
      match Hashtbl.find_opt pools domains with
      | Some p -> p
      | None ->
          let p = create domains in
          Hashtbl.replace pools domains p;
          p
    in
    Mutex.unlock pools_mutex;
    pool
  end

(* ------------------------------------------------------------------ *)
(* JSON export                                                         *)
(* ------------------------------------------------------------------ *)

let stats_to_json t =
  let open Mpp_obs.Json in
  Obj
    [
      ("size", Int t.size);
      ("jobs_submitted", Int t.jobs_submitted);
      ("max_tasks", Int t.max_tasks);
      ( "domains",
        List
          (Array.to_list
             (Array.mapi
                (fun i c ->
                  Obj
                    [
                      ("index", Int i);
                      ("tasks", Int c.d_tasks);
                      ("busy_ms", Float (seconds c.d_busy_ns *. 1000.0));
                      ("wait_ms", Float (seconds c.d_wait_ns *. 1000.0));
                    ])
                t.counters)) );
    ]
