(** A small reusable OCaml 5 domain pool for segment-parallel execution.

    [create n] spawns [n - 1] worker domains; the submitting domain
    participates in every job, so a pool of size [n] runs tasks on exactly
    [n] domains.  Jobs are submitted one at a time ({!parallel_for} blocks
    until the job drains), which matches the executor's serial plan walk
    with parallel per-segment loops.  Size-1 pools run serially with no
    synchronization. *)

type t

val create : ?clock:(unit -> int) -> int -> t
(** [create n] — a pool of [n] total domains (clamped to at least 1).
    [clock] (default {!wall_clock}) is read for every timing the pool
    takes, on whichever of its domains takes it; tests inject one that
    counts its reads. *)

val wall_clock : unit -> int
(** Wall-clock time in integer nanoseconds; allocation-free. *)

val size : t -> int
(** Total domains participating, caller included. *)

val worker_index : unit -> int
(** The calling domain's index within its pool: 0 for the submitting
    domain (and outside any pool), 1..size-1 for spawned workers.
    Domain-local — profiling code inside a task uses it to attribute work
    to the executing domain. *)

val parallel_for : t -> int -> (int -> unit) -> unit
(** [parallel_for t n f] runs [f 0 .. f (n - 1)] across the pool and waits
    for completion.  An exception raised by any task is re-raised in the
    caller after the job drains. *)

val map_init : t -> int -> (int -> 'a) -> 'a array
(** [Array.init] with the elements computed across the pool. *)

val shutdown : t -> unit
(** Join the worker domains; the pool must not be used afterwards. *)

val default_domains : unit -> int
(** The [MPP_DOMAINS] environment variable; 1 (serial) when unset/invalid. *)

val get : domains:int -> t
(** A process-wide pool of [domains] total domains, created on first use and
    cached for the process lifetime. *)

(** {1 Profiler accounting}

    Per-domain counters (tasks run, busy seconds, wait seconds) plus
    job-level counters.  Integer counters are always on; task-body timing
    is gated behind {!set_accounting}, off by default, so the disabled
    profiler costs one branch per task and reads no clock.  With
    accounting on, a job run on the submitting domain alone (a one-domain
    pool, or a one-task job) reads the clock twice, and a job spread over
    several domains twice per task; neither allocates.  Each worker is the
    only writer of its own slot — reads are exact between jobs. *)

val set_accounting : t -> bool -> unit
(** Enable / disable busy-time measurement of task bodies. *)

val accounting : t -> bool

type domain_stats = {
  tasks : int;  (** tasks this domain ran *)
  busy_s : float;  (** seconds inside task bodies (0 unless accounting) *)
  wait_s : float;  (** seconds parked waiting for work *)
}

val stats : t -> domain_stats array
(** One entry per worker index (0 = submitter). *)

val jobs_submitted : t -> int
(** Jobs ({!parallel_for} calls with [n > 0]) since the last reset. *)

val max_tasks : t -> int
(** Largest single-job fan-out (queue depth at submission) seen. *)

val reset_stats : t -> unit
(** Zero all accounting counters (call between profiled runs — pools are
    process-wide and cached). *)

val stats_to_json : t -> Mpp_obs.Json.t
(** [{"size", "jobs_submitted", "max_tasks", "domains": [{"index",
    "tasks", "busy_ms", "wait_ms"}]}]. *)
