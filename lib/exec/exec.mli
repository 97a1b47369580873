(** The query executor: interprets a physical plan on the simulated MPP
    cluster.

    Execution is segment-synchronous between pipeline breakers: each
    breaker builds, per segment, the batch of rows it would emit there, and
    Motions re-shuffle the per-segment batches.  Side-effect ordering
    follows the paper: Sequence children and a join's left child run
    first, so a PartitionSelector always pushes its partitions into the
    per-segment {!Channel} before the DynamicScan consumes them.

    A set of partitions is one {!Mpp_catalog.Bitset} over the root's leaf
    positions from the selection index to {!Metrics}; scans visit it in
    ascending position, which is ascending OID.  A selector reads its
    table's index from the catalog's partitioning record, which is built
    with it and never written, so any domain may read it.

    Hot path (the paper's Figure 15 argument applied to the whole
    executor): expressions are compiled once per operator via
    {!Expr.compile} (column refs become fixed tuple offsets, parameters are
    bound at compile time).  Scans, Filter, Project, RuntimeFilter,
    Sequence, Append and join probes stream each row into the operator
    above; {!Mpp_storage.Vec.t} batches are built only at a join's build
    side, Motion, Sort, Limit, the DML source, Agg output and the result
    (an unfiltered single-heap scan aliases the live heap zero-copy).
    Each breaker's per-segment work fans out across a {!Dpool} domain pool
    ([MPP_DOMAINS] / [?domains]), with {!Channel} and {!Metrics} sharded
    per segment so parallel sections share no mutable state. *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Vec = Mpp_storage.Vec

type row = Value.t array

type ctx = {
  catalog : Mpp_catalog.Catalog.t;
  storage : Mpp_storage.Storage.t;
  channel : Channel.t;  (** sharded per segment *)
  metrics : Metrics.t array;
      (** one shard per segment; shard 0 additionally takes the
          coordinator-side counters (Motion volumes, DML row counts).
          {!metrics} merges the shards into the per-query total. *)
  params : Value.t array;
  selection_enabled : bool;
      (** [false]: selectors ignore their predicates and push every leaf —
          the "partition selection disabled" configuration of Figure 17 *)
  stats : Node_stats.t option;
      (** when set, per-plan-node actual rows / partitions / wall time are
          recorded for EXPLAIN ANALYZE; [None] skips all bookkeeping *)
  pool : Dpool.t;  (** executes the per-segment loops *)
  verify : bool;
      (** when set, each built runtime join filter's min-max summary is
          cross-checked against the static bounds of its build subtree
          ({!Mpp_analysis.Analysis.minmax_violations}), failing on a key
          outside them (default [false]).  The plan is not re-verified
          here: both optimizers end with [Verify.assert_valid]. *)
  runtime_filters : bool;
      (** [false]: [Runtime_filter_build] / [Runtime_filter] nodes become
          pass-throughs — no filter is built, published, or applied (the
          [--no-runtime-filters] configuration); plans are unchanged *)
  mutable rf_motion_claimed : int;
      (** pre-Motion drops already credited to
          [Metrics.motion_rows_saved]: each Motion claims the drops below
          it that no inner Motion claimed, so every drop is credited at
          exactly one Motion — its nearest enclosing send *)
  trace : Mpp_obs.Trace.t;
      (** profiler timeline: per-node events on the coordinator track,
          per-segment task events on the executing domain's track;
          {!Mpp_obs.Trace.null} when not profiling *)
  mutable cur_node : int;
      (** pre-order index of the node currently interpreted (-1 outside
          {!exec}); coordinating domain only *)
  mutable cur_label : string;
      (** current node's operator description, for trace events *)
}

val coordinator_tid : int
(** Trace track 0: the coordinating domain's per-node spans. *)

val optimizer_tid : int
(** Trace track 1: reserved for optimizer spans (front ends add them via
    {!Mpp_obs.Trace.add_obs_spans}). *)

val domain_tid : int -> int
(** Trace track of executor domain [i] (worker index [i] of the pool). *)

val create_ctx :
  ?params:Value.t array ->
  ?selection_enabled:bool ->
  ?verify:bool ->
  ?runtime_filters:bool ->
  ?stats:Node_stats.t ->
  ?trace:Mpp_obs.Trace.t ->
  ?domains:int ->
  ?pool:Dpool.t ->
  catalog:Mpp_catalog.Catalog.t ->
  storage:Mpp_storage.Storage.t ->
  unit ->
  ctx
(** [?domains] sizes the domain pool (default {!Dpool.default_domains},
    i.e. [MPP_DOMAINS] or 1).  [?pool] supplies the pool directly and
    overrides [?domains] — a {!Dpool} has one job slot, so concurrent
    executors (the serving layer's workers) must each bring their own
    pool rather than share the cached per-size ones.  When [stats] is
    given its segment count is set from [storage] before recording; when
    [trace] is enabled one track per pool domain (plus the coordinator
    track) is declared up front. *)

val metrics : ctx -> Metrics.t
(** The per-query total: all per-segment metric shards merged. *)

type result = {
  layout : (int * int) list;
      (** (range-table index, width) of the output tuples, left to right *)
  rows : row Vec.t array;  (** one row batch per segment *)
}

val exec : ctx -> Plan.t -> result
(** Evaluate a plan; side effects (channel pushes, DML writes, metrics)
    accumulate in the context.  Input batches are never mutated; unfiltered
    scans may alias live storage heaps, so treat result batches as
    read-only. *)

val run :
  ?params:Value.t array ->
  ?selection_enabled:bool ->
  ?verify:bool ->
  ?runtime_filters:bool ->
  ?stats:Node_stats.t ->
  ?trace:Mpp_obs.Trace.t ->
  ?domains:int ->
  ?pool:Dpool.t ->
  catalog:Mpp_catalog.Catalog.t ->
  storage:Mpp_storage.Storage.t ->
  Plan.t ->
  row list * Metrics.t
(** Execute with a fresh context and gather all segments' output rows. *)

val run_analyze :
  ?params:Value.t array ->
  ?selection_enabled:bool ->
  ?verify:bool ->
  ?runtime_filters:bool ->
  ?trace:Mpp_obs.Trace.t ->
  ?domains:int ->
  catalog:Mpp_catalog.Catalog.t ->
  storage:Mpp_storage.Storage.t ->
  Plan.t ->
  row list * Metrics.t * Node_stats.t
(** Like {!run}, also collecting the per-node statistics that
    {!Explain.analyze} renders. *)
