(** Workload execution harness: optimize each evaluation query with Orca
    (with or without partition selection) or the legacy Planner, run it on
    the simulated cluster, and collect the per-fact-table partition counts
    and wall times the figures are built from. *)

module Plan = Mpp_plan.Plan

type env = {
  catalog : Mpp_catalog.Catalog.t;
  storage : Mpp_storage.Storage.t;
  stats : Mpp_stats.Stats_source.t;
  schema : Tpcds.schema;
}

val setup_env : ?scale:int -> ?nsegments:int -> unit -> env

type optimizer_kind = Orca | Orca_no_selection | Legacy_planner

val optimizer_kind_to_string : optimizer_kind -> string

type run_result = {
  query : Queries.query;
  kind : optimizer_kind;
  plan : Plan.t;
  rows : Mpp_expr.Value.t array list;
  parts_scanned : (string * int) list;
      (** per partitioned fact table the query references *)
  parts_total : (string * int) list;
  wall_seconds : float;
  plan_bytes : int;
}

val optimize_logical :
  ?stats:Mpp_stats.Stats_source.t ->
  ?simplify:bool ->
  catalog:Mpp_catalog.Catalog.t ->
  nsegments:int ->
  optimizer_kind ->
  Orca.Logical.t ->
  Plan.t
(** Plan a bound query with [kind] through {!Mpp_serve.Serve.plan}:
    [Orca_no_selection] is Orca with partition selection off. *)

val with_misestimates : env -> Queries.query -> (unit -> 'a) -> 'a
(** Run [f] with [qu]'s injected misestimates on [env]'s stats (only the
    cost-based optimizer reads them), cleared again however [f] ends. *)

val optimize_with :
  ?simplify:bool -> env -> optimizer_kind -> Queries.query -> Plan.t
(** Optimize only, on [env]'s cluster, with the query's misestimates
    injected. *)

val run : env -> optimizer_kind -> Queries.query -> run_result

val total_parts_scanned : run_result -> int
val total_parts : run_result -> int
