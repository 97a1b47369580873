(** Workload execution harness: optimize each query with Orca (with or
    without partition selection) or with the legacy Planner, run it on the
    simulated cluster, and collect the per-fact-table partition counts and
    wall-clock times the evaluation figures are built from. *)

module Plan = Mpp_plan.Plan
module Table = Mpp_catalog.Table

type env = {
  catalog : Mpp_catalog.Catalog.t;
  storage : Mpp_storage.Storage.t;
  stats : Mpp_stats.Stats_source.t;
  schema : Tpcds.schema;
}

let setup_env ?(scale = 1) ?(nsegments = 4) () : env =
  let catalog = Mpp_catalog.Catalog.create () in
  let storage = Mpp_storage.Storage.create ~nsegments in
  let schema = Tpcds.setup ~scale ~catalog ~storage () in
  let stats = Mpp_stats.Stats_source.create ~catalog ~storage in
  { catalog; storage; stats; schema }

type optimizer_kind = Orca | Orca_no_selection | Legacy_planner

let optimizer_kind_to_string = function
  | Orca -> "Orca"
  | Orca_no_selection -> "Orca (selection disabled)"
  | Legacy_planner -> "Planner"

type run_result = {
  query : Queries.query;
  kind : optimizer_kind;
  plan : Plan.t;
  rows : Mpp_expr.Value.t array list;
  parts_scanned : (string * int) list;
      (** per partitioned fact table actually referenced by the query *)
  parts_total : (string * int) list;
  wall_seconds : float;
  plan_bytes : int;
}

(* Fact tables referenced by this query's SQL. *)
let facts_in env (qu : Queries.query) =
  List.filter
    (fun (t : Table.t) ->
      (* cheap containment test on the raw SQL text *)
      let re = t.Table.name in
      let s = qu.Queries.sql in
      let ls = String.lowercase_ascii s in
      let rec find i =
        if i + String.length re > String.length ls then false
        else if String.sub ls i (String.length re) = re then true
        else find (i + 1)
      in
      find 0)
    (Tpcds.fact_tables env.schema)
  (* `store_sales` contains `store_sale`… exact-enough for our table names *)

let optimize_logical ?stats ?simplify ~catalog ~nsegments kind lg : Plan.t =
  let kind, selection =
    match kind with
    | Orca -> (Mpp_serve.Serve.Orca, true)
    | Orca_no_selection -> (Mpp_serve.Serve.Orca, false)
    | Legacy_planner -> (Mpp_serve.Serve.Planner, true)
  in
  fst
    (Mpp_serve.Serve.plan ?stats ~selection ?simplify ~catalog ~nsegments kind
       lg)

let with_misestimates env (qu : Queries.query) f =
  Mpp_stats.Stats_source.clear_row_scales env.stats;
  List.iter
    (fun (name, factor) ->
      let table = Mpp_catalog.Catalog.find env.catalog name in
      Mpp_stats.Stats_source.set_row_scale env.stats ~table_oid:table.Table.oid
        ~factor)
    qu.Queries.misestimates;
  Fun.protect
    ~finally:(fun () -> Mpp_stats.Stats_source.clear_row_scales env.stats)
    f

let optimize_with ?simplify env kind (qu : Queries.query) : Plan.t =
  let lg = Mpp_sql.Sql.to_logical env.catalog qu.Queries.sql in
  with_misestimates env qu (fun () ->
      optimize_logical ~stats:env.stats ?simplify ~catalog:env.catalog
        ~nsegments:(Mpp_storage.Storage.nsegments env.storage)
        kind lg)

(** Optimize and execute [qu] under [kind]. *)
let run env kind (qu : Queries.query) : run_result =
  let plan = optimize_with env kind qu in
  let t0 = Unix.gettimeofday () in
  let rows, metrics =
    Mpp_exec.Exec.run ~catalog:env.catalog ~storage:env.storage plan
  in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let facts = facts_in env qu in
  {
    query = qu;
    kind;
    plan;
    rows;
    parts_scanned =
      List.map
        (fun (t : Table.t) ->
          (t.Table.name,
           Mpp_exec.Metrics.parts_scanned_of metrics ~root_oid:t.Table.oid))
        facts;
    parts_total =
      List.map (fun (t : Table.t) -> (t.Table.name, Table.nparts t)) facts;
    wall_seconds;
    plan_bytes = Mpp_plan.Plan_size.bytes ~catalog:env.catalog plan;
  }

let total_parts_scanned r =
  List.fold_left (fun acc (_, n) -> acc + n) 0 r.parts_scanned

let total_parts r = List.fold_left (fun acc (_, n) -> acc + n) 0 r.parts_total
