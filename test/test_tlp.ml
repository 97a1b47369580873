(** Ternary logic partitioning (TLP; Rigger and Su, OOPSLA 2020) over the
    evaluation workload: an equivalence oracle that needs no evaluator.

    For a query [Q] and a predicate [p] on a fact table's partition key,
    the rows of [Q] are the multiset union of the rows of [Q ∧ p],
    [Q ∧ NOT p] and [Q ∧ p IS NULL].  The three arms select different
    partitions, statically and through dynamic elimination, so a selection
    bug that drops or repeats a partition shows as a mismatch.

    Each of the 43 templates is bound and the operators above its join
    tree (Aggregate, Project, Sort, Limit) are stripped, so the identity is
    a plain multiset union; a Project of every output column in bound
    order fixes the row layout whatever join order is chosen.  The fact
    table's [Get] is wrapped in a [Select] on [p], which compares one of its
    partition keys — each level in turn, so a two-level table's categorical
    second level is drawn too — with a constant from that level's bounds:
    on a cut, just inside an arm, and outside every arm, each with a seeded
    comparison operator.  Each partitioned table is also checked bare
    ([Q] a plain scan of it): every template restricts its fact table, and
    a selection bug that empties [Q] empties each arm alike.  Every plan
    comes from [Runner.optimize_logical] under Orca, Orca with selection
    off and the legacy Planner, and runs on the scale-1 cluster. *)

open Mpp_expr
module W = Mpp_workload
module Logical = Orca.Logical
module Plan = Mpp_plan.Plan
module Table = Mpp_catalog.Table
module Part = Mpp_catalog.Partition

let env = lazy (W.Runner.setup_env ~scale:1 ~nsegments:4 ())

let kinds = W.Runner.[ Orca; Orca_no_selection; Legacy_planner ]

(* The join tree below the operators that would merge or drop rows. *)
let rec strip (lg : Logical.t) =
  match lg with
  | Logical.Aggregate { child; _ }
  | Logical.Project { child; _ }
  | Logical.Sort { child; _ }
  | Logical.Limit { child; _ } ->
      strip child
  | _ -> lg

(* The relations whose columns a join tree outputs, left to right. *)
let rec output_rels (lg : Logical.t) =
  match lg with
  | Logical.Get { rel; table_name } -> [ (rel, table_name) ]
  | Logical.Select { child; _ } -> output_rels child
  | Logical.Join { kind = Plan.Semi; left; _ } -> output_rels left
  | Logical.Join { left; right; _ } -> output_rels left @ output_rels right
  | _ -> Alcotest.failf "not a join tree: %s" (Logical.describe lg)

(* Every output column in the bound order: the optimizers may reorder the
   joins, and with them the row layout. *)
let project_all catalog lg =
  let exprs =
    List.concat_map
      (fun (rel, name) ->
        List.map
          (fun (c : Colref.t) ->
            (Printf.sprintf "%d.%s" rel c.Colref.name, Expr.col c))
          (Table.colrefs (Mpp_catalog.Catalog.find catalog name) ~rel))
      (output_rels lg)
  in
  Logical.Project { exprs; child = lg }

(* The first [Get] of a partitioned table whose rows reach the output
   one-for-one: below Selects, either side of an inner join, and the
   preserved side of an outer or semi join. *)
let rec fact_get catalog (lg : Logical.t) =
  match lg with
  | Logical.Get { rel; table_name } -> (
      let tbl = Mpp_catalog.Catalog.find catalog table_name in
      match tbl.Table.partitioning with
      | Some p -> Some (rel, tbl, p)
      | None -> None)
  | Logical.Select { child; _ } -> fact_get catalog child
  | Logical.Join { kind = Plan.Inner; left; right; _ } -> (
      match fact_get catalog left with
      | Some _ as r -> r
      | None -> fact_get catalog right)
  | Logical.Join { kind = Plan.Left_outer | Plan.Semi; left; _ } ->
      fact_get catalog left
  | _ -> None

(* [lg] with relation [rel]'s Get filtered by [pred]. *)
let rec wrap ~rel pred (lg : Logical.t) : Logical.t =
  match lg with
  | Logical.Get { rel = r; _ } when r = rel -> Logical.select pred lg
  | _ ->
      Logical.with_children lg (List.map (wrap ~rel pred) (Logical.children lg))

(* The next value of the key's domain after [v]. *)
let succ = function
  | Value.Int i -> Value.Int (i + 1)
  | Value.Date d -> Value.Date (Date.add_days d 1)
  | Value.String s -> Value.String (s ^ "\000")
  | v -> Alcotest.failf "no successor for %s" (Value.to_string v)

(* A value of the key's domain before [v]: the previous one, or for a
   string the empty string. *)
let pred_value = function
  | Value.Int i -> Value.Int (i - 1)
  | Value.Date d -> Value.Date (Date.add_days d (-1))
  | Value.String s when s <> "" -> Value.String ""
  | v -> Alcotest.failf "no predecessor for %s" (Value.to_string v)

(* A level's arms and their sorted bound values. *)
let arms (p : Part.t) level =
  Array.to_list p.Part.leaves
  |> List.concat_map (fun (lf : Part.leaf) ->
         match lf.Part.bounds.(level) with
         | Part.Cset s -> Interval.Set.to_list s
         | Part.Default -> [])

let cuts arms =
  List.concat_map
    (fun (iv : Interval.t) ->
      List.filter_map
        (function Interval.B (v, _) -> Some v | _ -> None)
        [ iv.Interval.lo; iv.Interval.hi ])
    arms
  |> List.sort_uniq Value.compare
  |> Array.of_list

(* One constant of each kind: on a cut, just inside an arm (one step past
   its lower bound), and outside every arm (below the first cut or past
   the last). *)
let constants rng (p : Part.t) level =
  let arms = Array.of_list (arms p level) in
  let cuts = cuts (Array.to_list arms) in
  let on_cut = W.Rng.pick rng cuts in
  let inside =
    let iv = W.Rng.pick rng arms in
    match iv.Interval.lo with
    | Interval.B (v, incl) ->
        let v' = succ v in
        if Interval.contains iv v' then v'
        else if incl then v
        else Alcotest.fail "arm too narrow for an inside value"
    | _ -> Alcotest.fail "arm with no lower bound"
  in
  let outside =
    if W.Rng.int rng 2 = 0 then pred_value cuts.(0)
    else succ cuts.(Array.length cuts - 1)
  in
  List.iter
    (fun (iv : Interval.t) ->
      if Interval.contains iv outside then
        Alcotest.failf "%s lies inside an arm" (Value.to_string outside))
    (Array.to_list arms);
  [ ("on a cut", on_cut); ("inside an arm", inside); ("outside every arm", outside) ]

let compare_rows (a : Value.t array) (b : Value.t array) =
  let n = Array.length a in
  let rec go i =
    if i >= n then Int.compare n (Array.length b)
    else if i >= Array.length b then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let rows kind lg =
  let env = Lazy.force env in
  let plan =
    W.Runner.optimize_logical ~stats:env.W.Runner.stats
      ~catalog:env.W.Runner.catalog
      ~nsegments:(Mpp_storage.Storage.nsegments env.W.Runner.storage)
      kind lg
  in
  let rows, _ =
    Mpp_exec.Exec.run ~catalog:env.W.Runner.catalog
      ~storage:env.W.Runner.storage plan
  in
  List.sort compare_rows rows

let ops = Expr.[| Lt; Le; Eq; Neq; Ge; Gt |]

(* The TLP identity for join tree [q] (built on the scale-1 catalog),
   named [name], with the constants and operators drawn from [seed]. *)
let check name seed q () =
  let catalog = (Lazy.force env).W.Runner.catalog in
  let q = q catalog in
  let rel, tbl, part =
    match fact_get catalog q with
    | Some f -> f
    | None -> Alcotest.failf "%s: no fact table Get" name
  in
  let rng = W.Rng.create ~seed:(Int64.of_int seed) () in
  let cases =
    List.concat
      (List.mapi
         (fun level key ->
           List.map
             (fun (what, c) ->
               ( Printf.sprintf "level %d, %s" level what,
                 Expr.Cmp (W.Rng.pick rng ops, Expr.col key, Expr.Const c) ))
             (constants rng part level))
         (Table.part_key_colrefs tbl ~rel))
  in
  List.iter
    (fun kind ->
      let whole = rows kind (project_all catalog q) in
      List.iter
        (fun (what, p) ->
          let arm pred = rows kind (project_all catalog (wrap ~rel pred q)) in
          let union =
            List.merge compare_rows (arm p)
              (List.merge compare_rows (arm (Expr.Not p)) (arm (Expr.Is_null p)))
          in
          if not (List.equal (fun a b -> compare_rows a b = 0) whole union) then
            Alcotest.failf "%s under %s, p = %s (%s): %d rows, arms give %d"
              name
              (W.Runner.optimizer_kind_to_string kind)
              (Expr.to_string p) what (List.length whole) (List.length union))
        cases)
    kinds

let () =
  let tables =
    List.filter Table.is_partitioned
      (Mpp_catalog.Catalog.tables (Lazy.force env).W.Runner.catalog)
  in
  Alcotest.run "tlp"
    [ ("ternary logic partitioning",
       List.mapi
         (fun i (qu : W.Queries.query) ->
           Alcotest.test_case qu.W.Queries.name `Quick
             (check qu.W.Queries.name
                (7919 * (i + 1))
                (fun catalog ->
                  strip (Mpp_sql.Sql.to_logical catalog qu.W.Queries.sql))))
         W.Queries.all
       @ List.mapi
           (fun i (t : Table.t) ->
             let name = "bare " ^ t.Table.name in
             Alcotest.test_case name `Quick
               (check name
                  (104729 * (i + 1))
                  (fun _ -> Logical.Get { rel = 0; table_name = t.Table.name })))
           tables) ]
