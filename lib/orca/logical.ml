(** Logical operator trees — the optimizer's input, as produced by a binder
    or built directly by tests and examples.

    Relation instances are identified by range-table index [rel]; tables are
    referenced by name and resolved against the catalog at optimization
    time. *)

open Mpp_expr
module Plan = Mpp_plan.Plan

type t =
  | Get of { rel : int; table_name : string }
  | Select of { pred : Expr.t; child : t }
  | Join of { kind : Plan.join_kind; pred : Expr.t; left : t; right : t }
  | Aggregate of {
      group_by : Expr.t list;
      aggs : (string * Plan.agg_fun) list;
      child : t;
    }
  | Project of { exprs : (string * Expr.t) list; child : t }
  | Sort of { keys : Expr.t list; child : t }
  | Limit of { rows : int; child : t }
  | Update of {
      rel : int;
      table_name : string;
      set_cols : (string * Expr.t) list;
      child : t;
    }
  | Delete of { rel : int; table_name : string; child : t }
  | Insert of { table_name : string; rows : Expr.t list list }

let get ~rel table_name = Get { rel; table_name }
let select pred child = Select { pred; child }
let join ?(kind = Plan.Inner) pred left right = Join { kind; pred; left; right }
let aggregate ?(group_by = []) aggs child = Aggregate { group_by; aggs; child }

let children = function
  | Get _ -> []
  | Select { child; _ }
  | Aggregate { child; _ }
  | Project { child; _ }
  | Sort { child; _ }
  | Limit { child; _ }
  | Update { child; _ }
  | Delete { child; _ } ->
      [ child ]
  | Join { left; right; _ } -> [ left; right ]
  | Insert _ -> []

let with_children t cs =
  match (t, cs) with
  | (Get _ | Insert _), [] -> t
  | Select s, [ child ] -> Select { s with child }
  | Aggregate a, [ child ] -> Aggregate { a with child }
  | Project p, [ child ] -> Project { p with child }
  | Sort s, [ child ] -> Sort { s with child }
  | Limit l, [ child ] -> Limit { l with child }
  | Update u, [ child ] -> Update { u with child }
  | Delete d, [ child ] -> Delete { d with child }
  | Join j, [ left; right ] -> Join { j with left; right }
  | _ -> invalid_arg "Logical.with_children: arity mismatch"

let rec fold f acc t = List.fold_left (fold f) (f acc t) (children t)

(** All (rel, table_name) base accesses in the tree. *)
let base_tables t =
  fold
    (fun acc n ->
      match n with
      | Get { rel; table_name } -> (rel, table_name) :: acc
      | _ -> acc)
    [] t
  |> List.rev

let describe = function
  | Get { rel; table_name } -> Printf.sprintf "Get(%d, %s)" rel table_name
  | Select { pred; _ } -> "Select(" ^ Expr.to_string pred ^ ")"
  | Join { kind; pred; _ } ->
      Printf.sprintf "Join[%s](%s)" (Plan.join_kind_to_string kind)
        (Expr.to_string pred)
  | Aggregate { group_by; aggs; _ } ->
      Printf.sprintf "Aggregate(groups=%d, aggs=%d)" (List.length group_by)
        (List.length aggs)
  | Project { exprs; _ } -> Printf.sprintf "Project(%d)" (List.length exprs)
  | Sort _ -> "Sort"
  | Limit { rows; _ } -> Printf.sprintf "Limit(%d)" rows
  | Update { table_name; _ } -> "Update(" ^ table_name ^ ")"
  | Delete { table_name; _ } -> "Delete(" ^ table_name ^ ")"
  | Insert { table_name; rows } ->
      Printf.sprintf "Insert(%s, %d rows)" table_name (List.length rows)

let pp fmt t =
  let rec go indent n =
    Format.fprintf fmt "%s-> %s@," (String.make indent ' ') (describe n);
    List.iter (go (indent + 2)) (children n)
  in
  Format.fprintf fmt "@[<v>";
  go 0 t;
  Format.fprintf fmt "@]"
