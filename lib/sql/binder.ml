(** Name resolution and translation of parsed SQL into {!Orca.Logical}
    trees.

    The binder assigns range-table indices to FROM items in order, resolves
    (possibly qualified) column names against the catalog, coerces string
    literals compared against date columns, splits the WHERE clause into
    per-relation filters and join predicates, and builds a left-deep join
    tree in FROM order (join-order search is the optimizer's job).  IN
    (SELECT ...) subqueries become semi joins. *)

open Mpp_expr
module Logical = Orca.Logical
module Plan = Mpp_plan.Plan
module Table = Mpp_catalog.Table

exception Bind_error of string

type entry = { alias : string; rel : int; table : Table.t }

type scope = entry list

let make_scope catalog ~first_rel (items : Ast.from_item list) : scope =
  List.mapi
    (fun i (it : Ast.from_item) ->
      let table =
        match Mpp_catalog.Catalog.find_opt catalog it.Ast.table with
        | Some t -> t
        | None -> raise (Bind_error ("unknown table " ^ it.Ast.table))
      in
      {
        alias = (match it.Ast.table_alias with Some a -> a | None -> it.Ast.table);
        rel = first_rel + i;
        table;
      })
    items

let lookup_column (scope : scope) ~qualifier ~column : Colref.t =
  match qualifier with
  | Some q -> (
      match List.find_opt (fun e -> String.equal e.alias q) scope with
      | None -> raise (Bind_error ("unknown table alias " ^ q))
      | Some e -> (
          try Table.colref e.table ~rel:e.rel column
          with Invalid_argument _ ->
            raise
              (Bind_error (Printf.sprintf "table %s has no column %s" q column))))
  | None -> (
      let hits =
        List.filter_map
          (fun e ->
            try Some (Table.colref e.table ~rel:e.rel column)
            with Invalid_argument _ -> None)
          scope
      in
      match hits with
      | [ c ] -> c
      | [] -> raise (Bind_error ("unknown column " ^ column))
      | _ -> raise (Bind_error ("ambiguous column " ^ column)))

(* Coerce a string literal to a date when compared against a date column. *)
let coerce_pair a b =
  let dtype_of = function
    | Expr.Col (c : Colref.t) -> Some c.Colref.dtype
    | _ -> None
  in
  let coerce target e =
    match (target, e) with
    | Some Value.Tdate, Expr.Const (Value.String s) -> (
        try Expr.Const (Value.date_of_string s) with _ -> e)
    | _ -> e
  in
  (coerce (dtype_of b) a, coerce (dtype_of a) b)

(* The static type of a bound operand, where the binder knows it: a column
   or a literal ([Null] and anything computed are left to run time). *)
let operand_type = function
  | Expr.Col (c : Colref.t) -> Some c.Colref.dtype
  | Expr.Const v -> Value.datatype_of v
  | _ -> None

(* Reject a comparison whose operands can never compare — [ss_item = 'x']
   on an int column — as a bind error, not a plan the verifier refuses.
   [what] names the comparison; it is only rendered on error. *)
let check_comparable what a b =
  match (operand_type a, operand_type b) with
  | Some ta, Some tb when not (Value.comparable ta tb) ->
      raise
        (Bind_error
           (Printf.sprintf "%s mixes %s and %s" (what ())
              (Value.datatype_to_string ta) (Value.datatype_to_string tb)))
  | _ -> ()

(* A value stored into a column of type [want] — an INSERT value or an
   UPDATE SET expression.  Literals are coerced to the column's type (a
   string to a date, an int to a float); a value whose type can never be
   stored there is a bind error, as for comparisons.  [what] names the
   target column; it is only rendered on error. *)
let coerce_assigned what want e =
  let e =
    match (want, e) with
    | Value.Tdate, Expr.Const (Value.String s) -> (
        try Expr.Const (Value.date_of_string s) with _ -> e)
    | Value.Tfloat, Expr.Const (Value.Int n) ->
        Expr.Const (Value.Float (float_of_int n))
    | _ -> e
  in
  (match operand_type e with
  | Some t when not (Value.comparable t want) ->
      raise
        (Bind_error
           (Printf.sprintf "%s expects %s, got %s" (what ())
              (Value.datatype_to_string want) (Value.datatype_to_string t)))
  | _ -> ());
  e

type bound = {
  expr : Expr.t;
  semis : (Expr.t * Logical.t) list;
      (** semi-join obligations from IN (SELECT ...): (predicate, subtree) *)
}

let pure expr = { expr; semis = [] }

let rec bind_expr catalog (scope : scope) ~next_rel (e : Ast.expr) : bound =
  let recurse = bind_expr catalog scope ~next_rel in
  match e with
  | Ast.E_int i -> pure (Expr.int i)
  | Ast.E_float f -> pure (Expr.Const (Value.Float f))
  | Ast.E_string s -> pure (Expr.str s)
  | Ast.E_null -> pure (Expr.Const Value.Null)
  | Ast.E_param i -> pure (Expr.Param i)
  | Ast.E_star -> raise (Bind_error "* is only valid in count(*)")
  | Ast.E_column (q, c) ->
      pure (Expr.col (lookup_column scope ~qualifier:q ~column:c))
  | Ast.E_cmp (op, a, b) ->
      let ba = recurse a and bb = recurse b in
      let ea, eb = coerce_pair ba.expr bb.expr in
      let e = Expr.Cmp (op, ea, eb) in
      check_comparable (fun () -> "comparison " ^ Expr.to_string e) ea eb;
      { expr = e; semis = ba.semis @ bb.semis }
  | Ast.E_and (a, b) ->
      let ba = recurse a and bb = recurse b in
      { expr = Expr.conj [ ba.expr; bb.expr ]; semis = ba.semis @ bb.semis }
  | Ast.E_or (a, b) ->
      let ba = recurse a and bb = recurse b in
      { expr = Expr.Or [ ba.expr; bb.expr ]; semis = ba.semis @ bb.semis }
  | Ast.E_not a ->
      let ba = recurse a in
      { ba with expr = Expr.Not ba.expr }
  | Ast.E_arith (op, a, b) ->
      let ba = recurse a and bb = recurse b in
      { expr = Expr.Arith (op, ba.expr, bb.expr); semis = ba.semis @ bb.semis }
  | Ast.E_between (e, lo, hi) ->
      let be = recurse e and blo = recurse lo and bhi = recurse hi in
      let lo1, _ = coerce_pair blo.expr be.expr in
      let hi1, _ = coerce_pair bhi.expr be.expr in
      check_comparable (fun () -> "BETWEEN") be.expr lo1;
      check_comparable (fun () -> "BETWEEN") be.expr hi1;
      {
        expr = Expr.between be.expr lo1 hi1;
        semis = be.semis @ blo.semis @ bhi.semis;
      }
  | Ast.E_in_list (e, items) ->
      let be = recurse e in
      let values =
        List.map
          (fun it ->
            match (recurse it).expr with
            | Expr.Const v -> (
                match (be.expr, v) with
                | Expr.Col c, Value.String s when c.Colref.dtype = Value.Tdate
                  -> (
                    try Value.date_of_string s with _ -> v)
                | _ -> v)
            | _ -> raise (Bind_error "IN list must contain literals"))
          items
      in
      List.iter
        (fun v -> check_comparable (fun () -> "IN list") be.expr (Expr.Const v))
        values;
      { be with expr = Expr.In_list (be.expr, values) }
  | Ast.E_is_null e ->
      let be = recurse e in
      { be with expr = Expr.Is_null be.expr }
  | Ast.E_in_select (e, sub) ->
      let be = recurse e in
      let sub_tree, sub_col = bind_in_subquery catalog ~next_rel sub in
      let lhs, rhs = coerce_pair be.expr (Expr.col sub_col) in
      check_comparable (fun () -> "IN subquery") lhs rhs;
      {
        expr = Expr.true_;
        semis = be.semis @ [ (Expr.eq lhs rhs, sub_tree) ];
      }
  | Ast.E_func (f, args) -> bind_func catalog scope ~next_rel f args

and bind_func catalog scope ~next_rel f args : bound =
  if List.mem f Ast.aggregate_functions then
    raise (Bind_error ("aggregate " ^ f ^ " not allowed here"))
  else
    let bs = List.map (bind_expr catalog scope ~next_rel) args in
    {
      expr = Expr.Func (f, List.map (fun b -> b.expr) bs);
      semis = List.concat_map (fun b -> b.semis) bs;
    }

(* Bind the restricted subquery form of IN (SELECT col FROM t [WHERE ...]). *)
and bind_in_subquery catalog ~next_rel (sub : Ast.select) :
    Logical.t * Colref.t =
  (match (sub.Ast.group_by, sub.Ast.order_by, sub.Ast.limit) with
  | [], [], None -> ()
  | _ ->
      raise (Bind_error "IN subquery must be a plain SELECT col FROM ... WHERE"));
  (match sub.Ast.from with
  | [ _ ] -> ()
  | _ -> raise (Bind_error "IN subquery must reference exactly one table"));
  let scope = make_scope catalog ~first_rel:!next_rel sub.Ast.from in
  next_rel := !next_rel + 1;
  let col =
    match sub.Ast.items with
    | [ { Ast.item = Ast.E_column (q, c); _ } ] ->
        lookup_column scope ~qualifier:q ~column:c
    | _ -> raise (Bind_error "IN subquery must select exactly one column")
  in
  let entry = List.hd scope in
  let tree = Logical.get ~rel:entry.rel entry.table.Table.name in
  let tree =
    match sub.Ast.where with
    | None -> tree
    | Some w ->
        let bw = bind_expr catalog scope ~next_rel w in
        if bw.semis <> [] then
          raise (Bind_error "nested IN subqueries are not supported");
        Logical.select bw.expr tree
  in
  (tree, col)

(* ------------------------------------------------------------------ *)
(* Join-tree construction                                              *)
(* ------------------------------------------------------------------ *)

(* Split bound conjuncts into per-relation filters and join predicates, and
   assemble a left-deep join tree in FROM order. *)
let build_join_tree (scope : scope) (conjuncts : Expr.t list) : Logical.t =
  let filters_for rel =
    List.filter (fun c -> Expr.rels c = [ rel ]) conjuncts
  in
  let base (e : entry) =
    let g = Logical.get ~rel:e.rel e.table.Table.name in
    match filters_for e.rel with
    | [] -> g
    | fs -> Logical.select (Expr.conj fs) g
  in
  match scope with
  | [] -> raise (Bind_error "empty FROM clause")
  | first :: rest ->
      let used = ref [ first.rel ] in
      let remaining =
        ref
          (List.filter
             (fun c -> match Expr.rels c with [] | [ _ ] -> false | _ -> true)
             conjuncts)
      in
      List.fold_left
        (fun tree e ->
          used := e.rel :: !used;
          let applicable, rest_preds =
            List.partition
              (fun c ->
                let rs = Expr.rels c in
                List.mem e.rel rs && List.for_all (fun r -> List.mem r !used) rs)
              !remaining
          in
          remaining := rest_preds;
          let pred =
            match applicable with [] -> Expr.true_ | ps -> Expr.conj ps
          in
          Logical.join pred tree (base e))
        (base first) rest

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let bind_agg_item catalog scope ~next_rel (it : Ast.select_item) :
    string * Plan.agg_fun =
  let name f =
    match it.Ast.alias with Some a -> a | None -> f
  in
  match it.Ast.item with
  | Ast.E_func ("count", [ Ast.E_star ]) -> (name "count", Plan.Count_star)
  | Ast.E_func (f, [ arg ]) when List.mem f Ast.aggregate_functions ->
      let b = bind_expr catalog scope ~next_rel arg in
      if b.semis <> [] then raise (Bind_error "subquery in aggregate");
      ( name f,
        match f with
        | "count" -> Plan.Count b.expr
        | "sum" -> Plan.Sum b.expr
        | "avg" -> Plan.Avg b.expr
        | "min" -> Plan.Min b.expr
        | "max" -> Plan.Max b.expr
        | _ -> assert false )
  | _ -> raise (Bind_error "expected aggregate function in select list")

let bind_select catalog (s : Ast.select) : Logical.t =
  let scope = make_scope catalog ~first_rel:0 s.Ast.from in
  let next_rel = ref (List.length scope) in
  let where_conjuncts, semis =
    let preds =
      s.Ast.join_on @ (match s.Ast.where with None -> [] | Some w -> [ w ])
    in
    List.fold_left
      (fun (cs, ss) p ->
        let b = bind_expr catalog scope ~next_rel p in
        (cs @ Expr.conjuncts b.expr, ss @ b.semis))
      ([], []) preds
  in
  let tree = build_join_tree scope where_conjuncts in
  (* semi joins from IN (SELECT ...) wrap the main tree *)
  let tree =
    List.fold_left
      (fun t (pred, sub) -> Logical.join ~kind:Plan.Semi pred t sub)
      tree semis
  in
  let has_agg =
    s.Ast.group_by <> []
    || List.exists (fun it -> Ast.expr_has_aggregate it.Ast.item) s.Ast.items
  in
  let tree =
    if has_agg then begin
      let group_by =
        List.map
          (fun g ->
            let b = bind_expr catalog scope ~next_rel g in
            b.expr)
          s.Ast.group_by
      in
      let agg_items =
        List.filter (fun it -> Ast.expr_has_aggregate it.Ast.item) s.Ast.items
      in
      let aggs = List.map (bind_agg_item catalog scope ~next_rel) agg_items in
      Logical.aggregate ~group_by aggs tree
    end
    else begin
      let tree =
        match s.Ast.order_by with
        | [] -> tree
        | keys ->
            let keys =
              List.map
                (fun k -> (bind_expr catalog scope ~next_rel k).expr)
                keys
            in
            Logical.Sort { keys; child = tree }
      in
      match s.Ast.items with
      | [ { Ast.item = Ast.E_star; _ } ] -> tree
      | items ->
          let exprs =
            List.mapi
              (fun i it ->
                let b = bind_expr catalog scope ~next_rel it.Ast.item in
                let name =
                  match it.Ast.alias with
                  | Some a -> a
                  | None -> (
                      match it.Ast.item with
                      | Ast.E_column (_, c) -> c
                      | _ -> Printf.sprintf "col%d" (i + 1))
                in
                (name, b.expr))
              items
          in
          Logical.Project { exprs; child = tree }
    end
  in
  match s.Ast.limit with
  | None -> tree
  | Some rows -> Logical.Limit { rows; child = tree }

let bind_update catalog (u : Ast.update) : Logical.t =
  let target_item = { Ast.table = u.Ast.u_table; table_alias = u.Ast.u_alias } in
  let scope = make_scope catalog ~first_rel:0 (target_item :: u.Ast.u_from) in
  let next_rel = ref (List.length scope) in
  let conjuncts =
    match u.Ast.u_where with
    | None -> []
    | Some w ->
        let b = bind_expr catalog scope ~next_rel w in
        if b.semis <> [] then raise (Bind_error "IN subquery in UPDATE");
        Expr.conjuncts b.expr
  in
  let tree = build_join_tree scope conjuncts in
  let target = (List.hd scope).table in
  let set_cols =
    List.map
      (fun (c, e) ->
        let b = bind_expr catalog scope ~next_rel e in
        ( c,
          coerce_assigned (fun () -> "SET " ^ c) (Table.col_type target c)
            b.expr ))
      u.Ast.u_set
  in
  Logical.Update { rel = 0; table_name = u.Ast.u_table; set_cols; child = tree }

let bind_delete catalog (d : Ast.delete) : Logical.t =
  let target_item = { Ast.table = d.Ast.d_table; table_alias = d.Ast.d_alias } in
  let scope = make_scope catalog ~first_rel:0 (target_item :: d.Ast.d_using) in
  let next_rel = ref (List.length scope) in
  let conjuncts =
    match d.Ast.d_where with
    | None -> []
    | Some w ->
        let b = bind_expr catalog scope ~next_rel w in
        if b.semis <> [] then raise (Bind_error "IN subquery in DELETE");
        Expr.conjuncts b.expr
  in
  let tree = build_join_tree scope conjuncts in
  Logical.Delete { rel = 0; table_name = d.Ast.d_table; child = tree }

let bind_insert catalog (i : Ast.insert) : Logical.t =
  let table =
    match Mpp_catalog.Catalog.find_opt catalog i.Ast.i_table with
    | Some t -> t
    | None -> raise (Bind_error ("unknown table " ^ i.Ast.i_table))
  in
  let columns =
    match i.Ast.i_columns with
    | Some cs -> cs
    | None -> Array.to_list (Array.map fst table.Table.columns)
  in
  let indices =
    List.map
      (fun c ->
        try Table.col_index table c
        with Invalid_argument _ ->
          raise (Bind_error (Printf.sprintf "table %s has no column %s"
                               i.Ast.i_table c)))
      columns
  in
  let ncols = Table.ncols table in
  let rows =
    List.map
      (fun row ->
        if List.length row <> List.length columns then
          raise (Bind_error "INSERT row arity does not match column list");
        (* rows in declared column order, NULL for unmentioned columns *)
        let slots = Array.make ncols (Expr.Const Value.Null) in
        List.iter2
          (fun idx e ->
            let b = bind_expr catalog [] ~next_rel:(ref 0) e in
            if b.semis <> [] then
              raise (Bind_error "subqueries are not allowed in VALUES");
            let name, want = table.Table.columns.(idx) in
            slots.(idx) <-
              coerce_assigned (fun () -> "INSERT column " ^ name) want b.expr)
          indices row;
        Array.to_list slots)
      i.Ast.i_rows
  in
  Logical.Insert { table_name = i.Ast.i_table; rows }

(** Bind a parsed statement to a logical tree. *)
let bind catalog : Ast.statement -> Logical.t = function
  | Ast.Select s -> bind_select catalog s
  | Ast.Update u -> bind_update catalog u
  | Ast.Delete d -> bind_delete catalog d
  | Ast.Insert i -> bind_insert catalog i
