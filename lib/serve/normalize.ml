(** Query normalization for the plan cache: lift predicate literals to bind
    parameters, fingerprint the resulting shape, and classify each
    parameter position.

    Normalization runs {e after} binding, on the logical tree — so the
    binder's type coercions (a date-shaped string literal compared against
    a date column has already become a [Value.Date]) are baked into the
    lifted parameter values, and a cache-hit execution binds values of
    exactly the type a fresh bind would have produced.

    Only literals in {e predicate} positions (Select and Join predicates)
    are lifted: those are the positions partition selection and selectivity
    estimation read.  Literals in projections, aggregates, sort keys,
    IN-lists and DML payloads stay in the tree and hence in the
    fingerprint — two queries differing there are different plans.

    The sensitivity rule (the cache's reuse policy):
    - a parameter is {e pruning-relevant} when some conjunct containing it
      reaches a partitioning-key column — directly or through the
      equi-join equivalence classes of {!Mpp_analysis.Analysis.equiv_class}.
      Such parameters stay [Param]s in the cached plan: the executor
      re-runs partition selection with the fresh bindings
      ([Exec.compile_selector] binds parameters before it splits each
      level into its static set and its row conjuncts, so a bound
      parameter joins the static set), so reuse is sound for {e any}
      value, merely not re-costed.
    - every other parameter is {e shape-relevant}: its value feeds only
      selectivity and cost, so it is substituted back as a constant before
      optimization and becomes part of the cache key — a different value
      re-optimizes. *)

open Mpp_expr
module Logical = Orca.Logical
module Plan = Mpp_plan.Plan
module Catalog = Mpp_catalog.Catalog
module Table = Mpp_catalog.Table
module Analysis = Mpp_analysis.Analysis

type sensitivity = Pruning | Shape

type t = {
  tree : Logical.t;  (** predicate literals lifted to [Expr.Param] *)
  defaults : Value.t array;
      (** full parameter vector: lifted slots hold the original literals,
          explicit ([$n]) slots hold [Value.Null] until bound *)
  first_lifted : int;
      (** slots [>= first_lifted] were lifted here; lower slots are the
          statement's own [$n] parameters (plus the unused slot 0) *)
  classes : sensitivity array;  (** one per parameter slot *)
  fingerprint : string;  (** deterministic print of [tree] *)
}

(* ------------------------------------------------------------------ *)
(* Expression walks                                                    *)

let max_param_expr =
  Expr.fold (fun acc -> function Expr.Param i -> max acc i | _ -> acc)

let param_occurs p =
  Expr.fold (fun found -> function Expr.Param i -> found || i = p | _ -> found)
    false

(** Every expression embedded in a logical node, for whole-tree folds. *)
let node_exprs = function
  | Logical.Get _ -> []
  | Logical.Select { pred; _ } -> [ pred ]
  | Logical.Join { pred; _ } -> [ pred ]
  | Logical.Aggregate { group_by; aggs; _ } ->
      group_by
      @ List.filter_map
          (fun (_, f) ->
            match f with
            | Plan.Count_star -> None
            | Plan.Count e | Plan.Sum e | Plan.Avg e | Plan.Min e
            | Plan.Max e ->
                Some e)
          aggs
  | Logical.Project { exprs; _ } -> List.map snd exprs
  | Logical.Sort { keys; _ } -> keys
  | Logical.Limit _ -> []
  | Logical.Update { set_cols; _ } -> List.map snd set_cols
  | Logical.Delete _ -> []
  | Logical.Insert { rows; _ } -> List.concat rows

let max_param_tree lg =
  Logical.fold
    (fun acc n -> List.fold_left max_param_expr acc (node_exprs n))
    (-1) lg

(* ------------------------------------------------------------------ *)
(* Lifting                                                             *)

let liftable = function
  | Value.Int _ | Value.Float _ | Value.String _ | Value.Date _ -> true
  | Value.Null | Value.Bool _ -> false

(* [lg] with [f] applied to each Select and Join predicate, bottom-up: a
   node's children, the last one first, then its own predicate.  So
   lifting numbers a Join's right subtree, then its left subtree, then its
   predicate, in {!Expr.map}'s order. *)
let rec map_preds f lg =
  match
    Logical.with_children lg
      (List.rev_map (map_preds f) (List.rev (Logical.children lg)))
  with
  | Logical.Select s -> Logical.Select { s with pred = f s.pred }
  | Logical.Join j -> Logical.Join { j with pred = f j.pred }
  | lg -> lg

(* IN-list members are [Value.t]s, not sub-expressions — they stay, which
   also matches the binder's literals-only rule for IN. *)
let lift lg =
  let first = max_param_tree lg + 1 in
  let next = ref first and acc = ref [] in
  let tree =
    map_preds
      (Expr.map (function
        | Expr.Const v when liftable v ->
            let i = !next in
            incr next;
            acc := v :: !acc;
            Expr.Param i
        | e -> e))
      lg
  in
  (tree, List.rev !acc, first)

(* ------------------------------------------------------------------ *)
(* Fingerprint                                                         *)

let agg_to_string (name, f) =
  name ^ "="
  ^
  match f with
  | Plan.Count_star -> "count(*)"
  | Plan.Count e -> "count(" ^ Expr.to_string e ^ ")"
  | Plan.Sum e -> "sum(" ^ Expr.to_string e ^ ")"
  | Plan.Avg e -> "avg(" ^ Expr.to_string e ^ ")"
  | Plan.Min e -> "min(" ^ Expr.to_string e ^ ")"
  | Plan.Max e -> "max(" ^ Expr.to_string e ^ ")"

let exprs_to_string es = String.concat "," (List.map Expr.to_string es)

let fingerprint_of tree =
  let buf = Buffer.create 256 in
  let rec go n =
    (match n with
    | Logical.Get { rel; table_name } ->
        Buffer.add_string buf (Printf.sprintf "get(%d,%s)" rel table_name)
    | Logical.Select { pred; _ } ->
        Buffer.add_string buf ("select(" ^ Expr.to_string pred ^ ")")
    | Logical.Join { kind; pred; _ } ->
        Buffer.add_string buf
          (Printf.sprintf "join[%s](%s)"
             (Plan.join_kind_to_string kind)
             (Expr.to_string pred))
    | Logical.Aggregate { group_by; aggs; _ } ->
        Buffer.add_string buf
          (Printf.sprintf "agg(gb=[%s];[%s])"
             (exprs_to_string group_by)
             (String.concat "," (List.map agg_to_string aggs)))
    | Logical.Project { exprs; _ } ->
        Buffer.add_string buf
          (Printf.sprintf "proj(%s)"
             (String.concat ","
                (List.map
                   (fun (n, e) -> n ^ "=" ^ Expr.to_string e)
                   exprs)))
    | Logical.Sort { keys; _ } ->
        Buffer.add_string buf ("sort(" ^ exprs_to_string keys ^ ")")
    | Logical.Limit { rows; _ } ->
        Buffer.add_string buf (Printf.sprintf "limit(%d)" rows)
    | Logical.Update { rel; table_name; set_cols; _ } ->
        Buffer.add_string buf
          (Printf.sprintf "update(%d,%s,[%s])" rel table_name
             (String.concat ","
                (List.map
                   (fun (c, e) -> c ^ "=" ^ Expr.to_string e)
                   set_cols)))
    | Logical.Delete { rel; table_name; _ } ->
        Buffer.add_string buf
          (Printf.sprintf "delete(%d,%s)" rel table_name)
    | Logical.Insert { table_name; rows } ->
        Buffer.add_string buf
          (Printf.sprintf "insert(%s,[%s])" table_name
             (String.concat ";" (List.map exprs_to_string rows))));
    match Logical.children n with
    | [] -> ()
    | cs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i c ->
            if i > 0 then Buffer.add_char buf '|';
            go c)
          cs;
        Buffer.add_char buf '}'
  in
  go tree;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Sensitivity                                                         *)

let classify ~catalog tree ~nparams =
  let preds =
    Logical.fold
      (fun acc n ->
        match n with
        | Logical.Select { pred; _ } | Logical.Join { pred; _ } ->
            pred :: acc
        | _ -> acc)
      [] tree
  in
  let conjs = List.concat_map Expr.conjuncts preds in
  let pkeys =
    List.concat_map
      (fun (rel, name) ->
        match Catalog.find_opt catalog name with
        | Some tbl when tbl.Table.partitioning <> None ->
            Table.part_key_colrefs tbl ~rel
        | _ -> [])
      (Logical.base_tables tree)
  in
  let is_key c = List.exists (Colref.equal c) pkeys in
  let reaches_key c = List.exists is_key (Analysis.equiv_class ~conjs c) in
  Array.init nparams (fun p ->
      let touching = List.filter (param_occurs p) conjs in
      match touching with
      | [] ->
          (* not in any predicate (projection-only or unused slot): the
             value never shapes the plan, reuse is always safe *)
          Pruning
      | _ ->
          let cols = List.concat_map Expr.free_cols touching in
          if List.exists reaches_key cols then Pruning else Shape)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let of_logical ~catalog lg =
  let tree, lifted, first_lifted = lift lg in
  let nparams = first_lifted + List.length lifted in
  let defaults = Array.make (max nparams 0) Value.Null in
  List.iteri (fun k v -> defaults.(first_lifted + k) <- v) lifted;
  let classes = classify ~catalog tree ~nparams in
  { tree; defaults; first_lifted; classes; fingerprint = fingerprint_of tree }

let nparams t = Array.length t.defaults

(** Merge caller bindings over the lifted defaults into the full vector
    the executor (and {!shape_key}) consumes. *)
let params t binds =
  let ps = Array.copy t.defaults in
  List.iter
    (fun (i, v) ->
      if i < 0 || i >= Array.length ps then
        invalid_arg (Printf.sprintf "Normalize.params: no parameter $%d" i);
      ps.(i) <- v)
    binds;
  ps

let value_tag = function
  | Value.Null -> "n"
  | Value.Bool b -> "b" ^ string_of_bool b
  | Value.Int i -> "i" ^ string_of_int i
  | Value.Float f -> "f" ^ string_of_float f
  | Value.String s -> "s" ^ String.escaped s
  | Value.Date _ as v -> "d" ^ Value.to_string v

(** The cache-key component carrying the shape-relevant bindings: distinct
    values here are distinct cache entries (i.e. re-optimizations). *)
let shape_key t values =
  let buf = Buffer.create 32 in
  Array.iteri
    (fun i c ->
      if c = Shape then begin
        Buffer.add_string buf (string_of_int i);
        Buffer.add_char buf '=';
        Buffer.add_string buf
          (if i < Array.length values then value_tag values.(i) else "n");
        Buffer.add_char buf ';'
      end)
    t.classes;
  Buffer.contents buf

(** The tree handed to the optimizer on a cache miss: shape-relevant
    parameters substituted back as constants (so costing sees real
    literals), pruning-relevant ones left as [Param]s (so the cached plan
    replays partition selection under fresh bindings). *)
let specialize t values =
  let lookup i =
    if
      i >= 0
      && i < Array.length t.classes
      && t.classes.(i) = Shape
      && i < Array.length values
    then Some values.(i)
    else None
  in
  map_preds (Expr.bind_params lookup) t.tree
