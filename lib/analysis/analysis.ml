(** Abstract interpretation of scalar expressions and plans.

    The abstract domain is interval-set × nullability per column
    ({!aval}), with a three-valued abstraction of predicate outcomes
    ({!abool}).  Everything over-approximates: [can_t]/[can_f]/[can_n] may
    be true spuriously but never false spuriously, and an {!aval}'s range
    contains every value the expression can actually produce.  Decisions
    ([contradicts], [always_true], [simplify]) only ever act on the
    {e negations} of the [can_*] bits, so imprecision can suppress a
    rewrite but never enable an unsound one.

    Base tables are assumed NULL-free (the storage layer and both workload
    generators never materialize a NULL); NULLs enter the domain only
    through outer joins and ungrouped aggregates, which the derivation
    rules model explicitly. *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Expansion = Mpp_plan.Expansion
module Catalog = Mpp_catalog.Catalog
module Table = Mpp_catalog.Table
module Partition = Mpp_catalog.Partition

type aval = { range : Interval.Set.t; nullable : bool }
type abool = { can_t : bool; can_f : bool; can_n : bool }

(* ------------------------------------------------------------------ *)
(* The environment: per-(rel, column) abstract values.                 *)

module M = Map.Make (struct
  type t = int * int

  let compare (a1, b1) (a2, b2) =
    let c = Int.compare a1 a2 in
    if c <> 0 then c else Int.compare b1 b2
end)

type env = Bottom | Env of aval M.t

let av_top = { range = Interval.Set.full; nullable = true }
let av_is_top a = a.nullable && Interval.Set.is_full a.range
let av_is_bottom a = (not a.nullable) && Interval.Set.is_empty a.range

let av_join a b =
  {
    range = Interval.Set.union a.range b.range;
    nullable = a.nullable || b.nullable;
  }

let av_meet a b =
  {
    range = Interval.Set.inter a.range b.range;
    nullable = a.nullable && b.nullable;
  }

let env_top = Env M.empty
let is_bottom = function Bottom -> true | Env _ -> false
let ckey (c : Colref.t) = (c.Colref.rel, c.Colref.index)

let find env c =
  match env with
  | Bottom -> { range = Interval.Set.empty; nullable = false }
  | Env m -> ( match M.find_opt (ckey c) m with Some v -> v | None -> av_top)

let set env c v =
  match env with
  | Bottom -> Bottom
  | Env m ->
      if av_is_bottom v then Bottom
      else if av_is_top v then Env (M.remove (ckey c) m)
      else Env (M.add (ckey c) v m)

(* Least upper bound: a row coming from either input.  Only columns
   constrained on both sides stay constrained. *)
let env_join a b =
  match (a, b) with
  | Bottom, e | e, Bottom -> e
  | Env ma, Env mb ->
      Env
        (M.merge
           (fun _ va vb ->
             match (va, vb) with
             | Some va, Some vb ->
                 let j = av_join va vb in
                 if av_is_top j then None else Some j
             | _ -> None)
           ma mb)

(* Greatest lower bound: a row satisfying both environments (the joined
   tuple of two join inputs). *)
let env_meet a b =
  match (a, b) with
  | Bottom, _ | _, Bottom -> Bottom
  | Env ma, Env mb ->
      M.fold
        (fun k v acc ->
          match acc with
          | Bottom -> Bottom
          | Env m ->
              let v' =
                match M.find_opt k m with
                | None -> v
                | Some w -> av_meet v w
              in
              if av_is_bottom v' then Bottom else Env (M.add k v' m))
        mb (Env ma)

(* ------------------------------------------------------------------ *)
(* Abstract evaluation.                                                *)

let ab_true = { can_t = true; can_f = false; can_n = false }
let ab_false = { can_t = false; can_f = true; can_n = false }
let ab_null = { can_t = false; can_f = false; can_n = true }
let ab_any = { can_t = true; can_f = true; can_n = true }

let set_lo (s : Interval.Set.t) =
  match Interval.Set.to_list s with [] -> None | i :: _ -> Some i.Interval.lo

let set_hi (s : Interval.Set.t) =
  match List.rev (Interval.Set.to_list s) with
  | [] -> None
  | i :: _ -> Some i.Interval.hi

(* May some value of [a] be strictly below some value of [b]?  The order is
   treated as dense (an over-approximation for discrete types, which is the
   sound direction).  Empty sets have no values. *)
let can_lt a b =
  match (set_lo a, set_hi b) with
  | None, _ | _, None -> false
  | Some lo, Some hi -> (
      match (lo, hi) with
      | Interval.Neg_inf, _ | _, Interval.Pos_inf -> true
      | Interval.Pos_inf, _ | _, Interval.Neg_inf -> false
      | Interval.B (va, _), Interval.B (vb, _) -> Value.compare va vb < 0)

(* May some value of [a] be ≤ some value of [b]? *)
let can_le a b =
  match (set_lo a, set_hi b) with
  | None, _ | _, None -> false
  | Some lo, Some hi -> (
      match (lo, hi) with
      | Interval.Neg_inf, _ | _, Interval.Pos_inf -> true
      | Interval.Pos_inf, _ | _, Interval.Neg_inf -> false
      | Interval.B (va, ai), Interval.B (vb, bi) ->
          let c = Value.compare va vb in
          c < 0 || (c = 0 && ai && bi))

(* Are both ranges the same single point? *)
let same_point a b =
  match (Interval.Set.to_list a, Interval.Set.to_list b) with
  | [ ia ], [ ib ] -> (
      match (Interval.is_point ia, Interval.is_point ib) with
      | Some va, Some vb -> Value.equal va vb
      | _ -> false)
  | _ -> false

let cmp_abool (op : Expr.cmp_op) (a : aval) (b : aval) =
  let n = a.nullable || b.nullable in
  if Interval.Set.is_empty a.range || Interval.Set.is_empty b.range then
    (* one side has no non-null value: the comparison can only be NULL *)
    { can_t = false; can_f = false; can_n = n }
  else
    let t, f =
      match op with
      | Expr.Eq -> (Interval.Set.overlaps_set a.range b.range, not (same_point a.range b.range))
      | Expr.Neq -> (not (same_point a.range b.range), Interval.Set.overlaps_set a.range b.range)
      | Expr.Lt -> (can_lt a.range b.range, can_le b.range a.range)
      | Expr.Le -> (can_le a.range b.range, can_lt b.range a.range)
      | Expr.Gt -> (can_lt b.range a.range, can_le a.range b.range)
      | Expr.Ge -> (can_le b.range a.range, can_lt a.range b.range)
    in
    { can_t = t; can_f = f; can_n = n }

let bool_range ~t ~f =
  Interval.Set.of_list
    ((if t then [ Interval.point (Value.Bool true) ] else [])
    @ if f then [ Interval.point (Value.Bool false) ] else [])

let rec aeval env (e : Expr.t) : aval =
  match env with
  | Bottom -> { range = Interval.Set.empty; nullable = false }
  | Env _ -> (
      match e with
      | Expr.Const Value.Null -> { range = Interval.Set.empty; nullable = true }
      | Expr.Const v -> { range = Interval.Set.point v; nullable = false }
      | Expr.Col c -> find env c
      | Expr.Param _ | Expr.Func _ -> av_top
      | Expr.Arith (op, a, b) ->
          let va = aeval env a and vb = aeval env b in
          let nullable =
            va.nullable || vb.nullable
            || match op with Expr.Div | Expr.Mod -> true | _ -> false
          in
          { range = Interval.Set.full; nullable }
      | Expr.Cmp _ | Expr.And _ | Expr.Or _ | Expr.Not _ | Expr.In_list _
      | Expr.Is_null _ ->
          let ab = aeval_pred env e in
          { range = bool_range ~t:ab.can_t ~f:ab.can_f; nullable = ab.can_n })

and aeval_pred env (e : Expr.t) : abool =
  match env with
  | Bottom -> { can_t = false; can_f = false; can_n = false }
  | Env _ -> (
      match e with
      | Expr.Const (Value.Bool true) -> ab_true
      | Expr.Const (Value.Bool false) -> ab_false
      | Expr.Const Value.Null -> ab_null
      | Expr.Const _ -> ab_any
      | Expr.Cmp (op, a, b) -> cmp_abool op (aeval env a) (aeval env b)
      | Expr.And es ->
          let abs = List.map (aeval_pred env) es in
          {
            can_t = List.for_all (fun a -> a.can_t) abs;
            can_f = List.exists (fun a -> a.can_f) abs;
            can_n = List.exists (fun a -> a.can_n) abs;
          }
      | Expr.Or es ->
          let abs = List.map (aeval_pred env) es in
          {
            can_t = List.exists (fun a -> a.can_t) abs;
            can_f = List.for_all (fun a -> a.can_f) abs;
            can_n = List.exists (fun a -> a.can_n) abs;
          }
      | Expr.Not e ->
          let a = aeval_pred env e in
          { can_t = a.can_f; can_f = a.can_t; can_n = a.can_n }
      | Expr.Is_null e ->
          let v = aeval env e in
          {
            can_t = v.nullable;
            can_f = not (Interval.Set.is_empty v.range);
            can_n = false;
          }
      | Expr.In_list (e, vals) ->
          let v = aeval env e in
          let has_null = List.exists Value.is_null vals in
          let pts =
            Interval.Set.of_list
              (List.filter_map
                 (fun x -> if Value.is_null x then None else Some (Interval.point x))
                 vals)
          in
          {
            can_t = Interval.Set.overlaps_set v.range pts;
            can_f = (not has_null) && not (Interval.Set.is_subset v.range pts);
            can_n = v.nullable || has_null;
          }
      | Expr.Col _ | Expr.Param _ | Expr.Arith _ | Expr.Func _ ->
          let v = aeval env e in
          {
            can_t = Interval.Set.contains v.range (Value.Bool true);
            can_f = Interval.Set.contains v.range (Value.Bool false);
            can_n = v.nullable;
          })

(* ------------------------------------------------------------------ *)
(* Assuming a predicate holds (filter semantics).                      *)

(* Does a true outcome of [p] force column [c] to be non-NULL? *)
let rec forces_nonnull (c : Colref.t) (p : Expr.t) =
  match p with
  | Expr.Cmp (_, Expr.Col d, _) | Expr.Cmp (_, _, Expr.Col d) -> Colref.equal c d
  | Expr.In_list (Expr.Col d, _) -> Colref.equal c d
  | Expr.Not (Expr.Is_null (Expr.Col d)) -> Colref.equal c d
  | Expr.And es -> List.exists (forces_nonnull c) es
  | Expr.Or es -> es <> [] && List.for_all (forces_nonnull c) es
  | _ -> false

(* Does a true outcome force [c] to be NULL? *)
let rec forces_null (c : Colref.t) (p : Expr.t) =
  match p with
  | Expr.Is_null (Expr.Col d) -> Colref.equal c d
  | Expr.And es -> List.exists (forces_null c) es
  | Expr.Or es -> es <> [] && List.for_all (forces_null c) es
  | _ -> false

let restrict env p =
  match env with
  | Bottom -> Bottom
  | Env _ ->
      if not (aeval_pred env p).can_t then Bottom
      else
        let cols = List.sort_uniq Colref.compare (Expr.free_cols p) in
        List.fold_left
          (fun env c ->
            match env with
            | Bottom -> Bottom
            | Env _ ->
                let v = find env c in
                let v =
                  match Expr.restriction c p with
                  | Some s ->
                      (* a derivable restriction also implies the column was
                         compared non-NULL *)
                      { range = Interval.Set.inter v.range s; nullable = false }
                  | None -> v
                in
                let v =
                  if forces_nonnull c p then { v with nullable = false } else v
                in
                let v =
                  if forces_null c p then { v with range = Interval.Set.empty }
                  else v
                in
                set env c v)
          env cols

(* ------------------------------------------------------------------ *)
(* Decisions.                                                          *)

let contradicts env e =
  is_bottom env
  || (not (aeval_pred env e).can_t)
  || is_bottom (restrict env e)

let always_true env e =
  is_bottom env
  ||
  let ab = aeval_pred env e in
  ab.can_t && (not ab.can_f) && not ab.can_n

let implies env p q = always_true (restrict env p) q

(* ------------------------------------------------------------------ *)
(* Simplification.                                                     *)

let simplify ?(report = fun _ _ -> ()) env0 e0 =
  let is_lit_true e = Expr.equal e Expr.true_ in
  let is_lit_false e = Expr.equal e Expr.false_ in
  let rec simp env e =
    if is_bottom env then e
    else
      match e with
      | Expr.And _ -> (
          let cs = Expr.conjuncts e in
          let exception Contradicted in
          try
            let _, kept_rev =
              List.fold_left
                (fun (env, acc) c ->
                  let c' = simp env c in
                  if is_lit_false c' || contradicts env c' then (
                    report `Contradiction c;
                    raise Contradicted)
                  else if is_lit_true c' || always_true env c' then (
                    report `Redundant c;
                    (env, acc))
                  else (restrict env c', c' :: acc))
                (env, []) cs
            in
            let e' = Expr.conj (List.rev kept_rev) in
            if Expr.equal e' e then e else e'
          with Contradicted -> Expr.false_)
      | Expr.Or es ->
          let pairs = List.map (fun c -> (c, simp env c)) es in
          if
            List.exists
              (fun (_, b) -> is_lit_true b || always_true env b)
              pairs
          then Expr.true_
          else (
            let kept =
              List.filter_map
                (fun (c, b) ->
                  if is_lit_false b || contradicts env b then (
                    report `Contradiction c;
                    None)
                  else Some b)
                pairs
            in
            match kept with
            | [] -> Expr.false_
            | [ b ] -> b
            | kept ->
                let e' = Expr.Or kept in
                if Expr.equal e' e then e else e')
      | _ ->
          (* atoms — including compound expressions under Not, treated
             atomically *)
          if is_lit_true e || is_lit_false e then e
          else if contradicts env e then Expr.false_
          else if always_true env e then Expr.true_
          else e
  in
  simp env0 e0

(* A predicate whose {!Expr.restriction} on [c] is exactly [s]. *)
let expr_of_interval (c : Colref.t) (i : Interval.t) : Expr.t =
  match Interval.is_point i with
  | Some v -> Expr.eq (Expr.col c) (Expr.Const v)
  | None -> (
      let lo =
        match i.Interval.lo with
        | Interval.Neg_inf | Interval.Pos_inf -> []
        | Interval.B (v, true) -> [ Expr.ge (Expr.col c) (Expr.Const v) ]
        | Interval.B (v, false) -> [ Expr.gt (Expr.col c) (Expr.Const v) ]
      and hi =
        match i.Interval.hi with
        | Interval.Pos_inf | Interval.Neg_inf -> []
        | Interval.B (v, true) -> [ Expr.le (Expr.col c) (Expr.Const v) ]
        | Interval.B (v, false) -> [ Expr.lt (Expr.col c) (Expr.Const v) ]
      in
      match lo @ hi with [] -> Expr.true_ | [ e ] -> e | es -> Expr.And es)

let expr_of_set (c : Colref.t) (s : Interval.Set.t) : Expr.t =
  if Interval.Set.is_full s then Expr.true_
  else if Interval.Set.is_empty s then Expr.false_
  else
    match Interval.Set.to_list s with
    | [ i ] -> expr_of_interval c i
    | is -> Expr.Or (List.map (expr_of_interval c) is)

(* ------------------------------------------------------------------ *)
(* Plan-level derivation.                                              *)

let scan_env ~catalog ~rel oid =
  match Catalog.find_oid_opt catalog (Catalog.root_of catalog oid) with
  | None -> env_top
  | Some tbl ->
      (* every stored column: full range, non-nullable (base tables store no
         NULLs) *)
      let base =
        List.fold_left
          (fun env c -> set env c { range = Interval.Set.full; nullable = false })
          env_top
          (Table.colrefs tbl ~rel)
      in
      let root = tbl.Table.oid in
      (match tbl.Table.partitioning with
      | None -> base
      | Some part ->
          let keys = Table.part_key_colrefs tbl ~rel in
          let nlv = Partition.nlevels part in
          let ranges =
            if oid = root then part.Partition.envelope
            else
              match Partition.find_leaf part oid with
              | None -> Array.make nlv Interval.Set.full
              | Some lf ->
                  Array.map
                    (function
                      | Partition.Cset s -> s
                      | Partition.Default -> Interval.Set.full)
                    lf.Partition.bounds
          in
          List.fold_left
            (fun (env, l) k ->
              (set env k { range = ranges.(l); nullable = false }, l + 1))
            (base, 0) keys
          |> fst)

let rec derive_c cat (p : Plan.t) : env =
  match p with
  | Plan.Table_scan { rel; table_oid; filter; guard = _ } ->
      let env = scan_env ~catalog:cat ~rel table_oid in
      (match filter with None -> env | Some f -> restrict env f)
  | Plan.Dynamic_scan { rel; root_oid; filter; _ } ->
      let env = scan_env ~catalog:cat ~rel root_oid in
      (match filter with None -> env | Some f -> restrict env f)
  | Plan.Filter { pred; child } -> restrict (derive_c cat child) pred
  | Plan.Hash_join { kind; pred; left; right }
  | Plan.Nl_join { kind; pred; left; right } -> (
      let l = derive_c cat left and r = derive_c cat right in
      match kind with
      | Plan.Inner | Plan.Semi -> restrict (env_meet l r) pred
      | Plan.Left_outer ->
          (* matched rows satisfy the join predicate; unmatched left rows
             survive NULL-extended, so join with the plain left env (right
             columns fall back to ⊤, which is nullable) *)
          env_join (restrict (env_meet l r) pred) l)
  | Plan.Append cs ->
      List.fold_left (fun acc c -> env_join acc (derive_c cat c)) Bottom cs
  | Plan.Agg { group_by; aggs; child; output_rel } ->
      if output_rel < 0 then env_top
      else
        let ce = derive_c cat child in
        let grouped = group_by <> [] in
        if is_bottom ce && grouped then Bottom
        else
          let mk i = Colref.make ~rel:output_rel ~index:i ~name:"" ~dtype:Value.Tint in
          let env, ng =
            List.fold_left
              (fun (env, i) g -> (set env (mk i) (aeval ce g), i + 1))
              (env_top, 0) group_by
          in
          List.fold_left
            (fun (env, i) (_, af) ->
              let v =
                match af with
                | Plan.Count_star | Plan.Count _ ->
                    {
                      range = Interval.Set.singleton (Interval.at_least (Value.Int 0));
                      nullable = false;
                    }
                | Plan.Min e | Plan.Max e ->
                    let v = aeval ce e in
                    { v with nullable = v.nullable || not grouped }
                | Plan.Sum e | Plan.Avg e ->
                    {
                      range = Interval.Set.full;
                      nullable = (aeval ce e).nullable || not grouped;
                    }
              in
              (set env (mk i) v, i + 1))
            (env, ng) aggs
          |> fst
  | Plan.Project _ -> env_top
  | Plan.Sort { child; _ }
  | Plan.Limit { child; _ }
  | Plan.Motion { child; _ }
  | Plan.Runtime_filter_build { child; _ }
  | Plan.Runtime_filter { child; _ } ->
      derive_c cat child
  | Plan.Sequence cs -> (
      match List.rev cs with [] -> env_top | last :: _ -> derive_c cat last)
  | Plan.Partition_selector { child = Some c; _ } -> derive_c cat c
  | Plan.Partition_selector { child = None; _ } -> Bottom
  | Plan.Update _ | Plan.Delete _ | Plan.Insert _ -> env_top

let derive ~catalog p = derive_c catalog p

(* ------------------------------------------------------------------ *)
(* Reachable-predicate collection.                                     *)

(* Conjuncts guaranteed to hold of every row a subtree contributes to the
   final result — used as join-side context for the sibling. *)
let rec harvest (p : Plan.t) : Expr.t list =
  match p with
  | Plan.Table_scan { filter = Some f; _ }
  | Plan.Dynamic_scan { filter = Some f; _ } ->
      Expr.conjuncts f
  | Plan.Table_scan _ | Plan.Dynamic_scan _ -> []
  | Plan.Filter { pred; child } -> Expr.conjuncts pred @ harvest child
  | Plan.Hash_join { kind; pred; left; right }
  | Plan.Nl_join { kind; pred; left; right } -> (
      match kind with
      | Plan.Inner | Plan.Semi ->
          Expr.conjuncts pred @ harvest left @ harvest right
      | Plan.Left_outer -> harvest left)
  | Plan.Sequence cs -> (
      match List.rev cs with [] -> [] | last :: _ -> harvest last)
  | Plan.Sort { child; _ }
  | Plan.Limit { child; _ }
  | Plan.Motion { child; _ }
  | Plan.Runtime_filter_build { child; _ }
  | Plan.Runtime_filter { child; _ } ->
      harvest child
  | Plan.Partition_selector { child = Some c; _ } -> harvest c
  | Plan.Append [] -> []
  | Plan.Append cs -> (
      (* every emitted row comes from some child, so a conjunct holds of
         the Append's output iff it holds of every contributing child's;
         a branch whose harvest contains a literal [false] contributes no
         rows and constrains nothing (the Planner's static-exclusion shape
         shares one filter across live leaves, so the intersection
         recovers it) *)
      let lit_false e = Expr.equal e Expr.false_ in
      let live =
        List.filter
          (fun h -> not (List.exists lit_false h))
          (List.map harvest cs)
      in
      match live with
      | [] -> [ Expr.false_ ]
      | h0 :: rest ->
          List.filter
            (fun c -> List.for_all (List.exists (Expr.equal c)) rest)
            h0)
  | Plan.Partition_selector { child = None; _ }
  | Plan.Agg _ | Plan.Project _ | Plan.Update _ | Plan.Delete _
  | Plan.Insert _ ->
      []

(* Context to push to each child: conjuncts every row the child contributes
   to the result must satisfy.  The one rule both site walks use: the
   strengthen pass rewrites sites under it and {!pruning_sites} (the
   verifier's pruning pass) re-checks them under it. *)
let child_ctxs (p : Plan.t) (ctx : Expr.t list) : Expr.t list list =
  match p with
  | Plan.Filter { pred; _ } -> [ ctx @ Expr.conjuncts pred ]
  | Plan.Hash_join { kind; pred; left = _; right; _ }
  | Plan.Nl_join { kind; pred; left = _; right; _ } ->
      let jp = Expr.conjuncts pred in
      let lctx =
        match kind with
        | Plan.Inner | Plan.Semi -> ctx @ jp @ harvest right
        | Plan.Left_outer -> ctx
      in
      let rctx =
        ctx @ jp
        @
        match p with
        | Plan.Hash_join { left; _ } | Plan.Nl_join { left; _ } -> harvest left
        | _ -> []
      in
      [ lctx; rctx ]
  | Plan.Agg _ | Plan.Project _ | Plan.Update _ | Plan.Delete _ -> [ [] ]
  | Plan.Append cs -> List.map (fun _ -> []) cs
  | Plan.Sequence cs -> (
      (* only the last child's rows surface *)
      match List.length cs with
      | 0 -> []
      | n -> List.mapi (fun i _ -> if i = n - 1 then ctx else []) cs)
  | Plan.Sort _ | Plan.Limit _ | Plan.Motion _ | Plan.Runtime_filter_build _
  | Plan.Runtime_filter _ ->
      [ ctx ]
  | Plan.Partition_selector { child = Some _; _ } -> [ ctx ]
  | Plan.Partition_selector { child = None; _ }
  | Plan.Table_scan _ | Plan.Dynamic_scan _ | Plan.Insert _ ->
      []

(* ------------------------------------------------------------------ *)
(* Implication across equi-join equivalence classes.                   *)

let equiv_class ~conjs k =
  let eq_pairs =
    List.filter_map
      (function
        | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) -> Some (a, b)
        | _ -> None)
      conjs
  in
  let rec grow cls =
    let next =
      List.fold_left
        (fun cls (a, b) ->
          let mem c = List.exists (Colref.equal c) cls in
          if mem a && not (mem b) then b :: cls
          else if mem b && not (mem a) then a :: cls
          else cls)
        cls eq_pairs
    in
    if List.length next = List.length cls then cls else grow next
  in
  grow [ k ]

let implied_restrictions ~keys conjs =
  let conj_all = Expr.conj conjs in
  let class_of k = equiv_class ~conjs k in
  Array.of_list
    (List.map
       (fun k ->
         let rs =
           List.filter_map
             (fun m -> Expr.restriction m conj_all)
             (class_of k)
         in
         match rs with
         | [] -> None
         | r :: rest -> Some (List.fold_left Interval.Set.inter r rest))
       keys)

(* ------------------------------------------------------------------ *)
(* Pruning sites — the currency of the verifier's sixth pass.           *)

type site_kind = Site_scan of int | Site_append of Expansion.t

type pruning_site = {
  site_path : int list;
  site_kind : site_kind;
  site_rel : int;
  site_root : int;
  site_keys : Colref.t list;
  site_permitted : Interval.Set.t option array;
}

let conjuncts_opt = function Some f -> Expr.conjuncts f | None -> []

(* The one match both site walks ({!pruning_sites} and the strengthen
   pass) use: a DynamicScan over a partitioned table or an expansion with
   a live leaf, with the restrictions [ctx] and its own filter imply on
   each partitioning key.  The statically empty expansion is no site: the
   predicate that proved it empty is gone, nothing is left to re-check. *)
let site_at ~catalog ctx (p : Plan.t) : pruning_site option =
  let site kind ~rel (table : Table.t) filter =
    let keys = Table.part_key_colrefs table ~rel in
    Some
      {
        site_path = [];
        site_kind = kind;
        site_rel = rel;
        site_root = table.oid;
        site_keys = keys;
        site_permitted = implied_restrictions ~keys (ctx @ conjuncts_opt filter);
      }
  in
  match p with
  | Plan.Dynamic_scan { rel; part_scan_id; root_oid; filter; _ } -> (
      match Catalog.find_oid_opt catalog root_oid with
      | Some ({ partitioning = Some _; _ } as table) ->
          site (Site_scan part_scan_id) ~rel table filter
      | _ -> None)
  | Plan.Append _ -> (
      match Expansion.of_append catalog p with
      | Some ({ leaves = _ :: _; _ } as x) ->
          site (Site_append x) ~rel:x.rel x.table x.filter
      | _ -> None)
  | _ -> None

let pruning_sites ~catalog plan =
  let sites = ref [] in
  let rec walk path ctx (p : Plan.t) =
    Option.iter
      (fun s -> sites := { s with site_path = List.rev path } :: !sites)
      (site_at ~catalog ctx p);
    List.iteri
      (fun i (c, cx) -> walk (i :: path) cx c)
      (List.combine (Plan.children p) (child_ctxs p ctx))
  in
  walk [] [] plan;
  List.rev !sites

(* ------------------------------------------------------------------ *)
(* Plan simplification (phase 1) and strengthening (phase 2).           *)

let scan_base_env cat ~rel oid = scan_env ~catalog:cat ~rel (Catalog.root_of cat oid)

(* Phase 1: pure expression rewrite, no cross-operator context. *)
let rec s1 cat (p : Plan.t) : Plan.t =
  match p with
  | Plan.Filter { pred; child } ->
      let child' = s1 cat child in
      let env = derive_c cat child' in
      let pred' = simplify env pred in
      if Expr.equal pred' Expr.true_ then child'
      else if child' == child && pred' == pred then p
      else Plan.Filter { pred = pred'; child = child' }
  | Plan.Append cs -> (
      match Expansion.of_append cat p with
      | Some ({ leaves = _ :: _; filter = Some f; _ } as x) ->
          let env = scan_base_env cat ~rel:x.rel x.table.oid in
          let f' = simplify env f in
          if f' == f then p
          else if Expr.equal f' Expr.false_ && x.guard = None then
            (* statically empty: collapse to the single-false-leaf shape *)
            Expansion.to_plan { x with leaves = [] }
          else
            Expansion.to_plan
              {
                x with
                filter = (if Expr.equal f' Expr.true_ then None else Some f');
              }
      | _ ->
          let cs' = List.map (s1 cat) cs in
          if List.for_all2 ( == ) cs cs' then p else Plan.Append cs')
  | Plan.Table_scan ({ rel; table_oid; filter = Some f; _ } as s) ->
      if Expr.equal f Expr.false_ then p
      else
        let env = scan_base_env cat ~rel table_oid in
        let f' = simplify env f in
        if f' == f then p
        else
          Plan.Table_scan
            {
              s with
              filter = (if Expr.equal f' Expr.true_ then None else Some f');
            }
  | Plan.Dynamic_scan ({ rel; root_oid; filter = Some f; _ } as s) ->
      let env = scan_base_env cat ~rel root_oid in
      let f' = simplify env f in
      if f' == f then p
      else
        Plan.Dynamic_scan
          {
            s with
            filter = (if Expr.equal f' Expr.true_ then None else Some f');
          }
  | _ ->
      let cs = Plan.children p in
      let cs' = List.map (s1 cat) cs in
      if List.for_all2 ( == ) cs cs' then p else Plan.with_children p cs'

(* The conjunct to add to [pred] so key [k] is restricted to the implied
   set, when the implication tightens [pred]'s own restriction of [k]. *)
let tighten k pred implied =
  Option.bind implied (fun s_imp ->
      let own =
        Option.value ~default:Interval.Set.full
          (Option.bind pred (Expr.restriction k))
      in
      if Interval.Set.is_subset own s_imp then None
      else Some (expr_of_set k s_imp))

(* Phase 2: context-aware strengthening.  Walks the simplified plan as
   {!pruning_sites} does (same sites, same context rule), conjoins implied
   partition-key restrictions onto partition-selector predicates, and
   re-runs static exclusion on unguarded Append expansions. *)
let strengthen_pass cat (plan : Plan.t) : Plan.t =
  let scan_implied : (int, Interval.Set.t option array) Hashtbl.t =
    Hashtbl.create 8
  in
  let rec go ctx (p : Plan.t) : Plan.t =
    match (p, site_at ~catalog:cat ctx p) with
    | _, Some { site_kind = Site_scan part_scan_id; site_permitted = imp; _ } ->
        if Array.exists Option.is_some imp then
          Hashtbl.replace scan_implied part_scan_id imp;
        p
    | ( _,
        Some
          {
            site_kind = Site_append ({ guard = None; _ } as x);
            site_keys = keys;
            site_permitted = imp;
            _;
          } ) -> (
        let synths =
          List.concat
            (List.mapi
               (fun l k -> Option.to_list (tighten k x.filter imp.(l)))
               keys)
        in
        match synths with
        | [] -> p
        | _ ->
            let f' = Expr.conj (conjuncts_opt x.filter @ synths) in
            Expansion.to_plan (Expansion.exclude { x with filter = Some f' } f'))
    | (Plan.Append _ | Plan.Dynamic_scan _), _ -> p
    | _ ->
        let cs = Plan.children p in
        let cs' = List.map2 (fun c cx -> go cx c) cs (child_ctxs p ctx) in
        if List.for_all2 ( == ) cs cs' then p else Plan.with_children p cs'
  in
  let plan = go [] plan in
  if Hashtbl.length scan_implied = 0 then plan
  else
    (* conjoin implied restrictions onto the matching selectors' per-level
       predicates where they tighten them *)
    let rec fx (p : Plan.t) : Plan.t =
      match p with
      | Plan.Partition_selector ({ part_scan_id; keys; predicates; child; _ } as s)
        -> (
          let child' = Option.map fx child in
          let base =
            if child' == child then p
            else Plan.Partition_selector { s with child = child' }
          in
          match Hashtbl.find_opt scan_implied part_scan_id with
          | Some imp
            when Array.length imp = List.length predicates
                 && List.length keys = List.length predicates ->
              let changed = ref false in
              let preds' =
                List.mapi
                  (fun l pe ->
                    match tighten (List.nth keys l) pe imp.(l) with
                    | None -> pe
                    | Some synth -> (
                        changed := true;
                        match pe with
                        | None -> Some synth
                        | Some e -> Some (Expr.conj [ e; synth ])))
                  predicates
              in
              if !changed then
                Plan.Partition_selector
                  { s with predicates = preds'; child = child' }
              else base
          | _ -> base)
      | _ ->
          let cs = Plan.children p in
          let cs' = List.map fx cs in
          if List.for_all2 ( == ) cs cs' then p else Plan.with_children p cs'
    in
    fx plan

let simplify_plan ~catalog ?(strengthen = true) plan =
  let p1 = s1 catalog plan in
  if strengthen then strengthen_pass catalog p1 else p1

(* ------------------------------------------------------------------ *)
(* Runtime-filter cross-check.                                         *)

let minmax_violations ~catalog ~child ~keys ~minmax =
  let env = derive_c catalog child in
  List.concat
    (List.mapi
       (fun i k ->
         match minmax i with
         | None -> []
         | Some (lo, hi) ->
             let v = find env k in
             let bad w = not (Interval.Set.contains v.range w) in
             let describe which value =
               Printf.sprintf
                 "runtime filter key %d (%s): %s endpoint %s outside static range %s"
                 i (Colref.to_string k) which (Value.to_string value)
                 (Format.asprintf "%a" Interval.Set.pp v.range)
             in
             (if bad lo then [ describe "min" lo ] else [])
             @ if bad hi then [ describe "max" hi ] else [])
       keys)

(* ------------------------------------------------------------------ *)
(* Linting.                                                            *)

module Lint = struct
  type finding = { code : string; path : string; detail : string }

  let pp_finding fmt f =
    Format.fprintf fmt "%s at %s: %s" f.code f.path f.detail

  let plan ~catalog (plan : Plan.t) =
    let findings = ref [] in
    let emit code path detail = findings := { code; path; detail } :: !findings in
    let seen_shared : Expr.t list ref = ref [] in
    let check_pred env path (f : Expr.t) =
      let report kind c =
        match kind with
        | `Redundant -> emit "lint/redundant-conjunct" path (Expr.to_string c)
        | `Contradiction ->
            emit "lint/contradictory-conjunct" path (Expr.to_string c)
      in
      let f' = simplify ~report env f in
      if Expr.equal f' Expr.false_ && not (Expr.equal f Expr.false_) then
        emit "lint/contradiction" path (Expr.to_string f)
      else if Expr.equal f' Expr.true_ && not (Expr.equal f Expr.true_) then
        emit "lint/redundant-conjunct" path (Expr.to_string f)
    in
    let rec walk path (p : Plan.t) =
      let here = String.concat "/" (List.rev path) in
      (match p with
      | Plan.Filter { pred; child } ->
          check_pred (derive_c catalog child) here pred
      | Plan.Table_scan { rel; table_oid; filter = Some f; _ }
        when not (List.memq f !seen_shared) ->
          seen_shared := f :: !seen_shared;
          if not (Expr.equal f Expr.false_) then
            check_pred (scan_base_env catalog ~rel table_oid) here f
      | Plan.Dynamic_scan { rel; root_oid; filter = Some f; _ } ->
          check_pred (scan_base_env catalog ~rel root_oid) here f
      | Plan.Append cs ->
          List.iteri
            (fun i c ->
              match c with
              | Plan.Table_scan { rel; table_oid; filter; _ }
                when not (Expansion.dead c) ->
                  let env = scan_env ~catalog ~rel table_oid in
                  let dead =
                    match filter with
                    | Some f -> contradicts env f
                    | None -> is_bottom env
                  in
                  if dead then
                    emit "lint/dead-branch"
                      (String.concat "/"
                         (List.rev (Printf.sprintf "%d.Scan" i :: path)))
                      (Printf.sprintf "leaf oid %d can match no row" table_oid)
              | _ -> ())
            cs
      | _ -> ());
      List.iteri
        (fun i c -> walk (Printf.sprintf "%d.%s" i (Plan.name c) :: path) c)
        (Plan.children p)
    in
    walk [ Plan.name plan ] plan;
    List.rev !findings
end
