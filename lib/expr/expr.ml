(** Scalar expressions: abstract syntax, evaluation, and the predicate
    analysis the partition-selection machinery is built on.

    The two entry points the optimizer cares about are:
    - {!find_pred_on_key} — the paper's [FindPredOnKey] helper (Algorithms 3
      and 4): extract from a predicate the conjuncts that constrain a given
      column;
    - {!restriction} — reduce a predicate on the partitioning key to an
      {!Interval.Set.t}; this realizes the partition-selection function
      [f*_T] of paper §2.1 once intersected with partition constraints.

    [restriction] is deliberately conservative: whenever a (sub)predicate
    cannot be analyzed it contributes "no restriction", so partition
    selection may over-approximate but never drops a qualifying partition. *)

type cmp_op = Eq | Neq | Lt | Le | Gt | Ge
type arith_op = Add | Sub | Mul | Div | Mod

type t =
  | Const of Value.t
  | Col of Colref.t
  | Param of int  (** prepared-statement parameter, bound at run time *)
  | Cmp of cmp_op * t * t
  | And of t list
  | Or of t list
  | Not of t
  | Arith of arith_op * t * t
  | In_list of t * Value.t list
  | Is_null of t
  | Func of string * t list
      (** uninterpreted function; opaque to partition analysis *)

let true_ = Const (Value.Bool true)
let false_ = Const (Value.Bool false)
let col c = Col c
let int i = Const (Value.Int i)
let str s = Const (Value.String s)
let date s = Const (Value.date_of_string s)
let eq a b = Cmp (Eq, a, b)
let lt a b = Cmp (Lt, a, b)
let le a b = Cmp (Le, a, b)
let gt a b = Cmp (Gt, a, b)
let ge a b = Cmp (Ge, a, b)

(** [BETWEEN lo AND hi], desugared to a conjunction as SQL defines it. *)
let between e lo hi = And [ Cmp (Ge, e, lo); Cmp (Le, e, hi) ]

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> Value.equal x y
  | Col x, Col y -> Colref.equal x y
  | Param x, Param y -> x = y
  | Cmp (o1, a1, b1), Cmp (o2, a2, b2) -> o1 = o2 && equal a1 a2 && equal b1 b2
  | And xs, And ys | Or xs, Or ys ->
      List.length xs = List.length ys && List.for_all2 equal xs ys
  | Not x, Not y -> equal x y
  | Arith (o1, a1, b1), Arith (o2, a2, b2) ->
      o1 = o2 && equal a1 a2 && equal b1 b2
  | In_list (e1, v1), In_list (e2, v2) ->
      equal e1 e2
      && List.length v1 = List.length v2
      && List.for_all2 Value.equal v1 v2
  | Is_null x, Is_null y -> equal x y
  | Func (f1, a1), Func (f2, a2) ->
      String.equal f1 f2
      && List.length a1 = List.length a2
      && List.for_all2 equal a1 a2
  | ( ( Const _ | Col _ | Param _ | Cmp _ | And _ | Or _ | Not _ | Arith _
      | In_list _ | Is_null _ | Func _ ),
      _ ) ->
      false

(* ------------------------------------------------------------------ *)
(* Structure helpers                                                   *)
(* ------------------------------------------------------------------ *)

(** Flatten nested conjunctions into a list of conjuncts. *)
let rec conjuncts = function
  | And es -> List.concat_map conjuncts es
  | Const (Value.Bool true) -> []
  | e -> [ e ]

(** The paper's [Conj]: conjunction of predicates, with [true] as unit. *)
let conj es =
  match List.concat_map conjuncts es with
  | [] -> true_
  | [ e ] -> e
  | es -> And es

let rec fold f acc e =
  let acc = f acc e in
  match e with
  | Const _ | Col _ | Param _ -> acc
  | Cmp (_, a, b) | Arith (_, a, b) -> fold f (fold f acc a) b
  | And es | Or es | Func (_, es) -> fold_list f acc es
  | Not e | Is_null e | In_list (e, _) -> fold f acc e

and fold_list f acc = function
  | [] -> acc
  | e :: es -> fold_list f (fold f acc e) es

let free_cols e =
  List.rev (fold (fun acc -> function Col c -> c :: acc | _ -> acc) [] e)

(** Relation instances referenced by [e]. *)
let rels e =
  fold
    (fun acc -> function
      | Col c -> if List.mem c.Colref.rel acc then acc else c.rel :: acc
      | _ -> acc)
    [] e

(* A binary node's right operand is rebuilt first: the interface
   documents the order, since a stateful [f] sees it. *)
let rec map f e =
  f
    (match e with
    | Const _ | Col _ | Param _ -> e
    | Cmp (o, a, b) ->
        let b = map f b in
        Cmp (o, map f a, b)
    | Arith (o, a, b) ->
        let b = map f b in
        Arith (o, map f a, b)
    | And es -> And (List.map (map f) es)
    | Or es -> Or (List.map (map f) es)
    | Not e -> Not (map f e)
    | Is_null e -> Is_null (map f e)
    | In_list (e, vs) -> In_list (map f e, vs)
    | Func (name, es) -> Func (name, List.map (map f) es))

(** Replace bound parameters with constants (prepared-statement execution). *)
let bind_params lookup =
  map (function
    | Param i as e -> ( match lookup i with Some v -> Const v | None -> e)
    | e -> e)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

type env = { col : Colref.t -> Value.t; param : int -> Value.t }

let eval_cmp op (c : int) =
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(** Evaluate under SQL three-valued logic; boolean results may be
    [Value.Null] (unknown). *)
let rec eval env e : Value.t =
  match e with
  | Const v -> v
  | Col c -> env.col c
  | Param i -> env.param i
  | Cmp (op, a, b) -> (
      match Value.sql_compare (eval env a) (eval env b) with
      | None -> Value.Null
      | Some c -> Value.Bool (eval_cmp op c))
  | And es ->
      let rec go unknown = function
        | [] -> if unknown then Value.Null else Value.Bool true
        | e :: rest -> (
            match eval env e with
            | Value.Bool false -> Value.Bool false
            | Value.Bool true -> go unknown rest
            | Value.Null -> go true rest
            | v -> invalid_arg ("Expr.eval: AND over " ^ Value.to_string v))
      in
      go false es
  | Or es ->
      let rec go unknown = function
        | [] -> if unknown then Value.Null else Value.Bool false
        | e :: rest -> (
            match eval env e with
            | Value.Bool true -> Value.Bool true
            | Value.Bool false -> go unknown rest
            | Value.Null -> go true rest
            | v -> invalid_arg ("Expr.eval: OR over " ^ Value.to_string v))
      in
      go false es
  | Not e -> (
      match eval env e with
      | Value.Bool b -> Value.Bool (not b)
      | Value.Null -> Value.Null
      | v -> invalid_arg ("Expr.eval: NOT over " ^ Value.to_string v))
  | Arith (op, a, b) -> eval_arith op (eval env a) (eval env b)
  | In_list (e, vs) -> (
      match eval env e with
      | Value.Null -> Value.Null
      | v ->
          if List.exists (Value.equal v) vs then Value.Bool true
          else if List.exists Value.is_null vs then Value.Null
          else Value.Bool false)
  | Is_null e -> Value.Bool (Value.is_null (eval env e))
  | Func (name, args) -> eval_func name (List.map (eval env) args)

and eval_arith op a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> (
      match op with
      | Add -> Value.Int (x + y)
      | Sub -> Value.Int (x - y)
      | Mul -> Value.Int (x * y)
      | Div -> if y = 0 then Value.Null else Value.Int (x / y)
      | Mod -> if y = 0 then Value.Null else Value.Int (x mod y))
  | _ ->
      let x = Value.to_float a and y = Value.to_float b in
      (match op with
      | Add -> Value.Float (x +. y)
      | Sub -> Value.Float (x -. y)
      | Mul -> Value.Float (x *. y)
      | Div -> if y = 0. then Value.Null else Value.Float (x /. y)
      | Mod -> if y = 0. then Value.Null else Value.Float (Float.rem x y))

and eval_func name args =
  match (name, args) with
  | _, l when List.exists Value.is_null l -> Value.Null
  | "year", [ Value.Date d ] -> Value.Int (Date.year d)
  | "month", [ Value.Date d ] -> Value.Int (Date.month d)
  | "day", [ Value.Date d ] -> Value.Int (Date.day d)
  | "day_of_week", [ Value.Date d ] -> Value.Int (Date.day_of_week d)
  | "quarter", [ Value.Date d ] -> Value.Int (Date.quarter d)
  | "to_float", [ v ] -> Value.Float (Value.to_float v)
  | "abs", [ Value.Int i ] -> Value.Int (abs i)
  | "abs", [ Value.Float f ] -> Value.Float (Float.abs f)
  | "lower", [ Value.String s ] -> Value.String (String.lowercase_ascii s)
  | "upper", [ Value.String s ] -> Value.String (String.uppercase_ascii s)
  | _ -> invalid_arg ("Expr.eval: unknown function " ^ name)

(** Evaluate as a filter: SQL keeps a row only when the predicate is [true];
    both [false] and unknown reject it. *)
let eval_pred env e =
  match eval env e with Value.Bool b -> b | Value.Null -> false | _ -> false

(* ------------------------------------------------------------------ *)
(* Compilation to flat-row closures                                    *)
(* ------------------------------------------------------------------ *)

(* The executor's hot path: instead of re-walking the AST per row through an
   {!env} record (allocated per row, with a linear layout search per column
   lookup), [compile] resolves every column reference to a fixed tuple
   offset ONCE and returns a closure over flat rows.  This is the
   interpreted analogue of the code-generated selection functions of the
   paper's §3.2 / Figure 15: all plan-time decisions (offsets, parameter
   values, operator dispatch) are taken at compile time; the per-row residue
   is array loads and value comparisons. *)

(* Results are the statically allocated constants: a compiled boolean
   allocates nothing. *)
let vtrue = Value.Bool true
let vfalse = Value.Bool false
let of_bool b = if b then vtrue else vfalse

let flip_cmp = function
  | Eq -> Eq
  | Neq -> Neq
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

(* The per-row loops below are top-level functions over their arguments:
   a loop written as a local closure would be allocated on every row. *)
let rec mem_values v (vs : Value.t array) i =
  i < Array.length vs
  && (Value.equal v (Array.unsafe_get vs i) || mem_values v vs (i + 1))

let rec all_from (fs : (Value.t array -> bool) array) tup i =
  i = Array.length fs
  || ((Array.unsafe_get fs i) tup && all_from fs tup (i + 1))

let rec any_from (fs : (Value.t array -> bool) array) tup i =
  i < Array.length fs
  && ((Array.unsafe_get fs i) tup || any_from fs tup (i + 1))

(* Three-valued AND / OR over [fs.(i ..)]; [unknown]: a NULL seen so far. *)
let rec and_from (fs : (Value.t array -> Value.t) array) tup i unknown =
  if i = Array.length fs then if unknown then Value.Null else vtrue
  else
    match (Array.unsafe_get fs i) tup with
    | Value.Bool false -> vfalse
    | Value.Bool true -> and_from fs tup (i + 1) unknown
    | Value.Null -> and_from fs tup (i + 1) true
    | v -> invalid_arg ("Expr.eval: AND over " ^ Value.to_string v)

let rec or_from (fs : (Value.t array -> Value.t) array) tup i unknown =
  if i = Array.length fs then if unknown then Value.Null else vfalse
  else
    match (Array.unsafe_get fs i) tup with
    | Value.Bool true -> vtrue
    | Value.Bool false -> or_from fs tup (i + 1) unknown
    | Value.Null -> or_from fs tup (i + 1) true
    | v -> invalid_arg ("Expr.eval: OR over " ^ Value.to_string v)

(* [column op k] for an Int or Date constant [k], as a filter: when the
   column holds [k]'s constructor, its int must lie in [lo, hi] (outside
   it for [<>]), bounds fixed here per operator.  A NULL column is unknown
   (false); any other value (an Int column against a Float constant, a
   Float column against an Int one) goes through [generic], the
   {!Value.compare} path.  [None] for other constants. *)
let typed_cmp op o (c : Value.t) ~(generic : Value.t -> bool) :
    (Value.t array -> bool) option =
  let bounds k =
    match op with
    | Eq | Neq -> (k, k)
    | Lt -> if k = min_int then (1, 0) else (min_int, k - 1)
    | Le -> (min_int, k)
    | Gt -> if k = max_int then (1, 0) else (k + 1, max_int)
    | Ge -> (k, max_int)
  in
  let outside = op = Neq in
  match c with
  | Value.Int k ->
      let lo, hi = bounds k in
      Some
        (fun t ->
          match Array.unsafe_get t o with
          | Value.Int x -> if lo <= x && x <= hi then not outside else outside
          | v -> generic v)
  | Value.Date k ->
      let lo, hi = bounds k in
      Some
        (fun t ->
          match Array.unsafe_get t o with
          | Value.Date x -> if lo <= x && x <= hi then not outside else outside
          | v -> generic v)
  | Value.Null | Value.Bool _ | Value.Float _ | Value.String _ -> None

(* Date parts other than the year are at most 31: answered from
   preallocated values. *)
let small_ints = Array.init 32 (fun i -> Value.Int i)

(* A builtin function resolved once, at compile time: its common typed
   case is computed directly; NULL and every other argument go through
   {!eval_func}, which defines the semantics (and raises for an unknown
   name).  [None] for anything that is not a one-argument builtin. *)
let resolve_func name : (Value.t -> Value.t) option =
  let date_part f =
    Some
      (function
      | Value.Date d ->
          let i = f d in
          if i >= 0 && i < 32 then Array.unsafe_get small_ints i
          else Value.Int i
      | v -> eval_func name [ v ])
  in
  match name with
  | "year" -> date_part Date.year
  | "month" -> date_part Date.month
  | "day" -> date_part Date.day
  | "day_of_week" -> date_part Date.day_of_week
  | "quarter" -> date_part Date.quarter
  | "to_float" ->
      Some
        (function
        | Value.Int i -> Value.Float (float_of_int i)
        | Value.Float _ as v -> v
        | v -> eval_func name [ v ])
  | _ -> None

(* [a op b] where one side is a column and the other an Int or Date
   constant or bound parameter: the column's offset and the typed filter
   test ({!typed_cmp}), whose generic fallback compares under
   {!Value.compare}. *)
let typed_pred ~resolve ~params op a b =
  let known = function
    | Const v -> Some v
    | Param i when i < Array.length params -> Some params.(i)
    | _ -> None
  in
  let col_const = function
    | Col c, x -> Option.map (fun v -> (resolve c, v)) (known x)
    | _ -> None
  in
  let found =
    match col_const (a, b) with
    | Some (off, v) -> Some (op, off, v)
    | None ->
        Option.map (fun (off, v) -> (flip_cmp op, off, v)) (col_const (b, a))
  in
  Option.bind found (fun (op, off, v) ->
      let generic = function
        | Value.Null -> false
        | x -> eval_cmp op (Value.compare x v)
      in
      Option.map (fun p -> (off, p)) (typed_cmp op off v ~generic))

let compile ~(resolve : Colref.t -> int) ~(params : Value.t array) e :
    Value.t array -> Value.t =
  let rec go e : Value.t array -> Value.t =
    match e with
    | Const v -> fun _ -> v
    | Col c ->
        let off = resolve c in
        fun tup -> Array.unsafe_get tup off
    | Param i ->
        if i < Array.length params then
          let v = params.(i) in
          fun _ -> v
        else
          fun _ ->
            invalid_arg (Printf.sprintf "Expr.compile: unbound parameter $%d" i)
    | Cmp (op, a, b) -> (
        match typed_pred ~resolve ~params op a b with
        | Some (off, p) ->
            fun tup ->
              (match Array.unsafe_get tup off with
              | Value.Null -> Value.Null
              | _ -> of_bool (p tup))
        | None ->
            let fa = go a and fb = go b in
            fun tup -> (
              match (fa tup, fb tup) with
              | Value.Null, _ | _, Value.Null -> Value.Null
              | va, vb -> of_bool (eval_cmp op (Value.compare va vb))))
    | And es ->
        let fs = Array.of_list (List.map go es) in
        fun tup -> and_from fs tup 0 false
    | Or es ->
        let fs = Array.of_list (List.map go es) in
        fun tup -> or_from fs tup 0 false
    | Not e ->
        let f = go e in
        fun tup -> (
          match f tup with
          | Value.Bool b -> of_bool (not b)
          | Value.Null -> Value.Null
          | v -> invalid_arg ("Expr.eval: NOT over " ^ Value.to_string v))
    | Arith (op, a, b) ->
        let fa = go a and fb = go b in
        fun tup -> eval_arith op (fa tup) (fb tup)
    | In_list (e, vs) ->
        let f = go e in
        let arr = Array.of_list vs in
        let has_null = List.exists Value.is_null vs in
        fun tup -> (
          match f tup with
          | Value.Null -> Value.Null
          | v ->
              if mem_values v arr 0 then vtrue
              else if has_null then Value.Null
              else vfalse)
    | Is_null e ->
        let f = go e in
        fun tup -> of_bool (Value.is_null (f tup))
    | Func (name, args) -> (
        match (resolve_func name, args) with
        | Some fn, [ a ] ->
            let fa = go a in
            fun tup -> fn (fa tup)
        | _ ->
            let fs = List.map go args in
            fun tup -> eval_func name (List.map (fun f -> f tup) fs))
  in
  go e

(* Filter semantics (only [true] keeps the row; [false] and unknown reject)
   distribute over AND and OR, so predicates compile straight to boolean
   short-circuits with no three-valued intermediates on the common shapes. *)
let compile_pred ~resolve ~params e : Value.t array -> bool =
  let rec pred e : Value.t array -> bool =
    match e with
    | Const (Value.Bool b) -> fun _ -> b
    | Const Value.Null -> fun _ -> false
    | And es ->
        let fs = Array.of_list (List.map pred es) in
        fun tup -> all_from fs tup 0
    | Or es ->
        let fs = Array.of_list (List.map pred es) in
        fun tup -> any_from fs tup 0
    | Cmp (op, a, b) -> (
        match typed_pred ~resolve ~params op a b with
        | Some (_, p) -> p
        | None ->
            let fa = compile ~resolve ~params a
            and fb = compile ~resolve ~params b in
            (* SQL's unknown on a NULL operand, tested before comparing — no
               [Value.sql_compare] option allocated per row *)
            fun tup -> (
              match (fa tup, fb tup) with
              | Value.Null, _ | _, Value.Null -> false
              | va, vb -> eval_cmp op (Value.compare va vb)))
    | In_list (e, vs) ->
        let arr = Array.of_list vs in
        let f = compile ~resolve ~params e in
        fun tup -> (
          match f tup with Value.Null -> false | v -> mem_values v arr 0)
    | Is_null e ->
        let f = compile ~resolve ~params e in
        fun tup -> Value.is_null (f tup)
    | e ->
        let f = compile ~resolve ~params e in
        fun tup -> ( match f tup with Value.Bool b -> b | _ -> false)
  in
  pred e

(* ------------------------------------------------------------------ *)
(* Predicate analysis for partition selection                          *)
(* ------------------------------------------------------------------ *)

(** [find_pred_on_key key pred] is the paper's [FindPredOnKey]: the
    conjunction of all conjuncts of [pred] that reference [key], or [None]
    if there are none.  The extracted conjuncts may also reference other
    relations (e.g. the join predicate [R.A = T.pk]) — that is exactly what
    enables dynamic partition elimination. *)
let find_pred_on_key (key : Colref.t) pred =
  match List.filter (fun c -> List.exists (Colref.equal key) (free_cols c))
          (conjuncts pred)
  with
  | [] -> None
  | cs -> Some (conj cs)

(** Multi-level variant (paper §2.4): one optional predicate per key. *)
let find_preds_on_keys (keys : Colref.t list) pred =
  let found = List.map (fun k -> find_pred_on_key k pred) keys in
  if List.for_all Option.is_none found then None else Some found

let interval_of_cmp op v =
  match op with
  | Eq -> Some (Interval.Set.point v)
  | Lt -> Some (Interval.Set.singleton (Interval.less_than v))
  | Le -> Some (Interval.Set.singleton (Interval.at_most v))
  | Gt -> Some (Interval.Set.singleton (Interval.greater_than v))
  | Ge -> Some (Interval.Set.singleton (Interval.at_least v))
  | Neq ->
      Some
        (Interval.Set.of_list
           [ Interval.less_than v; Interval.greater_than v ])

(* Push negations down to atoms so that [restriction] only analyzes positive
   atoms; atoms that still carry a Not after this are treated as opaque. *)
let rec push_not = function
  | Not (Not e) -> push_not e
  | Not (And es) -> Or (List.map (fun e -> push_not (Not e)) es)
  | Not (Or es) -> And (List.map (fun e -> push_not (Not e)) es)
  | Not (Cmp (op, a, b)) ->
      let inv = function
        | Eq -> Neq | Neq -> Eq | Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt
      in
      Cmp (inv op, push_not a, push_not b)
  | And es -> And (List.map push_not es)
  | Or es -> Or (List.map push_not es)
  | e -> e

(** [restriction key pred] maps [pred] to the set of values of [key] for
    which [pred] can possibly hold, as an interval set.  [None] means "no
    information" (equivalent to the full set, but distinguished so callers
    can tell a genuinely derived full set from an unanalyzable predicate).

    Soundness contract: if a tuple [t] satisfies [pred] then
    [t.key ∈ restriction key pred] (when [Some]).  Conjuncts that cannot be
    analyzed are skipped, which only widens the result. *)
let restriction (key : Colref.t) pred : Interval.Set.t option =
  let rec atom = function
    | Cmp (op, Col c, Const v) when Colref.equal c key -> interval_of_cmp op v
    | Cmp (op, Const v, Col c) when Colref.equal c key ->
        interval_of_cmp (flip_cmp op) v
    | In_list (Col c, vs) when Colref.equal c key ->
        let non_null = List.filter (fun v -> not (Value.is_null v)) vs in
        Some (Interval.Set.of_list (List.map Interval.point non_null))
    | And es ->
        let analyzed = List.filter_map atom es in
        if analyzed = [] then None
        else Some (List.fold_left Interval.Set.inter Interval.Set.full analyzed)
    | Or es ->
        (* Sound only if every branch is analyzable. *)
        let analyzed = List.map atom es in
        if List.for_all Option.is_some analyzed then
          Some
            (List.fold_left
               (fun acc o -> Interval.Set.union acc (Option.get o))
               Interval.Set.empty analyzed)
        else None
    | Const (Value.Bool false) -> Some Interval.Set.empty
    | _ -> None
  in
  atom (push_not pred)

(* ------------------------------------------------------------------ *)
(* Printing and sizing                                                 *)
(* ------------------------------------------------------------------ *)

let cmp_to_string = function
  | Eq -> "=" | Neq -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let arith_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"

let rec pp fmt = function
  | Const v -> Value.pp fmt v
  | Col c -> Colref.pp fmt c
  | Param i -> Format.fprintf fmt "$%d" i
  | Cmp (op, a, b) -> Format.fprintf fmt "%a %s %a" pp a (cmp_to_string op) pp b
  | And es -> pp_nary fmt "AND" es
  | Or es -> pp_nary fmt "OR" es
  | Not e -> Format.fprintf fmt "NOT (%a)" pp e
  | Arith (op, a, b) ->
      Format.fprintf fmt "(%a %s %a)" pp a (arith_to_string op) pp b
  | In_list (e, vs) ->
      Format.fprintf fmt "%a IN (%s)" pp e
        (String.concat ", " (List.map Value.to_string vs))
  | Is_null e -> Format.fprintf fmt "%a IS NULL" pp e
  | Func (f, args) ->
      Format.fprintf fmt "%s(%s)" f
        (String.concat ", " (List.map to_string args))

and pp_nary fmt op es =
  Format.pp_print_string fmt "(";
  List.iteri
    (fun i e ->
      if i > 0 then Format.fprintf fmt " %s " op;
      pp fmt e)
    es;
  Format.pp_print_string fmt ")"

and to_string e = Format.asprintf "%a" pp e

(** Bytes this expression contributes when serialized into a plan that is
    shipped to segments; drives the plan-size experiments (paper §4.4). *)
let rec serialized_size = function
  | Const v -> 1 + Value.serialized_size v
  | Col _ -> 9
  | Param _ -> 5
  | Cmp (_, a, b) | Arith (_, a, b) ->
      2 + serialized_size a + serialized_size b
  | And es | Or es ->
      List.fold_left (fun acc e -> acc + serialized_size e) 2 es
  | Not e | Is_null e -> 2 + serialized_size e
  | In_list (e, vs) ->
      List.fold_left
        (fun acc v -> acc + Value.serialized_size v)
        (2 + serialized_size e)
        vs
  | Func (f, es) ->
      List.fold_left
        (fun acc e -> acc + serialized_size e)
        (2 + String.length f)
        es
