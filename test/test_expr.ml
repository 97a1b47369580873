(** Expression tests: three-valued evaluation, structural helpers, and —
    crucially — the soundness of {!Mpp_expr.Expr.restriction}, the analysis
    behind partition selection. *)

open Mpp_expr

let key = Colref.make ~rel:0 ~index:0 ~name:"k" ~dtype:Value.Tint
let other = Colref.make ~rel:0 ~index:1 ~name:"x" ~dtype:Value.Tint
let remote = Colref.make ~rel:1 ~index:0 ~name:"a" ~dtype:Value.Tint

let env_with kv xv =
  {
    Expr.col =
      (fun c ->
        if Colref.equal c key then kv
        else if Colref.equal c other then xv
        else invalid_arg "unbound");
    Expr.param = (fun _ -> invalid_arg "no params");
  }

let eval_b e kv = Expr.eval (env_with kv Value.Null) e

let test_eval_three_valued () =
  let p = Expr.lt (Expr.col key) (Expr.int 5) in
  Alcotest.(check bool) "3 < 5" true (eval_b p (Value.Int 3) = Value.Bool true);
  Alcotest.(check bool) "7 < 5" true (eval_b p (Value.Int 7) = Value.Bool false);
  Alcotest.(check bool) "null < 5 unknown" true
    (eval_b p Value.Null = Value.Null);
  (* short-circuit laws *)
  Alcotest.(check bool) "false AND unknown = false" true
    (eval_b (Expr.And [ Expr.false_; p ]) Value.Null = Value.Bool false);
  Alcotest.(check bool) "true OR unknown = true" true
    (eval_b (Expr.Or [ Expr.true_; p ]) Value.Null = Value.Bool true);
  Alcotest.(check bool) "true AND unknown = unknown" true
    (eval_b (Expr.And [ Expr.true_; p ]) Value.Null = Value.Null);
  Alcotest.(check bool) "NOT unknown = unknown" true
    (eval_b (Expr.Not p) Value.Null = Value.Null)

let test_eval_pred_filters_null () =
  let p = Expr.eq (Expr.col key) (Expr.int 1) in
  Alcotest.(check bool) "unknown rejects the row" false
    (Expr.eval_pred (env_with Value.Null Value.Null) p)

let test_in_list_null () =
  let p = Expr.In_list (Expr.col key, [ Value.Int 1; Value.Null ]) in
  Alcotest.(check bool) "1 IN (1, null)" true
    (eval_b p (Value.Int 1) = Value.Bool true);
  Alcotest.(check bool) "2 IN (1, null) is unknown" true
    (eval_b p (Value.Int 2) = Value.Null)

let test_arith () =
  let env = env_with (Value.Int 7) (Value.Int 2) in
  Alcotest.(check bool) "7 % 2 = 1" true
    (Expr.eval env (Expr.Arith (Expr.Mod, Expr.col key, Expr.col other))
     = Value.Int 1);
  Alcotest.(check bool) "div by zero is null" true
    (Expr.eval env (Expr.Arith (Expr.Div, Expr.col key, Expr.int 0))
     = Value.Null)

let test_date_functions () =
  let env = env_with (Value.date_of_string "2013-10-01") Value.Null in
  Alcotest.(check bool) "year()" true
    (Expr.eval env (Expr.Func ("year", [ Expr.col key ])) = Value.Int 2013);
  Alcotest.(check bool) "quarter()" true
    (Expr.eval env (Expr.Func ("quarter", [ Expr.col key ])) = Value.Int 4)

let test_conjuncts () =
  let a = Expr.eq (Expr.col key) (Expr.int 1)
  and b = Expr.lt (Expr.col other) (Expr.int 2) in
  Alcotest.(check int) "nested conjunction flattens" 3
    (List.length (Expr.conjuncts (Expr.And [ a; Expr.And [ b; a ] ])));
  Alcotest.(check bool) "conj of none is true" true
    (Expr.equal (Expr.conj []) Expr.true_);
  Alcotest.(check bool) "conj of one is itself" true
    (Expr.equal (Expr.conj [ a ]) a)

let test_find_pred_on_key () =
  let on_key = Expr.ge (Expr.col key) (Expr.int 10)
  and off_key = Expr.lt (Expr.col other) (Expr.int 5)
  and join_pred = Expr.eq (Expr.col key) (Expr.col remote) in
  (match Expr.find_pred_on_key key (Expr.And [ on_key; off_key ]) with
  | Some e -> Alcotest.(check bool) "extracts key conjunct" true (Expr.equal e on_key)
  | None -> Alcotest.fail "expected a predicate");
  Alcotest.(check bool) "none when key absent" true
    (Expr.find_pred_on_key key off_key = None);
  (match Expr.find_pred_on_key key join_pred with
  | Some e ->
      Alcotest.(check bool) "join predicates count (DPE)" true
        (Expr.equal e join_pred)
  | None -> Alcotest.fail "expected the join predicate")

let test_find_preds_on_keys_multilevel () =
  let k2 = Colref.make ~rel:0 ~index:2 ~name:"k2" ~dtype:Value.Tstring in
  let p =
    Expr.And
      [ Expr.ge (Expr.col key) (Expr.int 1);
        Expr.eq (Expr.col k2) (Expr.str "east") ]
  in
  match Expr.find_preds_on_keys [ key; k2 ] p with
  | Some [ Some _; Some _ ] -> ()
  | _ -> Alcotest.fail "expected predicates on both levels"

let test_subst_and_params () =
  let p = Expr.eq (Expr.col key) (Expr.col remote) in
  let p' =
    Expr.subst_cols
      (fun c -> if Colref.equal c remote then Some (Value.Int 9) else None)
      p
  in
  Alcotest.(check bool) "remote col replaced" true
    (Expr.equal p' (Expr.eq (Expr.col key) (Expr.int 9)));
  let q = Expr.lt (Expr.col key) (Expr.Param 1) in
  let q' = Expr.bind_params (fun i -> if i = 1 then Some (Value.Int 4) else None) q in
  Alcotest.(check bool) "param bound" true
    (Expr.equal q' (Expr.lt (Expr.col key) (Expr.int 4)));
  (* literals on both sides of a comparison are left as they are *)
  let lits = Expr.lt (Expr.int 1) (Expr.int 2) in
  Alcotest.(check bool) "literal comparison kept by subst_cols" true
    (Expr.equal
       (Expr.subst_cols (fun _ -> Some (Value.Int 9))
          (Expr.And [ lits; Expr.eq (Expr.col remote) (Expr.int 3) ]))
       (Expr.And [ lits; Expr.eq (Expr.int 9) (Expr.int 3) ]));
  Alcotest.(check bool) "literal comparison kept by bind_params" true
    (Expr.equal
       (Expr.bind_params (fun _ -> Some (Value.Int 4))
          (Expr.Or [ lits; Expr.Param 2 ]))
       (Expr.Or [ lits; Expr.int 4 ]))

(* The documented visiting orders: [map] rebuilds a comparison's right
   operand before its left, list members in order, and a node after its
   operands; [fold] is pre-order, left to right. *)
let test_walk_orders () =
  let e =
    Expr.And
      [ Expr.lt (Expr.int 1) (Expr.int 2); Expr.Not (Expr.int 3); Expr.int 4 ]
  in
  let seen = ref [] in
  ignore
    (Expr.map
       (fun e ->
         (match e with
         | Expr.Const v -> seen := Value.to_int v :: !seen
         | _ -> ());
         e)
       e);
  Alcotest.(check (list int)) "map order" [ 2; 1; 3; 4 ] (List.rev !seen);
  Alcotest.(check (list string)) "fold order"
    [ "and"; "cmp"; "1"; "2"; "not"; "3"; "4" ]
    (List.rev
       (Expr.fold
          (fun acc e ->
            (match e with
            | Expr.And _ -> "and"
            | Expr.Cmp _ -> "cmp"
            | Expr.Not _ -> "not"
            | Expr.Const v -> Value.to_string v
            | _ -> "?")
            :: acc)
          [] e))

let test_restriction_shapes () =
  let restr p = Expr.restriction key p in
  (match restr (Expr.eq (Expr.col key) (Expr.int 5)) with
  | Some s ->
      Alcotest.(check bool) "eq yields point" true
        (Interval.Set.contains s (Value.Int 5)
        && not (Interval.Set.contains s (Value.Int 6)))
  | None -> Alcotest.fail "eq analyzable");
  (match restr (Expr.between (Expr.col key) (Expr.int 1) (Expr.int 3)) with
  | Some s ->
      Alcotest.(check bool) "between bounds" true
        (Interval.Set.contains s (Value.Int 1)
        && Interval.Set.contains s (Value.Int 3)
        && not (Interval.Set.contains s (Value.Int 4)))
  | None -> Alcotest.fail "between analyzable");
  (match restr (Expr.Not (Expr.eq (Expr.col key) (Expr.int 5))) with
  | Some s ->
      Alcotest.(check bool) "not-eq excludes the point" true
        (not (Interval.Set.contains s (Value.Int 5))
        && Interval.Set.contains s (Value.Int 4))
  | None -> Alcotest.fail "negated eq analyzable");
  Alcotest.(check bool) "opaque predicate is unanalyzable" true
    (restr (Expr.ge (Expr.Func ("abs", [ Expr.col key ])) (Expr.int 1)) = None);
  (* AND may skip opaque conjuncts (sound over-approximation) *)
  (match
     restr
       (Expr.And
          [ Expr.ge (Expr.Func ("abs", [ Expr.col key ])) (Expr.int 1);
            Expr.le (Expr.col key) (Expr.int 10) ])
   with
  | Some s ->
      Alcotest.(check bool) "AND keeps the analyzable half" true
        (Interval.Set.contains s (Value.Int 10)
        && not (Interval.Set.contains s (Value.Int 11)))
  | None -> Alcotest.fail "partially analyzable AND");
  (* OR with an opaque branch must give up *)
  Alcotest.(check bool) "OR with opaque branch gives up" true
    (restr
       (Expr.Or
          [ Expr.eq (Expr.col key) (Expr.int 1);
            Expr.ge (Expr.Func ("abs", [ Expr.col key ])) (Expr.int 5) ])
    = None)

(* The load-bearing property: restriction never excludes a key value for
   which the predicate can be true. *)
let prop_restriction_sound =
  QCheck2.Test.make ~count:3000
    ~name:"restriction soundness: eval true => key in restriction"
    QCheck2.Gen.(pair (Support.predicate_gen key) Support.int_value_gen)
    (fun (pred, v) ->
      match Expr.restriction key pred with
      | None -> true
      | Some set ->
          let env = env_with v Value.Null in
          (not (Expr.eval_pred env pred)) || Interval.Set.contains set v)

let prop_conj_equiv =
  QCheck2.Test.make ~count:1000 ~name:"conj [a;b] evaluates like And [a;b]"
    QCheck2.Gen.(triple (Support.predicate_gen key) (Support.predicate_gen key)
                   Support.int_value_gen)
    (fun (a, b, v) ->
      let env = env_with v Value.Null in
      Expr.eval_pred env (Expr.conj [ a; b ])
      = Expr.eval_pred env (Expr.And [ a; b ]))

let prop_push_not_preserves =
  QCheck2.Test.make ~count:1500 ~name:"restriction of NOT p is sound too"
    QCheck2.Gen.(pair (Support.predicate_gen key) Support.int_value_gen)
    (fun (pred, v) ->
      let notp = Expr.Not pred in
      match Expr.restriction key notp with
      | None -> true
      | Some set ->
          let env = env_with v Value.Null in
          (not (Expr.eval_pred env notp)) || Interval.Set.contains set v)

(* ---- compiled expressions against the interpreter ---- *)

(* [Expr.compile] / [Expr.compile_pred] are differential-tested against
   [Expr.eval] / [Expr.eval_pred] over rows of four columns whose values
   mix every type, NULL and NaN included, so each typed fast path (an Int
   or Date column against a constant or bound parameter, a resolved
   function, an IN list) meets every fallback: a Float or NULL in an Int
   column, an Int column against a Float constant, a date function over a
   non-date. *)

let ncols = 4
let dcols =
  List.init ncols (fun i ->
      Colref.make ~rel:0 ~index:i ~name:(Printf.sprintf "c%d" i)
        ~dtype:Value.Tint)

let any_value_gen =
  QCheck2.Gen.(
    oneof
      [ return Value.Null;
        map (fun i -> Value.Int i) (int_range (-3) 3);
        map (fun f -> Value.Float f)
          (oneofl [ -1.5; 0.0; 1.0; 2.0; 2.5; Float.nan ]);
        map (fun d -> Value.Date (15_000 + d)) (int_range 0 3);
        map (fun s -> Value.String s) (oneofl [ "a"; "b" ]);
        map (fun b -> Value.Bool b) bool ])

let nparams = 2

let operand_gen =
  QCheck2.Gen.(
    let leaf =
      oneof
        [ map Expr.col (oneofl dcols);
          map (fun v -> Expr.Const v) any_value_gen;
          map (fun i -> Expr.Param i) (int_range 0 (nparams - 1)) ]
    in
    oneof
      [ leaf;
        leaf;
        map2
          (fun f a -> Expr.Func (f, [ a ]))
          (oneofl
             [ "year"; "month"; "day"; "day_of_week"; "quarter"; "to_float" ])
          leaf ])

let compiled_pred_gen =
  QCheck2.Gen.(
    let atom =
      oneof
        [ map3
            (fun op a b -> Expr.Cmp (op, a, b))
            (oneofl Expr.[ Eq; Neq; Lt; Le; Gt; Ge ])
            operand_gen operand_gen;
          map2
            (fun e vs -> Expr.In_list (e, vs))
            operand_gen
            (list_size (int_range 1 4) any_value_gen);
          map (fun e -> Expr.Is_null e) operand_gen ]
    in
    let sub g = list_size (int_range 0 3) g in
    sized_size (int_range 0 2)
    @@ fix (fun self n ->
           if n = 0 then atom
           else
             oneof
               [ atom;
                 map (fun es -> Expr.And es) (sub (self (n - 1)));
                 map (fun es -> Expr.Or es) (sub (self (n - 1)));
                 map (fun e -> Expr.Not e) (self (n - 1)) ]))

let row_gen = QCheck2.Gen.(array_size (return ncols) any_value_gen)

(* An outcome: the value, or the [Invalid_argument] it raised. *)
let outcome f = try Ok (f ()) with Invalid_argument m -> Error m

(* Same constructor and same payload; NaN equals NaN. *)
let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Float.equal x y
  | _ -> a = b

(* Both raising agrees: with two failing operands, which one raises first
   follows OCaml's unspecified evaluation order. *)
let same_outcome eq a b =
  match (a, b) with
  | Ok x, Ok y -> eq x y
  | Error _, Error _ -> true
  | _ -> false

let diff_env row params =
  {
    Expr.col = (fun c -> row.(c.Colref.index));
    Expr.param = (fun i -> params.(i));
  }

let resolve c = c.Colref.index

let print_case (e, params, rows) =
  Printf.sprintf "%s  params=[%s]  rows=[%s]" (Expr.to_string e)
    (String.concat ", " (Array.to_list (Array.map Value.to_string params)))
    (String.concat "; "
       (List.map
          (fun r ->
            String.concat ", " (Array.to_list (Array.map Value.to_string r)))
          rows))

(* [compile] evaluates exactly what [eval] does, so values must agree and
   one raises where the other does.  [compile_pred] short-circuits on unknown
   too, so it evaluates a prefix of what [eval_pred] does: it must agree
   whenever the interpreter does not raise. *)
let check_compiled (e, params, rows) =
  let f = Expr.compile ~resolve ~params e
  and p = Expr.compile_pred ~resolve ~params e in
  List.for_all
    (fun row ->
      let env = diff_env row params in
      same_outcome same_value
        (outcome (fun () -> Expr.eval env e))
        (outcome (fun () -> f row))
      &&
      match outcome (fun () -> Expr.eval_pred env e) with
      | Ok b -> (
          match outcome (fun () -> p row) with
          | Ok b' -> b = b'
          | Error _ -> false)
      | Error _ -> true)
    rows

let prop_compiled_matches_eval =
  QCheck2.Test.make ~count:3000 ~name:"compiled expressions = interpreter"
    ~print:print_case
    QCheck2.Gen.(
      triple compiled_pred_gen
        (array_size (return nparams) any_value_gen)
        (list_size (int_range 1 8) row_gen))
    check_compiled

let prop_compiled_operands_match_eval =
  QCheck2.Test.make ~count:1000 ~name:"compiled operands = interpreter"
    ~print:print_case
    QCheck2.Gen.(
      triple operand_gen
        (array_size (return nparams) any_value_gen)
        (list_size (int_range 1 8) row_gen))
    check_compiled

(* The fallbacks the random cases must reach, pinned one by one: an Int
   column against a Float constant (either side, as a bound parameter
   too), a Float, NULL or Date in a column compared with an Int constant,
   the ends of the int range, a NULL in an IN list, and every date
   function over NULL and non-dates. *)
let test_compiled_fallbacks () =
  let c0 = Expr.col (List.hd dcols) in
  let rows =
    List.map
      (fun v -> [| v; Value.Null; Value.Null; Value.Null |])
      [ Value.Int 2; Value.Int 3; Value.Null; Value.Float 2.5; Value.Float 2.0;
        Value.Float Float.nan; Value.Date 15_001; Value.String "a";
        Value.Bool true; Value.Int min_int; Value.Int max_int ]
  in
  let params = [| Value.Float 2.5; Value.Int 2 |] in
  let cases =
    List.concat_map
      (fun op ->
        [ Expr.Cmp (op, c0, Expr.Const (Value.Float 2.5));
          Expr.Cmp (op, Expr.Const (Value.Float 2.0), c0);
          Expr.Cmp (op, c0, Expr.Param 0);
          Expr.Cmp (op, c0, Expr.int 2);
          Expr.Cmp (op, c0, Expr.int min_int);
          Expr.Cmp (op, Expr.int max_int, c0);
          Expr.Cmp (op, Expr.Param 1, c0);
          Expr.Cmp (op, c0, Expr.Const (Value.Date 15_001)) ])
      Expr.[ Eq; Neq; Lt; Le; Gt; Ge ]
    @ [ Expr.In_list (c0, [ Value.Int 2; Value.Null ]);
        Expr.In_list (c0, [ Value.Float 3.0; Value.String "a" ]) ]
    @ List.map
        (fun f -> Expr.Func (f, [ c0 ]))
        [ "year"; "month"; "day"; "day_of_week"; "quarter"; "to_float" ]
  in
  List.iter
    (fun e ->
      if not (check_compiled (e, params, rows)) then
        Alcotest.failf "compiled differs from eval: %s" (Expr.to_string e))
    cases

let () =
  Alcotest.run "expr"
    [ ("evaluation",
       [ Alcotest.test_case "three-valued logic" `Quick test_eval_three_valued;
         Alcotest.test_case "filters reject unknown" `Quick
           test_eval_pred_filters_null;
         Alcotest.test_case "IN with null" `Quick test_in_list_null;
         Alcotest.test_case "arithmetic" `Quick test_arith;
         Alcotest.test_case "date functions" `Quick test_date_functions;
         Alcotest.test_case "compiled fallbacks" `Quick test_compiled_fallbacks
       ]);
      ("structure",
       [ Alcotest.test_case "conjuncts/conj" `Quick test_conjuncts;
         Alcotest.test_case "FindPredOnKey" `Quick test_find_pred_on_key;
         Alcotest.test_case "multi-level FindPredOnKey" `Quick
           test_find_preds_on_keys_multilevel;
         Alcotest.test_case "subst and params" `Quick test_subst_and_params;
         Alcotest.test_case "map and fold orders" `Quick test_walk_orders ]);
      ("restriction",
       [ Alcotest.test_case "shapes" `Quick test_restriction_shapes ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_restriction_sound; prop_conj_equiv; prop_push_not_preserves;
           prop_compiled_matches_eval; prop_compiled_operands_match_eval ]) ]
