(** Tests for {!Mpp_expr.Value}: ordering, SQL comparison semantics,
    hashing and sizing. *)

open Mpp_expr

let v_int i = Value.Int i

let test_compare_same_type () =
  Alcotest.(check bool) "int order" true (Value.compare (v_int 1) (v_int 2) < 0);
  Alcotest.(check bool) "string order" true
    (Value.compare (Value.String "a") (Value.String "b") < 0);
  Alcotest.(check bool) "date order" true
    (Value.compare
       (Value.date_of_string "2012-01-01")
       (Value.date_of_string "2013-01-01")
    < 0);
  Alcotest.(check int) "equal floats" 0
    (Value.compare (Value.Float 1.5) (Value.Float 1.5))

let test_numeric_cross_type () =
  Alcotest.(check int) "int = float when equal" 0
    (Value.compare (Value.Int 2) (Value.Float 2.0));
  Alcotest.(check bool) "int < float" true
    (Value.compare (Value.Int 2) (Value.Float 2.5) < 0)

let test_null_ordering () =
  Alcotest.(check bool) "null sorts first" true
    (Value.compare Value.Null (v_int (-1000)) < 0);
  Alcotest.(check int) "null equals null structurally" 0
    (Value.compare Value.Null Value.Null)

let test_sql_compare () =
  Alcotest.(check (option int)) "null vs int is unknown" None
    (Value.sql_compare Value.Null (v_int 1));
  Alcotest.(check (option int)) "int vs null is unknown" None
    (Value.sql_compare (v_int 1) Value.Null);
  Alcotest.(check (option int)) "1 vs 1" (Some 0)
    (Value.sql_compare (v_int 1) (v_int 1))

let test_to_string () =
  Alcotest.(check string) "null" "NULL" (Value.to_string Value.Null);
  Alcotest.(check string) "string quoted" "'x'" (Value.to_string (Value.String "x"));
  Alcotest.(check string) "date quoted" "'2013-10-01'"
    (Value.to_string (Value.date_of_string "2013-10-01"))

let test_serialized_size () =
  Alcotest.(check int) "int is 8 bytes" 8 (Value.serialized_size (v_int 7));
  Alcotest.(check int) "string is 4+len" 9
    (Value.serialized_size (Value.String "hello"))

let prop_compare_antisym =
  QCheck2.Test.make ~count:1000 ~name:"compare is antisymmetric"
    QCheck2.Gen.(pair Support.value_gen Support.value_gen)
    (fun (a, b) -> compare (Value.compare a b) 0 = compare 0 (Value.compare b a))

let prop_compare_transitive =
  QCheck2.Test.make ~count:1000 ~name:"compare is transitive"
    QCheck2.Gen.(triple Support.value_gen Support.value_gen Support.value_gen)
    (fun (a, b, c) ->
      let sorted = List.sort Value.compare [ a; b; c ] in
      match sorted with
      | [ x; y; z ] -> Value.compare x y <= 0 && Value.compare y z <= 0
      | _ -> false)

(* Int 1 and Float 1.0 are SQL-equal: the placement, table and Bloom
   hashes must agree, and [equal] must be exactly [compare = 0] on every
   pair. *)
let numeric_twins_gen =
  QCheck2.Gen.(
    oneof
      [ Support.value_gen;
        map (fun i -> Value.Int i) (int_range (-8) 8);
        map (fun i -> Value.Float (float_of_int i /. 2.0)) (int_range (-16) 16);
        return (Value.Float (-0.0)) ])

let prop_equal_consistent_hash =
  QCheck2.Test.make ~count:2000 ~name:"equal values hash equally"
    QCheck2.Gen.(pair numeric_twins_gen numeric_twins_gen)
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

let prop_equal_is_compare =
  QCheck2.Test.make ~count:2000 ~name:"equal is compare = 0"
    QCheck2.Gen.(pair numeric_twins_gen numeric_twins_gen)
    (fun (a, b) -> Value.equal a b = (Value.compare a b = 0))

let prop_key_hash_consistent =
  QCheck2.Test.make ~count:2000 ~name:"equal values key_hash equally"
    QCheck2.Gen.(pair numeric_twins_gen numeric_twins_gen)
    (fun (a, b) ->
      (not (Value.equal a b))
      || Value.key_hash a = Value.key_hash b
         && Value.tuple_hash [| a; b |] = Value.tuple_hash [| b; a |])

(* Bloom filter bit patterns are a function of [key_hash]: pin it for the
   non-float constructors. *)
let test_key_hash_pinned () =
  let d = Value.date_of_string "2013-10-01" in
  let days = match d with Value.Date x -> x | _ -> assert false in
  Alcotest.(check int) "int" (Value.mix 42) (Value.key_hash (v_int 42));
  Alcotest.(check int) "mix 42" 2835554892900365858 (Value.mix 42);
  Alcotest.(check int) "date" (Value.mix days) (Value.key_hash d);
  Alcotest.(check int) "bool true" (Value.mix 1) (Value.key_hash (Value.Bool true));
  Alcotest.(check int) "bool false" (Value.mix 2)
    (Value.key_hash (Value.Bool false));
  Alcotest.(check int) "string" (Hashtbl.hash "abc")
    (Value.key_hash (Value.String "abc"));
  Alcotest.(check int) "null" 0 (Value.key_hash Value.Null);
  Alcotest.(check int) "integral float hashes as its int" (Value.mix 3)
    (Value.key_hash (Value.Float 3.0));
  Alcotest.(check int) "one-key tuple"
    (Value.tuple_hash [| v_int 7 |])
    (Value.tuple_hash1 (v_int 7))

let prop_size_positive =
  QCheck2.Test.make ~count:500 ~name:"serialized size is positive"
    Support.value_gen
    (fun v -> Value.serialized_size v > 0)

let () =
  Alcotest.run "value"
    [ ("unit",
       [ Alcotest.test_case "same-type compare" `Quick test_compare_same_type;
         Alcotest.test_case "numeric cross-type" `Quick test_numeric_cross_type;
         Alcotest.test_case "null ordering" `Quick test_null_ordering;
         Alcotest.test_case "sql_compare" `Quick test_sql_compare;
         Alcotest.test_case "to_string" `Quick test_to_string;
         Alcotest.test_case "serialized size" `Quick test_serialized_size;
         Alcotest.test_case "key_hash pinned" `Quick test_key_hash_pinned ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_compare_antisym; prop_compare_transitive;
           prop_equal_consistent_hash; prop_equal_is_compare;
           prop_key_hash_consistent; prop_size_positive ]) ]
