(** Plan-algebra tests: traversal helpers and the plan-size model of §4.4.
    The Motion/selector validity rules of paper §3.1 (Figure 12) are the
    verifier's structure pass, tested in [test_verify]. *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Size = Mpp_plan.Plan_size

let key = Colref.make ~rel:0 ~index:0 ~name:"pk" ~dtype:Value.Tint

let selector ?child id =
  Plan.partition_selector ?child ~part_scan_id:id ~root_oid:999
    ~keys:[ key ] ~predicates:[ None ] ()

let dynscan id = Plan.dynamic_scan ~rel:0 ~part_scan_id:id 999

let seq_pair id = Plan.Sequence [ selector id; dynscan id ]

let join l r =
  Plan.hash_join ~kind:Plan.Inner ~pred:(Expr.eq (Expr.col key) (Expr.col key))
    l r

let test_node_count () =
  Alcotest.(check int) "sequence pair" 3 (Plan.node_count (seq_pair 1));
  Alcotest.(check int) "join of pairs" 7
    (Plan.node_count (join (seq_pair 1) (seq_pair 2)))

let test_scan_ids () =
  let p = join (seq_pair 1) (seq_pair 2) in
  Alcotest.(check (list int)) "dynamic scan ids" [ 1; 2 ] (Plan.dynamic_scan_ids p);
  Alcotest.(check (list int)) "selector ids" [ 1; 2 ] (Plan.selector_ids p);
  Alcotest.(check bool) "has_part_scan_id" true (Plan.has_part_scan_id p 2);
  Alcotest.(check bool) "missing id" false (Plan.has_part_scan_id p 3)

let test_guarded_scan_is_consumer () =
  let p =
    join (selector ~child:(Plan.table_scan ~rel:1 5) 1)
      (Plan.Append [ Plan.table_scan ~guard:1 ~rel:0 100;
                     Plan.table_scan ~guard:1 ~rel:0 101 ])
  in
  Alcotest.(check (list int)) "guards count as consumers" [ 1 ]
    (Plan.dynamic_scan_ids p)

let test_with_children () =
  let p = join (dynscan 1) (dynscan 2) in
  match Plan.with_children p [ dynscan 3; dynscan 4 ] with
  | Plan.Hash_join { left = Plan.Dynamic_scan { part_scan_id = 3; _ };
                     right = Plan.Dynamic_scan { part_scan_id = 4; _ }; _ } ->
      ()
  | _ -> Alcotest.fail "children replaced"

(* One node of each logical constructor, over the children [cs]. *)
let logical_nodes (cs : Orca.Logical.t list) =
  let module L = Orca.Logical in
  let c = List.hd cs
  and x = Expr.col (Colref.make ~rel:1 ~index:0 ~name:"x" ~dtype:Value.Tint) in
  [ L.get ~rel:4 "t";
    L.select (Expr.lt x (Expr.int 3)) c;
    L.join ~kind:Plan.Semi x c (List.nth cs 1);
    L.aggregate ~group_by:[ x ] [ ("n", Plan.Count_star) ] c;
    L.Project { exprs = [ ("y", x) ]; child = c };
    L.Sort { keys = [ x ]; child = c };
    L.Limit { rows = 5; child = c };
    L.Update { rel = 1; table_name = "t"; set_cols = [ ("x", Expr.int 0) ];
               child = c };
    L.Delete { rel = 1; table_name = "t"; child = c };
    L.Insert { table_name = "t"; rows = [ [ Expr.int 1 ] ] } ]

(* [Logical.with_children] puts back what [children] took out, replaces
   exactly the children, and rejects any other arity. *)
let test_logical_with_children () =
  let module L = Orca.Logical in
  let olds = [ L.get ~rel:1 "a"; L.get ~rel:2 "b" ]
  and news = [ L.get ~rel:7 "c"; L.get ~rel:8 "d" ] in
  List.iter2
    (fun n n' ->
      let what = L.describe n in
      let k = List.length (L.children n) in
      Alcotest.(check bool) (what ^ ": round trip") true
        (L.with_children n (L.children n) = n);
      let replaced = L.with_children n (List.filteri (fun i _ -> i < k) news) in
      Alcotest.(check bool) (what ^ ": children replaced, fields kept") true
        (replaced = n');
      List.iter
        (fun cs ->
          match L.with_children n cs with
          | _ -> Alcotest.failf "%s: %d children accepted" what (List.length cs)
          | exception Invalid_argument _ -> ())
        ((L.get ~rel:9 "e" :: L.children n)
        :: (if k > 0 then [ List.tl (L.children n) ] else [])))
    (logical_nodes olds) (logical_nodes news)

let test_output_rels () =
  let p =
    join
      (Plan.table_scan ~rel:3 7)
      (Plan.filter Expr.true_ (Plan.table_scan ~rel:5 8))
  in
  Alcotest.(check (list int)) "join exposes both rels" [ 3; 5 ]
    (Plan.output_rels p);
  let semi =
    Plan.hash_join ~kind:Plan.Semi ~pred:Expr.true_
      (Plan.table_scan ~rel:3 7) (Plan.table_scan ~rel:5 8)
  in
  Alcotest.(check (list int)) "semi join exposes probe side only" [ 5 ]
    (Plan.output_rels semi);
  Alcotest.(check (list int)) "agg hides rels" []
    (Plan.output_rels (Plan.agg ~group_by:[] ~aggs:[] p))

(* ---- plan size ---- *)

let catalog_with_parts nparts =
  let catalog = Mpp_catalog.Catalog.create () in
  let partitioning =
    Mpp_catalog.Partition.single_level
      ~alloc_oid:(fun () -> Mpp_catalog.Catalog.alloc_oid catalog)
      ~key_index:0 ~key_name:"pk" ~scheme:Mpp_catalog.Partition.Range
      ~table_name:"t"
      (Mpp_catalog.Partition.int_ranges ~start:0 ~width:10 ~count:nparts)
  in
  let t =
    Mpp_catalog.Catalog.add_table catalog ~name:"t"
      ~columns:[ ("pk", Value.Tint) ]
      ~distribution:(Mpp_catalog.Distribution.Hashed [ 0 ])
      ~partitioning ()
  in
  (catalog, t)

let test_size_append_linear () =
  let catalog, t = catalog_with_parts 4 in
  let append n =
    Plan.Append
      (List.init n (fun _ -> Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid))
  in
  let s10 = Size.bytes ~catalog (append 10)
  and s20 = Size.bytes ~catalog (append 20) in
  Alcotest.(check bool) "doubling members ~ doubles size" true
    (Float.abs ((float_of_int s20 /. float_of_int s10) -. 2.0) < 0.2)

let test_size_selector_carries_metadata () =
  let catalog_small, t_small = catalog_with_parts 4 in
  let catalog_big, t_big = catalog_with_parts 400 in
  let plan t =
    Plan.Sequence
      [ Plan.partition_selector ~part_scan_id:1 ~root_oid:t.Mpp_catalog.Table.oid
          ~keys:[ key ] ~predicates:[ None ] ();
        Plan.dynamic_scan ~rel:0 ~part_scan_id:1 t.Mpp_catalog.Table.oid ]
  in
  let small = Size.bytes ~catalog:catalog_small (plan t_small)
  and big = Size.bytes ~catalog:catalog_big (plan t_big) in
  Alcotest.(check bool) "per-partition metadata term grows" true (big > small);
  Alcotest.(check bool) "but far slower than an expansion would" true
    (big < small + (400 * 1024))

let test_size_dynamic_scan_constant_in_selection () =
  (* Orca plan size must not depend on how many partitions are *selected* *)
  let catalog, t = catalog_with_parts 100 in
  let plan pred =
    Plan.Sequence
      [ Plan.partition_selector ~part_scan_id:1 ~root_oid:t.Mpp_catalog.Table.oid
          ~keys:[ key ] ~predicates:[ pred ] ();
        Plan.dynamic_scan ~rel:0 ~part_scan_id:1 t.Mpp_catalog.Table.oid ]
  in
  let narrow = plan (Some (Expr.lt (Expr.col key) (Expr.int 10)))
  and wide = plan (Some (Expr.lt (Expr.col key) (Expr.int 990))) in
  Alcotest.(check int) "same size whatever the predicate selects"
    (Size.bytes ~catalog narrow) (Size.bytes ~catalog wide)

let () =
  Alcotest.run "plan"
    [ ("structure",
       [ Alcotest.test_case "node count" `Quick test_node_count;
         Alcotest.test_case "scan ids" `Quick test_scan_ids;
         Alcotest.test_case "guarded scans are consumers" `Quick
           test_guarded_scan_is_consumer;
         Alcotest.test_case "with_children" `Quick test_with_children;
         Alcotest.test_case "logical with_children" `Quick
           test_logical_with_children;
         Alcotest.test_case "output rels" `Quick test_output_rels ]);
      ("size model",
       [ Alcotest.test_case "append grows linearly" `Quick
           test_size_append_linear;
         Alcotest.test_case "selector metadata term" `Quick
           test_size_selector_carries_metadata;
         Alcotest.test_case "independent of selection" `Quick
           test_size_dynamic_scan_constant_in_selection ]) ]
