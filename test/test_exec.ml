(** Executor tests: every physical operator against hand-checked inputs —
    scans and filters, join kinds, aggregation, motions, the
    selector→channel→DynamicScan pipeline, guarded scans, and DML. *)

open Mpp_expr
module Cat = Mpp_catalog.Catalog
module Dist = Mpp_catalog.Distribution
module Storage = Mpp_storage.Storage
module Plan = Mpp_plan.Plan
module Exec = Mpp_exec.Exec
module Metrics = Mpp_exec.Metrics
module Channel = Mpp_exec.Channel
module Vec = Mpp_storage.Vec

(* small two-table fixture: t(a int, b int) hashed on a; dim(k int, s text)
   replicated *)
let fixture () =
  let catalog = Cat.create () in
  let t =
    Cat.add_table catalog ~name:"t"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let dim =
    Cat.add_table catalog ~name:"dim"
      ~columns:[ ("k", Value.Tint); ("s", Value.Tstring) ]
      ~distribution:Dist.Replicated ()
  in
  let storage = Storage.create ~nsegments:4 in
  for i = 0 to 19 do
    Storage.insert storage t [| Value.Int i; Value.Int (i mod 5) |]
  done;
  for k = 0 to 4 do
    Storage.insert storage dim
      [| Value.Int k; Value.String (if k mod 2 = 0 then "even" else "odd") |]
  done;
  (catalog, storage, t, dim)

let col ~rel ~index ~name = Colref.make ~rel ~index ~name ~dtype:Value.Tint

let t_a = col ~rel:0 ~index:0 ~name:"a"
let t_b = col ~rel:0 ~index:1 ~name:"b"
let dim_k = col ~rel:1 ~index:0 ~name:"k"
let dim_s = Colref.make ~rel:1 ~index:1 ~name:"s" ~dtype:Value.Tstring

let run ~catalog ~storage plan = Exec.run ~catalog ~storage plan

let gather p = Plan.motion Plan.Gather p

let test_scan_and_filter () =
  let catalog, storage, t, _ = fixture () in
  let scan =
    Plan.table_scan
      ~filter:(Expr.lt (Expr.col t_a) (Expr.int 5))
      ~rel:0 t.Mpp_catalog.Table.oid
  in
  let rows, m = run ~catalog ~storage (gather scan) in
  Alcotest.(check int) "filtered rows" 5 (List.length rows);
  Alcotest.(check int) "all 20 tuples read" 20 m.Metrics.tuples_scanned

let test_hash_join_inner () =
  let catalog, storage, t, dim = fixture () in
  let join =
    Plan.hash_join ~kind:Plan.Inner
      ~pred:(Expr.eq (Expr.col dim_k) (Expr.col t_b))
      (Plan.table_scan ~rel:1 dim.Mpp_catalog.Table.oid)
      (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid)
  in
  let rows, _ = run ~catalog ~storage (gather join) in
  (* every t row matches exactly one dim row *)
  Alcotest.(check int) "20 join rows" 20 (List.length rows);
  (* layout is build ++ probe: [k; s; a; b] *)
  List.iter
    (fun r -> Alcotest.(check bool) "join key equal" true (r.(0) = r.(3)))
    rows

let test_nl_join_matches_hash_join () =
  let catalog, storage, t, dim = fixture () in
  let pred = Expr.eq (Expr.col dim_k) (Expr.col t_b) in
  let mk ctor =
    gather
      (ctor ~kind:Plan.Inner ~pred
         (Plan.table_scan ~rel:1 dim.Mpp_catalog.Table.oid)
         (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid))
  in
  let h, _ = run ~catalog ~storage (mk Plan.hash_join) in
  let n, _ = run ~catalog ~storage (mk Plan.nl_join) in
  Support.check_rows_equal "hash vs nested-loop" h n

let test_non_equi_join () =
  let catalog, storage, t, dim = fixture () in
  let pred = Expr.lt (Expr.col dim_k) (Expr.col t_b) in
  let plan =
    gather
      (Plan.nl_join ~kind:Plan.Inner ~pred
         (Plan.table_scan ~rel:1 dim.Mpp_catalog.Table.oid)
         (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid))
  in
  let rows, _ = run ~catalog ~storage plan in
  (* b in 0..4 uniform (4 each); matches = sum over b of b dims = 4*(0+1+2+3+4) *)
  Alcotest.(check int) "non-equi matches" 40 (List.length rows)

let test_semi_join () =
  let catalog, storage, t, dim = fixture () in
  let plan =
    gather
      (Plan.hash_join ~kind:Plan.Semi
         ~pred:
           (Expr.And
              [ Expr.eq (Expr.col dim_k) (Expr.col t_b);
                Expr.eq (Expr.col dim_s) (Expr.str "even") ])
         (Plan.table_scan ~rel:1 dim.Mpp_catalog.Table.oid)
         (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid))
  in
  let rows, _ = run ~catalog ~storage plan in
  (* b ∈ {0,2,4}: 12 of 20 rows; output arity = probe side only *)
  Alcotest.(check int) "semi join keeps matching probe rows once" 12
    (List.length rows);
  List.iter
    (fun r -> Alcotest.(check int) "probe arity" 2 (Array.length r))
    rows

let test_left_outer_join () =
  let catalog, storage, t, dim = fixture () in
  (* preserve dim (build side); restrict probe to b=1 rows *)
  let plan =
    gather
      (Plan.hash_join ~kind:Plan.Left_outer
         ~pred:(Expr.eq (Expr.col dim_k) (Expr.col t_b))
         (Plan.table_scan ~rel:1 dim.Mpp_catalog.Table.oid)
         (Plan.table_scan
            ~filter:(Expr.eq (Expr.col t_b) (Expr.int 1))
            ~rel:0 t.Mpp_catalog.Table.oid))
  in
  let rows, _ = run ~catalog ~storage plan in
  (* dim is replicated over 4 segments (each copy preserved per segment);
     k=1 matches the b=1 probe rows where they live, all other dim copies
     are null-padded — including k=1 copies on segments with no b=1 row *)
  let matched, padded =
    List.partition (fun r -> not (Value.is_null r.(2))) rows
  in
  let b1_keys = [ 1; 6; 11; 16 ] in
  let segments_with_b1 =
    List.map
      (fun a ->
        Mpp_catalog.Distribution.segment_for_values ~nsegments:4
          [ Value.Int a ])
      b1_keys
    |> List.sort_uniq Int.compare |> List.length
  in
  Alcotest.(check int) "each b=1 row matched once" 4 (List.length matched);
  Alcotest.(check int) "null-padded dim copies"
    (20 - segments_with_b1)
    (List.length padded)

(* Regression: unmatched build rows must be tracked by build-row INDEX, not
   by structural equality.  With two identical unmatched build rows, a
   value-keyed "matched" set conflates them — emitting one null-padded row
   where two are required (or, dually, marking both matched when only the
   value matched).  Exercises both join operators (they share the matched
   bitmap). *)
let test_left_outer_duplicate_build_rows () =
  let mk_join ctor =
    let catalog = Cat.create () in
    let d =
      Cat.add_table catalog ~name:"d"
        ~columns:[ ("k", Value.Tint); ("s", Value.Tstring) ]
        ~distribution:Dist.Replicated ()
    in
    let t =
      Cat.add_table catalog ~name:"t"
        ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
        ~distribution:(Dist.Hashed [ 0 ]) ()
    in
    let storage = Storage.create ~nsegments:1 in
    (* two structurally identical build rows that never match, plus one
       matching build row *)
    Storage.insert storage d [| Value.Int 1; Value.String "x" |];
    Storage.insert storage d [| Value.Int 1; Value.String "x" |];
    Storage.insert storage d [| Value.Int 2; Value.String "y" |];
    Storage.insert storage t [| Value.Int 10; Value.Int 2 |];
    Storage.insert storage t [| Value.Int 11; Value.Int 2 |];
    let plan =
      gather
        (ctor ~kind:Plan.Left_outer
           ~pred:(Expr.eq (Expr.col dim_k) (Expr.col t_b))
           (Plan.table_scan ~rel:1 d.Mpp_catalog.Table.oid)
           (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid))
    in
    run ~catalog ~storage plan
  in
  List.iter
    (fun (name, ctor) ->
      let rows, _ = mk_join ctor in
      let matched, padded =
        List.partition (fun r -> not (Value.is_null r.(2))) rows
      in
      Alcotest.(check int) (name ^ ": k=2 joins both probe rows") 2
        (List.length matched);
      Alcotest.(check int)
        (name ^ ": BOTH duplicate unmatched build rows null-padded") 2
        (List.length padded))
    [ ("hash", Plan.hash_join); ("nl", Plan.nl_join) ]

let test_agg_group_by () =
  let catalog, storage, t, _ = fixture () in
  let plan =
    Plan.agg
      ~group_by:[ Expr.col t_b ]
      ~aggs:
        [ ("n", Plan.Count_star); ("sum_a", Plan.Sum (Expr.col t_a));
          ("max_a", Plan.Max (Expr.col t_a)) ]
      (gather (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid))
  in
  let rows, _ = run ~catalog ~storage plan in
  Alcotest.(check int) "5 groups" 5 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "each group has 4 rows" true (r.(1) = Value.Int 4))
    rows

let test_agg_scalar_empty () =
  let catalog, storage, t, _ = fixture () in
  let plan =
    Plan.agg ~group_by:[]
      ~aggs:[ ("n", Plan.Count_star); ("avg_a", Plan.Avg (Expr.col t_a)) ]
      (gather
         (Plan.table_scan ~filter:Expr.false_ ~rel:0 t.Mpp_catalog.Table.oid))
  in
  let rows, _ = run ~catalog ~storage plan in
  match rows with
  | [ r ] ->
      Alcotest.(check bool) "count over empty is 0" true (r.(0) = Value.Int 0);
      Alcotest.(check bool) "avg over empty is null" true (Value.is_null r.(1))
  | _ -> Alcotest.fail "scalar agg yields exactly one row"

let test_sort_limit () =
  let catalog, storage, t, _ = fixture () in
  let plan =
    Plan.Limit
      { rows = 3;
        child =
          Plan.Sort
            { keys = [ Expr.col t_a ];
              child = gather (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid) } }
  in
  let rows, _ = run ~catalog ~storage plan in
  Alcotest.(check (list int)) "lowest three a values" [ 0; 1; 2 ]
    (List.map (fun r -> Value.to_int r.(0)) rows)

let test_redistribute_colocates () =
  let catalog, storage, t, _ = fixture () in
  (* redistribute on b: all rows with equal b end up on one segment *)
  let plan =
    Plan.motion (Plan.Redistribute [ t_b ])
      (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid)
  in
  let ctx = Exec.create_ctx ~catalog ~storage () in
  let r = Exec.exec ctx plan in
  let nseg = Storage.nsegments storage in
  for b = 0 to 4 do
    let segments_with_b = ref 0 in
    for seg = 0 to nseg - 1 do
      if Vec.exists (fun row -> row.(1) = Value.Int b) r.Exec.rows.(seg) then
        incr segments_with_b
    done;
    Alcotest.(check int)
      (Printf.sprintf "b=%d on exactly one segment" b)
      1 !segments_with_b
  done

let test_broadcast_and_gather () =
  let catalog, storage, t, _ = fixture () in
  let ctx = Exec.create_ctx ~catalog ~storage () in
  let b =
    Exec.exec ctx
      (Plan.motion Plan.Broadcast (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid))
  in
  Array.iter
    (fun rows -> Alcotest.(check int) "each segment has all rows" 20
        (Vec.length rows))
    b.Exec.rows;
  let ctx2 = Exec.create_ctx ~catalog ~storage () in
  let g =
    Exec.exec ctx2
      (Plan.motion Plan.Gather (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid))
  in
  Alcotest.(check int) "gather puts everything on segment 0" 20
    (Vec.length g.Exec.rows.(0));
  Alcotest.(check int) "other segments empty" 0 (Vec.length g.Exec.rows.(1))

let test_gather_one () =
  let catalog, storage, _, dim = fixture () in
  let plan =
    Plan.motion Plan.Gather_one
      (Plan.table_scan ~rel:1 dim.Mpp_catalog.Table.oid)
  in
  let rows, _ = run ~catalog ~storage plan in
  Alcotest.(check int) "replicated table read once, not 4 times" 5
    (List.length rows)

(* ---- partition selection pipeline ---- *)

let partitioned_fixture () =
  let catalog, orders = Support.orders_schema () in
  let storage = Storage.create ~nsegments:4 in
  Support.load_orders storage orders 1000;
  (catalog, storage, orders)

let o_date orders = Mpp_catalog.Table.colref orders ~rel:0 "date"

let test_static_selector_pipeline () =
  let catalog, storage, orders = partitioned_fixture () in
  let pred =
    Expr.between
      (Expr.col (o_date orders))
      (Expr.date "2013-10-01") (Expr.date "2013-12-31")
  in
  let plan =
    gather
      (Plan.Sequence
         [ Plan.partition_selector ~part_scan_id:1
             ~root_oid:orders.Mpp_catalog.Table.oid
             ~keys:[ o_date orders ] ~predicates:[ Some pred ] ();
           Plan.dynamic_scan ~filter:pred ~rel:0 ~part_scan_id:1
             orders.Mpp_catalog.Table.oid ])
  in
  let rows, m = run ~catalog ~storage plan in
  Alcotest.(check int) "3 partitions scanned" 3
    (Metrics.parts_scanned_of m ~root_oid:orders.Mpp_catalog.Table.oid);
  (* reference: full scan + filter *)
  let reference =
    gather
      (Plan.Sequence
         [ Plan.partition_selector ~part_scan_id:1
             ~root_oid:orders.Mpp_catalog.Table.oid
             ~keys:[ o_date orders ] ~predicates:[ None ] ();
           Plan.dynamic_scan ~filter:pred ~rel:0 ~part_scan_id:1
             orders.Mpp_catalog.Table.oid ])
  in
  let ref_rows, ref_m = run ~catalog ~storage reference in
  Alcotest.(check int) "Φ selector scans all parts" 24
    (Metrics.parts_scanned_of ref_m ~root_oid:orders.Mpp_catalog.Table.oid);
  Support.check_rows_equal "pruned = unpruned" rows ref_rows

let test_selection_disabled_flag () =
  let catalog, storage, orders = partitioned_fixture () in
  let pred = Expr.lt (Expr.col (o_date orders)) (Expr.date "2012-02-01") in
  let plan =
    gather
      (Plan.Sequence
         [ Plan.partition_selector ~part_scan_id:1
             ~root_oid:orders.Mpp_catalog.Table.oid
             ~keys:[ o_date orders ] ~predicates:[ Some pred ] ();
           Plan.dynamic_scan ~filter:pred ~rel:0 ~part_scan_id:1
             orders.Mpp_catalog.Table.oid ])
  in
  let _, m_on = Exec.run ~catalog ~storage plan in
  let _, m_off = Exec.run ~selection_enabled:false ~catalog ~storage plan in
  Alcotest.(check int) "enabled scans 1" 1
    (Metrics.parts_scanned_of m_on ~root_oid:orders.Mpp_catalog.Table.oid);
  Alcotest.(check int) "disabled scans all" 24
    (Metrics.parts_scanned_of m_off ~root_oid:orders.Mpp_catalog.Table.oid)

let test_guarded_scan_skips () =
  let catalog, storage, orders = partitioned_fixture () in
  let p = Option.get orders.Mpp_catalog.Table.partitioning in
  let leaves = Mpp_catalog.Partition.leaf_oids p in
  let pred = Expr.lt (Expr.col (o_date orders)) (Expr.date "2012-02-01") in
  (* Planner-style: selector (no child) + Append of guarded per-leaf scans *)
  let plan =
    gather
      (Plan.Sequence
         [ Plan.partition_selector ~part_scan_id:1
             ~root_oid:orders.Mpp_catalog.Table.oid
             ~keys:[ o_date orders ] ~predicates:[ Some pred ] ();
           Plan.Append
             (List.map (fun oid -> Plan.table_scan ~guard:1 ~rel:0 oid) leaves) ])
  in
  let rows, m = run ~catalog ~storage plan in
  Alcotest.(check int) "only January scanned" 1
    (Metrics.parts_scanned_of m ~root_oid:orders.Mpp_catalog.Table.oid);
  Alcotest.(check bool) "rows produced" true (List.length rows > 0)

let test_channel () =
  let ch = Channel.create ~nsegments:4 in
  let bits l =
    let b = Mpp_catalog.Bitset.create 100 in
    Mpp_catalog.Bitset.set_list b l;
    b
  in
  let read ?allowed segment part_scan_id =
    Option.map Mpp_catalog.Bitset.to_list
      (Channel.consume ?allowed ch ~segment ~part_scan_id)
  in
  Channel.propagate ch ~segment:0 ~part_scan_id:1 (bits [ 42 ]);
  Channel.propagate ch ~segment:0 ~part_scan_id:1 (bits [ 42; 7 ]);
  Channel.propagate ch ~segment:1 ~part_scan_id:1 (bits [ 99 ]);
  Alcotest.(check (pair int int)) "selected, nothing consumed yet" (3, 0)
    (Channel.counts ch ~part_scan_id:1);
  Alcotest.(check (option (list int))) "union, ascending" (Some [ 7; 42 ])
    (read 0 1);
  Alcotest.(check (option (list int))) "per-segment isolation" (Some [ 99 ])
    (read 1 1);
  Alcotest.(check (option (list int))) "untouched segment empty" None
    (read 2 1);
  Alcotest.(check (option (list int))) "unknown id empty" None (read 0 9);
  Alcotest.(check (pair int int)) "selected and consumed over segments"
    (3, 3)
    (Channel.counts ch ~part_scan_id:1);
  (* a min-max allow-list: the scan consumes only the survivors, and the
     slot keeps what was selected *)
  Channel.propagate ch ~segment:2 ~part_scan_id:2 (bits [ 1; 2; 3 ]);
  Alcotest.(check (option (list int))) "consume keeps allowed leaves"
    (Some [ 2 ])
    (read ~allowed:(bits [ 2; 5 ]) 2 2);
  Alcotest.(check (pair int int)) "consumed counts only what was read"
    (3, 1)
    (Channel.counts ch ~part_scan_id:2);
  (* the channel keeps its own copy of a pushed set *)
  let pushed = bits [ 3 ] in
  Channel.propagate ch ~segment:3 ~part_scan_id:1 pushed;
  Mpp_catalog.Bitset.set pushed 5;
  Alcotest.(check (option (list int))) "pushed set not aliased" (Some [ 3 ])
    (read 3 1)

(* The streaming selector: each segment's channel slot must be the union,
   over that segment's input rows, of the row's leaves — for every
   conjunct [key op operand] of every level, the leaves [Index.select_bits]
   keeps under [key op v] at that level with [v] the operand's value in
   the row, intersected.  A NULL operand selects nothing, and a segment
   without input rows leaves no slot.  A [<>] conjunct is not compiled,
   so its level may select a superset.  Eight segments for six input rows,
   so some segments get none. *)
type sel_operand =
  | Lit of Value.t
  | Input of string  (** an input column *)
  | Succ of string  (** an Int input column plus one *)

(* a target key and its conjuncts [key op operand] *)
type sel_level = string * (Expr.cmp_op * sel_operand) list

let test_streaming_selection () =
  let module Part = Mpp_catalog.Partition in
  let module Table = Mpp_catalog.Table in
  let module Bitset = Mpp_catalog.Bitset in
  let catalog = Cat.create () in
  let storage = Storage.create ~nsegments:8 in
  let schema = Mpp_workload.Tpcds.setup ~catalog ~storage () in
  let with_default =
    Cat.add_table catalog ~name:"with_default" ~columns:[ ("a", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ])
      ~partitioning:
        (Part.single_level
           ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
           ~key_index:0 ~key_name:"a" ~scheme:Part.Range
           ~table_name:"with_default"
           (Part.int_ranges ~start:0 ~width:10 ~count:4 @ [ Part.Default ]))
      ()
  in
  let input =
    Cat.add_table catalog ~name:"sel_input"
      ~columns:
        [ ("i", Value.Tint); ("d", Value.Tdate); ("c", Value.Tstring);
          ("j", Value.Tint); ("k", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let date s = Value.Date (Date.of_string s) in
  let int n = Value.Int n in
  Storage.load storage input
    [ (* i, j and k agree *)
      [| int 3; date "2012-05-10"; Value.String "catalog"; int 3; int 3 |];
      (* a date no leaf holds; j apart from i in i's leaf *)
      [| int 25; date "2030-01-01"; Value.String "web"; int 27; int 25 |];
      (* the default arm; a NULL date *)
      [| int 999; Value.Null; Value.String "store"; int 999; int 1000 |];
      (* NULL keys; a date on a cut *)
      [| Value.Null; date "2011-01-01"; Value.Null; int 12; int 12 |];
      (* j in another leaf than i and k *)
      [| int 40; date "2013-12-31"; Value.String "catalog"; int 5; int 40 |];
      (* a channel no leaf holds *)
      [| int 12; date "2012-02-29"; Value.String "mail"; int 12; int 12 |] ];
  let sr = schema.Mpp_workload.Tpcds.store_returns
  and cr = schema.Mpp_workload.Tpcds.catalog_returns in
  let range op = [ ("sr_returned_date", [ (op, Input "d") ]) ] in
  (* what, target, levels, whether a superset is allowed *)
  let cases : (string * Table.t * sel_level list * bool) list =
    [ ("store_returns, one point level", sr,
       [ ("sr_returned_date", [ (Expr.Eq, Input "d") ]) ], false);
      ("default arm", with_default, [ ("a", [ (Expr.Eq, Input "i") ]) ], false);
      ("catalog_returns, static channel level", cr,
       [ ("cr_returned_date", [ (Expr.Eq, Input "d") ]);
         ("cr_channel", [ (Expr.Eq, Lit (Value.String "catalog")) ]) ], false);
      ("catalog_returns, two point levels", cr,
       [ ("cr_returned_date", [ (Expr.Eq, Input "d") ]);
         ("cr_channel", [ (Expr.Eq, Input "c") ]) ], false);
      ("store_returns, key < d", sr, range Expr.Lt, false);
      ("store_returns, key <= d", sr, range Expr.Le, false);
      ("store_returns, key > d", sr, range Expr.Gt, false);
      ("store_returns, key >= d", sr, range Expr.Ge, false);
      ("range into the default arm", with_default,
       [ ("a", [ (Expr.Gt, Input "i") ]) ], false);
      ("catalog_returns, range and point levels", cr,
       [ ("cr_returned_date", [ (Expr.Ge, Input "d") ]);
         ("cr_channel", [ (Expr.Eq, Input "c") ]) ], false);
      ("static and point on one level", sr,
       [ ("sr_returned_date",
          [ (Expr.Eq, Input "d"); (Expr.Ge, Lit (date "2012-03-01")) ]) ],
       false);
      ("three points on one level", with_default,
       [ ("a", [ (Expr.Eq, Input "i"); (Expr.Eq, Input "j");
                 (Expr.Eq, Input "k") ]) ], false);
      ("key = i + 1", with_default, [ ("a", [ (Expr.Eq, Succ "i") ]) ], false);
      ("key <> d", sr, [ ("sr_returned_date", [ (Expr.Neq, Input "d") ]) ],
       true) ]
  in
  let empty_segments = ref 0 in
  List.iter
    (fun domains ->
      List.iter
        (fun (what, (target : Table.t), levels, superset) ->
          let keys =
            List.map (fun (k, _) -> Table.colref target ~rel:1 k) levels
          in
          let operand = function
            | Lit v -> Expr.Const v
            | Input c -> Expr.col (Table.colref input ~rel:0 c)
            | Succ c ->
                Expr.Arith
                  (Expr.Add, Expr.col (Table.colref input ~rel:0 c), Expr.int 1)
          in
          let predicates =
            List.map2
              (fun (_, conjuncts) k ->
                Some
                  (Expr.conj
                     (List.map
                        (fun (op, o) -> Expr.Cmp (op, Expr.col k, operand o))
                        conjuncts)))
              levels keys
          in
          let plan =
            Plan.partition_selector
              ~child:(Plan.table_scan ~rel:0 input.Table.oid)
              ~part_scan_id:1 ~root_oid:target.Table.oid ~keys ~predicates ()
          in
          let ctx = Exec.create_ctx ~domains ~catalog ~storage () in
          let r = Exec.exec ctx plan in
          let p = Option.get target.Table.partitioning in
          let ix = p.Part.index in
          let value (row : Value.t array) = function
            | Lit v -> v
            | Input c -> row.(Table.col_index input c)
            | Succ c -> (
                match row.(Table.col_index input c) with
                | Value.Int n -> Value.Int (n + 1)
                | v -> v)
          in
          let selected row =
            let acc = Bitset.full (Part.nparts p) in
            List.iteri
              (fun level (_, conjuncts) ->
                List.iter
                  (fun (op, o) ->
                    let r =
                      match value row o with
                      | Value.Null -> Interval.Set.empty
                      | v ->
                          Option.get
                            (Expr.restriction (List.nth keys level)
                               (Expr.Cmp
                                  (op, Expr.col (List.nth keys level),
                                   Expr.Const v)))
                    in
                    Bitset.inter_into ~into:acc
                      (Part.Index.select_bits ix
                         (Array.init (Part.nlevels p) (fun i ->
                              if i = level then Some r else None))))
                  conjuncts)
              levels;
            acc
          in
          Array.iteri
            (fun segment rows ->
              let expected =
                match Vec.to_list rows with
                | [] ->
                    incr empty_segments;
                    None
                | row :: rest ->
                    let acc = selected row in
                    List.iter
                      (fun r -> Bitset.union_into ~into:acc (selected r))
                      rest;
                    Some acc
              in
              let got =
                Channel.consume ctx.Exec.channel ~segment ~part_scan_id:1
              in
              let label =
                Printf.sprintf "%s, %d domains, segment %d" what domains segment
              in
              match (expected, got) with
              | Some e, Some g when superset ->
                  let u = Bitset.copy g in
                  Bitset.union_into ~into:u e;
                  Alcotest.(check (list int)) (label ^ ": a superset")
                    (Bitset.to_list g) (Bitset.to_list u)
              | _ ->
                  Alcotest.(check (option (list int))) label
                    (Option.map Bitset.to_list expected)
                    (Option.map Bitset.to_list got))
            r.Exec.rows)
        cases)
    [ 1; 3 ];
  Alcotest.(check bool) "some segment had no input rows" true
    (!empty_segments > 0)

(* ---- DML ---- *)

let test_update () =
  let catalog, storage, orders = partitioned_fixture () in
  (* move every October-2013 order's amount to 0 *)
  let pred =
    Expr.between
      (Expr.col (o_date orders))
      (Expr.date "2013-10-01") (Expr.date "2013-10-31")
  in
  let child =
    Plan.Sequence
      [ Plan.partition_selector ~part_scan_id:1
          ~root_oid:orders.Mpp_catalog.Table.oid
          ~keys:[ o_date orders ] ~predicates:[ Some pred ] ();
        Plan.dynamic_scan ~filter:pred ~rel:0 ~part_scan_id:1
          orders.Mpp_catalog.Table.oid ]
  in
  let update =
    Plan.Update
      { rel = 0; table_oid = orders.Mpp_catalog.Table.oid;
        set_exprs = [ (1, Expr.Const (Value.Float 0.0)) ]; child }
  in
  let before = Storage.count_table storage orders in
  let rows, m = run ~catalog ~storage update in
  let updated = match rows with [ r ] -> Value.to_int r.(0) | _ -> -1 in
  Alcotest.(check bool) "updated some rows" true (updated > 0);
  Alcotest.(check int) "metrics agree" updated m.Metrics.rows_updated;
  Alcotest.(check int) "row count preserved" before
    (Storage.count_table storage orders);
  (* all October amounts are now zero *)
  let check_pred =
    Expr.And [ pred; Expr.gt (Expr.col (Colref.make ~rel:0 ~index:1
                                          ~name:"amount" ~dtype:Value.Tfloat))
                 (Expr.Const (Value.Float 0.0)) ]
  in
  let verify =
    gather
      (Plan.Sequence
         [ Plan.partition_selector ~part_scan_id:1
             ~root_oid:orders.Mpp_catalog.Table.oid
             ~keys:[ o_date orders ] ~predicates:[ None ] ();
           Plan.dynamic_scan ~filter:check_pred ~rel:0 ~part_scan_id:1
             orders.Mpp_catalog.Table.oid ])
  in
  let leftover, _ = run ~catalog ~storage verify in
  Alcotest.(check int) "no non-zero October amounts left" 0
    (List.length leftover)

let test_update_moves_partition () =
  (* updating the partitioning key must move the tuple to the right leaf *)
  let catalog, storage, orders = partitioned_fixture () in
  ignore catalog;
  let p = Option.get orders.Mpp_catalog.Table.partitioning in
  let leaves = Array.of_list (Mpp_catalog.Partition.leaf_oids p) in
  let jan = leaves.(0) and dec = leaves.(23) in
  let before_jan = Storage.count storage ~oid:jan in
  let before_dec = Storage.count storage ~oid:dec in
  let pred = Expr.lt (Expr.col (o_date orders)) (Expr.date "2012-02-01") in
  let child =
    Plan.Sequence
      [ Plan.partition_selector ~part_scan_id:1
          ~root_oid:orders.Mpp_catalog.Table.oid
          ~keys:[ o_date orders ] ~predicates:[ Some pred ] ();
        Plan.dynamic_scan ~filter:pred ~rel:0 ~part_scan_id:1
          orders.Mpp_catalog.Table.oid ]
  in
  let update =
    Plan.Update
      { rel = 0; table_oid = orders.Mpp_catalog.Table.oid;
        set_exprs = [ (2, Expr.date "2013-12-15") ]; child }
  in
  let _, _ = run ~catalog ~storage update in
  Alcotest.(check int) "January drained" 0 (Storage.count storage ~oid:jan);
  Alcotest.(check int) "December grew" (before_dec + before_jan)
    (Storage.count storage ~oid:dec)

let test_delete () =
  let catalog, storage, orders = partitioned_fixture () in
  let pred = Expr.ge (Expr.col (o_date orders)) (Expr.date "2013-07-01") in
  let child =
    Plan.Sequence
      [ Plan.partition_selector ~part_scan_id:1
          ~root_oid:orders.Mpp_catalog.Table.oid
          ~keys:[ o_date orders ] ~predicates:[ Some pred ] ();
        Plan.dynamic_scan ~filter:pred ~rel:0 ~part_scan_id:1
          orders.Mpp_catalog.Table.oid ]
  in
  let before = Storage.count_table storage orders in
  let rows, _ =
    run ~catalog ~storage
      (Plan.Delete { rel = 0; table_oid = orders.Mpp_catalog.Table.oid; child })
  in
  let deleted = match rows with [ r ] -> Value.to_int r.(0) | _ -> -1 in
  Alcotest.(check bool) "deleted some" true (deleted > 0);
  Alcotest.(check int) "count dropped accordingly" (before - deleted)
    (Storage.count_table storage orders)

(* ---- EXPLAIN ANALYZE statistics ---- *)

module Node_stats = Mpp_exec.Node_stats
module Explain = Mpp_exec.Explain

(* Without filters every scan node emits exactly what it reads, so the
   per-node actual rows of the scans must sum to [Metrics.tuples_scanned]. *)
let test_stats_rows_match_metrics () =
  let catalog, storage, t, dim = fixture () in
  (* pre-order ids: 0 gather, 1 join, 2 scan dim, 3 scan t *)
  let plan =
    gather
      (Plan.hash_join ~kind:Plan.Inner
         ~pred:(Expr.eq (Expr.col dim_k) (Expr.col t_b))
         (Plan.table_scan ~rel:1 dim.Mpp_catalog.Table.oid)
         (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid))
  in
  let _rows, m, st = Exec.run_analyze ~catalog ~storage plan in
  let scan_rows =
    Node_stats.total_rows ~pred:(fun id _ -> id = 2 || id = 3) st
  in
  Alcotest.(check int) "scan-node rows = Metrics.tuples_scanned"
    m.Metrics.tuples_scanned scan_rows;
  let g = Node_stats.node st 0 in
  Alcotest.(check int) "motion moved = emitted" g.Node_stats.rows
    g.Node_stats.tuples_moved

let test_analyze_partition_annotations () =
  let catalog, storage, orders = partitioned_fixture () in
  let pred =
    Expr.between
      (Expr.col (o_date orders))
      (Expr.date "2013-10-01") (Expr.date "2013-12-31")
  in
  (* pre-order ids: 0 gather, 1 sequence, 2 selector, 3 dynamic scan *)
  let plan =
    gather
      (Plan.Sequence
         [ Plan.partition_selector ~part_scan_id:1
             ~root_oid:orders.Mpp_catalog.Table.oid
             ~keys:[ o_date orders ] ~predicates:[ Some pred ] ();
           Plan.dynamic_scan ~filter:pred ~rel:0 ~part_scan_id:1
             orders.Mpp_catalog.Table.oid ])
  in
  let _rows, m, st = Exec.run_analyze ~catalog ~storage plan in
  let scan = Node_stats.node st 3 in
  Alcotest.(check int) "scan parts_scanned" 3 scan.Node_stats.parts_scanned;
  Alcotest.(check int) "scan parts_total" 24 scan.Node_stats.parts_total;
  let sel = Node_stats.node st 2 in
  Alcotest.(check int) "selector parts_selected" 3
    sel.Node_stats.parts_selected;
  Alcotest.(check int) "node stats agree with Metrics" 3
    (Metrics.parts_scanned_of m ~root_oid:orders.Mpp_catalog.Table.oid);
  let txt = Explain.analyze plan st in
  let contains sub =
    let n = String.length sub and len = String.length txt in
    let rec go i = i + n <= len && (String.sub txt i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "renders parts=3/24" true (contains "parts=3/24");
  Alcotest.(check bool) "renders selected=3/24" true (contains "selected=3/24");
  Alcotest.(check bool) "renders actual rows" true (contains "actual rows=")

let test_run_without_stats_records_nothing () =
  let catalog, storage, t, _ = fixture () in
  let st = Node_stats.create () in
  let _ =
    Exec.run ~catalog ~storage
      (gather (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid))
  in
  Alcotest.(check int) "no collector attached, nothing recorded" 0
    (Node_stats.total_rows st)

(* Hash-join correctness against a naive reference computed directly over
   the generated data, for random contents and a random cluster size. *)
let prop_join_matches_reference =
  QCheck2.Test.make ~count:60 ~name:"hash join = naive reference join"
    QCheck2.Gen.(
      triple (int_range 1 6)
        (list_size (int_range 0 40) (int_range 0 9))
        (list_size (int_range 0 15) (int_range 0 9)))
    (fun (nsegments, t_keys, dim_keys) ->
      let catalog = Cat.create () in
      let t =
        Cat.add_table catalog ~name:"t"
          ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
          ~distribution:(Dist.Hashed [ 0 ]) ()
      in
      let dim =
        Cat.add_table catalog ~name:"dim"
          ~columns:[ ("k", Value.Tint); ("s", Value.Tstring) ]
          ~distribution:Dist.Replicated ()
      in
      let storage = Storage.create ~nsegments in
      List.iteri
        (fun i b -> Storage.insert storage t [| Value.Int i; Value.Int b |])
        t_keys;
      List.iteri
        (fun i k ->
          Storage.insert storage dim
            [| Value.Int k; Value.String (string_of_int i) |])
        dim_keys;
      let plan =
        gather
          (Plan.hash_join ~kind:Plan.Inner
             ~pred:(Expr.eq (Expr.col dim_k) (Expr.col t_b))
             (Plan.table_scan ~rel:1 dim.Mpp_catalog.Table.oid)
             (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid))
      in
      let rows, _ = run ~catalog ~storage plan in
      (* reference: each equal-key (dim, t) pair exactly once, counted
         directly from the generated lists *)
      let expected =
        List.fold_left
          (fun acc k ->
            acc + List.length (List.filter (fun b -> b = k) t_keys))
          0 dim_keys
      in
      List.length rows = expected)

(* ---- SQL [=] on mixed int/float join keys ---- *)

(* Regression: [t.a = u.x] with [t(a int) = {1}] and [u(x float) = {1.0}]
   is true under SQL [=] (Value.equal), so every join operator must
   return the one row — the hash join's key table and the runtime
   filter's Bloom hash included. *)
let test_mixed_int_float_keys () =
  let catalog = Cat.create () in
  let t =
    Cat.add_table catalog ~name:"t" ~columns:[ ("a", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let u =
    Cat.add_table catalog ~name:"u" ~columns:[ ("x", Value.Tfloat) ]
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let storage = Storage.create ~nsegments:1 in
  Storage.insert storage t [| Value.Int 1 |];
  Storage.insert storage u [| Value.Float 1.0 |];
  let t_a = col ~rel:0 ~index:0 ~name:"a" in
  let u_x = Colref.make ~rel:1 ~index:0 ~name:"x" ~dtype:Value.Tfloat in
  let pred = Expr.eq (Expr.col t_a) (Expr.col u_x) in
  let scan_t = Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid
  and scan_u = Plan.table_scan ~rel:1 u.Mpp_catalog.Table.oid in
  let with_rf =
    Plan.hash_join ~kind:Plan.Inner ~pred
      (Plan.runtime_filter_build ~rf_id:1 ~keys:[ t_a ] ~rows_est:1 scan_t)
      (Plan.runtime_filter ~rf_id:1 ~keys:[ u_x ] scan_u)
  in
  let expected = [ [| Value.Int 1; Value.Float 1.0 |] ] in
  List.iter
    (fun (name, plan) ->
      let rows, _ = run ~catalog ~storage (gather plan) in
      Alcotest.(check int) (name ^ ": one row") 1 (List.length rows);
      Alcotest.(check bool)
        (name ^ ": the matching pair") true (rows = expected))
    [ ("nl join", Plan.nl_join ~kind:Plan.Inner ~pred scan_t scan_u);
      ("hash join", Plan.hash_join ~kind:Plan.Inner ~pred scan_t scan_u);
      ("hash join + runtime filter", with_rf) ]

(* Regression: a Redistribute Motion must send SQL-equal keys to one
   segment.  20 int keys and the 20 equal float keys, each side
   redistributed on its key over 4 segments, must all meet in the join. *)
let test_redistribute_int_float_keys () =
  let catalog = Cat.create () in
  let t =
    Cat.add_table catalog ~name:"t"
      ~columns:[ ("id", Value.Tint); ("a", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let u =
    Cat.add_table catalog ~name:"u"
      ~columns:[ ("id", Value.Tint); ("x", Value.Tfloat) ]
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let storage = Storage.create ~nsegments:4 in
  for i = 0 to 19 do
    Storage.insert storage t [| Value.Int i; Value.Int i |];
    Storage.insert storage u
      [| Value.Int (i + 7); Value.Float (float_of_int i) |]
  done;
  let t_a = col ~rel:0 ~index:1 ~name:"a" in
  let u_x = Colref.make ~rel:1 ~index:1 ~name:"x" ~dtype:Value.Tfloat in
  let plan =
    gather
      (Plan.hash_join ~kind:Plan.Inner
         ~pred:(Expr.eq (Expr.col t_a) (Expr.col u_x))
         (Plan.motion (Plan.Redistribute [ t_a ])
            (Plan.table_scan ~rel:0 t.Mpp_catalog.Table.oid))
         (Plan.motion (Plan.Redistribute [ u_x ])
            (Plan.table_scan ~rel:1 u.Mpp_catalog.Table.oid)))
  in
  let rows, _ = run ~catalog ~storage plan in
  Alcotest.(check int) "every int key meets its float twin" 20
    (List.length rows)

(* ---- transient rows: every operator that keeps a row copies it ---- *)

(* A join or Project emits into one per-segment scratch row.  Each row
   producer below runs under each operator that keeps rows, serially and on
   4 domains, against a list oracle: a keeper that stored the scratch row
   itself would hold many references to one array, all reading as the last
   row written. *)

type tfix = {
  tcat : Cat.t;
  tsto : Storage.t;
  l : Mpp_catalog.Table.t;  (** rel 0: (k, v), hashed on k *)
  r : Mpp_catalog.Table.t;  (** rel 1: (k, w), hashed on k *)
  orders : Mpp_catalog.Table.t;  (** rel 2: 730 orders, 24 monthly parts *)
  one : Mpp_catalog.Table.t;  (** rel 3: one replicated row (z = 7) *)
  dim : Mpp_catalog.Table.t;  (** rel 4: a few replicated dates *)
}

let int_pairs n a b =
  List.init n (fun i -> [| Value.Int (i mod a); Value.Int (i mod b) |])

let l_rows = int_pairs 30 6 7
let r_rows = int_pairs 25 5 4

let orders_rows =
  let start = Date.of_ymd 2012 1 1 in
  List.init 730 (fun i ->
      [| Value.Int i; Value.Float (float_of_int (i mod 100));
         Value.Date (Date.add_days start i) |])

let dim_rows =
  List.map
    (fun d -> [| Value.date_of_string d |])
    [ "2012-01-15"; "2012-02-03"; "2012-06-30"; "2012-07-01"; "2013-03-10";
      "2013-03-11"; "2013-12-31"; "2014-05-05" ]

let transient_fixture () =
  let tcat, orders = Support.orders_schema () in
  let tsto = Storage.create ~nsegments:4 in
  let table name cols dist rows =
    let t =
      Cat.add_table tcat ~name
        ~columns:(List.map (fun c -> (c, Value.Tint)) cols)
        ~distribution:dist ()
    in
    List.iter (Storage.insert tsto t) rows;
    t
  in
  let l = table "l" [ "k"; "v" ] (Dist.Hashed [ 0 ]) l_rows
  and r = table "r" [ "k"; "w" ] (Dist.Hashed [ 0 ]) r_rows
  and one = table "one" [ "z" ] Dist.Replicated [ [| Value.Int 7 |] ] in
  let dim =
    Cat.add_table tcat ~name:"dim" ~columns:[ ("d", Value.Tdate) ]
      ~distribution:Dist.Replicated ()
  in
  List.iter (Storage.insert tsto dim) dim_rows;
  List.iter (Storage.insert tsto orders) orders_rows;
  { tcat; tsto; l; r; orders; one; dim }

let oid (t : Mpp_catalog.Table.t) = t.Mpp_catalog.Table.oid
let cr ~rel ~index ?(dtype = Value.Tint) name =
  Colref.make ~rel ~index ~name ~dtype

let lk = cr ~rel:0 ~index:0 "k" and lv = cr ~rel:0 ~index:1 "v"
let rk = cr ~rel:1 ~index:0 "k" and rw = cr ~rel:1 ~index:1 "w"
let oid_col = cr ~rel:2 ~index:0 "id"
let odate = cr ~rel:2 ~index:2 ~dtype:Value.Tdate "date"
let dd = cr ~rel:4 ~index:0 ~dtype:Value.Tdate "d"

(* A row producer: its plan, the rows it yields, a column to key on, and
   the table (with its rel and row offset) its rows carry whole. *)
type tprod = {
  pname : string;
  plan : tfix -> Plan.t;
  rows : Value.t array list;
  key : Colref.t;
  target : tfix -> Mpp_catalog.Table.t * int * int;
}

let join_pred res =
  Expr.conj
    ((Expr.eq (Expr.col lk) (Expr.col rk))
    :: (if res then [ Expr.le (Expr.col lv) (Expr.col rw) ] else []))

let matches res (a : Value.t array) (b : Value.t array) =
  a.(0) = b.(0) && ((not res) || Value.compare a.(1) b.(1) <= 0)

let inner_rows res =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b -> if matches res a b then Some (Array.append a b) else None)
        r_rows)
    l_rows

(* every partition of [orders], pushed to scan [ps] *)
let all_parts f ps =
  Plan.partition_selector ~part_scan_id:ps ~root_oid:(oid f.orders)
    ~keys:[ odate ] ~predicates:[ None ] ()

let dyn_scan ?filter ps f =
  Plan.Sequence
    [ all_parts f ps;
      Plan.dynamic_scan ?filter ~rel:2 ~part_scan_id:ps (oid f.orders) ]

let scans_l_r ctor kind res f =
  ctor ~kind ~pred:(join_pred res)
    (Plan.table_scan ~rel:0 (oid f.l))
    (Plan.table_scan ~rel:1 (oid f.r))

let target_l f = (f.l, 0, 0)
let target_orders off f = (f.orders, 2, off)

let producers =
  let join name ctor kind res rows =
    { pname = name; plan = scans_l_r ctor kind res; rows; key = lk;
      target = target_l }
  in
  let left_outer res =
    inner_rows res
    @ List.filter_map
        (fun a ->
          if List.exists (matches res a) r_rows then None
          else Some (Array.append a [| Value.Null; Value.Null |]))
        l_rows
  in
  (* semi over a transient probe: r crossed with [one] *)
  let semi res =
    {
      pname = (if res then "semi + residual" else "semi");
      plan =
        (fun f ->
          Plan.hash_join ~kind:Plan.Semi ~pred:(join_pred res)
            (Plan.table_scan ~rel:0 (oid f.l))
            (Plan.nl_join ~kind:Plan.Inner ~pred:Expr.true_
               (Plan.table_scan ~rel:3 (oid f.one))
               (Plan.table_scan ~rel:1 (oid f.r))));
      rows =
        List.filter_map
          (fun b ->
            if List.exists (fun a -> matches res a b) l_rows then
              Some (Array.append [| Value.Int 7 |] b)
            else None)
          r_rows;
      key = rk;
      target = (fun f -> (f.r, 1, 1));
    }
  in
  let dyn name filter keep =
    {
      pname = name;
      plan = dyn_scan ?filter 1;
      rows = List.filter keep orders_rows;
      key = oid_col;
      target = target_orders 0;
    }
  in
  let cheap =
    Expr.lt
      (Expr.col (cr ~rel:2 ~index:1 ~dtype:Value.Tfloat "amount"))
      (Expr.Const (Value.Float 50.0))
  in
  [ join "inner" Plan.hash_join Plan.Inner false (inner_rows false);
    join "inner + residual" Plan.hash_join Plan.Inner true (inner_rows true);
    join "nl inner + residual" Plan.nl_join Plan.Inner true (inner_rows true);
    join "left outer" Plan.hash_join Plan.Left_outer false (left_outer false);
    join "left outer + residual" Plan.hash_join Plan.Left_outer true
      (left_outer true);
    semi false;
    semi true;
    {
      pname = "project over a join";
      plan =
        (fun f ->
          Plan.Project
            { exprs = [ ("k", Expr.col lk); ("v", Expr.col lv) ];
              child = scans_l_r Plan.hash_join Plan.Inner false f });
      rows = List.map (fun r -> Array.sub r 0 2) (inner_rows false);
      key = cr ~rel:(-1) ~index:0 "k";
      target = (fun f -> (f.l, -1, 0));
    };
    dyn "dynamic scan, 24 parts" None (fun _ -> true);
    dyn "dynamic scan + filter" (Some cheap) (fun o ->
        Value.compare o.(1) (Value.Float 50.0) < 0);
    {
      pname = "join over a runtime-filtered dynamic scan";
      plan =
        (fun f ->
          Plan.hash_join ~kind:Plan.Inner
            ~pred:(Expr.eq (Expr.col dd) (Expr.col odate))
            (Plan.runtime_filter_build ~rf_id:5 ~keys:[ dd ] ~rows_est:8
               (Plan.table_scan ~rel:4 (oid f.dim)))
            (Plan.Sequence
               [ all_parts f 1;
                 Plan.runtime_filter ~rf_id:5 ~keys:[ odate ]
                   (Plan.dynamic_scan ~rel:2 ~part_scan_id:1
                      (oid f.orders)) ]));
      rows =
        List.concat_map
          (fun d ->
            List.filter_map
              (fun o -> if o.(2) = d.(0) then Some (Array.append d o) else None)
              orders_rows)
          dim_rows;
      key = oid_col;
      target = target_orders 1;
    } ]

let table_rows f (t : Mpp_catalog.Table.t) =
  let plan =
    if t == f.orders then dyn_scan 50 f else Plan.table_scan ~rel:0 (oid t)
  in
  fst (Exec.run ~catalog:f.tcat ~storage:f.tsto (gather plan))

(* [stored] less one occurrence of each image, as DML removes them *)
let remove_images stored images =
  let rec drop x = function
    | [] -> []
    | y :: ys -> if y = x then ys else y :: drop x ys
  in
  List.fold_left (fun acc img -> drop img acc) stored images

let check_multiset what expected actual =
  Alcotest.(check bool) what true
    (List.sort compare expected = List.sort compare actual)

(* A row keeper: the plan around the producer's, and the check of its
   result (and of the table it wrote). *)
type keeper = tfix -> tprod -> Plan.t * (string -> Value.t array list -> unit)

let keepers : (string * keeper) list =
  let same p what rows = check_multiset what p.rows rows in
  let with_one p what rows =
    check_multiset what
      (List.map (fun r -> Array.append r [| Value.Int 7 |]) p.rows)
      rows
  in
  let images f p =
    let t, _, off = p.target f in
    (t, List.map (fun r -> Array.sub r off (Mpp_catalog.Table.ncols t)) p.rows)
  in
  let initial f (t : Mpp_catalog.Table.t) =
    if t == f.l then l_rows
    else if t == f.r then r_rows
    else orders_rows
  in
  [ ("result", fun f p -> (p.plan f, same p));
    ("gather", fun f p -> (gather (p.plan f), same p));
    ( "broadcast",
      fun f p ->
        ( Plan.motion Plan.Gather_one (Plan.motion Plan.Broadcast (p.plan f)),
          same p ) );
    ( "redistribute",
      fun f p ->
        (gather (Plan.motion (Plan.Redistribute [ p.key ]) (p.plan f)), same p)
    );
    ( "sort",
      fun f p ->
        ( gather (Plan.Sort { keys = [ Expr.col p.key ]; child = p.plan f }),
          same p ) );
    ( "limit",
      fun f p ->
        (gather (Plan.Limit { rows = 100_000; child = p.plan f }), same p) );
    ( "append",
      fun f p ->
        ( gather (Plan.Append [ p.plan f; p.plan f ]),
          fun what rows -> check_multiset what (p.rows @ p.rows) rows ) );
    ( "join build side",
      fun f p ->
        ( gather
            (Plan.nl_join ~kind:Plan.Inner ~pred:Expr.true_ (p.plan f)
               (Plan.table_scan ~rel:3 (oid f.one))),
          with_one p ) );
    ( "runtime filter build",
      fun f p ->
        ( gather
            (Plan.nl_join ~kind:Plan.Inner ~pred:Expr.true_
               (Plan.runtime_filter_build ~rf_id:77 ~keys:[ p.key ] ~rows_est:64
                  (p.plan f))
               (Plan.table_scan ~rel:3 (oid f.one))),
          with_one p ) );
    ( "streaming selector",
      fun f p ->
        ( gather
            (Plan.partition_selector ~child:(p.plan f) ~part_scan_id:99
               ~root_oid:(oid f.orders) ~keys:[ odate ] ~predicates:[ None ]
               ()),
          same p ) );
    ( "delete source",
      fun f p ->
        let t, rel, _ = p.target f in
        ( Plan.Delete { rel; table_oid = oid t; child = p.plan f },
          fun what _ ->
            let t, imgs = images f p in
            check_multiset (what ^ ": table after")
              (remove_images (initial f t) imgs)
              (table_rows f t) ) );
    ( "update source",
      fun f p ->
        (* every target's column 1 is a non-key one *)
        let t, rel, _ = p.target f in
        let v = if t == f.orders then Value.Float 1.0 else Value.Int 99 in
        ( Plan.Update
            { rel; table_oid = oid t; set_exprs = [ (1, Expr.Const v) ];
              child = p.plan f },
          fun what _ ->
            let t, imgs = images f p in
            let set img =
              let n = Array.copy img in
              n.(1) <- v;
              n
            in
            check_multiset (what ^ ": table after")
              (remove_images (initial f t) imgs @ List.map set imgs)
              (table_rows f t) ) ) ]

let test_transient_rows () =
  List.iter
    (fun p ->
      List.iter
        (fun (kname, keeper) ->
          List.iter
            (fun domains ->
              let f = transient_fixture () in
              let plan, check = keeper f p in
              let rows, _ =
                Exec.run ~domains ~catalog:f.tcat ~storage:f.tsto plan
              in
              check
                (Printf.sprintf "%s under %s, %d domain(s)" p.pname kname
                   domains)
                rows)
            [ 1; 4 ])
        keepers)
    producers

(* ---- differential kernel tests against a list-based oracle ---- *)

(* Random tables with few distinct values per column (duplicate keys) and
   NULLs, run through the hash-join and aggregation kernels serially and
   on a domain pool, and compared with an oracle that works on the
   generated lists directly.  Floats are quarter multiples, so sums are
   exact in any order. *)

type kty = K_int | K_date | K_string | K_float

let kty_dtype = function
  | K_int -> Value.Tint
  | K_date -> Value.Tdate
  | K_string -> Value.Tstring
  | K_float -> Value.Tfloat

let gen_key rs ty =
  if Random.State.int rs 8 = 0 then Value.Null
  else
    let i = Random.State.int rs 4 in
    match ty with
    | K_int -> Value.Int i
    | K_date -> Value.Date (Date.add_days (Date.of_ymd 2013 1 1) i)
    | K_string -> Value.String ("s" ^ string_of_int i)
    | K_float -> Value.Float (0.5 *. float_of_int i)

let gen_int rs =
  if Random.State.int rs 6 = 0 then Value.Null
  else Value.Int (Random.State.int rs 11 - 5)

let gen_float rs =
  if Random.State.int rs 6 = 0 then Value.Null
  else Value.Float (0.25 *. float_of_int (Random.State.int rs 21 - 10))

let gen_kty rs = [| K_int; K_date; K_string; K_float |].(Random.State.int rs 4)

(* A table of [ncols] columns hashed on column 0 — equal first keys share a
   segment, so segment-local joins and groupings are complete. *)
let diff_table catalog storage ~name ~dtypes rows =
  let tbl =
    Cat.add_table catalog ~name
      ~columns:(List.mapi (fun i d -> (Printf.sprintf "c%d" i, d)) dtypes)
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  List.iter (Storage.insert storage tbl) rows;
  tbl

let sort_rows rows = List.sort compare rows

let differential_modes = [ ("serial", 1); ("parallel", 3) ]

(* Runs [plan] in both modes: the result must equal [expected] as a
   multiset, and the two modes must agree row for row, in order. *)
let check_differential what ~catalog ~storage ~expected plan =
  let results =
    List.map
      (fun (mode, domains) ->
        let rows, _ =
          Exec.run ~domains ~catalog ~storage (Plan.motion Plan.Gather plan)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s [%s]: matches the oracle" what mode)
          true
          (sort_rows rows = sort_rows expected);
        rows)
      differential_modes
  in
  match results with
  | serial :: parallel :: _ ->
      Alcotest.(check bool) (what ^ ": serial = parallel, same order") true
        (serial = parallel)
  | _ -> ()

let test_differential_join () =
  let rs = Random.State.make [| 14 |] in
  for case = 1 to 40 do
    let nkeys = 1 + Random.State.int rs 3 in
    let ktys = List.init 3 (fun _ -> gen_kty rs) in
    let dtypes = List.map kty_dtype ktys @ [ Value.Tint ] in
    let gen_rows n =
      List.init n (fun _ ->
          Array.of_list (List.map (gen_key rs) ktys @ [ gen_int rs ]))
    in
    let lrows = gen_rows (Random.State.int rs 25)
    and rrows = gen_rows (Random.State.int rs 25) in
    let catalog = Cat.create () in
    let storage = Storage.create ~nsegments:(1 + Random.State.int rs 4) in
    let l = diff_table catalog storage ~name:"l" ~dtypes lrows
    and r = diff_table catalog storage ~name:"r" ~dtypes rrows in
    let cref rel i =
      Colref.make ~rel ~index:i ~name:(Printf.sprintf "c%d" i)
        ~dtype:(List.nth dtypes i)
    in
    let equi =
      List.init nkeys (fun i ->
          Expr.eq (Expr.col (cref 0 i)) (Expr.col (cref 1 i)))
    in
    (* oracle: keys all non-NULL and equal; the residual [l.v <= r.v] is
       false on NULL *)
    let keys_match (a : Value.t array) (b : Value.t array) =
      List.for_all
        (fun i -> (not (Value.is_null a.(i))) && a.(i) = b.(i))
        (List.init nkeys Fun.id)
    in
    let residual_ok (a : Value.t array) (b : Value.t array) =
      match (a.(3), b.(3)) with Value.Int x, Value.Int y -> x <= y | _ -> false
    in
    List.iter
      (fun with_residual ->
        let pred =
          Expr.And
            (equi
            @
            if with_residual then
              [ Expr.le (Expr.col (cref 0 3)) (Expr.col (cref 1 3)) ]
            else [])
        in
        let ok a b =
          keys_match a b && ((not with_residual) || residual_ok a b)
        in
        let inner =
          List.concat_map
            (fun a ->
              List.filter_map
                (fun b -> if ok a b then Some (Array.append a b) else None)
                rrows)
            lrows
        in
        let semi =
          List.filter (fun b -> List.exists (fun a -> ok a b) lrows) rrows
        in
        let left_outer =
          inner
          @ List.filter_map
              (fun a ->
                if List.exists (ok a) rrows then None
                else Some (Array.append a (Array.make 4 Value.Null)))
              lrows
        in
        List.iter
          (fun (kname, kind, expected) ->
            List.iter
              (fun (oname, ctor) ->
                let what =
                  Printf.sprintf "case %d: %s %s, %d keys%s" case oname kname
                    nkeys
                    (if with_residual then " + residual" else "")
                in
                check_differential what ~catalog ~storage ~expected
                  (ctor ~kind ~pred
                     (Plan.table_scan ~rel:0 l.Mpp_catalog.Table.oid)
                     (Plan.table_scan ~rel:1 r.Mpp_catalog.Table.oid)))
              [ ("hash", Plan.hash_join); ("nl", Plan.nl_join) ])
          [ ("inner", Plan.Inner, inner); ("semi", Plan.Semi, semi);
            ("left outer", Plan.Left_outer, left_outer) ])
      [ false; true ]
  done

let test_differential_agg () =
  let rs = Random.State.make [| 41 |] in
  for case = 1 to 60 do
    let ngroup = Random.State.int rs 3 in
    let k0 = gen_kty rs and k1 = gen_kty rs in
    (* columns: g0, g1, iv (int), fv (float), xv (int, float or NULL) *)
    let dtypes =
      [ kty_dtype k0; kty_dtype k1; Value.Tint; Value.Tfloat; Value.Tfloat ]
    in
    let rows =
      List.init (Random.State.int rs 30) (fun _ ->
          [| gen_key rs k0; gen_key rs k1; gen_int rs; gen_float rs;
             (if Random.State.bool rs then gen_int rs else gen_float rs) |])
    in
    let catalog = Cat.create () in
    let storage = Storage.create ~nsegments:(1 + Random.State.int rs 4) in
    let g = diff_table catalog storage ~name:"g" ~dtypes rows in
    let c i =
      Expr.col
        (Colref.make ~rel:0 ~index:i ~name:"c" ~dtype:(List.nth dtypes i))
    in
    let aggs =
      [ ("n", Plan.Count_star); ("cnt_i", Plan.Count (c 2));
        ("cnt_f", Plan.Count (c 3)); ("sum_i", Plan.Sum (c 2));
        ("sum_f", Plan.Sum (c 3)); ("sum_x", Plan.Sum (c 4));
        ("avg_i", Plan.Avg (c 2)); ("avg_x", Plan.Avg (c 4));
        ("min_i", Plan.Min (c 2)); ("max_i", Plan.Max (c 2));
        ("min_f", Plan.Min (c 3)); ("max_f", Plan.Max (c 3));
        ("min_g", Plan.Min (c 0)) ]
    in
    (* oracle, one aggregate over one group's rows *)
    let vals i grp =
      List.filter (fun v -> not (Value.is_null v)) (List.map (fun r -> r.(i)) grp)
    in
    let fsum = List.fold_left (fun acc v -> acc +. Value.to_float v) 0.0 in
    let extreme pick = function
      | [] -> Value.Null
      | v :: rest ->
          List.fold_left (fun m v -> if pick (compare v m) then v else m) v rest
    in
    let is_int = function Value.Int _ -> true | _ -> false in
    let oracle grp = function
      | Plan.Count_star -> Value.Int (List.length grp)
      | Plan.Count (Expr.Col cr) ->
          Value.Int (List.length (vals cr.Colref.index grp))
      | Plan.Sum (Expr.Col cr) -> (
          match vals cr.Colref.index grp with
          | [] -> Value.Null
          | vs when List.for_all is_int vs ->
              Value.Int (List.fold_left (fun acc v -> acc + Value.to_int v) 0 vs)
          | vs -> Value.Float (fsum vs))
      | Plan.Avg (Expr.Col cr) -> (
          match vals cr.Colref.index grp with
          | [] -> Value.Null
          | vs -> Value.Float (fsum vs /. float_of_int (List.length vs)))
      | Plan.Min (Expr.Col cr) ->
          extreme (fun c -> c < 0) (vals cr.Colref.index grp)
      | Plan.Max (Expr.Col cr) ->
          extreme (fun c -> c > 0) (vals cr.Colref.index grp)
      | _ -> Alcotest.fail "oracle: unexpected aggregate"
    in
    let key r = List.init ngroup (fun i -> r.(i)) in
    let groups =
      List.fold_left
        (fun acc r ->
          let k = key r in
          if List.mem_assoc k acc then
            List.map
              (fun (k', rs) -> if k' = k then (k', r :: rs) else (k', rs))
              acc
          else (k, [ r ]) :: acc)
        [] rows
    in
    let groups = if ngroup = 0 && groups = [] then [ ([], []) ] else groups in
    let expected =
      List.map
        (fun (k, grp) ->
          Array.of_list (k @ List.map (fun (_, f) -> oracle grp f) aggs))
        groups
    in
    let scan = Plan.table_scan ~rel:0 g.Mpp_catalog.Table.oid in
    let group_by = List.init ngroup c in
    (* grouped: segment-local (groups include the distribution column);
       scalar: one final aggregate above a Gather *)
    let plan =
      if ngroup = 0 then Plan.agg ~group_by ~aggs (Plan.motion Plan.Gather scan)
      else Plan.agg ~group_by ~aggs scan
    in
    check_differential
      (Printf.sprintf "case %d: %d group keys" case ngroup)
      ~catalog ~storage ~expected plan
  done

(* ---- the key table ---- *)

module Keytbl = Mpp_exec.Keytbl

(* Entries are numbered in insertion order and keep their keys and values
   across many doublings, for one-value and tuple keys alike. *)
let test_keytbl_resizes () =
  let n = 20_000 in
  let t1 = Keytbl.create ~width:1 ~init:(-1) 1 in
  let t2 = Keytbl.create ~width:2 ~init:0 1 in
  for i = 0 to n - 1 do
    let e = Keytbl.intern t1 [| Value.Int (i * 7) |] in
    Alcotest.(check int) "new one-value key gets the next entry" i e;
    Keytbl.set t1 e i;
    let e2 = Keytbl.intern t2 [| Value.Int (i mod 97); Value.Int (i / 97) |] in
    Alcotest.(check int) "new tuple key gets the next entry" i e2;
    Keytbl.set t2 e2 (-i)
  done;
  Alcotest.(check int) "one-value entries" n (Keytbl.length t1);
  Alcotest.(check int) "tuple entries" n (Keytbl.length t2);
  for i = 0 to n - 1 do
    let e = Keytbl.find t1 [| Value.Int (i * 7) |] in
    Alcotest.(check int) "found after growth" i e;
    Alcotest.(check int) "value kept" i (Keytbl.get t1 e);
    Alcotest.(check bool) "key kept" true
      (Keytbl.key t1 e 0 = Value.Int (i * 7));
    let e2 = Keytbl.find t2 [| Value.Int (i mod 97); Value.Int (i / 97) |] in
    Alcotest.(check int) "tuple found after growth" i e2;
    Alcotest.(check int) "tuple value kept" (-i) (Keytbl.get t2 e2);
    Alcotest.(check bool) "tuple key kept" true
      (Keytbl.key t2 e2 1 = Value.Int (i / 97))
  done;
  Alcotest.(check int) "miss" (-1) (Keytbl.find t1 [| Value.Int 1 |]);
  Alcotest.(check int) "re-interning adds nothing" 5
    (Keytbl.intern t1 [| Value.Int 35 |]);
  Alcotest.(check int) "length unchanged" n (Keytbl.length t1)

(* Keys whose hashes agree in their low 12 bits share one probe sequence
   in any table of up to 4096 slots, for one-value and tuple keys alike. *)
let test_keytbl_collisions () =
  let colliding hash mk =
    let target = hash (mk 0) land 4095 in
    let rec go i acc =
      if List.length acc = 40 then List.rev acc
      else
        go (i + 1) (if hash (mk i) land 4095 = target then mk i :: acc else acc)
    in
    go 0 []
  in
  let ones = colliding Keytbl.hash (fun i -> [| Value.Int i |]) in
  let t = Keytbl.create ~width:1 ~init:0 8 in
  (* every second key goes in; the others must miss *)
  List.iteri (fun i k -> if i mod 2 = 0 then ignore (Keytbl.intern t k)) ones;
  Alcotest.(check int) "20 colliding keys, 20 entries" 20 (Keytbl.length t);
  List.iteri
    (fun i k ->
      let e = Keytbl.find t k in
      if i mod 2 = 0 then Alcotest.(check int) "colliding key found" (i / 2) e
      else Alcotest.(check int) "colliding absent key misses" (-1) e)
    ones;
  let pairs =
    colliding Keytbl.hash (fun i -> [| Value.Int i; Value.String "x" |])
  in
  let t2 = Keytbl.create ~width:2 ~init:0 8 in
  List.iter (fun k -> ignore (Keytbl.intern t2 k)) pairs;
  Alcotest.(check int) "40 colliding tuples, 40 entries" 40 (Keytbl.length t2);
  List.iteri
    (fun i k ->
      Alcotest.(check int) "colliding tuple found" i (Keytbl.find t2 k))
    pairs

(* SQL [=]: Int 1 and Float 1.0 are one key, NaN meets NaN, NULL meets
   only NULL. *)
let test_keytbl_equality () =
  let t = Keytbl.create ~width:1 ~init:0 8 in
  let one = Keytbl.intern t [| Value.Int 1 |] in
  Alcotest.(check int) "Float 1.0 finds Int 1" one
    (Keytbl.find t [| Value.Float 1.0 |]);
  let nan = Keytbl.intern t [| Value.Float Float.nan |] in
  Alcotest.(check int) "NaN finds NaN" nan
    (Keytbl.intern t [| Value.Float Float.nan |]);
  let null = Keytbl.intern t [| Value.Null |] in
  Alcotest.(check int) "NULL finds NULL" null (Keytbl.find t [| Value.Null |]);
  Alcotest.(check int) "three keys" 3 (Keytbl.length t);
  Alcotest.(check int) "Int 0 is not NULL" (-1)
    (Keytbl.find t [| Value.Int 0 |]);
  Alcotest.(check int) "String is not Int" (-1)
    (Keytbl.find t [| Value.String "1" |]);
  let t2 = Keytbl.create ~width:2 ~init:0 8 in
  let e = Keytbl.intern t2 [| Value.Int 1; Value.Float 2.0 |] in
  Alcotest.(check int) "tuples compare component-wise under SQL =" e
    (Keytbl.find t2 [| Value.Float 1.0; Value.Int 2 |]);
  Alcotest.(check int) "a NULL component is its own key" (-1)
    (Keytbl.find t2 [| Value.Int 1; Value.Null |])

(* One-segment table [k] of [keys] (column 0) numbered in column 1. *)
let keyed_table catalog storage ~name keys =
  diff_table catalog storage ~name ~dtypes:[ Value.Tfloat; Value.Tint ]
    (List.mapi (fun i k -> [| k; Value.Int i |]) keys)

(* Multiset equality under [Value.equal], which (unlike a float tolerance)
   holds NaN equal to itself. *)
let same_rows what a b =
  let norm rows =
    List.sort (List.compare Value.compare) (List.map Array.to_list rows)
  in
  Alcotest.(check bool) what true
    (List.equal (List.equal Value.equal) (norm a) (norm b))

(* Through the executor: grouping and joining on the same edge keys, with
   groups in first-seen order. *)
let test_keytbl_in_exec () =
  let keys =
    [ Value.Float 2.5; Value.Int 1; Value.Null; Value.Float Float.nan;
      Value.Float 1.0; Value.Int 3; Value.Null; Value.Float Float.nan;
      Value.Int 0; Value.Float 2.5 ]
  in
  let catalog = Cat.create () in
  let storage = Storage.create ~nsegments:1 in
  let g = keyed_table catalog storage ~name:"g" keys in
  let c rel i =
    Expr.col (Colref.make ~rel ~index:i ~name:"c" ~dtype:Value.Tfloat)
  in
  let plan =
    Plan.agg ~group_by:[ c 0 0 ] ~aggs:[ ("n", Plan.Count_star) ]
      (Plan.table_scan ~rel:0 g.Mpp_catalog.Table.oid)
  in
  let rows, _ = Exec.run ~catalog ~storage plan in
  Alcotest.(check (list string))
    "one group per SQL-equal key (NULLs together, apart from 0), first-seen \
     order"
    [ "2.5:2"; "1:2"; "NULL:2"; "nan:2"; "3:1"; "0:1" ]
    (List.map
       (fun r -> Value.to_string r.(0) ^ ":" ^ Value.to_string r.(1))
       rows);
  (* join the table with itself on the key: NULL matches nothing; 1 meets
     1.0; NaN meets NaN, the way [=] compares them *)
  let h = keyed_table catalog storage ~name:"h" keys in
  let join kind ctor =
    fst
      (Exec.run ~catalog ~storage
         (ctor ~kind ~pred:(Expr.eq (c 0 0) (c 1 0))
            (Plan.table_scan ~rel:0 g.Mpp_catalog.Table.oid)
            (Plan.table_scan ~rel:1 h.Mpp_catalog.Table.oid)))
  in
  let inner = join Plan.Inner Plan.hash_join in
  Alcotest.(check int) "inner: 2x2 (2.5) + 2x2 (1, 1.0) + 2x2 (NaN) + 1 + 1"
    14 (List.length inner);
  Alcotest.(check bool) "no NULL key in the inner result" true
    (List.for_all (fun r -> not (Value.is_null r.(0))) inner);
  same_rows "hash = nested loop on edge keys" inner
    (join Plan.Inner Plan.nl_join);
  let outer = join Plan.Left_outer Plan.hash_join in
  Alcotest.(check int) "left outer: the two NULL-key rows unmatched" 16
    (List.length outer);
  same_rows "left outer: hash = nested loop" outer
    (join Plan.Left_outer Plan.nl_join);
  same_rows "semi: hash = nested loop"
    (join Plan.Semi Plan.hash_join) (join Plan.Semi Plan.nl_join)

let () =
  Alcotest.run "exec"
    [ ("relational operators",
       [ Alcotest.test_case "scan + filter" `Quick test_scan_and_filter;
         Alcotest.test_case "inner hash join" `Quick test_hash_join_inner;
         Alcotest.test_case "nl join parity" `Quick test_nl_join_matches_hash_join;
         Alcotest.test_case "non-equi join" `Quick test_non_equi_join;
         Alcotest.test_case "semi join" `Quick test_semi_join;
         Alcotest.test_case "left outer join" `Quick test_left_outer_join;
         Alcotest.test_case "left outer: duplicate build rows" `Quick
           test_left_outer_duplicate_build_rows;
         Alcotest.test_case "grouped aggregation" `Quick test_agg_group_by;
         Alcotest.test_case "scalar agg over empty" `Quick test_agg_scalar_empty;
         Alcotest.test_case "sort + limit" `Quick test_sort_limit;
         Alcotest.test_case "int = float join keys" `Quick
           test_mixed_int_float_keys;
         Alcotest.test_case "int = float redistributed keys" `Quick
           test_redistribute_int_float_keys;
         Alcotest.test_case "transient rows are copied when kept" `Quick
           test_transient_rows ]);
      ("differential kernels",
       [ Alcotest.test_case "joins vs oracle" `Quick test_differential_join;
         Alcotest.test_case "aggregation vs oracle" `Quick
           test_differential_agg ]);
      ("key table",
       [ Alcotest.test_case "several resizes" `Quick test_keytbl_resizes;
         Alcotest.test_case "colliding hashes" `Quick test_keytbl_collisions;
         Alcotest.test_case "SQL equality: int/float, NaN, NULL" `Quick
           test_keytbl_equality;
         Alcotest.test_case "groups and joins in the executor" `Quick
           test_keytbl_in_exec ]);
      ("motions",
       [ Alcotest.test_case "redistribute co-locates" `Quick
           test_redistribute_colocates;
         Alcotest.test_case "broadcast and gather" `Quick
           test_broadcast_and_gather;
         Alcotest.test_case "gather-one for replicated" `Quick test_gather_one ]);
      ("partition selection",
       [ Alcotest.test_case "static selector pipeline" `Quick
           test_static_selector_pipeline;
         Alcotest.test_case "selection-disabled flag" `Quick
           test_selection_disabled_flag;
         Alcotest.test_case "guarded scans (Planner DPE)" `Quick
           test_guarded_scan_skips;
         Alcotest.test_case "channel semantics" `Quick test_channel;
         Alcotest.test_case "streaming selection" `Quick
           test_streaming_selection ]);
      ("explain analyze",
       [ Alcotest.test_case "scan rows sum to metrics" `Quick
           test_stats_rows_match_metrics;
         Alcotest.test_case "partition annotations" `Quick
           test_analyze_partition_annotations;
         Alcotest.test_case "no collector, no stats" `Quick
           test_run_without_stats_records_nothing ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest [ prop_join_matches_reference ]);
      ("dml",
       [ Alcotest.test_case "update in place" `Quick test_update;
         Alcotest.test_case "update moves partitions" `Quick
           test_update_moves_partition;
         Alcotest.test_case "delete" `Quick test_delete ]) ]
