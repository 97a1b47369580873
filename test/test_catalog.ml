(** Catalog and partition-metadata tests: the partitioning function f_T
    ({!Mpp_catalog.Partition.route}), the selection function f*_T
    ({!Mpp_catalog.Partition.select_oids}), multi-level layouts, default
    partitions, the per-level envelopes and the Table-1 builtins. *)

open Mpp_expr
module Cat = Mpp_catalog.Catalog
module Part = Mpp_catalog.Partition
module Dist = Mpp_catalog.Distribution
module Table = Mpp_catalog.Table

let d = Value.date_of_string

let test_monthly_ranges () =
  let cs = Part.monthly_ranges ~start_year:2012 ~start_month:1 ~months:24 in
  Alcotest.(check int) "24 constraints" 24 (List.length cs);
  (* contiguity: every day of the two years is covered exactly once *)
  let start = Date.of_ymd 2012 1 1 in
  for day = 0 to 730 do
    let v = Value.Date (Date.add_days start day) in
    let hits =
      List.length
        (List.filter
           (function
             | Part.Cset s -> Interval.Set.contains s v
             | Part.Default -> false)
           cs)
    in
    if Date.add_days start day < Date.of_ymd 2014 1 1 then
      Alcotest.(check int) (Printf.sprintf "day %d covered once" day) 1 hits
  done

let test_route_single_level () =
  let catalog, orders = Support.orders_schema () in
  ignore catalog;
  let p = Option.get orders.Table.partitioning in
  (match Part.route p [| d "2012-01-15" |] with
  | Some lf ->
      Alcotest.(check string) "first month" "orders_1_prt_1" lf.Part.leaf_name
  | None -> Alcotest.fail "in-range date must route");
  (match Part.route p [| d "2013-12-31" |] with
  | Some lf ->
      Alcotest.(check string) "last month" "orders_1_prt_24" lf.Part.leaf_name
  | None -> Alcotest.fail "in-range date must route");
  Alcotest.(check bool) "out of range routes to ⊥" true
    (Part.route p [| d "2014-06-01" |] = None);
  Alcotest.(check bool) "null routes to ⊥ (no default)" true
    (Part.route p [| Value.Null |] = None)

let test_default_partition () =
  let catalog = Cat.create () in
  let constrs =
    Part.int_ranges ~start:0 ~width:10 ~count:3 @ [ Part.Default ]
  in
  let p =
    Part.single_level
      ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
      ~key_index:0 ~key_name:"k" ~scheme:Part.Range ~table_name:"t" constrs
  in
  let leaf_of v =
    match Part.route p [| v |] with
    | Some lf -> lf.Part.leaf_name
    | None -> "⊥"
  in
  Alcotest.(check string) "covered value in range part" "t_1_prt_1"
    (leaf_of (Value.Int 5));
  Alcotest.(check string) "uncovered value in default" "t_1_prt_4"
    (leaf_of (Value.Int 999));
  Alcotest.(check string) "null lands in default" "t_1_prt_4"
    (leaf_of Value.Null);
  (* selection: a restriction outside the ranges keeps only the default *)
  let sel r = Part.select_oids p [| Some r |] in
  Alcotest.(check int) "out-of-range restriction selects default only" 1
    (List.length (sel (Interval.Set.point (Value.Int 500))));
  Alcotest.(check int) "in-range point selects its part only" 1
    (List.length (sel (Interval.Set.point (Value.Int 5))));
  Alcotest.(check int)
    "restriction across covered+uncovered selects part and default" 2
    (List.length
       (sel
          (Interval.Set.of_list
             [ Interval.point (Value.Int 5); Interval.point (Value.Int 500) ])))

let test_select_single_level () =
  let _, orders = Support.orders_schema () in
  let p = Option.get orders.Table.partitioning in
  let q4_2013 =
    Interval.Set.of_interval_opt
      (Interval.closed_open (d "2013-10-01") (d "2014-01-01"))
  in
  Alcotest.(check int) "Q4 selects 3 parts" 3
    (List.length (Part.select_oids p [| Some q4_2013 |]));
  Alcotest.(check int) "no restriction selects all" 24
    (List.length (Part.select_oids p [| None |]));
  Alcotest.(check int) "empty restriction selects none" 0
    (List.length (Part.select_oids p [| Some Interval.Set.empty |]))

let test_multilevel_figure10 () =
  (* the paper's Figure 10: month × region selection *)
  let _, orders = Support.multilevel_schema () in
  let p = Option.get orders.Table.partitioning in
  Alcotest.(check int) "12 months x 2 regions" 24 (Part.nparts p);
  let jan =
    Interval.Set.of_interval_opt
      (Interval.closed_open (d "2012-01-01") (d "2012-02-01"))
  in
  let east = Interval.Set.point (Value.String "east") in
  Alcotest.(check int) "date only: one month, all regions" 2
    (List.length (Part.select_oids p [| Some jan; None |]));
  Alcotest.(check int) "region only: all months, one region" 12
    (List.length (Part.select_oids p [| None; Some east |]));
  Alcotest.(check int) "both: exactly one leaf" 1
    (List.length (Part.select_oids p [| Some jan; Some east |]));
  Alcotest.(check int) "Φ: all leaves" 24
    (List.length (Part.select_oids p [| None; None |]))

let test_multilevel_route () =
  let _, orders = Support.multilevel_schema () in
  let p = Option.get orders.Table.partitioning in
  match Part.route p [| d "2012-03-10"; Value.String "west" |] with
  | Some lf ->
      (* level-1 part 3 (March), level-2 part 2 (west) *)
      Alcotest.(check string) "routes by both levels" "orders_1_prt_3_2_prt_2"
        lf.Part.leaf_name
  | None -> Alcotest.fail "must route"

let test_three_level_partitioning () =
  (* month × region × channel: the §2.4 machinery at depth 3 *)
  let catalog = Cat.create () in
  let p =
    Part.multi_level
      ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
      ~table_name:"t"
      [ ({ Part.key_index = 0; key_name = "date"; scheme = Part.Range },
         Part.monthly_ranges ~start_year:2012 ~start_month:1 ~months:6);
        ({ Part.key_index = 1; key_name = "region"; scheme = Part.Categorical },
         Part.categorical [ [ Value.String "east" ]; [ Value.String "west" ] ]);
        ({ Part.key_index = 2; key_name = "channel"; scheme = Part.Categorical },
         Part.categorical
           [ [ Value.String "web" ]; [ Value.String "store" ];
             [ Value.String "phone" ] ]) ]
  in
  Alcotest.(check int) "6 x 2 x 3 leaves" 36 (Part.nparts p);
  Alcotest.(check int) "3 levels" 3 (Part.nlevels p);
  (* route hits exactly one leaf and selection composes across levels *)
  (match Part.route p [| d "2012-03-10"; Value.String "west"; Value.String "phone" |]
   with
  | Some lf ->
      Alcotest.(check string) "deep leaf name" "t_1_prt_3_2_prt_2_3_prt_3"
        lf.Part.leaf_name
  | None -> Alcotest.fail "must route");
  let mar =
    Interval.Set.of_interval_opt
      (Interval.closed_open (d "2012-03-01") (d "2012-04-01"))
  in
  Alcotest.(check int) "one month, all below" 6
    (List.length (Part.select_oids p [| Some mar; None; None |]));
  Alcotest.(check int) "month+region" 3
    (List.length
       (Part.select_oids p
          [| Some mar; Some (Interval.Set.point (Value.String "east")); None |]));
  Alcotest.(check int) "fully pinned" 1
    (List.length
       (Part.select_oids p
          [| Some mar;
             Some (Interval.Set.point (Value.String "east"));
             Some (Interval.Set.point (Value.String "web")) |]))

let test_catalog_registry () =
  let catalog, orders = Support.orders_schema () in
  Alcotest.(check bool) "find by name" true (Cat.find catalog "orders" == orders);
  Alcotest.(check bool) "find by oid" true
    (Cat.find_oid catalog orders.Table.oid == orders);
  Alcotest.(check bool) "find_opt misses" true (Cat.find_opt catalog "nope" = None);
  (* leaf → root mapping *)
  let p = Option.get orders.Table.partitioning in
  let leaf = Part.leaf_oids p |> List.hd in
  Alcotest.(check int) "leaf resolves to root" orders.Table.oid
    (Cat.root_of catalog leaf);
  Alcotest.(check int) "root resolves to itself" orders.Table.oid
    (Cat.root_of catalog orders.Table.oid);
  Alcotest.check_raises "duplicate table rejected"
    (Invalid_argument "Catalog.add_table: duplicate table orders") (fun () ->
      ignore
        (Cat.add_table catalog ~name:"orders" ~columns:[ ("x", Value.Tint) ]
           ~distribution:Dist.Random ()))

let test_table_helpers () =
  let _, orders = Support.orders_schema () in
  Alcotest.(check int) "col_index" 2 (Table.col_index orders "date");
  Alcotest.(check bool) "col_type" true (Table.col_type orders "date" = Value.Tdate);
  let keys = Table.part_key_colrefs orders ~rel:7 in
  (match keys with
  | [ k ] ->
      Alcotest.(check int) "key rel" 7 k.Colref.rel;
      Alcotest.(check string) "key name" "date" k.Colref.name
  | _ -> Alcotest.fail "one partitioning key");
  Alcotest.(check int) "nparts" 24 (Table.nparts orders)

(* Paper Table 1's builtins are [Partition] functions: partition_expansion
   is [leaf_oids], partition_selection is [route], and restriction-driven
   selection is [select_oids] ([select_static] over a selector's
   predicates).  The fourth, partition_propagation, is the executor's
   channel push. *)
let test_builtins () =
  let _, orders = Support.orders_schema () in
  let p = Option.get orders.Table.partitioning in
  Alcotest.(check int) "partition_expansion yields all leaves" 24
    (List.length (Part.leaf_oids p));
  (match Part.route p [| d "2013-10-15" |] with
  | Some leaf ->
      Alcotest.(check bool) "selection returns a leaf of the root" true
        (List.mem leaf.Part.leaf_oid (Part.leaf_oids p))
  | None -> Alcotest.fail "in-range value selects a partition");
  Alcotest.(check bool) "out-of-range selection is ⊥" true
    (Part.route p [| d "2030-01-01" |] = None);
  let oct =
    Interval.Set.of_list
      [ Option.get (Interval.closed_open (d "2013-10-01") (d "2013-11-01")) ]
  in
  Alcotest.(check (list int)) "restricted selection: October 2013"
    [ (Option.get (Part.route p [| d "2013-10-15" |])).Part.leaf_oid ]
    (Part.select_oids p [| Some oct |])

(* f*_T soundness: whatever leaf f_T routes a value to is among the leaves
   f*_T selects for any restriction containing that value. *)
let prop_select_covers_route =
  let catalog = Cat.create () in
  let constrs = Part.int_ranges ~start:0 ~width:7 ~count:10 @ [ Part.Default ] in
  let p =
    Part.single_level
      ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
      ~key_index:0 ~key_name:"k" ~scheme:Part.Range ~table_name:"t" constrs
  in
  QCheck2.Test.make ~count:2000
    ~name:"f*_T never drops the leaf f_T routes to"
    QCheck2.Gen.(pair Support.int_value_gen Support.interval_set_gen)
    (fun (v, restriction) ->
      if not (Interval.Set.contains restriction v) then true
      else
        match Part.route p [| v |] with
        | None -> true
        | Some lf ->
            List.mem lf.Part.leaf_oid
              (Part.select_oids p [| Some restriction |]))

let prop_route_deterministic =
  let _, orders = Support.orders_schema () in
  let p = Option.get orders.Mpp_catalog.Table.partitioning in
  QCheck2.Test.make ~count:1000 ~name:"f_T routes each date to exactly one leaf"
    QCheck2.Gen.(int_range 0 730)
    (fun day ->
      let v = Value.Date (Date.add_days (Date.of_ymd 2012 1 1) day) in
      match Part.route p [| v |] with
      | None -> false
      | Some lf -> (
          match Part.find_leaf p lf.Part.leaf_oid with
          | Some lf' -> lf == lf'
          | None -> false))

(* The executor's partition sets are bitsets over leaf positions, and a
   DynamicScan visits them in ascending position.  That is the ascending-OID
   order scans used before only if every layout allocates its leaf OIDs in
   position order — pinned here for every partitioned table the workloads
   build, along with [Index.position] inverting the numbering. *)
let tpch_scenarios = Mpp_workload.Tpch.[ Parts_42; Parts_84; Parts_169; Parts_361 ]

let tpch_catalog scenario =
  let catalog = Cat.create () in
  let storage = Mpp_storage.Storage.create ~nsegments:4 in
  let tbl = Mpp_workload.Tpch.setup ~catalog ~storage ~scenario ~rows:0 in
  (catalog, tbl)

(* The TPC-DS (scale 1), TPC-H and Biggen catalogs, by name. *)
let workload_catalogs () =
  ("tpcds", (Mpp_workload.Runner.setup_env ~scale:1 ()).Mpp_workload.Runner.catalog)
  :: List.map
       (fun sc -> (Mpp_workload.Tpch.scenario_name sc, fst (tpch_catalog sc)))
       tpch_scenarios
  @ List.map
      (fun spec ->
        let env = Mpp_workload.Biggen.generate spec in
        (env.Mpp_workload.Biggen.name, env.Mpp_workload.Biggen.catalog))
      (Mpp_workload.Biggen.default_suite ())

(* Each level's envelope, built with the record, equals the fold over the
   leaves' constraints that [Analysis.scan_env] used to redo per call:
   full once a leaf is [Default] there, else the union of the [Cset]s. *)
let test_envelopes () =
  let fold (p : Part.t) l =
    if Array.exists (fun (lf : Part.leaf) -> lf.Part.bounds.(l) = Part.Default) p.Part.leaves
    then Interval.Set.full
    else
      Array.fold_left
        (fun acc (lf : Part.leaf) ->
          match lf.Part.bounds.(l) with
          | Part.Cset s -> Interval.Set.union acc s
          | Part.Default -> acc)
        Interval.Set.empty p.Part.leaves
  in
  let checked = ref 0 in
  List.iter
    (fun (what, catalog) ->
      List.iter
        (fun (tbl : Table.t) ->
          match tbl.Table.partitioning with
          | None -> ()
          | Some p ->
              incr checked;
              Alcotest.(check int)
                (what ^ "." ^ tbl.Table.name ^ ": one envelope per level")
                (Part.nlevels p) (Array.length p.Part.envelope);
              Array.iteri
                (fun l env ->
                  if not (Interval.Set.equal env (fold p l)) then
                    Alcotest.failf "%s.%s: level %d envelope %s, leaf fold %s"
                      what tbl.Table.name l
                      (Format.asprintf "%a" Interval.Set.pp env)
                      (Format.asprintf "%a" Interval.Set.pp (fold p l)))
                p.Part.envelope)
        (Cat.tables catalog))
    (workload_catalogs ());
  Alcotest.(check bool) "partitioned tables checked" true (!checked > 10)

let test_leaf_oids_ascend () =
  let check_table what (tbl : Table.t) =
    match tbl.Table.partitioning with
    | None -> ()
    | Some p ->
        let ix = p.Part.index in
        Array.iteri
          (fun j (lf : Part.leaf) ->
            if j > 0 && p.Part.leaves.(j - 1).Part.leaf_oid >= lf.Part.leaf_oid
            then
              Alcotest.failf "%s.%s: leaf %d's OID does not ascend" what
                tbl.Table.name j;
            if Part.Index.position ix lf.Part.leaf_oid <> Some j then
              Alcotest.failf "%s.%s: position of leaf %d" what tbl.Table.name j)
          p.Part.leaves
  in
  let check_catalog what catalog =
    List.iter (check_table what) (Cat.tables catalog)
  in
  List.iter
    (fun scenario ->
      Alcotest.(check int)
        (Mpp_workload.Tpch.scenario_name scenario ^ " partitions")
        (Mpp_workload.Tpch.scenario_parts scenario)
        (Table.nparts (snd (tpch_catalog scenario))))
    tpch_scenarios;
  List.iter (fun (what, catalog) -> check_catalog what catalog)
    (workload_catalogs ());
  let multilevel, _ = Support.multilevel_schema () in
  check_catalog "multi-level" multilevel;
  let catalog = Cat.create () in
  let three =
    Cat.add_table catalog ~name:"t3"
      ~columns:
        [ ("date", Value.Tdate); ("region", Value.Tstring);
          ("channel", Value.Tstring) ]
      ~distribution:(Dist.Hashed [ 0 ])
      ~partitioning:
        (Part.multi_level
           ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
           ~table_name:"t3"
           [ ({ Part.key_index = 0; key_name = "date"; scheme = Part.Range },
              Part.monthly_ranges ~start_year:2012 ~start_month:1 ~months:4);
             ({ Part.key_index = 1; key_name = "region";
                scheme = Part.Categorical },
              Part.categorical
                [ [ Value.String "east" ]; [ Value.String "west" ] ]);
             ({ Part.key_index = 2; key_name = "channel";
                scheme = Part.Categorical },
              Part.categorical
                [ [ Value.String "web" ]; [ Value.String "store" ] ]) ])
      ()
  in
  Alcotest.(check int) "three-level leaves" 16 (Table.nparts three);
  check_table "three-level" three

let () =
  Alcotest.run "catalog"
    [ ("partitioning",
       [ Alcotest.test_case "monthly ranges contiguous" `Quick
           test_monthly_ranges;
         Alcotest.test_case "route (f_T)" `Quick test_route_single_level;
         Alcotest.test_case "default partition" `Quick test_default_partition;
         Alcotest.test_case "select (f*_T)" `Quick test_select_single_level;
         Alcotest.test_case "multi-level Figure 10" `Quick
           test_multilevel_figure10;
         Alcotest.test_case "multi-level route" `Quick test_multilevel_route;
         Alcotest.test_case "three-level hierarchy" `Quick
           test_three_level_partitioning;
         Alcotest.test_case "leaf OIDs ascend with position" `Quick
           test_leaf_oids_ascend;
         Alcotest.test_case "level envelopes = leaf fold" `Quick
           test_envelopes ]);
      ("catalog",
       [ Alcotest.test_case "registry" `Quick test_catalog_registry;
         Alcotest.test_case "table helpers" `Quick test_table_helpers;
         Alcotest.test_case "Table-1 builtins" `Quick test_builtins ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_select_covers_route; prop_route_deterministic ]) ]
