(** Storage-layer tests: distribution policies, partition routing on
    insert, heap scans, the growable vector, and the write path's contract:
    a batch load stores what one-at-a-time inserts would, in the same order,
    keeps none of the caller's arrays, shares equal values, and writes
    nothing when one tuple cannot be routed. *)

open Mpp_expr
module Cat = Mpp_catalog.Catalog
module Dist = Mpp_catalog.Distribution
module Storage = Mpp_storage.Storage
module Vec = Mpp_storage.Vec

let test_vec () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Alcotest.(check int) "to_list order" 0 (List.hd (Vec.to_list v));
  Alcotest.(check int) "to_array roundtrip" 99
    (Array.length (Vec.to_array v) - 1 + Vec.get v 0);
  Alcotest.(check int) "fold" 4950 (Vec.fold ( + ) 0 v);
  Alcotest.check_raises "get out of bounds" (Invalid_argument "Vec.get")
    (fun () -> ignore (Vec.get v 100));
  Alcotest.(check (list int)) "of_list/to_list" [ 3; 1; 2 ]
    (Vec.to_list (Vec.of_list [ 3; 1; 2 ]))

let plain_table catalog name dist =
  Cat.add_table catalog ~name
    ~columns:[ ("a", Value.Tint); ("b", Value.Tstring) ]
    ~distribution:dist ()

let test_hashed_distribution () =
  let catalog = Cat.create () in
  let t = plain_table catalog "t" (Dist.Hashed [ 0 ]) in
  let storage = Storage.create ~nsegments:4 in
  for i = 0 to 99 do
    Storage.insert storage t [| Value.Int i; Value.String "x" |]
  done;
  Alcotest.(check int) "all rows stored once" 100 (Storage.count_table storage t);
  (* determinism: same key lands on the same segment *)
  let seg_of i =
    let found = ref (-1) in
    for seg = 0 to 3 do
      Vec.iter
        (fun row -> if row.(0) = Value.Int i then found := seg)
        (Storage.scan_vec storage ~segment:seg ~oid:t.Mpp_catalog.Table.oid)
    done;
    !found
  in
  let storage2 = Storage.create ~nsegments:4 in
  Storage.insert storage2 t [| Value.Int 17; Value.String "y" |];
  let seg2 = ref (-1) in
  for seg = 0 to 3 do
    if Storage.count_segment storage2 ~segment:seg ~oid:t.Mpp_catalog.Table.oid > 0
    then seg2 := seg
  done;
  Alcotest.(check int) "key 17 hashes to the same segment" (seg_of 17) !seg2

let test_replicated_distribution () =
  let catalog = Cat.create () in
  let t = plain_table catalog "r" Dist.Replicated in
  let storage = Storage.create ~nsegments:3 in
  Storage.insert storage t [| Value.Int 1; Value.String "x" |];
  for seg = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "segment %d holds a copy" seg)
      1
      (Storage.count_segment storage ~segment:seg ~oid:t.Mpp_catalog.Table.oid)
  done

let test_random_distribution_round_robin () =
  let catalog = Cat.create () in
  let t = plain_table catalog "rnd" Dist.Random in
  let storage = Storage.create ~nsegments:4 in
  for i = 0 to 7 do
    Storage.insert storage t [| Value.Int i; Value.String "x" |]
  done;
  for seg = 0 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "segment %d got 2 rows" seg)
      2
      (Storage.count_segment storage ~segment:seg ~oid:t.Mpp_catalog.Table.oid)
  done

let test_partition_routing_on_insert () =
  let _, orders = Support.orders_schema () in
  let storage = Storage.create ~nsegments:2 in
  Storage.insert storage orders
    [| Value.Int 1; Value.Float 10.0; Value.date_of_string "2013-11-15" |];
  let p = Option.get orders.Mpp_catalog.Table.partitioning in
  (* November 2013 is the 23rd monthly partition *)
  let leaf23 = (Mpp_catalog.Partition.leaf_oids p |> Array.of_list).(22) in
  Alcotest.(check int) "row stored in the November leaf" 1
    (Storage.count storage ~oid:leaf23);
  Alcotest.(check int) "total" 1 (Storage.count_table storage orders)

let test_insert_rejects_unroutable () =
  let _, orders = Support.orders_schema () in
  let storage = Storage.create ~nsegments:2 in
  let bad = [| Value.Int 1; Value.Float 1.0; Value.date_of_string "2031-01-01" |] in
  Alcotest.(check bool) "out-of-range date raises" true
    (try
       Storage.insert storage orders bad;
       false
     with Storage.No_partition_for_tuple _ -> true)

let test_arity_check () =
  let _, orders = Support.orders_schema () in
  let storage = Storage.create ~nsegments:2 in
  Alcotest.check_raises "arity mismatch rejected"
    (Invalid_argument "Storage.load: arity mismatch for orders") (fun () ->
      Storage.insert storage orders [| Value.Int 1 |])

let test_scan_vec_holds_every_row () =
  let catalog = Cat.create () in
  let t = plain_table catalog "t" (Dist.Hashed [ 0 ]) in
  let storage = Storage.create ~nsegments:2 in
  for i = 0 to 19 do
    Storage.insert storage t [| Value.Int i; Value.String "s" |]
  done;
  let seen = Array.make 20 0 in
  for seg = 0 to 1 do
    let heap = Storage.scan_vec storage ~segment:seg ~oid:t.Mpp_catalog.Table.oid in
    Alcotest.(check int)
      (Printf.sprintf "segment %d: scan_vec = count_segment" seg)
      (Storage.count_segment storage ~segment:seg ~oid:t.Mpp_catalog.Table.oid)
      (Vec.length heap);
    Vec.iter (fun row -> let i = Value.to_int row.(0) in seen.(i) <- seen.(i) + 1) heap
  done;
  Alcotest.(check (array int)) "every row stored once" (Array.make 20 1) seen

let test_replace_heap () =
  let catalog = Cat.create () in
  let t = plain_table catalog "t" (Dist.Hashed [ 0 ]) in
  let storage = Storage.create ~nsegments:1 in
  Storage.insert storage t [| Value.Int 1; Value.String "a" |];
  Storage.replace_heap storage ~segment:0 ~oid:t.Mpp_catalog.Table.oid
    [ [| Value.Int 9; Value.String "z" |] ];
  Alcotest.(check int) "replaced" 1 (Storage.count_table storage t);
  Alcotest.(check bool) "new content" true
    ((Vec.get (Storage.scan_vec storage ~segment:0 ~oid:t.Mpp_catalog.Table.oid) 0).(0)
    = Value.Int 9)

let prop_load_preserves_rows =
  QCheck2.Test.make ~count:200 ~name:"every loaded row is scannable somewhere"
    QCheck2.Gen.(list_size (int_range 0 50) (int_range 0 729))
    (fun days ->
      let _, orders = Support.orders_schema () in
      let storage = Storage.create ~nsegments:3 in
      let start = Date.of_ymd 2012 1 1 in
      List.iteri
        (fun i day ->
          Storage.insert storage orders
            [| Value.Int i; Value.Float 0.0; Value.Date (Date.add_days start day) |])
        days;
      Storage.count_table storage orders = List.length days)

(* ---- the write path ---- *)

let physical_oids (table : Mpp_catalog.Table.t) =
  match table.partitioning with
  | None -> [ table.oid ]
  | Some p -> Mpp_catalog.Partition.leaf_oids p

(* Every (segment, physical table) heap of [table], as row lists. *)
let heaps storage table =
  List.concat_map
    (fun oid ->
      List.init (Storage.nsegments storage) (fun segment ->
          ((segment, oid), Vec.to_list (Storage.scan_vec storage ~segment ~oid))))
    (physical_oids table)

let test_load_equals_inserts () =
  let catalog = Cat.create () in
  let _, multi = Support.multilevel_schema () in
  let start = Date.of_ymd 2012 1 1 in
  let regions = [| "east"; "west" |] in
  let cases =
    [ (plain_table catalog "hashed" (Dist.Hashed [ 0 ]),
       fun i -> [| Value.Int (i * 7 mod 23); Value.String (string_of_int (i mod 5)) |]);
      (plain_table catalog "replicated" Dist.Replicated,
       fun i -> [| Value.Int i; Value.String "r" |]);
      (plain_table catalog "random" Dist.Random,
       fun i -> [| Value.Int (i mod 3); Value.String "x" |]);
      (multi,
       fun i ->
         [| Value.Int i; Value.Float (float_of_int i /. 4.0);
            Value.Date (Date.add_days start (i * 13 mod 360));
            Value.String regions.(i mod 2) |]) ]
  in
  List.iter
    (fun ((table : Mpp_catalog.Table.t), row) ->
      (* a few rows first, so the batch starts mid round-robin *)
      let fresh () =
        let st = Storage.create ~nsegments:3 in
        List.iter (fun i -> Storage.insert st table (row (1000 + i))) [ 0; 1 ];
        st
      in
      let batch = List.init 50 row in
      let one_by_one = fresh () and loaded = fresh () in
      List.iter (Storage.insert one_by_one table) batch;
      Storage.load loaded table batch;
      Alcotest.(check int)
        (table.name ^ ": every row stored")
        (Storage.count_table one_by_one table)
        (Storage.count_table loaded table);
      Alcotest.(check bool)
        (table.name ^ ": same heaps, row for row, in order")
        true
        (heaps one_by_one table = heaps loaded table))
    cases

let test_load_copies_caller_arrays () =
  let catalog = Cat.create () in
  let t = plain_table catalog "t" (Dist.Hashed [ 0 ]) in
  let storage = Storage.create ~nsegments:2 in
  let batch = List.init 10 (fun i -> [| Value.Int i; Value.String "before" |]) in
  Storage.load storage t batch;
  let snapshot =
    List.map (fun (key, rows) -> (key, List.map Array.copy rows)) (heaps storage t)
  in
  List.iter (fun row -> row.(1) <- Value.String "after") batch;
  Alcotest.(check bool) "storage unchanged by the caller's writes" true
    (heaps storage t = snapshot)

let test_load_shares_values () =
  let catalog = Cat.create () in
  let t =
    Cat.add_table catalog ~name:"mixed"
      ~columns:
        [ ("a", Value.Tint); ("s", Value.Tstring); ("d", Value.Tdate);
          ("f", Value.Tfloat); ("b", Value.Tbool) ]
      ~distribution:(Dist.Hashed [ 3 ]) ()
  in
  let storage = Storage.create ~nsegments:4 in
  let day = Date.of_ymd 2013 5 1 in
  (* every row builds its own boxes; the Int column holds the Date's day
     number and the Float column the Int's numeric value *)
  Storage.load storage t
    (List.init 40 (fun i ->
         [| Value.Int day; Value.String (String.make 2 'x');
            Value.Date day; Value.Float (float_of_int day);
            Value.Bool (i >= 0) |]));
  let rows = List.concat_map snd (heaps storage t) in
  let first = List.hd rows in
  Alcotest.(check int) "rows spread over segments" 40 (List.length rows);
  List.iteri
    (fun c what ->
      Alcotest.(check bool)
        (what ^ " values are one physical value")
        true
        (List.for_all (fun r -> r.(c) == first.(c)) rows))
    [ "Int"; "String"; "Date" ];
  Alcotest.(check bool) "Bool values are one physical value" true
    (List.for_all (fun r -> r.(4) == first.(4)) rows);
  List.iter
    (fun r ->
      match (r.(0), r.(2), r.(3)) with
      | Value.Int a, Value.Date d, Value.Float f ->
          Alcotest.(check bool) "payloads kept" true
            (a = day && d = day && f = float_of_int day)
      | _ -> Alcotest.fail "Int, Date and Float keep their constructors")
    rows

let test_unroutable_batch_writes_nothing () =
  let _, orders = Support.orders_schema () in
  let storage = Storage.create ~nsegments:2 in
  Support.load_orders storage orders 100;
  let counts () =
    List.map (fun (key, rows) -> (key, List.length rows)) (heaps storage orders)
  in
  let before = counts () in
  let row date = [| Value.Int 7; Value.Float 1.0; Value.date_of_string date |] in
  Alcotest.(check bool) "the batch raises" true
    (try
       Storage.load storage orders
         [ row "2012-03-01"; row "2031-01-01"; row "2013-03-01" ];
       false
     with Storage.No_partition_for_tuple _ -> true);
  Alcotest.(check bool) "every heap count unchanged" true (counts () = before)

let () =
  Alcotest.run "storage"
    [ ("vec", [ Alcotest.test_case "growable vector" `Quick test_vec ]);
      ("distribution",
       [ Alcotest.test_case "hashed" `Quick test_hashed_distribution;
         Alcotest.test_case "replicated" `Quick test_replicated_distribution;
         Alcotest.test_case "random round-robin" `Quick
           test_random_distribution_round_robin ]);
      ("partitioned heaps",
       [ Alcotest.test_case "routing on insert" `Quick
           test_partition_routing_on_insert;
         Alcotest.test_case "unroutable tuple rejected" `Quick
           test_insert_rejects_unroutable;
         Alcotest.test_case "arity check" `Quick test_arity_check;
         Alcotest.test_case "scan_vec holds every row once" `Quick
           test_scan_vec_holds_every_row;
         Alcotest.test_case "replace_heap" `Quick test_replace_heap ]);
      ("write path",
       [ Alcotest.test_case "load = one-at-a-time inserts" `Quick
           test_load_equals_inserts;
         Alcotest.test_case "caller's arrays not kept" `Quick
           test_load_copies_caller_arrays;
         Alcotest.test_case "equal values shared" `Quick test_load_shares_values;
         Alcotest.test_case "unroutable batch writes nothing" `Quick
           test_unroutable_batch_writes_nothing ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest [ prop_load_preserves_rows ]) ]
