(** Statistics tests: histogram construction and selectivity, ANALYZE over
    storage, and misestimate injection. *)

open Mpp_expr
module Histogram = Mpp_stats.Histogram
module Stats = Mpp_stats.Stats
module Stats_source = Mpp_stats.Stats_source
module Selectivity = Mpp_stats.Selectivity
module Storage = Mpp_storage.Storage

let ints l = List.map (fun i -> Value.Int i) l

let test_histogram_build () =
  let h = Histogram.build ~nbuckets:4 (ints (List.init 100 (fun i -> i))) in
  Alcotest.(check int) "total rows" 100 h.Histogram.total_rows;
  Alcotest.(check int) "no nulls" 0 h.Histogram.null_rows;
  Alcotest.(check (option (testable Value.pp Value.equal))) "min"
    (Some (Value.Int 0)) (Histogram.min_value h);
  Alcotest.(check (option (testable Value.pp Value.equal))) "max"
    (Some (Value.Int 99)) (Histogram.max_value h);
  Alcotest.(check int) "ndv counts distincts" 100 (Histogram.ndv h)

let test_histogram_nulls () =
  let h = Histogram.build (Value.Null :: ints [ 1; 2; 3 ]) in
  Alcotest.(check int) "null counted" 1 h.Histogram.null_rows;
  Alcotest.(check int) "total includes null" 4 h.Histogram.total_rows

let test_histogram_empty () =
  let h = Histogram.build [] in
  Alcotest.(check int) "empty" 0 h.Histogram.total_rows;
  Alcotest.(check (float 0.001)) "selectivity of anything is 0" 0.0
    (Histogram.selectivity h Interval.Set.full)

let test_histogram_selectivity () =
  let h = Histogram.build ~nbuckets:10 (ints (List.init 1000 (fun i -> i))) in
  let sel lo hi =
    Histogram.selectivity h
      (Interval.Set.of_interval_opt
         (Interval.closed_open (Value.Int lo) (Value.Int hi)))
  in
  Alcotest.(check bool) "half the domain ~ 0.5" true
    (Float.abs (sel 0 500 -. 0.5) < 0.1);
  Alcotest.(check bool) "tenth of the domain ~ 0.1" true
    (Float.abs (sel 100 200 -. 0.1) < 0.05);
  Alcotest.(check (float 0.001)) "full domain" 1.0
    (Histogram.selectivity h Interval.Set.full);
  Alcotest.(check bool) "out of range ~ 0" true (sel 5000 6000 < 0.01)

let analyzed_env () =
  let catalog, orders = Support.orders_schema () in
  let storage = Storage.create ~nsegments:4 in
  Support.load_orders storage orders 1000;
  let src = Stats_source.create ~catalog ~storage in
  (orders, src)

let test_analyze () =
  let orders, src = analyzed_env () in
  let st = Stats_source.table_stats src orders in
  Alcotest.(check int) "rowcount" 1000 st.Stats.rowcount;
  Alcotest.(check bool) "width positive" true (st.Stats.avg_width > 0);
  Alcotest.(check int) "per-column stats" 3 (Array.length st.Stats.columns);
  let amount = st.Stats.columns.(1) in
  Alcotest.(check bool) "amount ndv ~ 100" true
    (amount.Stats.ndv >= 90 && amount.Stats.ndv <= 110)

let test_analyze_replicated_counts_once () =
  let catalog = Mpp_catalog.Catalog.create () in
  let t =
    Mpp_catalog.Catalog.add_table catalog ~name:"dim"
      ~columns:[ ("k", Value.Tint) ]
      ~distribution:Mpp_catalog.Distribution.Replicated ()
  in
  let storage = Storage.create ~nsegments:4 in
  for i = 0 to 9 do
    Storage.insert storage t [| Value.Int i |]
  done;
  let src = Stats_source.create ~catalog ~storage in
  Alcotest.(check int) "replicated rows counted once" 10
    (Stats_source.table_stats src t).Stats.rowcount

let test_misestimate_injection () =
  let orders, src = analyzed_env () in
  Stats_source.set_row_scale src ~table_oid:orders.Mpp_catalog.Table.oid
    ~factor:10.0;
  Alcotest.(check int) "scaled rowcount" 10_000
    (Stats_source.table_stats src orders).Stats.rowcount;
  Stats_source.clear_row_scales src;
  Alcotest.(check int) "cleared" 1000
    (Stats_source.table_stats src orders).Stats.rowcount

let test_selectivity_estimates () =
  let orders, src = analyzed_env () in
  let st = Stats_source.table_stats src orders in
  let date = Mpp_catalog.Table.colref orders ~rel:0 "date" in
  let sel pred = Selectivity.estimate ~stats:st ~rel:0 pred in
  let quarter =
    Expr.between (Expr.col date)
      (Expr.date "2013-10-01") (Expr.date "2013-12-31")
  in
  Alcotest.(check bool) "one quarter of two years ~ 1/8" true
    (Float.abs (sel quarter -. 0.125) < 0.06);
  Alcotest.(check bool) "true is 1" true (sel Expr.true_ = 1.0);
  Alcotest.(check bool) "false is 0" true (sel Expr.false_ = 0.0);
  let amount = Mpp_catalog.Table.colref orders ~rel:0 "amount" in
  let eq_sel = sel (Expr.eq (Expr.col amount) (Expr.Const (Value.Float 5.0))) in
  Alcotest.(check bool) "equality ~ 1/ndv" true (eq_sel > 0.001 && eq_sel < 0.05)

let test_join_rows () =
  Alcotest.(check (float 0.01)) "containment formula" 1000.0
    (Selectivity.join_rows ~left_rows:1000.0 ~right_rows:100.0 ~left_ndv:100
       ~right_ndv:100);
  Alcotest.(check bool) "at least one row" true
    (Selectivity.join_rows ~left_rows:1.0 ~right_rows:1.0 ~left_ndv:1000
       ~right_ndv:1000
    >= 1.0)

let prop_histogram_selectivity_bounded =
  QCheck2.Test.make ~count:500 ~name:"selectivity stays within [0,1]"
    QCheck2.Gen.(pair (list_size (int_range 0 200) (int_range (-50) 50))
                   Support.interval_set_gen)
    (fun (values, set) ->
      let h = Histogram.build (ints values) in
      let s = Histogram.selectivity h set in
      s >= 0.0 && s <= 1.0)

let prop_point_selectivity_matches_frequency =
  QCheck2.Test.make ~count:300
    ~name:"selectivity of a point is roughly its frequency"
    QCheck2.Gen.(pair (list_size (int_range 50 200) (int_range 0 9))
                   (int_range 0 9))
    (fun (values, v) ->
      let h = Histogram.build ~nbuckets:10 (ints values) in
      let actual =
        float_of_int (List.length (List.filter (( = ) v) values))
        /. float_of_int (List.length values)
      in
      let est = Histogram.selectivity h (Interval.Set.point (Value.Int v)) in
      Float.abs (est -. actual) < 0.35)

(* ------------------------------------------------------------------ *)
(* ANALYZE against the list algorithm it replaced                      *)
(* ------------------------------------------------------------------ *)

(* The oracle: ANALYZE as it was before its one-pass rewrite.  Every row
   is consed into one list (so the list runs last heap first, last row
   first), mapped into one value list per column, and each column is
   list-sorted with [Value.compare] before the bucket loop. *)
let oracle_histogram values : Histogram.t =
  let nulls, non_null = List.partition Value.is_null values in
  let sorted = List.sort Value.compare non_null |> Array.of_list in
  let n = Array.length sorted in
  let null_rows = List.length nulls in
  let total_rows = n + null_rows in
  if n = 0 then { Histogram.empty with null_rows; total_rows }
  else begin
    let per = max 1 (n / min 32 n) in
    let buckets = ref [] in
    let i = ref 0 in
    while !i < n do
      let start = !i in
      let stop = ref (min (n - 1) (start + per - 1)) in
      while !stop < n - 1 && Value.equal sorted.(!stop) sorted.(!stop + 1) do
        incr stop
      done;
      let ndv = ref 1 in
      for k = start + 1 to !stop do
        if not (Value.equal sorted.(k) sorted.(k - 1)) then incr ndv
      done;
      buckets :=
        { Histogram.lo = sorted.(start); hi = sorted.(!stop);
          rows = !stop - start + 1; ndv = !ndv;
          hi_inclusive = !stop = n - 1 }
        :: !buckets;
      i := !stop + 1
    done;
    { Histogram.buckets = Array.of_list (List.rev !buckets); null_rows;
      total_rows }
  end

let oracle_analyze storage (table : Mpp_catalog.Table.t) : Stats.table_stats =
  let oids =
    match table.partitioning with
    | None -> [ table.oid ]
    | Some p -> Mpp_catalog.Partition.leaf_oids p
  in
  let last_seg =
    match table.distribution with
    | Mpp_catalog.Distribution.Replicated -> 0
    | _ -> Storage.nsegments storage - 1
  in
  let rows = ref [] in
  List.iter
    (fun oid ->
      for seg = 0 to last_seg do
        Mpp_storage.Vec.iter
          (fun t -> rows := t :: !rows)
          (Storage.scan_vec storage ~segment:seg ~oid)
      done)
    oids;
  let all = !rows in
  let rowcount = List.length all in
  let columns =
    Array.init (Mpp_catalog.Table.ncols table) (fun i ->
        let values = List.map (fun t -> t.(i)) all in
        let histogram = oracle_histogram values in
        let nulls = List.length (List.filter Value.is_null values) in
        { Stats.histogram;
          ndv = max 1 (Histogram.ndv histogram);
          null_frac =
            (if rowcount = 0 then 0.0
             else float_of_int nulls /. float_of_int rowcount) })
  in
  let width t =
    Array.fold_left (fun acc v -> acc + Value.serialized_size v) 0 t
  in
  let avg_width =
    if rowcount = 0 then 1
    else List.fold_left (fun acc t -> acc + width t) 0 all / rowcount
  in
  { Stats.rowcount; avg_width; columns }

(* The same value, constructor and float bits included: [Int 1] is not
   [Float 1.0], [-0.0] is not [0.0], and a NaN is itself. *)
let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let same_histogram (h : Histogram.t) (o : Histogram.t) =
  h.null_rows = o.null_rows && h.total_rows = o.total_rows
  && Array.length h.buckets = Array.length o.buckets
  && Array.for_all2
       (fun (b : Histogram.bucket) (c : Histogram.bucket) ->
         same_value b.lo c.lo && same_value b.hi c.hi && b.rows = c.rows
         && b.ndv = c.ndv && b.hi_inclusive = c.hi_inclusive)
       h.buckets o.buckets

type kind = K_int | K_int_wide | K_date | K_float | K_string | K_bool
          | K_mixed | K_any

let kind_name = function
  | K_int -> "int" | K_int_wide -> "int-wide" | K_date -> "date"
  | K_float -> "float" | K_string -> "string" | K_bool -> "bool"
  | K_mixed -> "int/float" | K_any -> "any"

let value_of_kind kind =
  let open QCheck2.Gen in
  let int_v g = map (fun i -> Value.Int i) g
  and float_v l = map (fun f -> Value.Float f) (oneofl l) in
  match kind with
  | K_int -> int_v (int_range (-20) 20)
  | K_int_wide ->
      (* several radix passes, and ranges too wide for one int *)
      oneof
        [ int_v (int_range (-(1 lsl 40)) (1 lsl 40)); int_v (int_range (-3) 3);
          int_v (oneofl [ min_int; max_int; 0 ]) ]
  | K_date -> map (fun d -> Value.Date d) (int_range (-800) 40_000)
  | K_float ->
      float_v [ 0.0; -0.0; Float.nan; 1.0; -2.5; 3.25; 1e300; Float.infinity;
                Float.neg_infinity ]
  | K_string -> map (fun s -> Value.String s) (oneofl [ ""; "a"; "ab"; "b"; "zz" ])
  | K_bool -> map (fun b -> Value.Bool b) bool
  | K_mixed ->
      oneof [ int_v (int_range (-3) 3);
              float_v [ 1.0; 2.0; 0.0; -0.0; 0.5; -3.0; Float.nan ] ]
  | K_any ->
      oneof [ int_v (int_range (-3) 3); float_v [ 1.0; -0.0; 0.0 ];
              map (fun d -> Value.Date d) (int_range 0 3);
              map (fun b -> Value.Bool b) bool;
              map (fun s -> Value.String s) (oneofl [ "a"; "b" ]) ]

type layout = Hashed | Round_robin | Replicated | Partitioned

let layout_name = function
  | Hashed -> "hashed" | Round_robin -> "random" | Replicated -> "replicated"
  | Partitioned -> "partitioned"

type table_spec = {
  layout : layout;
  nsegments : int;
  columns : (kind * int) list;  (** kind, NULL percentage *)
  batches : Value.t array list list;
}

let table_spec_gen =
  let open QCheck2.Gen in
  let* layout = oneofl [ Hashed; Round_robin; Replicated; Partitioned ] in
  let* nsegments = int_range 1 4 in
  let* columns =
    list_size (int_range 1 4)
      (pair
         (oneofl [ K_int; K_int_wide; K_date; K_float; K_string; K_bool;
                   K_mixed; K_any ])
         (oneofl [ 0; 0; 10; 50; 100 ]))
  in
  let column (kind, nulls) =
    let v = value_of_kind kind in
    if nulls = 0 then v
    else frequency [ (nulls, return Value.Null); (100 - nulls, v) ]
  in
  (* a partitioned table's first column is its key: ints in [0, 40) *)
  let columns =
    if layout = Partitioned then (K_int, 0) :: columns else columns
  in
  let cells =
    List.mapi
      (fun i c -> if i = 0 && layout = Partitioned then
                    map (fun k -> Value.Int k) (int_range 0 39)
                  else column c)
      columns
  in
  let row = map Array.of_list (flatten_l cells) in
  let* batches =
    list_size (int_range 0 3) (list_size (int_range 0 150) row)
  in
  return { layout; nsegments; columns; batches }

let print_table_spec s =
  Printf.sprintf "%s on %d segments, columns [%s], batches:\n%s"
    (layout_name s.layout) s.nsegments
    (String.concat "; "
       (List.map (fun (k, n) -> Printf.sprintf "%s %d%% NULL" (kind_name k) n)
          s.columns))
    (String.concat "\n--\n"
       (List.map
          (fun b ->
            String.concat "\n"
              (List.map
                 (fun r ->
                   String.concat ", "
                     (Array.to_list (Array.map Value.to_string r)))
                 b))
          s.batches))

let load_table_spec s =
  let module Cat = Mpp_catalog.Catalog in
  let module Part = Mpp_catalog.Partition in
  let module Dist = Mpp_catalog.Distribution in
  let catalog = Cat.create () in
  let partitioning =
    match s.layout with
    | Partitioned ->
        Some
          (Part.single_level
             ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
             ~key_index:0 ~key_name:"c0" ~scheme:Part.Range ~table_name:"t"
             (Part.int_ranges ~start:0 ~width:10 ~count:4))
    | Hashed | Round_robin | Replicated -> None
  in
  let distribution =
    match s.layout with
    | Hashed | Partitioned -> Dist.Hashed [ 0 ]
    | Round_robin -> Dist.Random
    | Replicated -> Dist.Replicated
  in
  let table =
    Cat.add_table catalog ~name:"t"
      ~columns:
        (List.mapi (fun i _ -> (Printf.sprintf "c%d" i, Value.Tint)) s.columns)
      ~distribution ?partitioning ()
  in
  let storage = Storage.create ~nsegments:s.nsegments in
  List.iter (Storage.load storage table) s.batches;
  (storage, table)

(* Every value in the table's heaps, each stored box once per heap. *)
let stored_values storage (table : Mpp_catalog.Table.t) =
  let oids =
    match table.partitioning with
    | None -> [ table.oid ]
    | Some p -> Mpp_catalog.Partition.leaf_oids p
  in
  List.concat_map
    (fun oid ->
      List.concat_map
        (fun segment ->
          List.concat_map Array.to_list
            (Mpp_storage.Vec.to_list (Storage.scan_vec storage ~segment ~oid)))
        (List.init (Storage.nsegments storage) Fun.id))
    oids

let prop_analyze_matches_list_oracle =
  QCheck2.Test.make ~count:400 ~name:"analyze matches the list oracle"
    ~print:print_table_spec table_spec_gen (fun spec ->
      let storage, table = load_table_spec spec in
      let st = Stats.analyze storage table
      and o = oracle_analyze storage table in
      let stored = stored_values storage table in
      let is_stored v = List.exists (fun s -> s == v) stored in
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      if st.rowcount <> o.rowcount then
        fail "rowcount %d, oracle %d" st.rowcount o.rowcount;
      if st.avg_width <> o.avg_width then
        fail "avg_width %d, oracle %d" st.avg_width o.avg_width;
      Array.iteri
        (fun i (c : Stats.column_stats) ->
          let oc = o.columns.(i) in
          if c.ndv <> oc.ndv then
            fail "column %d: ndv %d, oracle %d" i c.ndv oc.ndv;
          if not (Float.equal c.null_frac oc.null_frac) then
            fail "column %d: null_frac %g, oracle %g" i c.null_frac
              oc.null_frac;
          if not (same_histogram c.histogram oc.histogram) then
            fail "column %d: histogram@.%a@.oracle@.%a" i Histogram.pp
              c.histogram Histogram.pp oc.histogram;
          Array.iteri
            (fun k (b : Histogram.bucket) ->
              if not (is_stored b.lo && is_stored b.hi) then
                fail "column %d: bucket bound %a or %a is not a stored value" i
                  Value.pp b.lo Value.pp b.hi;
              (* equal values keep their scan order: the bound is the very
                 box the stable list sort put there *)
              let ob = oc.histogram.buckets.(k) in
              if not (b.lo == ob.lo && b.hi == ob.hi) then
                fail "column %d: bucket %d bounds are not the oracle's boxes"
                  i k)
            c.histogram.buckets)
        st.columns;
      (* the list form over the same values agrees with the oracle too *)
      List.iteri
        (fun i _ ->
          let values = List.map (fun r -> r.(i)) (List.concat spec.batches) in
          if not (same_histogram (Histogram.build values)
                    (oracle_histogram values)) then
            fail "column %d: Histogram.build differs from the oracle" i)
        spec.columns;
      true)

let () =
  Alcotest.run "stats"
    [ ("histogram",
       [ Alcotest.test_case "build" `Quick test_histogram_build;
         Alcotest.test_case "nulls" `Quick test_histogram_nulls;
         Alcotest.test_case "empty" `Quick test_histogram_empty;
         Alcotest.test_case "selectivity" `Quick test_histogram_selectivity ]);
      ("analyze",
       [ Alcotest.test_case "full analyze" `Quick test_analyze;
         Alcotest.test_case "replicated counted once" `Quick
           test_analyze_replicated_counts_once;
         Alcotest.test_case "misestimate injection" `Quick
           test_misestimate_injection ]);
      ("selectivity",
       [ Alcotest.test_case "estimates" `Quick test_selectivity_estimates;
         Alcotest.test_case "join cardinality" `Quick test_join_rows ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_histogram_selectivity_bounded;
           prop_point_selectivity_matches_frequency;
           prop_analyze_matches_list_oracle ]) ]
