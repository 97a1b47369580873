(** Shared test support: QCheck generators for values, intervals and
    predicates, and catalog/storage builders for the recurring schemas. *)

open Mpp_expr
module Cat = Mpp_catalog.Catalog
module Part = Mpp_catalog.Partition
module Dist = Mpp_catalog.Distribution
module Storage = Mpp_storage.Storage

(* ------------------------------------------------------------------ *)
(* QCheck generators                                                   *)
(* ------------------------------------------------------------------ *)

let value_gen : Value.t QCheck2.Gen.t =
  QCheck2.Gen.(
    oneof
      [ return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-1000) 1000);
        map (fun f -> Value.Float (float_of_int f /. 4.0))
          (int_range (-4000) 4000);
        map (fun i -> Value.String (Printf.sprintf "s%03d" i)) (int_range 0 999);
        map (fun d -> Value.Date (Date.add_days (Date.of_ymd 2012 1 1) d))
          (int_range 0 730) ])

(* Values of one comparable type (ints), for interval properties. *)
let int_value_gen = QCheck2.Gen.(map (fun i -> Value.Int i) (int_range (-100) 100))

let bound_pair_gen : (Interval.bound * Interval.bound) QCheck2.Gen.t =
  QCheck2.Gen.(
    let bound =
      oneof
        [ return Interval.Neg_inf;
          return Interval.Pos_inf;
          map2 (fun v i -> Interval.B (v, i)) int_value_gen bool ]
    in
    pair bound bound)

let interval_gen : Interval.t QCheck2.Gen.t =
  QCheck2.Gen.(
    map
      (fun (lo, hi) ->
        match Interval.make lo hi with
        | Some iv -> iv
        | None -> Interval.point (Value.Int 0))
      bound_pair_gen)

let interval_set_gen : Interval.Set.t QCheck2.Gen.t =
  QCheck2.Gen.(map Interval.Set.of_list (list_size (int_range 0 5) interval_gen))

(* A single-column predicate over the given colref, always analyzable or
   deliberately opaque; used for restriction-soundness properties. *)
let predicate_gen (key : Colref.t) : Expr.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let atom =
    oneof
      [ map2 (fun op v -> Expr.Cmp (op, Expr.Col key, Expr.Const v))
          (oneofl Expr.[ Eq; Neq; Lt; Le; Gt; Ge ])
          int_value_gen;
        map (fun vs -> Expr.In_list (Expr.Col key, vs))
          (list_size (int_range 1 4) int_value_gen);
        map2 (fun lo hi ->
            Expr.between (Expr.Col key) (Expr.Const lo) (Expr.Const hi))
          int_value_gen int_value_gen;
        (* opaque to the analyzer *)
        map (fun v ->
            Expr.Cmp (Expr.Ge, Expr.Func ("abs", [ Expr.Col key ]),
                      Expr.Const v))
          int_value_gen ]
  in
  let rec tree depth =
    if depth = 0 then atom
    else
      frequency
        [ (3, atom);
          (2, map (fun es -> Expr.And es)
               (list_size (int_range 2 3) (tree (depth - 1))));
          (2, map (fun es -> Expr.Or es)
               (list_size (int_range 2 3) (tree (depth - 1))));
          (1, map (fun e -> Expr.Not e) (tree (depth - 1))) ]
  in
  tree 2

(* ------------------------------------------------------------------ *)
(* Schema builders                                                     *)
(* ------------------------------------------------------------------ *)

(** [orders] partitioned monthly over 2012–2013 (24 parts), hashed on id. *)
let orders_schema () =
  let catalog = Cat.create () in
  let partitioning =
    Part.single_level
      ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
      ~key_index:2 ~key_name:"date" ~scheme:Part.Range ~table_name:"orders"
      (Part.monthly_ranges ~start_year:2012 ~start_month:1 ~months:24)
  in
  let orders =
    Cat.add_table catalog ~name:"orders"
      ~columns:
        [ ("id", Value.Tint); ("amount", Value.Tfloat); ("date", Value.Tdate) ]
      ~distribution:(Dist.Hashed [ 0 ]) ~partitioning ()
  in
  (catalog, orders)

(** Loads [n] orders spread over the two years; deterministic. *)
let load_orders storage orders n =
  let start = Date.of_ymd 2012 1 1 in
  for i = 0 to n - 1 do
    Storage.insert storage orders
      [| Value.Int i;
         Value.Float (float_of_int (i mod 100));
         Value.Date (Date.add_days start (i * 730 / n)) |]
  done

(** [orders] + replicated [date_dim] covering the same range. *)
let star_schema () =
  let catalog, orders = orders_schema () in
  let date_dim =
    Cat.add_table catalog ~name:"date_dim"
      ~columns:
        [ ("d_date", Value.Tdate); ("d_year", Value.Tint);
          ("d_month", Value.Tint); ("d_dow", Value.Tint) ]
      ~distribution:Dist.Replicated ()
  in
  (catalog, orders, date_dim)

let load_date_dim storage date_dim =
  let start = Date.of_ymd 2012 1 1 in
  for i = 0 to 729 do
    let d = Date.add_days start i in
    Storage.insert storage date_dim
      [| Value.Date d; Value.Int (Date.year d); Value.Int (Date.month d);
         Value.Int (Date.day_of_week d) |]
  done

(** Two-level orders: month × region. *)
let multilevel_schema () =
  let catalog = Cat.create () in
  let partitioning =
    Part.two_level
      ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
      ~table_name:"orders"
      ~level1:{ Part.key_index = 2; key_name = "date"; scheme = Part.Range }
      ~constrs1:(Part.monthly_ranges ~start_year:2012 ~start_month:1 ~months:12)
      ~level2:
        { Part.key_index = 3; key_name = "region"; scheme = Part.Categorical }
      ~constrs2:
        (Part.categorical
           [ [ Value.String "east" ]; [ Value.String "west" ] ])
  in
  let orders =
    Cat.add_table catalog ~name:"orders"
      ~columns:
        [ ("id", Value.Tint); ("amount", Value.Tfloat);
          ("date", Value.Tdate); ("region", Value.Tstring) ]
      ~distribution:(Dist.Hashed [ 0 ]) ~partitioning ()
  in
  (catalog, orders)

(* ------------------------------------------------------------------ *)
(* Result comparison                                                   *)
(* ------------------------------------------------------------------ *)

(** Compare two result row multisets independent of order.  Floats compare
    with a relative tolerance: different plans sum in different orders. *)
let value_close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | _ -> Value.equal a b

let rows_equal (a : Value.t array list) (b : Value.t array list) =
  let norm rows =
    List.map (fun r -> Array.to_list r) rows
    |> List.sort (fun x y -> List.compare Value.compare x y)
  in
  let na = norm a and nb = norm b in
  List.length na = List.length nb
  && List.for_all2
       (fun x y ->
         List.length x = List.length y && List.for_all2 value_close x y)
       na nb

let check_rows_equal what a b =
  Alcotest.(check bool) (what ^ ": result sets equal") true (rows_equal a b)

(** Run a plan and return its sorted rows and metrics. *)
let run_plan ~catalog ~storage ?params ?selection_enabled plan =
  Mpp_exec.Exec.run ?params ?selection_enabled ~catalog ~storage plan

(* The paper's §3.1 / Figure-12 rules alone — the verifier's structure
   pass — for plans that are not complete top-level plans (Memo and
   placement output is not gathered at the root). *)
let structure_ok ~catalog p =
  Mpp_verify.Verify.check_pass ~catalog Mpp_verify.Diag.Structure p = []
