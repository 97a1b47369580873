(** TPC-H-like [lineitem] workload for the partitioning-overhead experiment
    (paper Table 2) and the plan-size experiment of Figure 18(a).

    Seven years of data (1992–1998, the TPC-H date range), partitioned at
    configurable granularity: the paper's scenarios are 42 two-month
    partitions, 84 monthly, 169 bi-weekly and 361 weekly. *)

open Mpp_expr
module Cat = Mpp_catalog.Catalog
module Part = Mpp_catalog.Partition
module Dist = Mpp_catalog.Distribution

type scenario = Unpartitioned | Parts_42 | Parts_84 | Parts_169 | Parts_361

let scenario_name = function
  | Unpartitioned -> "unpartitioned"
  | Parts_42 -> "42 (2-month)"
  | Parts_84 -> "84 (monthly)"
  | Parts_169 -> "169 (bi-weekly)"
  | Parts_361 -> "361 (weekly)"

let scenario_parts = function
  | Unpartitioned -> 1
  | Parts_42 -> 42
  | Parts_84 -> 84
  | Parts_169 -> 169
  | Parts_361 -> 361

let start = Date.of_ymd 1992 1 1
let years = 7
let total_days = 7 * 365 + 2 (* 1992 & 1996 are leap years *)

let columns =
  [ ("l_orderkey", Value.Tint);
    ("l_partkey", Value.Tint);
    ("l_quantity", Value.Tfloat);
    ("l_extendedprice", Value.Tfloat);
    ("l_shipdate", Value.Tdate) ]

let shipdate_index = 4

let constraints_for scenario =
  match scenario with
  | Unpartitioned -> None
  | Parts_42 ->
      (* two-month ranges over the 84 months *)
      Some
        (List.init 42 (fun i ->
             let lo = Date.add_months start (2 * i) in
             let hi = Date.add_months start (2 * (i + 1)) in
             match Interval.closed_open (Value.Date lo) (Value.Date hi) with
             | Some iv -> Part.Cset (Interval.Set.singleton iv)
             | None -> assert false))
  | Parts_84 ->
      Some (Part.monthly_ranges ~start_year:1992 ~start_month:1 ~months:84)
  | Parts_169 ->
      (* bi-weekly partitions covering the 7-year span (169 × 14 = 2366
         days ≥ 2557?  no — 169 × 14 = 2366 < 2557; widen the last one) *)
      Some
        (List.init 169 (fun i ->
             let lo = Date.add_days start (i * 14) in
             let hi =
               if i = 168 then Date.add_days start (total_days + 14)
               else Date.add_days lo 14
             in
             match Interval.closed_open (Value.Date lo) (Value.Date hi) with
             | Some iv -> Part.Cset (Interval.Set.singleton iv)
             | None -> assert false))
  | Parts_361 ->
      Some
        (List.init 361 (fun i ->
             let lo = Date.add_days start (i * 7) in
             let hi =
               if i = 360 then Date.add_days start (total_days + 7)
               else Date.add_days lo 7
             in
             match Interval.closed_open (Value.Date lo) (Value.Date hi) with
             | Some iv -> Part.Cset (Interval.Set.singleton iv)
             | None -> assert false))

(** Create the [lineitem] table for [scenario] and load [rows] rows spread
    uniformly over the 7-year range. *)
let setup ~catalog ~storage ~scenario ~rows : Mpp_catalog.Table.t =
  let partitioning =
    Option.map
      (fun constrs ->
        Part.single_level
          ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
          ~key_index:shipdate_index ~key_name:"l_shipdate" ~scheme:Part.Range
          ~table_name:"lineitem" constrs)
      (constraints_for scenario)
  in
  let table =
    Cat.add_table catalog ~name:"lineitem" ~columns
      ~distribution:(Dist.Hashed [ 0 ]) ?partitioning ()
  in
  let rng = Rng.create () in
  Mpp_storage.Storage.load storage table
    (List.init rows (fun i ->
         let day = i * total_days / rows in
         [| Value.Int i;
            Value.Int (Rng.int rng 10_000);
            Value.Float (float_of_int (1 + Rng.int rng 50));
            Value.Float (Rng.float rng 10_000.0);
            Value.Date (Date.add_days start day) |]));
  table
