(** A scaled-down synthetic star schema with the structure of the TPC-DS
    subset the paper's evaluation uses (§4.3): the seven partitioned fact
    tables it names — store_sales, web_sales, catalog_sales, store_returns,
    web_returns, catalog_returns, inventory — plus the dimension tables the
    workload joins through.

    Layout highlights:
    - facts are hash-distributed and partitioned monthly over three years
      (2011-01 … 2013-12, 36 partitions);
    - [web_sales] is partitioned on an {e integer} surrogate date key
      ([ws_sold_date_id], the paper's Figure-3 normalized design), the rest
      directly on a date column;
    - [catalog_returns] is {e two-level} partitioned (month × channel,
      paper §2.4);
    - [inventory] uses bi-weekly partitions (79 of them);
    - dimensions are replicated, [date_dim] carrying both the date and the
      integer surrogate key. *)

open Mpp_expr
module Cat = Mpp_catalog.Catalog
module Part = Mpp_catalog.Partition
module Dist = Mpp_catalog.Distribution

let start_year = 2011
let months = 36
let start = Date.of_ymd start_year 1 1
let day_count = Date.add_months start months - start

(** Integer surrogate key for a date: days since the schema epoch. *)
let date_id_of d = d - start

let monthly_int_id_ranges () =
  List.init months (fun i ->
      let lo = date_id_of (Date.add_months start i) in
      let hi = date_id_of (Date.add_months start (i + 1)) in
      match Interval.closed_open (Value.Int lo) (Value.Int hi) with
      | Some iv -> Part.Cset (Interval.Set.singleton iv)
      | None -> assert false)

let biweekly_ranges () =
  let nparts = (day_count + 13) / 14 in
  List.init nparts (fun i ->
      let lo = Date.add_days start (i * 14) in
      let hi = Date.add_days lo 14 in
      match Interval.closed_open (Value.Date lo) (Value.Date hi) with
      | Some iv -> Part.Cset (Interval.Set.singleton iv)
      | None -> assert false)

let channels = [| "store"; "web"; "catalog" |]
let states = [| "CA"; "NY"; "TX"; "WA"; "OR"; "MA"; "IL"; "FL" |]
let categories =
  [| "books"; "music"; "electronics"; "home"; "sports"; "toys"; "garden";
     "jewelry"; "shoes"; "sports" |]

type schema = {
  date_dim : Mpp_catalog.Table.t;
  item : Mpp_catalog.Table.t;
  customer : Mpp_catalog.Table.t;
  store : Mpp_catalog.Table.t;
  warehouse : Mpp_catalog.Table.t;
  store_sales : Mpp_catalog.Table.t;
  web_sales : Mpp_catalog.Table.t;
  catalog_sales : Mpp_catalog.Table.t;
  store_returns : Mpp_catalog.Table.t;
  web_returns : Mpp_catalog.Table.t;
  catalog_returns : Mpp_catalog.Table.t;
  inventory : Mpp_catalog.Table.t;
}

let fact_tables s =
  [ s.store_sales; s.web_sales; s.catalog_sales; s.store_returns;
    s.web_returns; s.catalog_returns; s.inventory ]

(** Create the schema and load deterministic synthetic data.  [scale]
    multiplies the row counts (scale 1 ≈ 26k fact rows total). *)
let setup ?(scale = 1) ~catalog ~storage () : schema =
  let alloc () = Cat.alloc_oid catalog in
  let monthly key_index key_name table_name =
    Part.single_level ~alloc_oid:alloc ~key_index ~key_name ~scheme:Part.Range
      ~table_name
      (Part.monthly_ranges ~start_year ~start_month:1 ~months)
  in
  (* dimensions *)
  let date_dim =
    Cat.add_table catalog ~name:"date_dim"
      ~columns:
        [ ("d_date", Value.Tdate); ("d_date_id", Value.Tint);
          ("d_year", Value.Tint); ("d_month", Value.Tint);
          ("d_quarter", Value.Tint); ("d_dow", Value.Tint) ]
      ~distribution:Dist.Replicated ()
  in
  let item =
    Cat.add_table catalog ~name:"item"
      ~columns:
        [ ("i_id", Value.Tint); ("i_category", Value.Tstring);
          ("i_price", Value.Tfloat) ]
      ~distribution:Dist.Replicated ()
  in
  let customer =
    Cat.add_table catalog ~name:"customer"
      ~columns:[ ("c_id", Value.Tint); ("c_state", Value.Tstring) ]
      ~distribution:Dist.Replicated ()
  in
  let store =
    Cat.add_table catalog ~name:"store"
      ~columns:[ ("s_id", Value.Tint); ("s_state", Value.Tstring) ]
      ~distribution:Dist.Replicated ()
  in
  let warehouse =
    Cat.add_table catalog ~name:"warehouse"
      ~columns:[ ("w_id", Value.Tint); ("w_state", Value.Tstring) ]
      ~distribution:Dist.Replicated ()
  in
  (* facts *)
  let store_sales =
    Cat.add_table catalog ~name:"store_sales"
      ~columns:
        [ ("ss_sold_date", Value.Tdate); ("ss_item", Value.Tint);
          ("ss_customer", Value.Tint); ("ss_store", Value.Tint);
          ("ss_qty", Value.Tint); ("ss_price", Value.Tfloat) ]
      ~distribution:(Dist.Hashed [ 1 ])
      ~partitioning:(monthly 0 "ss_sold_date" "store_sales")
      ()
  in
  let web_sales =
    Cat.add_table catalog ~name:"web_sales"
      ~columns:
        [ ("ws_sold_date_id", Value.Tint); ("ws_item", Value.Tint);
          ("ws_customer", Value.Tint); ("ws_qty", Value.Tint);
          ("ws_price", Value.Tfloat) ]
      ~distribution:(Dist.Hashed [ 1 ])
      ~partitioning:
        (Part.single_level ~alloc_oid:alloc ~key_index:0
           ~key_name:"ws_sold_date_id" ~scheme:Part.Range
           ~table_name:"web_sales" (monthly_int_id_ranges ()))
      ()
  in
  let catalog_sales =
    Cat.add_table catalog ~name:"catalog_sales"
      ~columns:
        [ ("cs_sold_date", Value.Tdate); ("cs_item", Value.Tint);
          ("cs_qty", Value.Tint); ("cs_price", Value.Tfloat) ]
      ~distribution:(Dist.Hashed [ 1 ])
      ~partitioning:(monthly 0 "cs_sold_date" "catalog_sales")
      ()
  in
  let store_returns =
    Cat.add_table catalog ~name:"store_returns"
      ~columns:
        [ ("sr_returned_date", Value.Tdate); ("sr_item", Value.Tint);
          ("sr_qty", Value.Tint); ("sr_reason", Value.Tstring) ]
      ~distribution:(Dist.Hashed [ 1 ])
      ~partitioning:(monthly 0 "sr_returned_date" "store_returns")
      ()
  in
  let web_returns =
    Cat.add_table catalog ~name:"web_returns"
      ~columns:
        [ ("wr_returned_date", Value.Tdate); ("wr_item", Value.Tint);
          ("wr_qty", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 1 ])
      ~partitioning:(monthly 0 "wr_returned_date" "web_returns")
      ()
  in
  let catalog_returns =
    Cat.add_table catalog ~name:"catalog_returns"
      ~columns:
        [ ("cr_returned_date", Value.Tdate); ("cr_channel", Value.Tstring);
          ("cr_item", Value.Tint); ("cr_qty", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 2 ])
      ~partitioning:
        (Part.two_level ~alloc_oid:alloc ~table_name:"catalog_returns"
           ~level1:{ Part.key_index = 0; key_name = "cr_returned_date";
                     scheme = Part.Range }
           ~constrs1:(Part.monthly_ranges ~start_year ~start_month:1 ~months)
           ~level2:{ Part.key_index = 1; key_name = "cr_channel";
                     scheme = Part.Categorical }
           ~constrs2:
             (Part.categorical
                (List.map (fun c -> [ Value.String c ])
                   (Array.to_list channels))))
      ()
  in
  let inventory =
    Cat.add_table catalog ~name:"inventory"
      ~columns:
        [ ("inv_date", Value.Tdate); ("inv_item", Value.Tint);
          ("inv_warehouse", Value.Tint); ("inv_qty", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 1 ])
      ~partitioning:
        (Part.single_level ~alloc_oid:alloc ~key_index:0 ~key_name:"inv_date"
           ~scheme:Part.Range ~table_name:"inventory" (biweekly_ranges ()))
      ()
  in
  (* ---------------- data ---------------- *)
  (* Each table's rows are built in order, drawing from [rng] as they go,
     and handed to storage as one batch. *)
  let load = Mpp_storage.Storage.load storage in
  load date_dim
    (List.init day_count (fun d ->
         let date = Date.add_days start d in
         [| Value.Date date; Value.Int d; Value.Int (Date.year date);
            Value.Int (Date.month date); Value.Int (Date.quarter date);
            Value.Int (Date.day_of_week date) |]));
  let n_items = 200 * scale and n_customers = 400 * scale in
  let rng = Rng.create ~seed:42L () in
  load item
    (List.init n_items (fun i ->
         [| Value.Int i; Value.String (Rng.pick rng categories);
            Value.Float (1.0 +. Rng.float rng 500.0) |]));
  load customer
    (List.init n_customers (fun c ->
         [| Value.Int c; Value.String (Rng.pick rng states) |]));
  load store
    (List.init 20 (fun s -> [| Value.Int s; Value.String (Rng.pick rng states) |]));
  load warehouse
    (List.init 10 (fun w -> [| Value.Int w; Value.String (Rng.pick rng states) |]));
  let rand_date () = Date.add_days start (Rng.int rng day_count) in
  let n = 4000 * scale in
  load store_sales
    (List.init n (fun _ ->
         [| Value.Date (rand_date ()); Value.Int (Rng.int rng n_items);
            Value.Int (Rng.int rng n_customers); Value.Int (Rng.int rng 20);
            Value.Int (1 + Rng.int rng 10); Value.Float (Rng.float rng 500.0) |]));
  load web_sales
    (List.init n (fun _ ->
         [| Value.Int (Rng.int rng day_count); Value.Int (Rng.int rng n_items);
            Value.Int (Rng.int rng n_customers); Value.Int (1 + Rng.int rng 10);
            Value.Float (Rng.float rng 500.0) |]));
  load catalog_sales
    (List.init n (fun _ ->
         [| Value.Date (rand_date ()); Value.Int (Rng.int rng n_items);
            Value.Int (1 + Rng.int rng 10); Value.Float (Rng.float rng 500.0) |]));
  let reasons = [| "damaged"; "wrong size"; "changed mind"; "late" |] in
  load store_returns
    (List.init (n / 4) (fun _ ->
         [| Value.Date (rand_date ()); Value.Int (Rng.int rng n_items);
            Value.Int (1 + Rng.int rng 5); Value.String (Rng.pick rng reasons) |]));
  load web_returns
    (List.init (n / 4) (fun _ ->
         [| Value.Date (rand_date ()); Value.Int (Rng.int rng n_items);
            Value.Int (1 + Rng.int rng 5) |]));
  load catalog_returns
    (List.init (n / 4) (fun _ ->
         [| Value.Date (rand_date ()); Value.String (Rng.pick rng channels);
            Value.Int (Rng.int rng n_items); Value.Int (1 + Rng.int rng 5) |]));
  load inventory
    (List.init n (fun _ ->
         [| Value.Date (rand_date ()); Value.Int (Rng.int rng n_items);
            Value.Int (Rng.int rng 10); Value.Int (Rng.int rng 1000) |]));
  {
    date_dim; item; customer; store; warehouse; store_sales; web_sales;
    catalog_sales; store_returns; web_returns; catalog_returns; inventory;
  }
