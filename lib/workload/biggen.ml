(** Big-join workload generator: star/chain/clique join graphs of 10–30
    relations over range/list-partitioned tables, for exercising optimizer
    scaling (the 42-query workload tops out at four relations).

    Everything is deterministic from the {!spec}: table layouts,
    distributions, partitioning, row counts, data values, and local filters
    all come from one {!Rng} stream seeded by [spec.seed], so two calls
    with the same spec produce byte-identical catalogs and logical trees —
    the property the serial-vs-parallel equivalence suite leans on.

    Queries are emitted directly as {!Orca.Logical} trees (a 30-way join's
    SQL text adds nothing but parser risk): the as-written join order is
    simply relation order, which is deliberately naive — the join-order
    search has to earn its keep.  Each query is a join core under a
    count-star + sum aggregate, so plans exercise scans, DPE, Motions, and
    two-phase aggregation end to end. *)

open Mpp_expr
module Cat = Mpp_catalog.Catalog
module Part = Mpp_catalog.Partition
module Dist = Mpp_catalog.Distribution
module Logical = Orca.Logical

type shape = Star | Chain | Clique

let shape_to_string = function
  | Star -> "star"
  | Chain -> "chain"
  | Clique -> "clique"

let shape_of_string = function
  | "star" -> Some Star
  | "chain" -> Some Chain
  | "clique" -> Some Clique
  | _ -> None

type spec = { shape : shape; nrels : int; seed : int }

let spec_name s = Printf.sprintf "%s%d_s%d" (shape_to_string s.shape) s.nrels s.seed

type env = {
  name : string;
  catalog : Cat.t;
  storage : Mpp_storage.Storage.t;
  stats : Mpp_stats.Stats_source.t;
  logical : Logical.t;
}

(* Join-key values live in [0, key_domain); range-partitioned tables split
   that domain into [nparts] equal slices. *)
let key_domain = 64
let nparts = 8
let cats = [| "alpha"; "beta"; "gamma"; "delta" |]

let range_part alloc ~table_name ~key_index ~key_name =
  Part.single_level ~alloc_oid:alloc ~key_index ~key_name ~scheme:Part.Range
    ~table_name
    (Part.int_ranges ~start:0 ~width:(key_domain / nparts) ~count:nparts)

let list_part alloc ~table_name ~key_index ~key_name =
  Part.single_level ~alloc_oid:alloc ~key_index ~key_name
    ~scheme:Part.Categorical ~table_name
    (Part.categorical
       (List.map (fun c -> [ Value.String c ]) (Array.to_list cats)))

let colref ~rel ~index ~name ~dtype = Expr.col (Colref.make ~rel ~index ~name ~dtype)

let generate ?(nsegments = 4) (spec : spec) : env =
  if spec.nrels < 2 then invalid_arg "Biggen.generate: need at least 2 relations";
  if spec.nrels > 60 then invalid_arg "Biggen.generate: at most 60 relations";
  let name = spec_name spec in
  let catalog = Cat.create () in
  let storage = Mpp_storage.Storage.create ~nsegments in
  let rng = Rng.create ~seed:(Int64.of_int (0x5eed + spec.seed)) () in
  let alloc () = Cat.alloc_oid catalog in
  (* each table's rows are built in order and loaded as one batch *)
  let load table nrows row =
    Mpp_storage.Storage.load storage table (List.init nrows (fun _ -> row ()))
  in
  let n = spec.nrels in
  let rand_key () = Value.Int (Rng.int rng key_domain) in
  (* Optional local filter for a leaf over its first int key column (or the
     category column): roughly a third of the relations get one, shrinking
     rows and — on partitioned tables — enabling static pruning. *)
  let leaf_filter ~rel ~key_name ~key_index ~cat_index table_cols =
    let roll = Rng.int rng 12 in
    if roll < 4 then
      Some
        (Expr.lt
           (colref ~rel ~index:key_index ~name:key_name ~dtype:Value.Tint)
           (Expr.int (16 + Rng.int rng 40)))
    else if roll < 6 && cat_index >= 0 then
      let cname, _ = List.nth table_cols cat_index in
      Some
        (Expr.eq
           (colref ~rel ~index:cat_index ~name:cname ~dtype:Value.Tstring)
           (Expr.str (Rng.pick rng cats)))
    else None
  in
  let leaf ~rel table_name filter =
    let get = Logical.get ~rel table_name in
    match filter with None -> get | Some pred -> Logical.select pred get
  in
  let logical =
    match spec.shape with
    | Star ->
        (* relation 0 is the hub (fact): one foreign key per spoke, range-
           partitioned on the first; spokes are dimension-shaped, a mix of
           replicated/hashed and partitioned/plain *)
        let fact_name = name ^ "_fact" in
        let fact_cols =
          List.init (n - 1) (fun i ->
              (Printf.sprintf "fk%d" (i + 1), Value.Tint))
          @ [ ("v", Value.Tfloat) ]
        in
        let fact =
          Cat.add_table catalog ~name:fact_name ~columns:fact_cols
            ~distribution:(Dist.Hashed [ 0 ])
            ~partitioning:
              (range_part alloc ~table_name:fact_name ~key_index:0
                 ~key_name:"fk1")
            ()
        in
        let dim_cols =
          [ ("pk", Value.Tint); ("w", Value.Tfloat); ("c", Value.Tstring) ]
        in
        let dims =
          Array.init (n - 1) (fun i ->
              let dname = Printf.sprintf "%s_dim%d" name (i + 1) in
              let distribution =
                if Rng.int rng 3 = 0 then Dist.Replicated else Dist.Hashed [ 0 ]
              in
              let partitioning =
                if (i + 1) mod 3 = 0 then
                  Some
                    (range_part alloc ~table_name:dname ~key_index:0
                       ~key_name:"pk")
                else if (i + 1) mod 5 = 0 then
                  Some
                    (list_part alloc ~table_name:dname ~key_index:2
                       ~key_name:"c")
                else None
              in
              Cat.add_table catalog ~name:dname ~columns:dim_cols
                ~distribution ?partitioning ())
        in
        load fact (300 + Rng.int rng 300) (fun () ->
            Array.init n (fun ci ->
                if ci = n - 1 then Value.Float (Rng.float rng 100.0)
                else rand_key ()));
        Array.iter
          (fun dim ->
            load dim (20 + Rng.int rng 120) (fun () ->
                [| rand_key (); Value.Float (Rng.float rng 10.0);
                   Value.String (Rng.pick rng cats) |]))
          dims;
        let tree =
          ref
            (leaf ~rel:0 fact_name
               (leaf_filter ~rel:0 ~key_name:"fk1" ~key_index:0 ~cat_index:(-1)
                  fact_cols))
        in
        for i = 1 to n - 1 do
          let pred =
            Expr.eq
              (colref ~rel:0 ~index:(i - 1)
                 ~name:(Printf.sprintf "fk%d" i) ~dtype:Value.Tint)
              (colref ~rel:i ~index:0 ~name:"pk" ~dtype:Value.Tint)
          in
          let f =
            leaf_filter ~rel:i ~key_name:"pk" ~key_index:0 ~cat_index:2
              dim_cols
          in
          tree :=
            Logical.join pred !tree (leaf ~rel:i dims.(i - 1).Mpp_catalog.Table.name f)
        done;
        !tree
    | Chain ->
        (* t_i.b = t_{i+1}.a down the line; every other table partitioned
           on its own key *)
        let cols =
          [ ("a", Value.Tint); ("b", Value.Tint); ("v", Value.Tfloat) ]
        in
        let tables =
          Array.init n (fun i ->
              let tname = Printf.sprintf "%s_t%d" name i in
              let distribution =
                if Rng.int rng 4 = 0 then Dist.Replicated else Dist.Hashed [ 0 ]
              in
              let partitioning =
                if i mod 2 = 0 then
                  Some
                    (range_part alloc ~table_name:tname ~key_index:0
                       ~key_name:"a")
                else None
              in
              Cat.add_table catalog ~name:tname ~columns:cols ~distribution
                ?partitioning ())
        in
        Array.iter
          (fun table ->
            load table (50 + Rng.int rng 250) (fun () ->
                [| rand_key (); rand_key (); Value.Float (Rng.float rng 100.0) |]))
          tables;
        let leaf_of i =
          leaf ~rel:i tables.(i).Mpp_catalog.Table.name
            (leaf_filter ~rel:i ~key_name:"a" ~key_index:0 ~cat_index:(-1) cols)
        in
        let tree = ref (leaf_of 0) in
        for i = 1 to n - 1 do
          let pred =
            Expr.eq
              (colref ~rel:(i - 1) ~index:1 ~name:"b" ~dtype:Value.Tint)
              (colref ~rel:i ~index:0 ~name:"a" ~dtype:Value.Tint)
          in
          tree := Logical.join pred !tree (leaf_of i)
        done;
        !tree
    | Clique ->
        (* every pair joined on a shared key column; a third of the tables
           partitioned on it *)
        let cols = [ ("k", Value.Tint); ("v", Value.Tfloat) ] in
        let tables =
          Array.init n (fun i ->
              let tname = Printf.sprintf "%s_t%d" name i in
              let distribution =
                if i mod 5 = 4 then Dist.Replicated else Dist.Hashed [ 0 ]
              in
              let partitioning =
                if i mod 3 = 0 then
                  Some
                    (range_part alloc ~table_name:tname ~key_index:0
                       ~key_name:"k")
                else None
              in
              Cat.add_table catalog ~name:tname ~columns:cols ~distribution
                ?partitioning ())
        in
        Array.iter
          (fun table ->
            load table (30 + Rng.int rng 120) (fun () ->
                [| rand_key (); Value.Float (Rng.float rng 100.0) |]))
          tables;
        let leaf_of i =
          leaf ~rel:i tables.(i).Mpp_catalog.Table.name
            (leaf_filter ~rel:i ~key_name:"k" ~key_index:0 ~cat_index:(-1) cols)
        in
        let kcol i = colref ~rel:i ~index:0 ~name:"k" ~dtype:Value.Tint in
        let tree = ref (leaf_of 0) in
        for i = 1 to n - 1 do
          let pred =
            Expr.conj (List.init i (fun j -> Expr.eq (kcol j) (kcol i)))
          in
          tree := Logical.join pred !tree (leaf_of i)
        done;
        !tree
  in
  let sum_col =
    match spec.shape with
    | Star -> colref ~rel:0 ~index:(n - 1) ~name:"v" ~dtype:Value.Tfloat
    | Chain -> colref ~rel:(n - 1) ~index:2 ~name:"v" ~dtype:Value.Tfloat
    | Clique -> colref ~rel:(n - 1) ~index:1 ~name:"v" ~dtype:Value.Tfloat
  in
  let logical =
    Logical.aggregate
      [ ("cnt", Mpp_plan.Plan.Count_star);
        ("total", Mpp_plan.Plan.Sum sum_col) ]
      logical
  in
  let stats = Mpp_stats.Stats_source.create ~catalog ~storage in
  { name; catalog; storage; stats; logical }

(** The fixed verification suite for [mppsim check --biggen]: every shape
    at 10/16/24 relations. *)
let default_suite () =
  List.concat_map
    (fun shape ->
      List.map (fun nrels -> { shape; nrels; seed = 7 }) [ 10; 16; 24 ])
    [ Star; Chain; Clique ]
