(** Seeded statement sequences for the four workloads.

    Every workload runs one {e pass} — a fixed statement sequence built
    here from the seed — over and over.  The same seed gives the same
    sequence, so count metrics taken over one pass repeat exactly. *)

open Mpp_expr
module Serve = Mpp_serve.Serve
module Normalize = Mpp_serve.Normalize
module Biggen = Mpp_workload.Biggen

type stmt =
  | Bind of { prep : int; binds : (int * Value.t) list }
      (** execute prepared template [prep] with these parameter values *)
  | Text of string  (** SQL text, prepared at each execution *)
  | Write of { sql : pass:int -> string; table : string; rows : int }
      (** DML text whose sentinel depends on the pass number; a positive
          [rows] is an INSERT of that many rows, a negative one a DELETE
          expected to remove [-rows] rows *)
  | Plan of int  (** optimize big-join spec [i]; not executed *)

let is_write = function Write _ -> true | _ -> false
let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ------------------------------------------------------------------ *)
(* Dates: the schema spans 36 months from 2011-01-01                   *)

let start = Date.of_ymd 2011 1 1
let months = 36

(* Month index of a date within the schema range (may fall outside). *)
let month_index d =
  let y, m, _ = Date.to_ymd d in
  ((y - 2011) * 12) + m - 1

(* Shift by whole months, keeping the day (clamped to the month's length):
   BETWEEN '2013-10-01' AND '2013-12-31' shifted by -3 still ends on the
   last day of its month. *)
let shift_date d k =
  let y, m, day = Date.to_ymd d in
  let mm = m - 1 + k in
  let y = y + (if mm >= 0 then mm / 12 else -((-mm + 11) / 12)) in
  let m = (((mm mod 12) + 12) mod 12) + 1 in
  Date.of_ymd y m (min day (Date.days_in_month y m))

let month_start i = Date.of_ymd (2011 + (i / 12)) ((i mod 12) + 1) 1
let month_end i = Date.add_days (month_start (i + 1)) (-1)
let date_id d = d - start
let quote d = "'" ^ Date.to_string d ^ "'"

(* ------------------------------------------------------------------ *)
(* reports_warm: the 43 templates with month-shifted pruning slots     *)

(** Slots of a prepared statement that a month shift applies to: the
    pruning-relevant date literals and integer date ids. *)
let shiftable (p : Serve.prepared) =
  let n = p.Serve.p_norm in
  List.filter_map
    (fun i ->
      if n.Normalize.classes.(i) <> Normalize.Pruning then None
      else
        match n.Normalize.defaults.(i) with
        | Value.Date d -> Some (i, `Date d)
        | Value.Int id when id >= 0 && id < 1096 ->
            Some (i, `Id (Date.add_days start id))
        | _ -> None)
    (List.init (Array.length n.Normalize.classes) Fun.id)

(** The month shifts, at most {!max_shift} either way, that keep every
    shiftable slot of [p] in range.  Small shifts keep each template's
    character (an early-2011 scan stays one), so a pass costs about the
    same whatever the seed. *)
let max_shift = 6

let shift_range p =
  match shiftable p with
  | [] -> (0, 0)
  | slots ->
      let idx = List.map (fun (_, (`Date d | `Id d)) -> month_index d) slots in
      let lo = max (-max_shift) (-List.fold_left min max_int idx) in
      let hi = min max_shift (months - 1 - List.fold_left max min_int idx) in
      if hi < lo then (0, 0) else (lo, hi)

let shift_binds p k =
  List.map
    (fun (i, v) ->
      match v with
      | `Date d -> (i, Value.Date (shift_date d k))
      | `Id d -> (i, Value.Int (date_id (shift_date d k))))
    (shiftable p)

(** [reps] executions of every template, in a seeded order.  A template's
    shifts are stratified: execution [j] takes the centre of the [j]-th of
    [reps] equal slices of the template's valid range.  Every seed's pass
    therefore holds the same statements — count metrics and the cost of a
    pass do not depend on the seed — and the seed sets their order. *)
let reports ~seed ~reps (prepared : Serve.prepared array) =
  let n = Array.length prepared in
  let a =
    Array.init (reps * n) (fun i ->
        let prep = i mod n and j = i / n in
        let lo, hi = shift_range prepared.(prep) in
        let width = float_of_int (hi - lo + 1) /. float_of_int reps in
        let k = lo + int_of_float ((float_of_int j +. 0.5) *. width) in
        Bind { prep; binds = shift_binds prepared.(prep) (min hi k) })
  in
  shuffle (rng seed 1) a;
  a

(* ------------------------------------------------------------------ *)
(* adhoc_cold: generated SQL text                                      *)

type dim = { dtable : string; dalias : string; on : string -> string;
             attrs : string list; filters : Random.State.t -> string list }

type fact = {
  table : string;
  alias : string;
  key : string;  (** partitioning key column *)
  key_is_id : bool;  (** integer date id instead of a date *)
  measures : string list;
  extra_groups : string list;
  dims : dim list;
  returns : (string * string * string) option;
      (** (table, alias, join predicate template over both aliases) *)
}

let pick st l = List.nth l (Random.State.int st (List.length l))
let states = [ "CA"; "NY"; "TX"; "WA"; "OR"; "MA"; "IL"; "FL" ]
let categories = [ "books"; "music"; "electronics"; "home"; "sports"; "toys" ]

let dim_item col =
  { dtable = "item"; dalias = "i"; on = (fun a -> Printf.sprintf "%s.%s = i.i_id" a col);
    attrs = [ "i.i_category" ];
    filters =
      (fun st ->
        [ Printf.sprintf "i.i_category = '%s'" (pick st categories);
          Printf.sprintf "i.i_price < %d.5" (50 + Random.State.int st 450) ]) }

let dim_customer col =
  { dtable = "customer"; dalias = "c";
    on = (fun a -> Printf.sprintf "%s.%s = c.c_id" a col);
    attrs = [ "c.c_state" ];
    filters = (fun st -> [ Printf.sprintf "c.c_state = '%s'" (pick st states) ]) }

let dim_store col =
  { dtable = "store"; dalias = "s"; on = (fun a -> Printf.sprintf "%s.%s = s.s_id" a col);
    attrs = [ "s.s_state" ];
    filters = (fun st -> [ Printf.sprintf "s.s_state = '%s'" (pick st states) ]) }

let dim_warehouse col =
  { dtable = "warehouse"; dalias = "w";
    on = (fun a -> Printf.sprintf "%s.%s = w.w_id" a col);
    attrs = [ "w.w_state" ];
    filters = (fun st -> [ Printf.sprintf "w.w_state = '%s'" (pick st states) ]) }

let dim_date ~id col =
  { dtable = "date_dim"; dalias = "d";
    on =
      (fun a ->
        Printf.sprintf "%s.%s = d.%s" a col (if id then "d_date_id" else "d_date"));
    attrs = [ "d.d_year"; "d.d_quarter"; "d.d_month" ];
    filters =
      (fun st ->
        [ Printf.sprintf "d.d_dow = %d" (Random.State.int st 7);
          Printf.sprintf "d.d_quarter = %d" (1 + Random.State.int st 4);
          Printf.sprintf "d.d_year = %d" (2011 + Random.State.int st 3) ]) }

let facts =
  [ { table = "store_sales"; alias = "ss"; key = "ss_sold_date"; key_is_id = false;
      measures = [ "ss.ss_price"; "ss.ss_qty" ]; extra_groups = [];
      dims = [ dim_item "ss_item"; dim_customer "ss_customer"; dim_store "ss_store";
               dim_date ~id:false "ss_sold_date" ];
      returns =
        Some ("store_returns", "sr",
              "ss.ss_sold_date = sr.sr_returned_date AND ss.ss_item = sr.sr_item") };
    { table = "web_sales"; alias = "ws"; key = "ws_sold_date_id"; key_is_id = true;
      measures = [ "ws.ws_price"; "ws.ws_qty" ]; extra_groups = [];
      dims = [ dim_item "ws_item"; dim_customer "ws_customer";
               dim_date ~id:true "ws_sold_date_id" ];
      returns = None };
    { table = "catalog_sales"; alias = "cs"; key = "cs_sold_date"; key_is_id = false;
      measures = [ "cs.cs_price"; "cs.cs_qty" ]; extra_groups = [];
      dims = [ dim_item "cs_item"; dim_date ~id:false "cs_sold_date" ];
      returns =
        Some ("catalog_returns", "cr",
              "cs.cs_sold_date = cr.cr_returned_date AND cs.cs_item = cr.cr_item") };
    { table = "inventory"; alias = "inv"; key = "inv_date"; key_is_id = false;
      measures = [ "inv.inv_qty" ]; extra_groups = [];
      dims = [ dim_item "inv_item"; dim_warehouse "inv_warehouse";
               dim_date ~id:false "inv_date" ];
      returns = None };
    { table = "store_returns"; alias = "sr"; key = "sr_returned_date"; key_is_id = false;
      measures = [ "sr.sr_qty" ]; extra_groups = [ "sr.sr_reason" ];
      dims = [ dim_item "sr_item"; dim_date ~id:false "sr_returned_date" ];
      returns = None };
    { table = "catalog_returns"; alias = "cr"; key = "cr_returned_date";
      key_is_id = false; measures = [ "cr.cr_qty" ]; extra_groups = [ "cr.cr_channel" ];
      dims = [ dim_item "cr_item"; dim_date ~id:false "cr_returned_date" ];
      returns = None };
    { table = "web_returns"; alias = "wr"; key = "wr_returned_date"; key_is_id = false;
      measures = [ "wr.wr_qty" ]; extra_groups = [];
      dims = [ dim_item "wr_item"; dim_date ~id:false "wr_returned_date" ];
      returns = None } ]

let key_literal f d = if f.key_is_id then string_of_int (date_id d) else quote d

(* [l] rotated left by [k]. *)
let rotate k l =
  match List.length l with
  | 0 -> l
  | n -> List.filteri (fun i _ -> i >= k mod n) l @ List.filteri (fun i _ -> i < k mod n) l

let take k l = List.filteri (fun i _ -> i < k) l

(** Statement [i] of the ad-hoc stream.  Its structure — fact table, which
    dimensions, returns join, kind and width of the date range, whether a
    fact filter applies and how selective a stratum it draws from, group-by
    columns, number of aggregates, ORDER BY — is a mixed-radix function of
    [i], so every seed's pass has the same mix of shapes.  The seed picks
    everything inside that structure: window positions, filter literals,
    dimension filter values and the aggregate functions. *)
let adhoc_stmt st i =
  let f = List.nth facts (i mod List.length facts) in
  let j = i / List.length facts in
  let nd = List.length f.dims in
  let dims = take (j mod (nd + 1)) (rotate (j / (nd + 1)) f.dims) in
  let returns = if j mod 3 = 1 then f.returns else None in
  let a = f.alias in
  let from =
    (f.table ^ " " ^ a)
    :: List.map (fun d -> d.dtable ^ " " ^ d.dalias) dims
    @ (match returns with Some (t, ra, _) -> [ t ^ " " ^ ra ] | None -> [])
  in
  let span = 1 + (i / 5 mod 12) in
  let col = a ^ "." ^ f.key in
  let key_range =
    match i / 3 mod 4 with
    | 0 -> []
    | 1 ->
        let m1 = Random.State.int st (months - span + 1) in
        [ Printf.sprintf "%s BETWEEN %s AND %s" col
            (key_literal f (month_start m1)) (key_literal f (month_end (m1 + span - 1))) ]
    | 2 ->
        let m1 = months - span - Random.State.int st 2 in
        [ Printf.sprintf "%s >= %s" col (key_literal f (month_start m1)) ]
    | _ ->
        let m2 = span + Random.State.int st 2 in
        [ Printf.sprintf "%s < %s" col (key_literal f (month_start m2)) ]
  in
  let measure = List.nth f.measures (i / 7 mod List.length f.measures) in
  let fact_filter =
    if i / 2 mod 10 >= 7 then []
    else
      let stratum = i / 11 mod 5 in
      if String.ends_with ~suffix:"price" measure then
        [ Printf.sprintf "%s > %d.5" measure ((stratum * 90) + Random.State.int st 90) ]
      else [ Printf.sprintf "%s > %d" measure (stratum + Random.State.int st 2) ]
  in
  let dim_filters =
    List.concat
      (List.mapi
         (fun k d ->
           if (i + k) mod 2 = 0 then
             let fs = d.filters st in
             [ List.nth fs ((i / 3 + k) mod List.length fs) ]
           else [])
         dims)
  in
  let where =
    List.map (fun d -> d.on a) dims
    @ (match returns with Some (_, _, p) -> [ p ] | None -> [])
    @ key_range @ fact_filter @ dim_filters
  in
  let group_pool =
    List.concat_map (fun d -> d.attrs) dims
    @ f.extra_groups
    @ if f.key_is_id then [] else [ Printf.sprintf "month(%s.%s)" a f.key ]
  in
  let groups = take (i / 13 mod 3) (rotate (i / 39) group_pool) in
  let aggs =
    List.filter_map
      (fun k ->
        if k = 0 || k <= i / 17 mod 3 then
          Some
            (match Random.State.int st 5 with
            | 0 -> "count(*)"
            | 1 -> Printf.sprintf "sum(%s)" measure
            | 2 -> Printf.sprintf "avg(%s)" measure
            | 3 -> Printf.sprintf "min(%s)" measure
            | _ -> Printf.sprintf "max(%s)" measure)
        else None)
      [ 0; 1; 2 ]
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "SELECT ";
  Buffer.add_string buf (String.concat ", " (groups @ aggs));
  Buffer.add_string buf " FROM ";
  Buffer.add_string buf (String.concat ", " from);
  if where <> [] then begin
    Buffer.add_string buf " WHERE ";
    Buffer.add_string buf (String.concat " AND " where)
  end;
  if groups <> [] then begin
    Buffer.add_string buf " GROUP BY ";
    Buffer.add_string buf (String.concat ", " groups);
    if i / 23 mod 2 = 0 then begin
      Buffer.add_string buf " ORDER BY ";
      Buffer.add_string buf (String.concat ", " groups)
    end
  end;
  Text (Buffer.contents buf)

let adhoc ~seed ~n =
  let st = rng seed 2 in
  Array.init n (adhoc_stmt st)

(* ------------------------------------------------------------------ *)
(* ingest_mixed: report reads around INSERT / DELETE rounds            *)

(* Per written table: the partition-key column, whether it holds integer
   date ids, the sentinel column no report template reads, and a row
   maker (key literal, sentinel) -> VALUES tuple in column order. *)
type target = {
  ttable : string;
  tkey : string;
  tid : bool;
  sentinel : string;
  row : Random.State.t -> key:string -> sentinel:int -> string;
}

let targets =
  let r st = Random.State.int st in
  [ { ttable = "store_sales"; tkey = "ss_sold_date"; tid = false; sentinel = "ss_store";
      row =
        (fun st ~key ~sentinel ->
          Printf.sprintf "(%s, %d, %d, %d, %d, %d.25)" key (r st 200) (r st 400) sentinel
            (1 + r st 10) (r st 500)) };
    { ttable = "web_sales"; tkey = "ws_sold_date_id"; tid = true; sentinel = "ws_qty";
      row =
        (fun st ~key ~sentinel ->
          Printf.sprintf "(%s, %d, %d, %d, %d.5)" key (r st 200) (r st 400) sentinel
            (r st 500)) };
    { ttable = "catalog_sales"; tkey = "cs_sold_date"; tid = false; sentinel = "cs_qty";
      row =
        (fun st ~key ~sentinel ->
          Printf.sprintf "(%s, %d, %d, %d.75)" key (r st 200) sentinel (r st 500)) };
    { ttable = "inventory"; tkey = "inv_date"; tid = false; sentinel = "inv_item";
      row =
        (fun st ~key ~sentinel ->
          Printf.sprintf "(%s, %d, %d, %d)" key sentinel (r st 10) (r st 1000)) };
    { ttable = "store_returns"; tkey = "sr_returned_date"; tid = false; sentinel = "sr_qty";
      row =
        (fun st ~key ~sentinel ->
          Printf.sprintf "(%s, %d, %d, '%s')" key (r st 200) sentinel
            (pick st [ "damaged"; "late" ])) } ]

let sentinel_base = 1000
let rows_per_insert = 32

(** [rounds] rounds of: some report reads, an INSERT batch of
    {!rows_per_insert} rows into one of the last six months, more reads,
    then a DELETE of exactly that batch (partition-key range plus the
    sentinel).  Tables return to their loaded contents at the end of every
    round.  The sentinel carries the pass number, so each pass's INSERTs
    are new statements to the plan cache while reads see identical data. *)
let ingest ~seed ~rounds ~reads_per_round (prepared : Serve.prepared array) =
  let st = rng seed 3 in
  let reads =
    reports ~seed:(seed + 7919)
      ~reps:(((rounds * reads_per_round) + Array.length prepared - 1) / Array.length prepared)
      prepared
  in
  let next = ref 0 in
  let read () =
    let s = reads.(!next mod Array.length reads) in
    incr next;
    s
  in
  List.concat
    (List.init rounds (fun i ->
         let t = List.nth targets (i mod List.length targets) in
         let m = months - 6 + Random.State.int st 6 in
         let lo = month_start m and hi = month_end m in
         let lit d = if t.tid then string_of_int (date_id d) else quote d in
         let keys =
           List.init rows_per_insert (fun _ ->
               lit (Date.add_days lo (Random.State.int st (hi - lo + 1))))
         in
         let row_seeds = List.init rows_per_insert (fun _ -> Random.State.bits st) in
         let insert ~pass =
           let sentinel = sentinel_base + pass in
           Printf.sprintf "INSERT INTO %s VALUES %s" t.ttable
             (String.concat ", "
                (List.map2
                   (fun key s -> t.row (Random.State.make [| s |]) ~key ~sentinel)
                   keys row_seeds))
         in
         let delete ~pass:_ =
           Printf.sprintf "DELETE FROM %s WHERE %s BETWEEN %s AND %s AND %s >= %d"
             t.ttable t.tkey (lit lo) (lit hi) t.sentinel sentinel_base
         in
         let before = reads_per_round / 2 in
         List.init before (fun _ -> read ())
         @ [ Write { sql = insert; table = t.ttable; rows = rows_per_insert } ]
         @ List.init (reads_per_round - before) (fun _ -> read ())
         @ [ Write { sql = delete; table = t.ttable; rows = -rows_per_insert } ]))
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* bigjoin_plan: star / chain / clique specs                           *)

(** Every shape at every size, each with its own generator seed.  The
    graphs are the same for every [--seed]: planning time depends on the
    generated statistics as well as on shape and size (the 24-relation
    clique took 236 ms on one seed's graph and 282 ms on another's), and
    a run's tail is that one graph: graphs drawn from the seed would make
    the tail a draw of content rather than a measurement of the optimizer. *)
let bigjoin_specs ~sizes =
  List.concat_map
    (fun shape ->
      List.map
        (fun nrels -> { Biggen.shape; nrels; seed = 101 + (nrels * 7) + Hashtbl.hash shape })
        sizes)
    [ Biggen.Star; Biggen.Chain; Biggen.Clique ]

(** Plan every spec once, in an order set by the seed. *)
let bigjoin_pass ~seed nspecs =
  let a = Array.init nspecs (fun i -> Plan i) in
  shuffle (rng seed 4) a;
  a
