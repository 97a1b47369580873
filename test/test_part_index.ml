(** The partition-selection index vs the legacy oracle.

    {!Partition.Index} rewrites [f_T] (route) and [f*_T] (select) on
    sorted-boundary / hash lookups with bitset intersection; the pre-index
    linear implementations survive as [route_legacy] / [select_legacy] /
    [select_oids_legacy].  This suite pins the two down against each other:

    - deterministic equivalence on the recurring schemas (monthly ranges,
      two-level month x region, default arms, NULL keys, OID lookup);
    - randomized 1-3-level layouts (range + categorical arms, optional
      default arm at a random position, overlapping restriction sets,
      Int/Float key mixing) where indexed select/route must equal the
      oracle exactly, 1200+ cases each;
    - the point lookup {!Partition.Index.add_point} against [select_bits]
      and the oracle with a point restriction at one level, on cuts, in
      gaps and outside every arm, over fixed and randomized layouts;
    - static selection over per-level predicates
      ({!Partition.select_static}) against the oracle over each level's
      {!Expr.restriction}, with [None] when nothing is restricted or the
      lengths do not match the levels;
    - {!Bitset} word-level invariants (ghost bits, ordering);
    - {!Channel} dedup: pushing the same leaf twice, alone or within a
      larger set, holds it once. *)

open Mpp_expr
module Cat = Mpp_catalog.Catalog
module Part = Mpp_catalog.Partition
module Bitset = Mpp_catalog.Bitset
module Channel = Mpp_exec.Channel

let d s = Value.Date (Date.of_string s)

let leaf_oid_opt = Option.map (fun (lf : Part.leaf) -> lf.Part.leaf_oid)

let oids_of_bits (p : Part.t) bits =
  List.map (fun j -> p.Part.leaves.(j).Part.leaf_oid) (Bitset.to_list bits)

(* Indexed select / bits must agree with the legacy oracle on this
   restriction array, oid for oid. *)
let check_select what p restrictions =
  let legacy = Part.select_oids_legacy p restrictions in
  Alcotest.(check (list int))
    (what ^ ": indexed select = legacy")
    legacy
    (Part.select_oids p restrictions);
  Alcotest.(check (list int))
    (what ^ ": select_bits = legacy")
    legacy
    (oids_of_bits p (Part.Index.select_bits p.Part.index restrictions))

let check_route what p keys =
  Alcotest.(check (option int))
    (what ^ ": indexed route = legacy")
    (leaf_oid_opt (Part.route_legacy p keys))
    (leaf_oid_opt (Part.route p keys))

(* ---- deterministic layouts ---- *)

let test_monthly_equivalence () =
  let _, orders = Support.orders_schema () in
  let p = Option.get orders.Mpp_catalog.Table.partitioning in
  let set iv = Interval.Set.of_interval_opt iv in
  List.iter
    (fun (what, r) -> check_select what p [| r |])
    [ ("no restriction", None);
      ("empty set", Some Interval.Set.empty);
      ("full set", Some Interval.Set.full);
      ("point in range", Some (Interval.Set.point (d "2013-10-15")));
      ("point out of range", Some (Interval.Set.point (d "2030-01-01")));
      ("half-open range",
       Some (set (Interval.closed_open (d "2012-03-01") (d "2012-06-15"))));
      ("at_most", Some (Interval.Set.singleton (Interval.at_most (d "2012-02-10"))));
      ("at_least", Some (Interval.Set.singleton (Interval.at_least (d "2013-11-20"))));
      ("union of two ranges",
       Some
         (Interval.Set.union
            (set (Interval.closed_open (d "2012-01-15") (d "2012-02-15")))
            (set (Interval.closed_open (d "2013-05-01") (d "2013-07-01"))))) ];
  for day = 0 to 729 do
    check_route "monthly date" p
      [| Value.Date (Date.add_days (Date.of_ymd 2012 1 1) day) |]
  done;
  check_route "monthly NULL key" p [| Value.Null |];
  check_route "monthly out of range" p [| d "2030-01-01" |]

let test_two_level_equivalence () =
  let _, orders = Support.multilevel_schema () in
  let p = Option.get orders.Mpp_catalog.Table.partitioning in
  let date_r = Interval.Set.of_interval_opt
      (Interval.closed_open (d "2012-02-01") (d "2012-05-01")) in
  List.iter
    (fun (what, r) -> check_select what p r)
    [ ("both levels", [| Some date_r; Some (Interval.Set.point (Value.String "east")) |]);
      ("level 1 only", [| Some date_r; None |]);
      ("level 2 only", [| None; Some (Interval.Set.point (Value.String "west")) |]);
      ("unknown region", [| None; Some (Interval.Set.point (Value.String "north")) |]);
      ("level 2 empty", [| Some date_r; Some Interval.Set.empty |]) ];
  List.iter
    (fun keys -> check_route "two-level" p keys)
    [ [| d "2012-03-15"; Value.String "east" |];
      [| d "2012-03-15"; Value.String "north" |];
      [| d "2030-01-01"; Value.String "west" |];
      [| Value.Null; Value.String "east" |];
      [| d "2012-03-15"; Value.Null |] ]

(* int ranges + default arm at level 1, categorical + default at level 2:
   the default-arm covered-set precomputation against the legacy rescan. *)
let default_layout () =
  let next = ref 0 in
  let alloc_oid () = incr next; !next in
  Part.multi_level ~alloc_oid ~table_name:"t"
    [ ({ Part.key_index = 0; key_name = "a"; scheme = Part.Range },
       Part.int_ranges ~start:0 ~width:10 ~count:4 @ [ Part.Default ]);
      ({ Part.key_index = 1; key_name = "b"; scheme = Part.Categorical },
       Part.categorical [ [ Value.Int 1 ]; [ Value.Int 2; Value.Int 3 ] ]
       @ [ Part.Default ]) ]

let test_default_arm_equivalence () =
  let p = default_layout () in
  let set iv = Interval.Set.of_interval_opt iv in
  List.iter
    (fun (what, r) -> check_select what p r)
    [ ("range into default",
       [| Some (set (Interval.closed_open (Value.Int 35) (Value.Int 60))); None |]);
      ("all defaults", [| Some (Interval.Set.point (Value.Int 99)); Some (Interval.Set.point (Value.Int 7)) |]);
      ("covered values only",
       [| Some (set (Interval.closed_open (Value.Int 0) (Value.Int 40)));
          Some (Interval.Set.of_list [ Interval.point (Value.Int 1); Interval.point (Value.Int 3) ]) |]);
      ("unbounded below", [| Some (Interval.Set.singleton (Interval.less_than (Value.Int 5))); None |]) ];
  List.iter
    (fun keys -> check_route "default arms" p keys)
    [ [| Value.Int 15; Value.Int 2 |];
      [| Value.Int 15; Value.Int 9 |];   (* level-2 default *)
      [| Value.Int 99; Value.Int 1 |];   (* level-1 default *)
      [| Value.Int 99; Value.Int 9 |];   (* both defaults *)
      [| Value.Null; Value.Int 1 |];     (* NULL -> default *)
      [| Value.Int 15; Value.Null |];
      [| Value.Null; Value.Null |];
      [| Value.Float 15.0; Value.Int 2 |] (* Float key vs Int arms *) ]

let test_find_leaf_hash () =
  let _, orders = Support.orders_schema () in
  let p = Option.get orders.Mpp_catalog.Table.partitioning in
  (* inline linear-scan oracle (the library's own linear lookup is gone;
     the hash answer is pinned against first principles instead) *)
  let linear (p : Part.t) oid =
    List.find_opt
      (fun (lf : Part.leaf) -> lf.Part.leaf_oid = oid)
      (Array.to_list p.Part.leaves)
  in
  List.iter
    (fun oid ->
      Alcotest.(check (option int))
        (Printf.sprintf "find_leaf %d = linear scan" oid)
        (leaf_oid_opt (linear p oid))
        (leaf_oid_opt (Part.find_leaf p oid)))
    (Part.leaf_oids p);
  Alcotest.(check (option int)) "unknown oid" None
    (leaf_oid_opt (Part.find_leaf p 999_999))

(* ---- the point lookup ---- *)

(* [add_point ~level v] must OR into its target exactly what [select_bits]
   keeps under [Some {v}] at [level] and [None] elsewhere, which the oracle
   keeps too; [pre] is what the target held before. *)
let add_point_agrees ?(pre = []) p ~level v =
  let ix = p.Part.index in
  let restrictions =
    Array.init (Part.nlevels p) (fun i ->
        if i = level then Some (Interval.Set.point v) else None)
  in
  let into = Bitset.create (Part.nparts p) in
  Bitset.set_list into pre;
  Part.Index.add_point ix ~level v into;
  let expected = Part.Index.select_bits ix restrictions in
  Bitset.set_list expected pre;
  Bitset.equal into expected
  && (pre <> [] || oids_of_bits p into = Part.select_oids_legacy p restrictions)

let check_add_point what p ~level v =
  Alcotest.(check bool)
    (Printf.sprintf "%s: add_point level %d %s = select_bits = legacy" what
       level (Value.to_string v))
    true
    (add_point_agrees p ~level v && add_point_agrees ~pre:[ 0 ] p ~level v)

let test_add_point () =
  (* single-level range: every cut, the day before it (a gap), and values
     outside every arm *)
  let _, orders = Support.orders_schema () in
  let monthly = Option.get orders.Mpp_catalog.Table.partitioning in
  for m = 0 to 24 do
    let first = Date.add_months (Date.of_ymd 2012 1 1) m in
    check_add_point "monthly cut" monthly ~level:0 (Value.Date first);
    check_add_point "monthly gap" monthly ~level:0
      (Value.Date (Date.add_days first 14))
  done;
  check_add_point "monthly below" monthly ~level:0 (d "2001-01-01");
  check_add_point "monthly above" monthly ~level:0 (d "2030-01-01");
  (* categorical *)
  let next = ref 0 in
  let cat =
    Part.single_level
      ~alloc_oid:(fun () -> incr next; !next)
      ~key_index:0 ~key_name:"c" ~scheme:Part.Categorical ~table_name:"c"
      (Part.categorical
         [ [ Value.Int 1; Value.Int 5 ]; [ Value.Int 2 ]; [ Value.Int 9 ] ])
  in
  List.iter
    (fun v -> check_add_point "categorical" cat ~level:0 v)
    [ Value.Int 1; Value.Int 5; Value.Int 2; Value.Int 9; Value.Float 2.0;
      Value.Int 3; Value.Float 1.5; Value.Int (-4); Value.Int 100 ];
  (* two levels: a range level over a categorical one *)
  let _, two = Support.multilevel_schema () in
  let two = Option.get two.Mpp_catalog.Table.partitioning in
  List.iter
    (fun v -> check_add_point "two-level" two ~level:0 v)
    [ d "2012-01-01"; d "2012-03-15"; d "2012-12-31"; d "2013-01-01";
      d "2011-06-01" ];
  List.iter
    (fun v -> check_add_point "two-level" two ~level:1 v)
    [ Value.String "east"; Value.String "west"; Value.String "north" ];
  (* default arms at both levels *)
  let def = default_layout () in
  for i = -3 to 45 do
    check_add_point "default arms" def ~level:0 (Value.Int i);
    check_add_point "default arms" def ~level:1 (Value.Int i)
  done;
  check_add_point "default arms" def ~level:0 (Value.Float 39.5);
  check_add_point "default arms" def ~level:1 (Value.Float 2.0)

(* ---- randomized layouts: the oracle property ---- *)

let layout_and_restrictions_gen :
    (Part.t * Interval.Set.t option array) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let small_int = int_range (-10) 35 in
  let point_arm =
    map
      (fun vs ->
        Part.Cset (Interval.Set.of_list (List.map (fun i -> Interval.point (Value.Int i)) vs)))
      (list_size (int_range 1 3) small_int)
  in
  let range_arm =
    map
      (fun (a, w) ->
        Part.Cset
          (Interval.Set.of_interval_opt
             (Interval.closed_open (Value.Int a) (Value.Int (a + 1 + w)))))
      (pair (int_range (-10) 25) (int_range 0 8))
  in
  let level idx =
    let* scheme = oneofl [ Part.Range; Part.Categorical ] in
    let arm =
      match scheme with
      | Part.Range -> oneof [ range_arm; range_arm; point_arm ]
      | Part.Categorical -> point_arm
    in
    let* arms = list_size (int_range 1 5) arm in
    let* with_default = bool in
    let* pos = int_range 0 (List.length arms) in
    let constrs =
      if with_default then
        List.filteri (fun i _ -> i < pos) arms
        @ (Part.Default :: List.filteri (fun i _ -> i >= pos) arms)
      else arms
    in
    return
      ( { Part.key_index = idx; key_name = Printf.sprintf "k%d" idx; scheme },
        constrs )
  in
  let restriction =
    frequency
      [ (2, return None);
        (1, return (Some Interval.Set.empty));
        (3, map (fun s -> Some s) Support.interval_set_gen);
        (2, map (fun i -> Some (Interval.Set.point (Value.Int i))) small_int);
        (1, map (fun i -> Some (Interval.Set.point (Value.Float (float_of_int i))))
             small_int);
        (1, map (fun i -> Some (Interval.Set.singleton (Interval.at_most (Value.Int i))))
             small_int) ]
  in
  let* nlevels = int_range 1 3 in
  let* levels = flatten_l (List.init nlevels level) in
  let* restrictions = array_size (return nlevels) restriction in
  let next = ref 0 in
  let alloc_oid () = incr next; !next in
  return (Part.multi_level ~alloc_oid ~table_name:"t" levels, restrictions)

let prop_select_matches_oracle =
  QCheck2.Test.make ~count:1500
    ~name:"indexed select = legacy oracle (randomized layouts)"
    layout_and_restrictions_gen
    (fun (p, restrictions) ->
      let legacy = Part.select_oids_legacy p restrictions in
      Part.select_oids p restrictions = legacy
      && oids_of_bits p (Part.Index.select_bits p.Part.index restrictions)
         = legacy)

let key_value_gen =
  QCheck2.Gen.(
    frequency
      [ (1, return Value.Null);
        (5, map (fun i -> Value.Int i) (int_range (-12) 40));
        (2, map (fun i -> Value.Float (float_of_int i)) (int_range (-12) 40));
        (1, map (fun i -> Value.Float (float_of_int i +. 0.5)) (int_range (-12) 40));
        (1, return (Value.Int 100_000)) ])

let prop_route_matches_oracle =
  QCheck2.Test.make ~count:1500
    ~name:"indexed route = legacy oracle (randomized layouts, NULL keys)"
    QCheck2.Gen.(
      let* p, _ = layout_and_restrictions_gen in
      let* keys = array_size (return (Part.nlevels p)) key_value_gen in
      return (p, keys))
    (fun (p, keys) ->
      leaf_oid_opt (Part.route p keys) = leaf_oid_opt (Part.route_legacy p keys))

let prop_add_point_matches_select =
  QCheck2.Test.make ~count:1500
    ~name:"add_point = select_bits of a point = legacy (randomized layouts)"
    QCheck2.Gen.(
      let* p, _ = layout_and_restrictions_gen in
      let* level = int_range 0 (Part.nlevels p - 1) in
      let* v = key_value_gen in
      (* [add_point] takes non-NULL values only *)
      let v = if Value.is_null v then Value.Int 3 else v in
      let* pre = list_size (int_range 0 2) (int_range 0 (Part.nparts p - 1)) in
      return (p, level, v, pre))
    (fun (p, level, v, pre) ->
      add_point_agrees p ~level v && add_point_agrees ~pre p ~level v)

(* ---- static selection over per-level predicates ---- *)

(* The oracle for [select_static]: each level's predicate analysed against
   its own key by [Expr.restriction], then [select_oids_legacy]; [None]
   when no level is restricted or a list does not have one entry per
   level. *)
let static_oracle p keys preds =
  let n = Part.nlevels p in
  if List.length keys <> n || List.length preds <> n then None
  else
    let restrictions =
      Array.of_list
        (List.map2 (fun k e -> Option.bind e (Expr.restriction k)) keys preds)
    in
    if Array.for_all Option.is_none restrictions then None
    else Some (Part.select_oids_legacy p restrictions)

let static_agrees p keys preds =
  Option.map (oids_of_bits p) (Part.select_static p ~keys preds)
  = static_oracle p keys preds

(* Level [i]'s key as relation 0's column [i]. *)
let key_colrefs (p : Part.t) =
  Array.to_list
    (Array.mapi
       (fun i (lv : Part.level) ->
         Colref.make ~rel:0 ~index:i ~name:lv.Part.key_name
           ~dtype:Value.Tint)
       p.Part.levels)

let check_static what p keys preds =
  Alcotest.(check (option (list int)))
    (what ^ ": select_static = legacy over restrictions")
    (static_oracle p keys preds)
    (Option.map (oids_of_bits p) (Part.select_static p ~keys preds))

let test_select_static () =
  let _, orders = Support.orders_schema () in
  let monthly = Option.get orders.Mpp_catalog.Table.partitioning in
  let date = Colref.make ~rel:0 ~index:2 ~name:"date" ~dtype:Value.Tdate in
  let c = Expr.col date in
  List.iter
    (fun (what, preds) -> check_static ("monthly " ^ what) monthly [ date ] preds)
    [ ("range", [ Some (Expr.between c (Expr.date "2012-03-01") (Expr.date "2012-05-31")) ]);
      ("point", [ Some (Expr.eq c (Expr.date "2013-10-15")) ]);
      ("outside every arm", [ Some (Expr.lt c (Expr.date "2011-01-01")) ]);
      ("negated", [ Some (Expr.Not (Expr.ge c (Expr.date "2012-02-01"))) ]);
      ("false", [ Some Expr.false_ ]);
      ("unanalysable", [ Some (Expr.eq (Expr.Func ("month", [ c ])) (Expr.int 3)) ]);
      ("None", [ None ]) ];
  Alcotest.(check bool) "monthly: no restriction is None" true
    (Part.select_static monthly ~keys:[ date ] [ None ] = None);
  Alcotest.(check bool) "monthly: too many predicates is None" true
    (Part.select_static monthly ~keys:[ date ]
       [ Some (Expr.eq c (Expr.date "2013-10-15")); None ]
    = None);
  Alcotest.(check bool) "monthly: no keys is None" true
    (Part.select_static monthly ~keys:[]
       [ Some (Expr.eq c (Expr.date "2013-10-15")) ]
    = None);
  (* categorical *)
  let next = ref 0 in
  let cat =
    Part.single_level
      ~alloc_oid:(fun () -> incr next; !next)
      ~key_index:0 ~key_name:"c" ~scheme:Part.Categorical ~table_name:"c"
      (Part.categorical [ [ Value.Int 1; Value.Int 5 ]; [ Value.Int 2 ]; [ Value.Int 9 ] ])
  in
  let ck = key_colrefs cat in
  let kc = Expr.col (List.hd ck) in
  List.iter
    (fun (what, e) -> check_static ("categorical " ^ what) cat ck [ Some e ])
    [ ("IN", Expr.In_list (kc, [ Value.Int 5; Value.Int 9 ]));
      ("point", Expr.eq kc (Expr.int 2));
      ("absent", Expr.eq kc (Expr.int 3));
      ("OR", Expr.Or [ Expr.eq kc (Expr.int 1); Expr.gt kc (Expr.int 8) ]) ];
  (* two levels: month x region *)
  let _, two = Support.multilevel_schema () in
  let two = Option.get two.Mpp_catalog.Table.partitioning in
  let tk =
    List.map
      (fun (lv : Part.level) ->
        Colref.make ~rel:0 ~index:lv.Part.key_index ~name:lv.Part.key_name
          ~dtype:(if lv.Part.scheme = Part.Range then Value.Tdate else Value.Tstring))
      (Array.to_list two.Part.levels)
  in
  let dk = Expr.col (List.nth tk 0) and rk = Expr.col (List.nth tk 1) in
  let both =
    Expr.conj
      [ Expr.ge dk (Expr.date "2012-02-01"); Expr.lt dk (Expr.date "2012-04-01");
        Expr.eq rk (Expr.str "east") ]
  in
  List.iter
    (fun (what, preds) -> check_static ("two-level " ^ what) two tk preds)
    [ ("one filter at every level", [ Some both; Some both ]);
      ("level 1 only", [ Some both; None ]);
      ("level 2 only", [ None; Some (Expr.eq rk (Expr.str "west")) ]);
      ("level predicate on the other key", [ Some (Expr.eq rk (Expr.str "west")); None ]);
      ("both None", [ None; None ]) ];
  Alcotest.(check bool) "two-level: one predicate for two levels is None" true
    (Part.select_static two ~keys:tk [ Some both ] = None);
  (* default arms at both levels *)
  let def = default_layout () in
  let dks = key_colrefs def in
  let a = Expr.col (List.nth dks 0) and b = Expr.col (List.nth dks 1) in
  List.iter
    (fun (what, preds) -> check_static ("default arms " ^ what) def dks preds)
    [ ("into the default", [ Some (Expr.ge a (Expr.int 35)); None ]);
      ("covered only", [ Some (Expr.lt a (Expr.int 40)); Some (Expr.eq b (Expr.int 2)) ]);
      ("uncovered point", [ Some (Expr.eq a (Expr.int 99)); Some (Expr.eq b (Expr.int 7)) ]) ]

(* Per-level predicates over the level keys (and one foreign column),
   valued around the generated layouts' arms. *)
let predicates_gen keys =
  let open QCheck2.Gen in
  let other = Colref.make ~rel:0 ~index:9 ~name:"other" ~dtype:Value.Tint in
  let small = map (fun i -> Value.Int i) (int_range (-12) 38) in
  let atom =
    let* k = oneofl (other :: keys) in
    let c = Expr.col k in
    oneof
      [ map2 (fun op v -> Expr.Cmp (op, c, Expr.Const v))
          (oneofl Expr.[ Eq; Neq; Lt; Le; Gt; Ge ]) small;
        map (fun vs -> Expr.In_list (c, vs)) (list_size (int_range 1 3) small);
        map2 (fun lo hi -> Expr.between c (Expr.Const lo) (Expr.Const hi)) small small;
        return Expr.false_ ]
  in
  let pred =
    oneof
      [ atom;
        map (fun es -> Expr.And es) (list_size (int_range 2 3) atom);
        map (fun es -> Expr.Or es) (list_size (int_range 2 3) atom);
        map (fun e -> Expr.Not e) atom ]
  in
  list_size (return (List.length keys)) (opt pred)

let prop_select_static_matches_oracle =
  QCheck2.Test.make ~count:1500
    ~name:"select_static = legacy over per-level restrictions (randomized)"
    QCheck2.Gen.(
      let* p, _ = layout_and_restrictions_gen in
      let keys = key_colrefs p in
      let* preds = predicates_gen keys in
      (* now and then a list one short or one long *)
      let* skew = frequency [ (8, return 0); (1, return (-1)); (1, return 1) ] in
      let preds =
        if skew < 0 then List.tl preds
        else if skew > 0 then preds @ [ None ]
        else preds
      in
      return (p, keys, preds))
    (fun (p, keys, preds) ->
      static_agrees p keys preds
      && (List.length preds = Part.nlevels p
         || Part.select_static p ~keys preds = None))

(* ---- bitsets ---- *)

let test_bitset_basics () =
  let b = Bitset.create 70 in
  Alcotest.(check int) "empty cardinal" 0 (Bitset.cardinal b);
  Alcotest.(check bool) "is_empty" true (Bitset.is_empty b);
  Bitset.set_list b [ 0; 63; 64; 69 ];
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  Alcotest.(check (list int)) "to_list ascending" [ 0; 63; 64; 69 ]
    (Bitset.to_list b);
  Alcotest.(check (option int)) "first_set" (Some 0) (Bitset.first_set b);
  let f = Bitset.full 70 in
  Alcotest.(check int) "full cardinal masks ghost bits" 70 (Bitset.cardinal f);
  Bitset.inter_into ~into:f b;
  Alcotest.(check bool) "inter = smaller set" true (Bitset.equal f b);
  let u = Bitset.create 70 in
  Bitset.set u 7;
  Bitset.union_into ~into:u b;
  Alcotest.(check (list int)) "union" [ 0; 7; 63; 64; 69 ] (Bitset.to_list u);
  Alcotest.(check bool) "mem in" true (Bitset.mem u 7);
  Alcotest.(check bool) "mem out" false (Bitset.mem u 8);
  Alcotest.(check bool) "mem out of range" false (Bitset.mem u 700);
  let acc = Bitset.fold_right_set (fun i acc -> i :: acc) u [] in
  Alcotest.(check (list int)) "fold_right_set ascending list" [ 0; 7; 63; 64; 69 ] acc

(* ---- channel dedup ---- *)

let test_channel_dedup () =
  let ch = Channel.create ~nsegments:2 in
  let bits l =
    let b = Bitset.create 64 in
    Bitset.set_list b l;
    b
  in
  let slot segment part_scan_id =
    Option.map Bitset.to_list (Channel.consume ch ~segment ~part_scan_id)
  in
  Channel.propagate ch ~segment:0 ~part_scan_id:1 (bits [ 42 ]);
  Channel.propagate ch ~segment:0 ~part_scan_id:1 (bits [ 42 ]);
  Channel.propagate ch ~segment:0 ~part_scan_id:1 (bits [ 7; 42; 9 ]);
  Channel.propagate ch ~segment:0 ~part_scan_id:1 (bits [ 9; 42 ]);
  Alcotest.(check (option (list int))) "slot: unique ascending leaves"
    (Some [ 7; 9; 42 ]) (slot 0 1);
  Alcotest.(check bool) "mem sees a pushed leaf" true
    (Channel.mem ch ~segment:0 ~part_scan_id:1 9);
  Alcotest.(check bool) "mem rejects an unpushed leaf" false
    (Channel.mem ch ~segment:0 ~part_scan_id:1 8);
  Alcotest.(check (option (list int))) "other segment unaffected" None
    (slot 1 1);
  Alcotest.(check (option (list int))) "other scan id unaffected" None
    (slot 0 2);
  Channel.propagate ch ~segment:1 ~part_scan_id:3 (bits []);
  Alcotest.(check (option (list int))) "empty push leaves an empty slot"
    (Some []) (slot 1 3);
  Alcotest.(check bool) "mem on an empty slot" false
    (Channel.mem ch ~segment:1 ~part_scan_id:3 0)

let () =
  Alcotest.run "part_index"
    [ ("deterministic equivalence",
       [ Alcotest.test_case "monthly ranges" `Quick test_monthly_equivalence;
         Alcotest.test_case "two-level month x region" `Quick
           test_two_level_equivalence;
         Alcotest.test_case "default arms" `Quick test_default_arm_equivalence;
         Alcotest.test_case "find_leaf OID hash" `Quick test_find_leaf_hash;
         Alcotest.test_case "point lookup" `Quick test_add_point;
         Alcotest.test_case "static selection over predicates" `Quick
           test_select_static ]);
      ("oracle properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_select_matches_oracle; prop_route_matches_oracle;
           prop_add_point_matches_select; prop_select_static_matches_oracle ]);
      ("bitset", [ Alcotest.test_case "word-level ops" `Quick test_bitset_basics ]);
      ("channel",
       [ Alcotest.test_case "leaf dedup" `Quick test_channel_dedup ]) ]
