(** Partitioning metadata: the logical model of paper §2.1 plus the
    multi-level extension of §2.4.

    A partitioned table carries a list of {e levels}, each naming a
    partitioning-key column and a scheme (range or categorical).  Its data is
    held by {e leaf} partitions; each leaf has an OID, a physical-table name
    and one constraint per level.  Constraints are in the paper's §3.2 normal
    form: [pk ∈ ∪ᵢ (aᵢ₁, aᵢₖ)], i.e. an {!Mpp_expr.Interval.Set.t} — or
    [Default], the catch-all partition for values (including NULL) no sibling
    accepts.

    This module implements the two functions of §2.1:
    - [f_T] — {!route}: map a tuple's key values to its leaf (or ⊥);
    - [f*_T] — {!select_oids} / {!select_static}: map per-level restrictions
      (or per-level predicates) to the set of leaves that can satisfy them
      (an over-approximation, never dropping a qualifying leaf).

    Both are served by the table's {!Index}, built with the record by the
    layout constructors below and never changed: per-level sorted boundary
    arrays answer interval → leaf-set questions by binary search, a value
    → leaf-set hash serves point-partitioned (categorical) levels,
    per-(level, prefix) covered sets make default-arm checks O(1) set
    operations instead of an O(P) sibling rescan, and an OID hash replaces
    the linear leaf lookup.
    Survival across levels is intersected on compact {!Bitset}s.  The
    pre-index implementations are kept as {!select_legacy} /
    {!route_legacy} — the executable oracles the property tests and the
    [bench part-select] scaling curve compare against. *)

open Mpp_expr

type oid = int

type scheme = Range | Categorical

type level = {
  key_index : int;  (** column position of the partitioning key *)
  key_name : string;
  scheme : scheme;
}

type constr =
  | Cset of Interval.Set.t
      (** the values this partition accepts at this level *)
  | Default  (** catch-all: everything the siblings reject, and NULLs *)

type leaf = {
  leaf_oid : oid;
  leaf_name : string;
  bounds : constr array;  (** one constraint per level, root to leaf *)
}

(* ------------------------------------------------------------------ *)
(* Index representation                                                 *)
(* ------------------------------------------------------------------ *)

(* Value-keyed hash table for the categorical point index; its keys are
   SQL-equal, so a float literal finds the int bound it equals. *)
module VH = Value.Tbl

(* One default-arm equivalence class at a level: all default leaves sharing
   a constraint prefix.  [dc_covered] is what their non-default siblings
   accept at this level — precomputed once, so the per-query default-arm
   check is a single interval-set operation instead of an O(P) rescan. *)
type default_class = {
  dc_covered : Interval.Set.t;
  dc_members : int array;  (** leaf indices of the class's default leaves *)
  dc_outside : int array;
      (** [dc_outside.(r)]: how many regions before region [r] lie outside
          [dc_covered] (length regions + 1).  Every covered bound is a cut,
          so each region is wholly inside or wholly outside. *)
}

(* Per-level selection structures.  The value line is cut at every bound
   appearing in any arm at this level; the resulting elementary regions
   (gap, point, gap, point, …) are each either fully inside or fully
   outside every arm, so [li_regions.(r)] — the leaves whose arm overlaps
   region [r] — is exact, and an interval → leaf-set query is a binary
   search for the boundary regions plus a union of the member arrays in
   between. *)
type level_index = {
  li_cuts : Value.t array;  (** sorted distinct bound values *)
  li_regions : int array array;
      (** region index → leaf indices; region [2k+1] is the point
          [li_cuts.(k)], regions [2k] the open gaps between cuts *)
  li_all_points : bool;
      (** every arm interval at this level is a single value *)
  li_points : int array VH.t;
      (** normalized value → leaf indices (the categorical fast path;
          authoritative only when [li_all_points]) *)
  li_defaults : default_class array;
}

type index = {
  ix_nleaves : int;
  ix_leaves : leaf array;
  ix_levels : level_index array;
  ix_by_oid : (oid, int) Hashtbl.t;  (** leaf OID → leaf position *)
}

type t = {
  levels : level array;
  leaves : leaf array;
  index : index;  (** built with the record; see {!Index} *)
  envelope : Interval.Set.t array;
      (** per level: the union of the leaves' constraint sets, full when a
          leaf at that level is [Default] *)
}

let nlevels t = Array.length t.levels
let nparts t = Array.length t.leaves
let leaf_oids t = Array.to_list (Array.map (fun l -> l.leaf_oid) t.leaves)

(* The union of the sibling (non-default) constraints at [level], restricted
   to leaves matching [prefix]; used to decide what a Default arm
   covers.  O(P) per call — the index precomputes one result per
   (level, prefix) class at build time; the legacy oracle below calls it per
   default-arm check. *)
let covered_at leaves ~level ~prefix =
  Array.to_list leaves
  |> List.filter (fun lf ->
         let rec agrees i =
           i >= level
           || (match (lf.bounds.(i), prefix.(i)) with
              | Default, Default -> true
              | Cset a, Cset b -> Interval.Set.equal a b
              | (Default | Cset _), _ -> false)
              && agrees (i + 1)
         in
         agrees 0)
  |> List.filter_map (fun lf ->
         match lf.bounds.(level) with Cset s -> Some s | Default -> None)
  |> List.fold_left Interval.Set.union Interval.Set.empty

(* ------------------------------------------------------------------ *)
(* Legacy oracles: the original linear implementations                  *)
(* ------------------------------------------------------------------ *)

(** [f_T] by linear scan: route a tuple's key values (one per level) to the
    leaf that must store it; [None] is the invalid partition ⊥ of §2.1.
    Kept as the executable oracle for {!route}. *)
let route_legacy t (keys : Value.t array) : leaf option =
  let n = nlevels t in
  assert (Array.length keys = n);
  let matches lf =
    let rec go i =
      if i >= n then true
      else
        (match lf.bounds.(i) with
        | Cset s -> (not (Value.is_null keys.(i))) && Interval.Set.contains s keys.(i)
        | Default ->
            (* Default accepts what no sibling (same prefix) covers. *)
            Value.is_null keys.(i)
            || not
                 (Interval.Set.contains
                    (covered_at t.leaves ~level:i ~prefix:lf.bounds)
                    keys.(i)))
        && go (i + 1)
    in
    go 0
  in
  Array.to_seq t.leaves |> Seq.filter matches |> fun s ->
  match s () with Seq.Nil -> None | Seq.Cons (lf, _) -> Some lf

(** [f*_T] by linear scan: given an optional restriction per level ([None] =
    no predicate on that level's key), return the leaves that may hold
    satisfying tuples.  Sound by construction: a leaf is excluded only when
    one of its level constraints provably cannot intersect the restriction.
    Kept as the executable oracle for {!select}. *)
let select_legacy t (restrictions : Interval.Set.t option array) : leaf list =
  let n = nlevels t in
  assert (Array.length restrictions = n);
  let survives lf =
    let rec go i =
      if i >= n then true
      else
        (match restrictions.(i) with
        | None -> true
        | Some r -> (
            match lf.bounds.(i) with
            | Cset s -> Interval.Set.overlaps_set s r
            | Default ->
                (* keep the default arm unless the restriction lies entirely
                   inside what the siblings cover *)
                let covered = covered_at t.leaves ~level:i ~prefix:lf.bounds in
                not (Interval.Set.is_empty (Interval.Set.diff r covered))))
        && go (i + 1)
    in
    go 0
  in
  Array.to_list t.leaves |> List.filter survives

let select_oids_legacy t restrictions =
  List.map (fun lf -> lf.leaf_oid) (select_legacy t restrictions)

(* ------------------------------------------------------------------ *)
(* The selection index                                                  *)
(* ------------------------------------------------------------------ *)

type partitioning = t

module Index = struct
  type t = index

  let nparts (ix : t) = ix.ix_nleaves

  (* first index with cuts.(i) >= v *)
  let lower_bound (cuts : Value.t array) v =
    let lo = ref 0 and hi = ref (Array.length cuts) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Value.compare cuts.(mid) v < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Region numbering over m cuts: region [2k] is the open gap before cut
     [k] (region [2m] the gap after the last cut), region [2k+1] the point
     [cuts.(k)].  Every arm bound is a cut, so each region is fully inside
     or fully outside every arm. *)
  let region_of_lo cuts = function
    | Interval.Neg_inf -> 0
    | Interval.Pos_inf -> 2 * Array.length cuts
    | Interval.B (v, incl) ->
        let k = lower_bound cuts v in
        if k < Array.length cuts && Value.equal cuts.(k) v then
          if incl then (2 * k) + 1 else (2 * k) + 2
        else 2 * k

  let region_of_hi cuts = function
    | Interval.Pos_inf -> 2 * Array.length cuts
    | Interval.Neg_inf -> 0
    | Interval.B (v, incl) ->
        let k = lower_bound cuts v in
        if k < Array.length cuts && Value.equal cuts.(k) v then
          if incl then (2 * k) + 1 else 2 * k
        else 2 * k

  (* the region containing value [v] *)
  let region_of_value cuts v =
    let k = lower_bound cuts v in
    if k < Array.length cuts && Value.equal cuts.(k) v then (2 * k) + 1
    else 2 * k

  let constr_equal a b =
    match (a, b) with
    | Default, Default -> true
    | Cset x, Cset y -> Interval.Set.equal x y
    | (Default | Cset _), _ -> false

  let prefix_equal ~level a b =
    let rec go i = i >= level || (constr_equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let build_level (leaves : leaf array) lvl : level_index =
    let nleaves = Array.length leaves in
    (* 1. cuts: every bound value of every arm at this level *)
    let values = ref [] in
    for j = 0 to nleaves - 1 do
      match leaves.(j).bounds.(lvl) with
      | Default -> ()
      | Cset s ->
          List.iter
            (fun (iv : Interval.t) ->
              (match iv.Interval.lo with
              | Interval.B (v, _) -> values := v :: !values
              | _ -> ());
              match iv.Interval.hi with
              | Interval.B (v, _) -> values := v :: !values
              | _ -> ())
            (Interval.Set.to_list s)
    done;
    let cuts =
      List.sort_uniq Value.compare !values |> Array.of_list
    in
    let nregions = (2 * Array.length cuts) + 1 in
    let members : int list ref array = Array.init nregions (fun _ -> ref []) in
    let points : int list ref VH.t = VH.create 64 in
    let all_points = ref true in
    (* 2. region membership + point hash *)
    for j = nleaves - 1 downto 0 do
      (* downto: member lists come out ascending *)
      match leaves.(j).bounds.(lvl) with
      | Default -> ()
      | Cset s ->
          List.iter
            (fun (iv : Interval.t) ->
              (match Interval.is_point iv with
              | Some v ->
                  let cell =
                    match VH.find_opt points v with
                    | Some c -> c
                    | None ->
                        let c = ref [] in
                        VH.add points v c;
                        c
                  in
                  cell := j :: !cell
              | None -> all_points := false);
              let s_idx = region_of_lo cuts iv.Interval.lo
              and e_idx = region_of_hi cuts iv.Interval.hi in
              for r = s_idx to e_idx do
                let cell = members.(r) in
                cell := j :: !cell
              done)
            (Interval.Set.to_list s)
    done;
    (* 3. default classes: group default leaves by constraint prefix and
       precompute each class's covered set once *)
    let classes : (constr array * int list ref) list ref = ref [] in
    for j = nleaves - 1 downto 0 do
      let lf = leaves.(j) in
      if lf.bounds.(lvl) = Default then begin
        match
          List.find_opt
            (fun (prefix, _) -> prefix_equal ~level:lvl prefix lf.bounds)
            !classes
        with
        | Some (_, cell) -> cell := j :: !cell
        | None -> classes := (lf.bounds, ref [ j ]) :: !classes
      end
    done;
    let outside_counts covered =
      let inside = Array.make nregions false in
      List.iter
        (fun (iv : Interval.t) ->
          for r = region_of_lo cuts iv.Interval.lo
              to region_of_hi cuts iv.Interval.hi do
            inside.(r) <- true
          done)
        (Interval.Set.to_list covered);
      let counts = Array.make (nregions + 1) 0 in
      for r = 0 to nregions - 1 do
        counts.(r + 1) <- (counts.(r) + if inside.(r) then 0 else 1)
      done;
      counts
    in
    let defaults =
      List.map
        (fun (prefix, cell) ->
          let covered = covered_at leaves ~level:lvl ~prefix in
          {
            dc_covered = covered;
            dc_members = Array.of_list !cell;
            dc_outside = outside_counts covered;
          })
        !classes
      |> Array.of_list
    in
    let point_index = VH.create (max 16 (VH.length points)) in
    VH.iter (fun k c -> VH.add point_index k (Array.of_list !c)) points;
    {
      li_cuts = cuts;
      li_regions = Array.map (fun c -> Array.of_list !c) members;
      li_all_points = !all_points;
      li_points = point_index;
      li_defaults = defaults;
    }

  let of_layout (levels : level array) (leaves : leaf array) : t =
    let by_oid = Hashtbl.create (2 * Array.length leaves) in
    Array.iteri (fun j lf -> Hashtbl.replace by_oid lf.leaf_oid j) leaves;
    {
      ix_nleaves = Array.length leaves;
      ix_leaves = leaves;
      ix_levels = Array.init (Array.length levels) (build_level leaves);
      ix_by_oid = by_oid;
    }

  let build (p : partitioning) : t = of_layout p.levels p.leaves

  let position (ix : t) oid = Hashtbl.find_opt ix.ix_by_oid oid

  let find_leaf (ix : t) oid =
    Option.map (fun j -> ix.ix_leaves.(j)) (position ix oid)

  (* Survivors of one level under restriction [r], as a bitset. *)
  let level_bits (ix : t) (li : level_index) (r : Interval.Set.t) : Bitset.t =
    let bits = Bitset.create ix.ix_nleaves in
    List.iter
      (fun (iv : Interval.t) ->
        match Interval.is_point iv with
        | Some v when li.li_all_points -> (
            (* categorical fast path: O(1) hash hit *)
            match VH.find_opt li.li_points v with
            | Some ms -> Bitset.set_array bits ms
            | None -> ())
        | _ ->
            (* boundary binary search, then union the member arrays of the
               regions the restriction interval overlaps *)
            let s_idx = region_of_lo li.li_cuts iv.Interval.lo
            and e_idx = region_of_hi li.li_cuts iv.Interval.hi in
            for reg = s_idx to e_idx do
              Bitset.set_array bits li.li_regions.(reg)
            done)
      (Interval.Set.to_list r);
    (* default arms: one precomputed covered set per (level, prefix) class *)
    Array.iter
      (fun dc ->
        if not (Interval.Set.is_empty (Interval.Set.diff r dc.dc_covered))
        then Bitset.set_array bits dc.dc_members)
      li.li_defaults;
    bits

  let select_bits (ix : t) (restrictions : Interval.Set.t option array) :
      Bitset.t =
    if Array.length restrictions <> Array.length ix.ix_levels then
      invalid_arg "Partition.Index.select_bits: wrong number of restrictions";
    let acc = Bitset.full ix.ix_nleaves in
    Array.iteri
      (fun i r ->
        match r with
        | None -> ()
        | Some r -> Bitset.inter_into ~into:acc (level_bits ix ix.ix_levels.(i) r))
      restrictions;
    acc

  (* OR into [into] the leaves the point restriction [{v}] selects at one
     level, [v] not NULL: [level_bits] of [Interval.Set.point v] without
     building it.  The region holding [v] comes from one binary search (or
     the categorical hash), and a default class joins unless its covered
     set holds [v].  Allocates nothing. *)
  let add_point (ix : t) ~level v into =
    let li = ix.ix_levels.(level) in
    (if li.li_all_points then
       match VH.find li.li_points v with
       | ms -> Bitset.set_array into ms
       | exception Not_found -> ()
     else Bitset.set_array into li.li_regions.(region_of_value li.li_cuts v));
    let defaults = li.li_defaults in
    for d = 0 to Array.length defaults - 1 do
      let dc = defaults.(d) in
      if not (Interval.Set.contains dc.dc_covered v) then
        Bitset.set_array into dc.dc_members
    done

  (* OR into [into] the leaves the half-line [{x | x op v}] selects at one
     level, [op] one of [< <= > >=] and [v] not NULL: [level_bits] of that
     half-line without building it.  The half-line covers the run of
     regions from one end of the value line to [v]'s region, found by one
     binary search; the run's member arrays are OR-ed in, and a default
     class joins when a region of the run lies outside its covered set (a
     per-region fact, read from [dc_outside]).  Allocates nothing. *)
  let add_range (ix : t) ~level (op : Expr.cmp_op) v into =
    let li = ix.ix_levels.(level) in
    let cuts = li.li_cuts in
    let k = lower_bound cuts v in
    let on_cut = k < Array.length cuts && Value.equal cuts.(k) v in
    let first =
      match op with
      | Expr.Gt -> if on_cut then (2 * k) + 2 else 2 * k
      | Expr.Ge -> if on_cut then (2 * k) + 1 else 2 * k
      | Expr.Lt | Expr.Le -> 0
      | Expr.Eq | Expr.Neq ->
          invalid_arg "Partition.Index.add_range: not a half-line"
    and last =
      match op with
      | Expr.Le when on_cut -> (2 * k) + 1
      | Expr.Lt | Expr.Le -> 2 * k
      | _ -> 2 * Array.length cuts
    in
    for reg = first to last do
      Bitset.set_array into li.li_regions.(reg)
    done;
    let defaults = li.li_defaults in
    for d = 0 to Array.length defaults - 1 do
      let dc = defaults.(d) in
      if dc.dc_outside.(last + 1) > dc.dc_outside.(first) then
        Bitset.set_array into dc.dc_members
    done

  (* Leaves accepting value [v] (possibly NULL) at one level. *)
  let route_bits (ix : t) ~level (v : Value.t) : Bitset.t =
    let bits = Bitset.create ix.ix_nleaves in
    if Value.is_null v then
      (* NULLs go to default arms only *)
      Array.iter
        (fun dc -> Bitset.set_array bits dc.dc_members)
        ix.ix_levels.(level).li_defaults
    else add_point ix ~level v bits;
    bits

  let route (ix : t) (keys : Value.t array) : leaf option =
    if Array.length keys <> Array.length ix.ix_levels then
      invalid_arg "Partition.Index.route: wrong number of keys";
    let acc = Bitset.full ix.ix_nleaves in
    Array.iteri
      (fun level v -> Bitset.inter_into ~into:acc (route_bits ix ~level v))
      keys;
    Option.map (fun j -> ix.ix_leaves.(j)) (Bitset.first_set acc)
end

(* ------------------------------------------------------------------ *)
(* Public f_T / f*_T — served by the index                              *)
(* ------------------------------------------------------------------ *)

(** OID → leaf via the index's hash (replaces the pre-index O(P) linear
    scan, removed once all callers migrated). *)
let find_leaf t oid = Index.find_leaf t.index oid

(** [f_T]: route a tuple's key values (one per level) to the leaf that must
    store it; [None] is the invalid partition ⊥ of §2.1.  O(log P) per
    level via the index. *)
let route t (keys : Value.t array) : leaf option =
  Index.route t.index keys

(** [f*_T]: given an optional restriction per level ([None] = no predicate on
    that level's key), return the OIDs of the leaves that may hold
    satisfying tuples.  Sound by construction, and exactly equal to
    {!select_oids_legacy} (the property suite holds them to oid-for-oid
    equality). *)
let select_oids t (restrictions : Interval.Set.t option array) : oid list =
  Bitset.fold_right_set
    (fun j acc -> t.leaves.(j).leaf_oid :: acc)
    (Index.select_bits t.index restrictions) []

(** [f*_T] over a selector's predicates: level [i]'s predicate is analysed
    against the [i]th key column ({!Expr.restriction}), and the survivors
    come back as a bitset over leaf positions.  [None] when no level is
    restricted (every leaf survives) or when [keys] or [predicates] does
    not have one entry per level. *)
let select_static t ~keys (predicates : Expr.t option list) : Bitset.t option =
  let n = nlevels t in
  if List.length keys <> n || List.length predicates <> n then None
  else
    let restrictions =
      Array.of_list
        (List.map2
           (fun k -> function None -> None | Some p -> Expr.restriction k p)
           keys predicates)
    in
    if Array.for_all Option.is_none restrictions then None
    else Some (Index.select_bits t.index restrictions)

(** Whether leaf [oid]'s position is set in [bits]. *)
let mem_oid t bits oid =
  match Index.position t.index oid with
  | Some j -> Bitset.mem bits j
  | None -> false

(* ------------------------------------------------------------------ *)
(* Constructors for common partitioning layouts                        *)
(* ------------------------------------------------------------------ *)

(* The one place a record is built, so every partitioning carries its
   index and envelope from the start and domains only ever read them. *)
let make levels leaves =
  let envelope =
    Array.mapi
      (fun l _ ->
        if Array.exists (fun lf -> lf.bounds.(l) = Default) leaves then
          Interval.Set.full
        else
          Array.fold_left
            (fun acc lf ->
              match lf.bounds.(l) with
              | Cset s -> Interval.Set.union acc s
              | Default -> acc)
            Interval.Set.empty leaves)
      levels
  in
  { levels; leaves; index = Index.of_layout levels leaves; envelope }

(** Build single-level metadata from explicit per-leaf constraints.
    [alloc_oid] supplies fresh OIDs for the leaves. *)
let single_level ~alloc_oid ~key_index ~key_name ~scheme ~table_name constrs =
  let leaves =
    List.mapi
      (fun i c ->
        {
          leaf_oid = alloc_oid ();
          leaf_name = Printf.sprintf "%s_1_prt_%d" table_name (i + 1);
          bounds = [| c |];
        })
      constrs
    |> Array.of_list
  in
  make [| { key_index; key_name; scheme } |] leaves

(** Monthly range partitions covering [months] months starting at the first
    of [start_year]-[start_month]; the classic chronological layout of the
    paper's Figure 1. *)
let monthly_ranges ~start_year ~start_month ~months =
  List.init months (fun i ->
      let lo = Date.add_months (Date.of_ymd start_year start_month 1) i in
      let hi = Date.add_months lo 1 in
      match Interval.closed_open (Value.Date lo) (Value.Date hi) with
      | Some iv -> Cset (Interval.Set.singleton iv)
      | None -> assert false)

(** Integer range partitions: part [i] holds [start + i*width, start +
    (i+1)*width). *)
let int_ranges ~start ~width ~count =
  List.init count (fun i ->
      let lo = start + (i * width) and hi = start + ((i + 1) * width) in
      match Interval.closed_open (Value.Int lo) (Value.Int hi) with
      | Some iv -> Cset (Interval.Set.singleton iv)
      | None -> assert false)

(** One categorical partition per value list. *)
let categorical values_per_part =
  List.map
    (fun vs -> Cset (Interval.Set.of_list (List.map Interval.point vs)))
    values_per_part

(** Two-level metadata as the cross product of per-level constraints (the
    orders-by-date-and-region layout of paper Figure 9). *)
let two_level ~alloc_oid ~table_name ~level1 ~constrs1 ~level2 ~constrs2 =
  let leaves =
    List.concat_map
      (fun (i, c1) ->
        List.map
          (fun (j, c2) ->
            {
              leaf_oid = alloc_oid ();
              leaf_name =
                Printf.sprintf "%s_1_prt_%d_2_prt_%d" table_name (i + 1) (j + 1);
              bounds = [| c1; c2 |];
            })
          (List.mapi (fun j c -> (j, c)) constrs2))
      (List.mapi (fun i c -> (i, c)) constrs1)
    |> Array.of_list
  in
  make [| level1; level2 |] leaves

(** General n-level metadata as the cross product of per-level constraint
    lists — two_level generalized to arbitrary hierarchies. *)
let multi_level ~alloc_oid ~table_name (levels : (level * constr list) list) =
  if levels = [] then invalid_arg "Partition.multi_level: no levels";
  let rec product = function
    | [] -> [ [] ]
    | (_, constrs) :: rest ->
        let tails = product rest in
        List.concat_map
          (fun (i, c) -> List.map (fun tail -> (i, c) :: tail) tails)
          (List.mapi (fun i c -> (i, c)) constrs)
  in
  let leaves =
    product levels
    |> List.map (fun combo ->
           {
             leaf_oid = alloc_oid ();
             leaf_name =
               table_name
               ^ String.concat ""
                   (List.mapi
                      (fun lvl (i, _) ->
                        Printf.sprintf "_%d_prt_%d" (lvl + 1) (i + 1))
                      combo);
             bounds = Array.of_list (List.map snd combo);
           })
    |> Array.of_list
  in
  make (Array.of_list (List.map fst levels)) leaves

let pp_constr fmt = function
  | Default -> Format.pp_print_string fmt "DEFAULT"
  | Cset s -> Interval.Set.pp fmt s

let pp fmt t =
  Format.fprintf fmt "@[<v>partitioned by (%s), %d leaves@,"
    (String.concat ", "
       (Array.to_list (Array.map (fun lv -> lv.key_name) t.levels)))
    (nparts t);
  Array.iter
    (fun lf ->
      Format.fprintf fmt "  %s (oid %d): %s@," lf.leaf_name lf.leaf_oid
        (String.concat " / "
           (Array.to_list
              (Array.map (Format.asprintf "%a" pp_constr) lf.bounds))))
    t.leaves;
  Format.fprintf fmt "@]"
