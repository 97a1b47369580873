(** Multi-pass static analysis of physical plans — see [verify.mli]. *)

open Mpp_expr
module Plan = Mpp_plan.Plan
module Catalog = Mpp_catalog.Catalog
module Table = Mpp_catalog.Table
module Partition = Mpp_catalog.Partition
module Expansion = Mpp_plan.Expansion
module Obs = Mpp_obs.Obs

(* ------------------------------------------------------------------ *)
(* Node paths                                                          *)
(* ------------------------------------------------------------------ *)

(* A path is kept as a reversed segment list and rendered on demand.  The
   segments stay symbolic (child index + node) until a diagnostic is
   actually emitted: clean plans — the common case on the optimizer hot
   path — never pay for string formatting. *)
type pseg = Root of Plan.t | Child of int * Plan.t

let render path =
  String.concat "/"
    (List.rev_map
       (function
         | Root p -> Plan.name p
         | Child (i, c) -> string_of_int i ^ "." ^ Plan.name c)
       path)

let seg i child = Child (i, child)

(* A leaf scan's tuples use the root table's schema; the schema and
   distribution passes resolve leaf → root once and cache per root. *)

module Bitset = Mpp_catalog.Bitset

let partitioning_of catalog root_oid =
  Option.bind (Catalog.find_oid_opt catalog root_oid) (fun t ->
      t.Table.partitioning)

(* An expansion's leaves as a bitset over [part]'s positions, and the
   leaves it lists more than once. *)
let scanned_leaves (x : Expansion.t) =
  let part = x.part in
  let bits = Bitset.create (Partition.nparts part) in
  let dups =
    List.filter
      (fun (lf : Partition.leaf) ->
        match Partition.Index.position part.index lf.leaf_oid with
        | Some j when Bitset.mem bits j -> true
        | Some j ->
            Bitset.set bits j;
            false
        | None -> false)
      x.leaves
  in
  (bits, dups)

(* OIDs of the leaves in [want] but not in [have], ascending. *)
let missing_oids (part : Partition.t) ~have want =
  Bitset.fold_right_set
    (fun j acc ->
      if Bitset.mem have j then acc
      else part.Partition.leaves.(j).Partition.leaf_oid :: acc)
    want []

(* ------------------------------------------------------------------ *)
(* Pass 1: structure                                                   *)
(* ------------------------------------------------------------------ *)

(* Unmatched endpoint counts for one id in a subtree, shared by the two
   pairing walks: PartitionSelector (producer) and DynamicScan or guarded
   scan (consumer) per part_scan_id in the structure pass, builder and
   consumer per rf_id in the filters pass.  [tp]/[tc] record whether any
   of the unmatched producers/consumers crossed a process boundary on the
   way up — any Motion for a selector and its scans (the §3.1 taint), a
   Gather for a runtime filter; each walk applies its own rule with
   [taint]. *)
type ep = { prod : int; cons : int; tp : bool; tc : bool }

let ep_producer = { prod = 1; cons = 0; tp = false; tc = false }
let ep_consumer = { prod = 0; cons = 1; tp = false; tc = false }

let merge_tables acc tbl =
  List.fold_left
    (fun acc (id, e) ->
      match List.assoc_opt id acc with
      | None -> (id, e) :: acc
      | Some e0 ->
          ( id,
            { prod = e0.prod + e.prod; cons = e0.cons + e.cons;
              tp = e0.tp || e.tp; tc = e0.tc || e.tc } )
          :: List.remove_assoc id acc)
    acc tbl

let taint tbl =
  List.map
    (fun (id, e) ->
      (id, { e with tp = e.tp || e.prod > 0; tc = e.tc || e.cons > 0 }))
    tbl

let structure_pass ~catalog (plan : Plan.t) : Diag.t list =
  let diags = ref [] in
  let emit ?severity code path msg =
    diags :=
      Diag.make ?severity ~pass:Diag.Structure ~code ~path:(render path) msg
      :: !diags
  in
  (* --- per-node checks and the global id maps, one pre-order walk --- *)
  let sel_count : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let sel_root : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let scan_roots : (int * int * pseg list) list ref = ref [] in
  let rec pre path p =
    (match p with
    | Plan.Partition_selector { part_scan_id; root_oid; keys; predicates; _ }
      ->
        Hashtbl.replace sel_count part_scan_id
          (1 + Option.value (Hashtbl.find_opt sel_count part_scan_id)
                 ~default:0);
        if not (Hashtbl.mem sel_root part_scan_id) then
          Hashtbl.add sel_root part_scan_id root_oid;
        if List.length keys <> List.length predicates then
          emit "structure/selector-arity" path
            (Printf.sprintf
               "PartitionSelector %d has %d keys but %d per-level predicates"
               part_scan_id (List.length keys) (List.length predicates));
        (match Catalog.find_oid_opt catalog root_oid with
        | None ->
            emit "structure/unknown-root" path
              (Printf.sprintf "PartitionSelector %d targets unknown OID %d"
                 part_scan_id root_oid)
        | Some tbl -> (
            match tbl.Table.partitioning with
            | None ->
                emit "structure/selector-unpartitioned" path
                  (Printf.sprintf
                     "PartitionSelector %d targets unpartitioned table %s"
                     part_scan_id tbl.Table.name)
            | Some part ->
                if List.length keys <> Partition.nlevels part then
                  emit "structure/selector-levels" path
                    (Printf.sprintf
                       "PartitionSelector %d has %d keys for %d partitioning \
                        level(s) of %s"
                       part_scan_id (List.length keys)
                       (Partition.nlevels part) tbl.Table.name)))
    | Plan.Dynamic_scan { part_scan_id; root_oid; _ } ->
        scan_roots := (part_scan_id, root_oid, path) :: !scan_roots
    | _ -> ());
    List.iteri (fun i c -> pre (seg i c :: path) c) (Plan.children p)
  in
  pre [ Root plan ] plan;
  Hashtbl.iter
    (fun id n ->
      if n > 1 then
        emit "structure/duplicate-selector" [ Root plan ]
          (Printf.sprintf "part_scan_id %d has %d PartitionSelectors" id n))
    sel_count;
  List.iter
    (fun (id, root_oid, path) ->
      match Hashtbl.find_opt sel_root id with
      | Some r when r <> root_oid ->
          emit "structure/root-oid-mismatch" path
            (Printf.sprintf
               "DynamicScan %d scans root OID %d but its PartitionSelector \
                targets %d"
               id root_oid r)
      | _ -> ())
    !scan_roots;
  (* --- endpoint walk: pair matching, Motion taint, execution order --- *)
  let rec walk path p : (int * ep) list =
    let own =
      match p with
      | Plan.Partition_selector { part_scan_id; _ } ->
          [ (part_scan_id, ep_producer) ]
      | Plan.Dynamic_scan { part_scan_id; _ } ->
          [ (part_scan_id, ep_consumer) ]
      | Plan.Table_scan { guard = Some id; _ } -> [ (id, ep_consumer) ]
      | _ -> []
    in
    let kid_tables =
      List.mapi (fun i c -> walk (seg i c :: path) c) (Plan.children p)
    in
    (* Execution-order checks: children run left to right (Sequence by
       definition; joins by the paper's build-first convention), so a
       consumer in an earlier child than its producer never receives
       OIDs. *)
    (match p with
    | Plan.Sequence _ | Plan.Hash_join _ | Plan.Nl_join _ ->
        ignore
          (List.fold_left
             (fun seen tbl ->
               List.iter
                 (fun (id, e) ->
                   if e.prod > 0 && List.mem id seen then
                     emit "structure/consumer-before-producer" path
                       (Printf.sprintf
                          "DynamicScan %d executes before its \
                           PartitionSelector"
                          id))
                 tbl;
               List.filter_map
                 (fun (id, e) -> if e.cons > 0 then Some id else None)
                 tbl
               @ seen)
             [] kid_tables)
    | _ -> ());
    let merged = List.fold_left merge_tables own kid_tables in
    let resolved, leftover =
      List.partition (fun (_, e) -> e.prod > 0 && e.cons > 0) merged
    in
    List.iter
      (fun (id, e) ->
        if e.tp || e.tc then
          emit "structure/motion-between-pair" path
            (Printf.sprintf
               "a Motion separates PartitionSelector and DynamicScan %d" id))
      resolved;
    match p with Plan.Motion _ -> taint leftover | _ -> leftover
  in
  let leftover = walk [ Root plan ] plan in
  List.iter
    (fun (id, e) ->
      if e.prod > 0 then
        emit "structure/unmatched-selector" [ Root plan ]
          (Printf.sprintf "PartitionSelector %d has no DynamicScan" id);
      if e.cons > 0 then
        emit "structure/unmatched-scan" [ Root plan ]
          (Printf.sprintf "DynamicScan %d has no PartitionSelector" id))
    leftover;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass 2: schema / typecheck                                          *)
(* ------------------------------------------------------------------ *)

(* The executor's tuple layout, enriched with per-column datatypes: one
   entry per visible relation instance, [None] for computed columns of
   unknown type.  An empty column array poisons the entry (unknown table):
   lookups into it are silently skipped to avoid cascades. *)
type layout = (int * Value.datatype option array) list

let is_numeric dt = Value.comparable dt Value.Tint

let table_layout_types (tbl : Table.t) : Value.datatype option array =
  Array.map (fun (_, dt) -> Some dt) tbl.Table.columns

let schema_pass ~catalog (plan : Plan.t) : Diag.t list =
  let diags = ref [] in
  let emit ?severity code path msg =
    diags :=
      Diag.make ?severity ~pass:Diag.Schema ~code ~path:(render path) msg
      :: !diags
  in
  (* Resolve + type an expression against a layout.  Types come from the
     layout only (the executor addresses tuples positionally), so a skewed
     offset surfaces as an out-of-range column or a class-incompatible
     comparison. *)
  let rec typ path layout (e : Expr.t) : Value.datatype option =
    match e with
    | Expr.Const v -> Value.datatype_of v
    | Expr.Param _ -> None
    | Expr.Col c -> (
        match List.assoc_opt c.Colref.rel layout with
        | None ->
            emit "schema/unresolved-column" path
              (Printf.sprintf "column %s: relation %d not in scope (scope: %s)"
                 (Colref.to_string c) c.Colref.rel
                 (String.concat ", "
                    (List.map (fun (r, _) -> string_of_int r) layout)));
            None
        | Some cols ->
            if Array.length cols = 0 then None (* poisoned: unknown table *)
            else if c.Colref.index < 0 || c.Colref.index >= Array.length cols
            then begin
              emit "schema/unresolved-column" path
                (Printf.sprintf
                   "column %s: offset %d out of range for relation %d \
                    (width %d)"
                   (Colref.to_string c) c.Colref.index c.Colref.rel
                   (Array.length cols));
              None
            end
            else cols.(c.Colref.index))
    | Expr.Cmp (_, a, b) ->
        (match (typ path layout a, typ path layout b) with
        | Some ta, Some tb when not (Value.comparable ta tb) ->
            emit "schema/cmp-incompatible" path
              (Printf.sprintf "comparison %s mixes %s and %s"
                 (Expr.to_string e)
                 (Value.datatype_to_string ta)
                 (Value.datatype_to_string tb))
        | _ -> ());
        Some Value.Tbool
    | Expr.And es | Expr.Or es ->
        List.iter (fun sub -> pred path layout sub) es;
        Some Value.Tbool
    | Expr.Not sub ->
        pred path layout sub;
        Some Value.Tbool
    | Expr.Arith (_, a, b) -> (
        let ta = typ path layout a and tb = typ path layout b in
        List.iter
          (function
            | Some t when not (is_numeric t) ->
                emit "schema/arith-nonnumeric" path
                  (Printf.sprintf "arithmetic %s over non-numeric %s"
                     (Expr.to_string e)
                     (Value.datatype_to_string t))
            | _ -> ())
          [ ta; tb ];
        match (ta, tb) with
        | Some Value.Tfloat, _ | _, Some Value.Tfloat -> Some Value.Tfloat
        | Some Value.Tint, Some Value.Tint -> Some Value.Tint
        | _ -> None)
    | Expr.In_list (sub, vs) ->
        (match typ path layout sub with
        | Some t ->
            List.iter
              (fun v ->
                match Value.datatype_of v with
                | Some tv when not (Value.comparable t tv) ->
                    emit "schema/cmp-incompatible" path
                      (Printf.sprintf "IN list mixes %s and %s"
                         (Value.datatype_to_string t)
                         (Value.datatype_to_string tv))
                | _ -> ())
              vs
        | None -> ());
        Some Value.Tbool
    | Expr.Is_null sub ->
        ignore (typ path layout sub);
        Some Value.Tbool
    | Expr.Func ("to_float", args) ->
        List.iter (fun a -> ignore (typ path layout a)) args;
        Some Value.Tfloat
    | Expr.Func (_, args) ->
        List.iter (fun a -> ignore (typ path layout a)) args;
        None
  (* A filter predicate: additionally require a boolean result (the
     executor's [eval_pred] raises on non-boolean values). *)
  and pred path layout e =
    match typ path layout e with
    | Some t when t <> Value.Tbool ->
        emit "schema/pred-not-bool" path
          (Printf.sprintf "predicate %s has type %s, not bool"
             (Expr.to_string e)
             (Value.datatype_to_string t))
    | _ -> ()
  in
  let agg_result_type path layout (f : Plan.agg_fun) : Value.datatype option =
    let arg_numeric what e =
      match typ path layout e with
      | Some t when not (is_numeric t) ->
          emit "schema/agg-nonnumeric" path
            (Printf.sprintf "%s over non-numeric %s argument %s" what
               (Value.datatype_to_string t) (Expr.to_string e));
          None
      | t -> t
    in
    match f with
    | Plan.Count_star -> Some Value.Tint
    | Plan.Count e ->
        ignore (typ path layout e);
        Some Value.Tint
    | Plan.Sum e -> arg_numeric "sum" e
    | Plan.Avg e ->
        ignore (arg_numeric "avg" e);
        Some Value.Tfloat
    | Plan.Min e | Plan.Max e -> typ path layout e
  in
  (* Leaf scans of one root share a schema, and an Append expansion shares
     one (physically equal) filter across its children: cache the per-OID
     column types and typecheck each distinct (oid, rel, filter) once, so a
     P-leaf expansion costs O(P) hash probes rather than P full
     typechecks. *)
  let layout_cache : (int, Value.datatype option array option) Hashtbl.t =
    Hashtbl.create 16
  in
  let types_of_root root =
    match Hashtbl.find_opt layout_cache root with
    | Some r -> r
    | None ->
        let r = Option.map table_layout_types (Catalog.find_oid_opt catalog root) in
        Hashtbl.add layout_cache root r;
        r
  in
  let scan_layout path ~rel root : layout =
    match types_of_root root with
    | None ->
        emit "schema/unknown-oid" path
          (Printf.sprintf "scan of unknown table OID %d" root);
        [ (rel, [||]) ]
    | Some types -> [ (rel, types) ]
  in
  let checked_filters : (int * int, Expr.t list) Hashtbl.t =
    Hashtbl.create 16
  in
  let check_scan_filter path layout ~rel ~root filter =
    match filter with
    | None -> ()
    | Some f ->
        let key = (root, rel) in
        let seen =
          Option.value (Hashtbl.find_opt checked_filters key) ~default:[]
        in
        if not (List.memq f seen) then begin
          pred path layout f;
          Hashtbl.replace checked_filters key (f :: seen)
        end
  in
  let rec infer path (p : Plan.t) : layout =
    match p with
    | Plan.Table_scan { rel; table_oid; filter; guard = _ } ->
        let root = Catalog.root_of catalog table_oid in
        let layout = scan_layout path ~rel root in
        check_scan_filter path layout ~rel ~root filter;
        layout
    | Plan.Dynamic_scan { rel; root_oid; filter; _ } ->
        let root = Catalog.root_of catalog root_oid in
        let layout = scan_layout path ~rel root in
        check_scan_filter path layout ~rel ~root filter;
        layout
    | Plan.Partition_selector { keys; predicates; child; _ } ->
        let child_layout =
          match child with
          | None -> []
          | Some c -> infer (seg 0 c :: path) c
        in
        (* Selector predicates range over the (symbolic) partitioning keys
           plus whatever the child — the outer side for streaming DPE —
           produces. *)
        List.iter
          (function
            | None -> ()
            | Some pr ->
                List.iter
                  (fun (c : Colref.t) ->
                    if not (List.exists (Colref.equal c) keys) then
                      match List.assoc_opt c.Colref.rel child_layout with
                      | Some cols
                        when Array.length cols = 0
                             || (c.Colref.index >= 0
                                && c.Colref.index < Array.length cols) ->
                          ()
                      | _ ->
                          emit "schema/selector-unresolved" path
                            (Printf.sprintf
                               "selector predicate column %s is neither a \
                                partitioning key nor produced by the \
                                selector input"
                               (Colref.to_string c)))
                  (Expr.free_cols pr))
          predicates;
        child_layout
    | Plan.Sequence cs ->
        let layouts = List.mapi (fun i c -> infer (seg i c :: path) c) cs in
        (match List.rev layouts with [] -> [] | last :: _ -> last)
    | Plan.Filter { pred = f; child } ->
        let layout = infer (seg 0 child :: path) child in
        pred path layout f;
        layout
    | Plan.Project { exprs; child } ->
        let layout = infer (seg 0 child :: path) child in
        let types =
          Array.of_list (List.map (fun (_, e) -> typ path layout e) exprs)
        in
        [ (-1, types) ]
    | Plan.Hash_join { kind; pred = jp; left; right }
    | Plan.Nl_join { kind; pred = jp; left; right } ->
        let ll = infer (seg 0 left :: path) left in
        let rl = infer (seg 1 right :: path) right in
        pred path (ll @ rl) jp;
        (match kind with
        | Plan.Semi -> rl
        | Plan.Inner | Plan.Left_outer -> ll @ rl)
    | Plan.Agg { group_by; aggs; child; output_rel } ->
        let layout = infer (seg 0 child :: path) child in
        let gtypes = List.map (typ path layout) group_by in
        let atypes =
          List.map (fun (_, f) -> agg_result_type path layout f) aggs
        in
        [ (output_rel, Array.of_list (gtypes @ atypes)) ]
    | Plan.Sort { keys; child } ->
        let layout = infer (seg 0 child :: path) child in
        List.iter (fun k -> ignore (typ path layout k)) keys;
        layout
    | Plan.Limit { child; _ } -> infer (seg 0 child :: path) child
    | Plan.Runtime_filter_build { keys; child; _ }
    | Plan.Runtime_filter { keys; child; _ } ->
        (* pass-through; the filter keys must resolve in the child's
           layout — the builder hashes them, the consumer probes them *)
        let layout = infer (seg 0 child :: path) child in
        List.iter (fun c -> ignore (typ path layout (Expr.Col c))) keys;
        layout
    | Plan.Motion { kind; child } ->
        let layout = infer (seg 0 child :: path) child in
        (match kind with
        | Plan.Redistribute cols ->
            List.iter (fun c -> ignore (typ path layout (Expr.Col c))) cols
        | _ -> ());
        layout
    | Plan.Append cs ->
        let layouts = List.mapi (fun i c -> infer (seg i c :: path) c) cs in
        (match layouts with
        | [] -> []
        | first :: rest ->
            let shape l = List.map (fun (r, cols) -> (r, Array.length cols)) l in
            List.iteri
              (fun i l ->
                if shape l <> shape first then
                  emit "schema/append-mismatch" path
                    (Printf.sprintf
                       "Append child %d has a different output layout than \
                        child 0"
                       (i + 1)))
              rest;
            first)
    | Plan.Update { rel; table_oid; set_exprs; child } ->
        dml path ~rel ~table_oid ~set_exprs:(Some set_exprs) child
    | Plan.Delete { rel; table_oid; child } ->
        dml path ~rel ~table_oid ~set_exprs:None child
    | Plan.Insert { table_oid; rows } ->
        (match Catalog.find_oid_opt catalog table_oid with
        | None ->
            emit "schema/unknown-oid" path
              (Printf.sprintf "INSERT into unknown table OID %d" table_oid)
        | Some tbl ->
            let ncols = Table.ncols tbl in
            List.iteri
              (fun i row ->
                if List.length row <> ncols then
                  emit "schema/insert-arity" path
                    (Printf.sprintf
                       "INSERT row %d has %d values; %s has %d columns" i
                       (List.length row) tbl.Table.name ncols)
                else
                  List.iteri
                    (fun j e ->
                      (* VALUES expressions are compiled against the empty
                         layout: stray columns are unresolvable. *)
                      match (typ path [] e, snd tbl.Table.columns.(j)) with
                      | Some t, want when not (Value.comparable t want) ->
                          emit "schema/insert-type" path
                            (Printf.sprintf
                               "INSERT row %d column %s expects %s, got %s" i
                               (fst tbl.Table.columns.(j))
                               (Value.datatype_to_string want)
                               (Value.datatype_to_string t))
                      | _ -> ())
                    row)
              rows);
        [ (-1, [| Some Value.Tint |]) ]
  and dml path ~rel ~table_oid ~set_exprs child : layout =
    let layout = infer (seg 0 child :: path) child in
    (match Catalog.find_oid_opt catalog table_oid with
    | None ->
        emit "schema/unknown-oid" path
          (Printf.sprintf "DML over unknown table OID %d" table_oid)
    | Some tbl -> (
        let ncols = Table.ncols tbl in
        match List.assoc_opt rel layout with
        | None ->
            emit "schema/dml-target-missing" path
              (Printf.sprintf
                 "DML target relation %d (%s) is not in the child output" rel
                 tbl.Table.name)
        | Some cols ->
            if Array.length cols <> 0 && Array.length cols <> ncols then
              emit "schema/dml-width-mismatch" path
                (Printf.sprintf
                   "DML target %s carries %d columns in the child output; \
                    the table has %d"
                   tbl.Table.name (Array.length cols) ncols);
            Option.iter
              (List.iter (fun (idx, e) ->
                   if idx < 0 || idx >= ncols then
                     emit "schema/dml-set-range" path
                       (Printf.sprintf
                          "SET targets column %d of %s (width %d)" idx
                          tbl.Table.name ncols)
                   else
                     match (typ path layout e, snd tbl.Table.columns.(idx)) with
                     | Some t, want when not (Value.comparable t want) ->
                         emit "schema/dml-set-type" path
                           (Printf.sprintf "SET %s = %s assigns %s to %s"
                              (fst tbl.Table.columns.(idx))
                              (Expr.to_string e)
                              (Value.datatype_to_string t)
                              (Value.datatype_to_string want))
                     | _ -> ()))
              set_exprs))
    ;
    [ (-1, [| Some Value.Tint |]) ]
  in
  ignore (infer [ Root plan ] plan);
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass 3: distribution                                                *)
(* ------------------------------------------------------------------ *)

(* Abstract row placement: where an operator's output rows live, in the
   distribution type the memo plans joins with ({!Mpp_plan.Dist}, also the
   home of the co-location rule checked below).  [Dany] is
   distributed-with-unknown-alignment — conservative for co-location, but
   still distributed for the gather checks. *)
type dist = Mpp_plan.Dist.t =
  | Dsingleton
  | Dreplicated
  | Dhashed of Colref.t list
  | Dany

let dist_to_string = function
  | Dsingleton -> "singleton"
  | Dreplicated -> "replicated"
  | Dhashed _ -> "hashed"
  | Dany -> "distributed"

let distributed = function
  | Dhashed _ | Dany -> true
  | Dsingleton | Dreplicated -> false

let distribution_pass ~catalog (plan : Plan.t) : Diag.t list =
  let diags = ref [] in
  let emit ?severity code path msg =
    diags :=
      Diag.make ?severity ~pass:Diag.Distribution ~code ~path:(render path) msg
      :: !diags
  in
  (* Every leaf of an Append expansion resolves to the same root table:
     cache the scan distribution per (oid, rel) so P leaves cost P hash
     probes, not P catalog walks and colref allocations. *)
  let dist_cache : (int * int, dist) Hashtbl.t = Hashtbl.create 16 in
  let scan_dist ~rel oid =
    let root = Catalog.root_of catalog oid in
    let key = (root, rel) in
    match Hashtbl.find_opt dist_cache key with
    | Some d -> d
    | None ->
        let d =
          match Catalog.find_oid_opt catalog root with
          | None -> Dany
          | Some tbl -> Mpp_plan.Dist.of_table tbl ~rel
        in
        Hashtbl.add dist_cache key d;
        d
  in
  (* [agg_above]: does an ancestor Agg recombine this stream?  A partial
     (per-segment) aggregate over distributed input is only meaningful when
     a final aggregate above it does. *)
  let rec dist_of ~agg_above path (p : Plan.t) : dist =
    match p with
    | Plan.Table_scan { rel; table_oid; _ } -> scan_dist ~rel table_oid
    | Plan.Dynamic_scan { rel; root_oid; _ } -> scan_dist ~rel root_oid
    | Plan.Partition_selector { child = None; _ } -> Dsingleton
    | Plan.Partition_selector { child = Some c; _ } ->
        dist_of ~agg_above (seg 0 c :: path) c
    | Plan.Sequence cs ->
        let ds =
          List.mapi (fun i c -> dist_of ~agg_above (seg i c :: path) c) cs
        in
        (match List.rev ds with [] -> Dsingleton | last :: _ -> last)
    | Plan.Filter { child; _ } -> dist_of ~agg_above (seg 0 child :: path) child
    | Plan.Project { child; _ } -> (
        match dist_of ~agg_above (seg 0 child :: path) child with
        | Dhashed _ -> Dany (* the hash columns may be projected away *)
        | d -> d)
    | Plan.Hash_join { kind = _; pred = jp; left; right }
    | Plan.Nl_join { kind = _; pred = jp; left; right } ->
        let dl = dist_of ~agg_above (seg 0 left :: path) left in
        let dr = dist_of ~agg_above (seg 1 right :: path) right in
        let pairs =
          Mpp_plan.Dist.equi_pairs ~build_rels:(Plan.output_rels left)
            ~probe_rels:(Plan.output_rels right) jp
        in
        if not (Mpp_plan.Dist.colocated pairs ~build:dl ~probe:dr) then
          emit "distribution/join-not-colocated" path
            (Printf.sprintf
               "join inputs are %s (build) and %s (probe): neither \
                co-located on the join keys, broadcast, nor gathered"
               (dist_to_string dl) (dist_to_string dr));
        Mpp_plan.Dist.join ~build:dl ~probe:dr
    | Plan.Agg { child; _ } ->
        let d = dist_of ~agg_above:true (seg 0 child :: path) child in
        if distributed d && not agg_above then
          emit "distribution/agg-distributed" path
            (Printf.sprintf
               "aggregate over %s input with no combining aggregate above: \
                per-segment partial states are never merged"
               (dist_to_string d));
        if d = Dsingleton then Dsingleton else Dany
    | Plan.Sort { child; _ } ->
        let d = dist_of ~agg_above (seg 0 child :: path) child in
        if distributed d then
          emit "distribution/sort-distributed" path
            "Sort over distributed input: per-segment order is not a total \
             order";
        d
    | Plan.Limit { child; _ } ->
        let d = dist_of ~agg_above (seg 0 child :: path) child in
        if distributed d then
          emit "distribution/limit-distributed" path
            "Limit over distributed input truncates per segment";
        d
    | Plan.Motion { kind; child } ->
        (match child with
        | Plan.Motion _ ->
            emit "distribution/motion-over-motion" path
              "Motion directly above another Motion: the inner \
               redistribution is wasted"
        | _ -> ());
        let d = dist_of ~agg_above (seg 0 child :: path) child in
        (match kind with
        | Plan.Gather -> Dsingleton
        | Plan.Gather_one ->
            if d <> Dreplicated && d <> Dsingleton then
              emit "distribution/gather-one-nonreplicated" path
                (Printf.sprintf
                   "Gather-one over %s input reads only one segment's slice"
                   (dist_to_string d));
            Dsingleton
        | Plan.Broadcast -> Dreplicated
        | Plan.Redistribute cols -> Dhashed cols)
    | Plan.Append cs -> (
        let ds =
          List.mapi (fun i c -> dist_of ~agg_above (seg i c :: path) c) cs
        in
        match ds with
        | [] -> Dsingleton
        | first :: rest ->
            if List.for_all (fun d -> d = first) rest then first else Dany)
    | Plan.Update { child; _ } | Plan.Delete { child; _ } ->
        ignore (dist_of ~agg_above (seg 0 child :: path) child);
        Dsingleton
    | Plan.Insert _ -> Dsingleton
    | Plan.Runtime_filter_build { child; _ } ->
        (* row pass-through: publishes per-segment filter state only *)
        dist_of ~agg_above (seg 0 child :: path) child
    | Plan.Runtime_filter { child; _ } ->
        (* drops rows per segment; placement is unchanged *)
        dist_of ~agg_above (seg 0 child :: path) child
  in
  let root = dist_of ~agg_above:false [ Root plan ] plan in
  if distributed root then
    emit "distribution/root-not-gathered" [ Root plan ]
      (Printf.sprintf
         "plan root emits %s rows: the master only sees one segment's slice"
         (dist_to_string root));
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass 4: partition accounting                                        *)
(* ------------------------------------------------------------------ *)

let selector_map (plan : Plan.t) :
    (int, int * Colref.t list * Expr.t option list) Hashtbl.t =
  let sels = Hashtbl.create 8 in
  ignore
    (Plan.fold
       (fun () p ->
         match p with
         | Plan.Partition_selector
             { part_scan_id; root_oid; keys; predicates; _ } ->
             if not (Hashtbl.mem sels part_scan_id) then
               Hashtbl.add sels part_scan_id (root_oid, keys, predicates)
         | _ -> ())
       () plan);
  sels

(* The partition count a DynamicScan over [root_oid] declares: the leaves
   static selection keeps under its selector's per-level predicates, or
   every leaf when they restrict nothing or the selector is missing or
   malformed (the structure pass reports those).  [None] when [root_oid]
   is not a partitioned table. *)
let expected_nparts ~catalog sels ~part_scan_id root_oid =
  Option.map
    (fun part ->
      match
        Option.bind (Hashtbl.find_opt sels part_scan_id)
          (fun (sel_root, keys, predicates) ->
            Option.bind (partitioning_of catalog sel_root) (fun sel_part ->
                Partition.select_static sel_part ~keys predicates))
      with
      | Some bits -> Bitset.cardinal bits
      | None -> Partition.nparts part)
    (partitioning_of catalog root_oid)

let accounting_pass ~catalog (plan : Plan.t) : Diag.t list =
  let diags = ref [] in
  let emit ?severity code path msg =
    diags :=
      Diag.make ?severity ~pass:Diag.Accounting ~code ~path:(render path) msg
      :: !diags
  in
  let sels = selector_map plan in
  let rec walk path (p : Plan.t) =
    (match p with
    | Plan.Dynamic_scan { part_scan_id; root_oid; ds_nparts; _ }
      when ds_nparts >= 0 -> (
        match expected_nparts ~catalog sels ~part_scan_id root_oid with
        | None ->
            emit "accounting/not-partitioned" path
              (Printf.sprintf
                 "DynamicScan %d declares %d partitions over a table that \
                  is not partitioned"
                 part_scan_id ds_nparts)
        | Some expect ->
            (* a missing selector is the structure pass's report *)
            if Hashtbl.mem sels part_scan_id && ds_nparts <> expect then
              emit "accounting/nparts-mismatch" path
                (Printf.sprintf
                   "DynamicScan %d declares %d partition(s); static \
                    selection over its selector's predicates yields %d"
                   part_scan_id ds_nparts expect))
    | Plan.Table_scan { table_oid; guard = Some id; _ } -> (
        match Hashtbl.find_opt sels id with
        | None -> ()
        | Some (sel_root, _, _) ->
            let root = Catalog.root_of catalog table_oid in
            if root <> sel_root then
              emit "accounting/guard-foreign-leaf" path
                (Printf.sprintf
                   "guarded scan of OID %d (root %d) consumes channel %d of \
                    a selector over root %d"
                   table_oid root id sel_root))
    | Plan.Append _ ->
        Option.iter (check_expansion path)
          (Expansion.of_append catalog p)
    | _ -> ());
    List.iteri (fun i c -> walk (seg i c :: path) c) (Plan.children p)
  (* An Append expansion scans each leaf once, and still contains every
     leaf that survives static selection by its own filter — otherwise a
     leaf's rows are counted twice, or a qualifying partition was dropped
     at plan time. *)
  and check_expansion path (x : Expansion.t) =
    let scanned, dups = scanned_leaves x in
    List.iter
      (fun (lf : Partition.leaf) ->
        emit "accounting/append-duplicate-leaf" path
          (Printf.sprintf "Append over %s scans leaf OID %d more than once"
             x.table.Table.name lf.leaf_oid))
      dups;
    (* an Append carrying all P distinct leaves covers any surviving set:
       skip the selection on that common shape *)
    if Bitset.cardinal scanned < Partition.nparts x.part then
      Option.iter
        (fun surviving ->
          match missing_oids x.part ~have:scanned surviving with
          | [] -> ()
          | missing ->
              emit "accounting/append-undercoverage" path
                (Printf.sprintf
                   "Append over %s drops %d statically-surviving leaf(s) \
                    (e.g. OID %d)"
                   x.table.Table.name (List.length missing) (List.hd missing)))
        (Option.bind x.filter (Expansion.select x))
  in
  walk [ Root plan ] plan;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pass 5: runtime-filter placement                                    *)
(* ------------------------------------------------------------------ *)

(* Legality of runtime join filters (builder = [Runtime_filter_build],
   consumer = [Runtime_filter], paired by [rf_id]):

   - each rf_id has exactly one builder, and builder/consumer sit on
     opposite sides of the same join: builder in the build (left) subtree,
     consumer(s) in the probe (right) subtree, so the filter is published
     before any consumer resolves the merge;
   - key arity agrees between builder and consumers (the Bloom probe is
     positional);
   - the filter never crosses a Gather above its join: past a Gather the
     stream is a singleton and the per-segment filter channel no longer
     corresponds to the rows' placement.  Crossing a Redistribute or
     Broadcast is the whole point and is fine — the filter crosses through
     the channel, not the data stream.

   Key resolution against the child layout is the schema pass's job. *)

let filters_pass ~catalog:_ (plan : Plan.t) : Diag.t list =
  let diags = ref [] in
  let emit ?severity code path msg =
    diags :=
      Diag.make ?severity ~pass:Diag.Filters ~code ~path:(render path) msg
      :: !diags
  in
  (* --- per-node checks: builder uniqueness, arity, at_motion placement --- *)
  let builder_keys : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let builder_count : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let consumers : (int * int * pseg list) list ref = ref [] in
  let rec pre ~under_send path p =
    (match p with
    | Plan.Runtime_filter_build { rf_id; keys; rows_est; _ } ->
        Hashtbl.replace builder_count rf_id
          (1 + Option.value (Hashtbl.find_opt builder_count rf_id) ~default:0);
        if not (Hashtbl.mem builder_keys rf_id) then
          Hashtbl.add builder_keys rf_id (List.length keys);
        if keys = [] then
          emit "filters/no-keys" path
            (Printf.sprintf "RuntimeFilterBuild %d has no key columns" rf_id);
        if rows_est < 0 then
          emit "filters/bad-estimate" path
            (Printf.sprintf
               "RuntimeFilterBuild %d has negative cardinality estimate %d"
               rf_id rows_est)
    | Plan.Runtime_filter { rf_id; keys; at_motion; _ } ->
        consumers := (rf_id, List.length keys, path) :: !consumers;
        if at_motion && not under_send then
          emit "filters/at-motion-misplaced" path
            (Printf.sprintf
               "RuntimeFilter %d is marked pre-Motion but no Redistribute or \
                Broadcast sits directly above it"
               rf_id)
    | _ -> ());
    let send =
      match p with
      | Plan.Motion { kind = Plan.Redistribute _ | Plan.Broadcast; _ } -> true
      (* a stack of consumers under one Motion: every filter in the chain
         still runs on the sending side, so pre-Motion marking stays valid
         through other Runtime_filters *)
      | Plan.Runtime_filter _ -> under_send
      | _ -> false
    in
    List.iteri
      (fun i c -> pre ~under_send:send (seg i c :: path) c)
      (Plan.children p)
  in
  pre ~under_send:false [ Root plan ] plan;
  Hashtbl.iter
    (fun id n ->
      if n > 1 then
        emit "filters/duplicate-builder" [ Root plan ]
          (Printf.sprintf "rf_id %d has %d RuntimeFilterBuild nodes" id n))
    builder_count;
  List.iter
    (fun (id, nkeys, path) ->
      match Hashtbl.find_opt builder_keys id with
      | Some n when n <> nkeys ->
          emit "filters/key-arity" path
            (Printf.sprintf
               "RuntimeFilter %d probes %d key(s); its builder hashes %d" id
               nkeys n)
      | _ -> ())
    !consumers;
  (* --- endpoint walk: build-side/probe-side pairing, Gather taint --- *)
  let rec walk path p : (int * ep) list =
    let own =
      match p with
      | Plan.Runtime_filter_build { rf_id; _ } -> [ (rf_id, ep_producer) ]
      | Plan.Runtime_filter { rf_id; _ } -> [ (rf_id, ep_consumer) ]
      | _ -> []
    in
    let kid_tables =
      List.mapi (fun i c -> walk (seg i c :: path) c) (Plan.children p)
    in
    match p with
    | Plan.Hash_join _ | Plan.Nl_join _ ->
        let left, right =
          match kid_tables with
          | [ l; r ] -> (l, r)
          | _ -> ([], []) (* malformed; the structure pass reports it *)
        in
        (* consumers in the build subtree execute before the builder
           publishes — the merge resolves to nothing *)
        List.iter
          (fun (id, e) ->
            if
              e.cons > 0
              && List.exists (fun (i, e') -> i = id && e'.prod > 0) right
            then
              emit "filters/consumer-on-build-side" path
                (Printf.sprintf
                   "RuntimeFilter %d sits on the build side of the join \
                    whose probe side holds its builder: it executes before \
                    the filter exists"
                   id))
          left;
        (* the legal pairing: builder left (build), consumer right (probe) *)
        let merged = merge_tables (merge_tables own left) right in
        List.filter_map
          (fun (id, e) ->
            let lb = List.exists (fun (i, e') -> i = id && e'.prod > 0) left in
            let rc = List.exists (fun (i, e') -> i = id && e'.cons > 0) right in
            if lb && rc then begin
              if e.tp || e.tc then
                emit "filters/crosses-gather" path
                  (Printf.sprintf
                     "runtime filter %d crosses a Gather between its \
                      builder and this join"
                     id);
              (* resolved here; drop the endpoint record *)
              None
            end
            else Some (id, e))
          merged
    | Plan.Motion { kind = Plan.Gather | Plan.Gather_one; _ } ->
        taint (List.fold_left merge_tables own kid_tables)
    | _ -> List.fold_left merge_tables own kid_tables
  in
  let leftover = walk [ Root plan ] plan in
  List.iter
    (fun (id, e) ->
      if e.prod > 0 && e.cons > 0 then
        emit "filters/not-across-join" [ Root plan ]
          (Printf.sprintf
             "runtime filter %d has builder and consumer on the same side \
              of every join"
             id)
      else if e.prod > 0 then
        emit ~severity:Diag.Warning "filters/unmatched-builder" [ Root plan ]
          (Printf.sprintf "RuntimeFilterBuild %d has no RuntimeFilter" id)
      else if e.cons > 0 then
        emit "filters/unmatched-consumer" [ Root plan ]
          (Printf.sprintf "RuntimeFilter %d has no RuntimeFilterBuild" id))
    leftover;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* ds_nparts stamping (the optimizer-side producer of pass 4's input)  *)
(* ------------------------------------------------------------------ *)

let stamp_nparts ~catalog (plan : Plan.t) : Plan.t =
  let sels = selector_map plan in
  let rec go p =
    match p with
    | Plan.Dynamic_scan s ->
        let nparts =
          expected_nparts ~catalog sels ~part_scan_id:s.part_scan_id s.root_oid
        in
        Plan.Dynamic_scan
          { s with ds_nparts = Option.value nparts ~default:(-1) }
    | _ -> Plan.with_children p (List.map go (Plan.children p))
  in
  go plan

(* ------------------------------------------------------------------ *)
(* Pass 6: pruning soundness                                           *)
(* ------------------------------------------------------------------ *)

module Analysis = Mpp_analysis.Analysis

(* Materialize a pseg path from a child-index path (root first).  The
   indices come from {!Analysis.pruning_sites}; an out-of-range index
   cannot happen for a path produced over the same plan, but degrade to
   the prefix rather than raise. *)
let path_of_indices plan idxs =
  let rec go node path = function
    | [] -> path
    | i :: rest -> (
        match List.nth_opt (Plan.children node) i with
        | Some c -> go c (seg i c :: path) rest
        | None -> path)
  in
  go plan [ Root plan ] idxs

(* Re-derive, independently of the optimizer, the partitions each pruning
   site's reachable predicates permit, and check the plan's static pruning
   kept a superset (over-pruning = silently missing rows = Error).  Dead
   branches and contradictory filters are plan smells, not errors: they
   are {!Mpp_analysis.Analysis.Lint}'s to report. *)
let pruning_pass ~catalog (plan : Plan.t) : Diag.t list =
  let diags = ref [] in
  let emit code path msg =
    diags :=
      Diag.make ~pass:Diag.Pruning ~code ~path:(render path) msg :: !diags
  in
  let sels = selector_map plan in
  List.iter
    (fun (s : Analysis.pruning_site) ->
      match partitioning_of catalog s.Analysis.site_root with
      | None -> ()
      | Some part -> (
          let path = path_of_indices plan s.Analysis.site_path in
          let permitted =
            Partition.Index.select_bits part.index s.Analysis.site_permitted
          in
          (* The statically selected partitions.  For a DynamicScan this is
             static selection over its selector's per-level predicates (a
             [None] predicate is runtime-only — selects everything
             statically); runtime selection can only shrink it further,
             driven by actual join values, which is sound by construction.
             A selector that restricts nothing keeps every leaf, and a
             malformed one is the structure pass's report, not ours. *)
          let selected =
            match s.Analysis.site_kind with
            | Analysis.Site_append x -> Some (fst (scanned_leaves x))
            | Analysis.Site_scan psid ->
                Option.bind (Hashtbl.find_opt sels psid)
                  (fun (_, keys, predicates) ->
                    Partition.select_static part ~keys predicates)
          in
          match selected with
          | None -> ()
          | Some selected -> (
              match missing_oids part ~have:selected permitted with
              | [] -> ()
              | missing ->
                  emit "pruning/over-pruned" path
                    (Printf.sprintf
                       "%s prunes partition(s) [%s] that its reachable \
                        predicates permit (%d selected, %d permitted)"
                       (match s.Analysis.site_kind with
                       | Analysis.Site_scan id ->
                           Printf.sprintf "DynamicScan %d" id
                       | Analysis.Site_append _ -> "Append expansion")
                       (String.concat "; " (List.map string_of_int missing))
                       (Bitset.cardinal selected) (Bitset.cardinal permitted)))))
    (Analysis.pruning_sites ~catalog plan);
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let check_pass ~catalog (pass : Diag.pass) plan =
  match pass with
  | Diag.Structure -> structure_pass ~catalog plan
  | Diag.Schema -> schema_pass ~catalog plan
  | Diag.Distribution -> distribution_pass ~catalog plan
  | Diag.Accounting -> accounting_pass ~catalog plan
  | Diag.Filters -> filters_pass ~catalog plan
  | Diag.Pruning -> pruning_pass ~catalog plan

let all_passes =
  [
    Diag.Structure; Diag.Schema; Diag.Distribution; Diag.Accounting;
    Diag.Filters; Diag.Pruning;
  ]

let check ~catalog plan =
  let obs = Obs.current () in
  Obs.span obs "verify" (fun () ->
      Obs.incr obs "verify.plans";
      let diags =
        List.concat_map (fun p -> check_pass ~catalog p plan) all_passes
      in
      Obs.add obs "verify.diagnostics" (List.length diags);
      diags)

let ok ~catalog plan = not (Diag.has_errors (check ~catalog plan))

exception Rejected of string * Diag.t list

let assert_valid ~catalog ~what plan =
  match Diag.errors (check ~catalog plan) with
  | [] -> ()
  | errs -> raise (Rejected (what, errs))

let pp_report fmt = function
  | [] -> Format.fprintf fmt "plan verifies clean@."
  | diags ->
      List.iter (fun d -> Format.fprintf fmt "%a@." Diag.pp d) diags;
      let ne = List.length (Diag.errors diags)
      and nw = List.length (Diag.warnings diags) in
      Format.fprintf fmt "%d error(s), %d warning(s)@." ne nw
