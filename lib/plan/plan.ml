(** The physical plan algebra.

    This is the operator vocabulary of paper §2.2, embedded in a conventional
    MPP executor algebra:

    - {!constructor:Dynamic_scan} — consumer: scans exactly the partitions
      whose OIDs were pushed to its [part_scan_id] channel;
    - {!constructor:Partition_selector} — producer: evaluates its per-level
      predicates (statically, or per input tuple for join-induced dynamic
      elimination) and pushes the selected OIDs;
    - {!constructor:Sequence} — runs children left to right, returns the last
      child's rows (orders a leaf selector before its scan);
    - {!constructor:Motion} — distribution enforcer; the process boundary of
      §3.1: a selector/scan pair must not be separated by one;
    - {!constructor:Append} — the legacy Planner's expansion of a partitioned
      table into an explicit list of per-partition scans.

    Join convention (matching the paper's "implicit execution order of join
    children, left to right"): the {e left} child of a join executes first —
    for a hash join it is the build side — so a PartitionSelector placed on
    the left can feed a DynamicScan on the right. *)

open Mpp_expr

type oid = Mpp_catalog.Partition.oid

type motion_kind =
  | Gather  (** collect all rows on a single host *)
  | Gather_one
      (** read a single copy of already-replicated data on the master —
          gathering replicated data with a plain Gather would duplicate it *)
  | Broadcast  (** replicate rows to every segment *)
  | Redistribute of Colref.t list  (** re-hash rows on the given columns *)

type join_kind = Inner | Left_outer | Semi

type agg_fun =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Avg of Expr.t
  | Min of Expr.t
  | Max of Expr.t

type t =
  | Table_scan of {
      rel : int;
      table_oid : oid;
      filter : Expr.t option;
      guard : int option;
          (** the legacy Planner's parameter-driven dynamic elimination: the
              scan is skipped at run time unless its OID was pushed to this
              part-scan channel.  The partition still appears in the plan —
              which is exactly why Planner plans grow with the partition
              count (paper §4.4.2). *)
    }
      (** scan of a non-partitioned table (or of one explicit leaf, when
          [table_oid] is a leaf OID — the Planner's per-partition scans) *)
  | Dynamic_scan of {
      rel : int;
      part_scan_id : int;
      root_oid : oid;
      filter : Expr.t option;
      ds_nparts : int;
          (** number of leaf partitions the optimizer expects this scan to
              open (after static pruning); [-1] = unknown / not accounted.
              The verifier's accounting pass cross-checks this against
              [Partition.select_static] on the matching selector's
              statically-analyzable predicates. *)
    }
  | Partition_selector of {
      part_scan_id : int;
      root_oid : oid;
      keys : Colref.t list;  (** partitioning-key colrefs, one per level *)
      predicates : Expr.t option list;  (** per-level selection predicates *)
      child : t option;  (** [None]: leaf selector (no input rows) *)
    }
  | Sequence of t list
  | Filter of { pred : Expr.t; child : t }
  | Project of { exprs : (string * Expr.t) list; child : t }
  | Hash_join of { kind : join_kind; pred : Expr.t; left : t; right : t }
      (** [left] = build side, executed first *)
  | Nl_join of { kind : join_kind; pred : Expr.t; left : t; right : t }
  | Agg of {
      group_by : Expr.t list;
      aggs : (string * agg_fun) list;
      child : t;
      output_rel : int;
          (** synthetic range-table index of the aggregate's output tuple
              (group keys then aggregate values); lets a final-phase
              aggregate or projection address the columns.  [-1] when the
              output is only consumed positionally at the plan root. *)
    }
  | Sort of { keys : Expr.t list; child : t }
  | Limit of { rows : int; child : t }
  | Motion of { kind : motion_kind; child : t }
  | Append of t list
  | Update of {
      rel : int;  (** range-table index of the target *)
      table_oid : oid;  (** root OID of the target table *)
      set_exprs : (int * Expr.t) list;  (** (column index, new value) *)
      child : t;
    }
  | Delete of { rel : int; table_oid : oid; child : t }
  | Insert of { table_oid : oid; rows : Expr.t list list }
      (** INSERT … VALUES: row expressions evaluated at run time (they may
          reference parameters) and routed through distribution and f_T *)
  | Runtime_filter_build of {
      rf_id : int;
      keys : Colref.t list;
          (** build-side join-key colrefs, in join-key order *)
      rows_est : int;
          (** optimizer cardinality estimate of the build side — the
              {e only} input to Bloom sizing, so every segment builds an
              identically-shaped filter *)
      child : t;
    }
      (** producer: sits on the build (left) subtree of a hash join, feeds
          every build row's key tuple into a per-segment Bloom + min-max
          filter and publishes it on channel [rf_id].  Pass-through for
          rows.  Placed {e below} the build side's Motion so the filter is
          built from pre-Motion rows and crosses the Motion boundary
          through the channel, not the data path. *)
  | Runtime_filter of {
      rf_id : int;
      keys : Colref.t list;
          (** probe-side join-key colrefs, positionally matching the
              builder's [keys] *)
      at_motion : bool;
          (** directly below a Redistribute/Broadcast send: rows dropped
              here never pay Motion cost *)
      child : t;
    }
      (** consumer: on the probe (right) subtree of the same join, drops
          rows whose key tuple fails the merged filter.  Semantically a
          no-op (Bloom filters have no false negatives; NULL keys cannot
          join) — only row counts and timings change. *)

(* Smart constructors: the common node shapes, with optional fields
   defaulted. *)
let table_scan ?filter ?guard ~rel table_oid =
  Table_scan { rel; table_oid; filter; guard }

let dynamic_scan ?filter ?(nparts = -1) ~rel ~part_scan_id root_oid =
  Dynamic_scan { rel; part_scan_id; root_oid; filter; ds_nparts = nparts }

let partition_selector ?child ~part_scan_id ~root_oid ~keys ~predicates () =
  Partition_selector { part_scan_id; root_oid; keys; predicates; child }

let filter pred child = Filter { pred; child }
let hash_join ~kind ~pred left right = Hash_join { kind; pred; left; right }
let nl_join ~kind ~pred left right = Nl_join { kind; pred; left; right }
let motion kind child = Motion { kind; child }
let agg ?(output_rel = -1) ~group_by ~aggs child =
  Agg { group_by; aggs; child; output_rel }

let runtime_filter_build ~rf_id ~keys ~rows_est child =
  Runtime_filter_build { rf_id; keys; rows_est; child }

let runtime_filter ?(at_motion = false) ~rf_id ~keys child =
  Runtime_filter { rf_id; keys; at_motion; child }

let children = function
  | Table_scan _ -> []
  | Dynamic_scan _ -> []
  | Insert _ -> []
  | Partition_selector { child = None; _ } -> []
  | Partition_selector { child = Some c; _ } -> [ c ]
  | Sequence cs | Append cs -> cs
  | Filter { child; _ }
  | Project { child; _ }
  | Agg { child; _ }
  | Sort { child; _ }
  | Limit { child; _ }
  | Motion { child; _ }
  | Update { child; _ }
  | Delete { child; _ }
  | Runtime_filter_build { child; _ }
  | Runtime_filter { child; _ } ->
      [ child ]
  | Hash_join { left; right; _ } | Nl_join { left; right; _ } ->
      [ left; right ]

(** Rebuild a node with new children (same arity as {!children} returned). *)
let with_children (p : t) (cs : t list) : t =
  match (p, cs) with
  | Table_scan _, [] | Dynamic_scan _, [] | Insert _, [] -> p
  | Partition_selector s, [] -> Partition_selector { s with child = None }
  | Partition_selector s, [ c ] -> Partition_selector { s with child = Some c }
  | Sequence _, cs -> Sequence cs
  | Append _, cs -> Append cs
  | Filter f, [ child ] -> Filter { f with child }
  | Project pr, [ child ] -> Project { pr with child }
  | Agg a, [ child ] -> Agg { a with child }
  | Sort s, [ child ] -> Sort { s with child }
  | Limit l, [ child ] -> Limit { l with child }
  | Motion m, [ child ] -> Motion { m with child }
  | Update u, [ child ] -> Update { u with child }
  | Delete d, [ child ] -> Delete { d with child }
  | Runtime_filter_build b, [ child ] -> Runtime_filter_build { b with child }
  | Runtime_filter r, [ child ] -> Runtime_filter { r with child }
  | Hash_join j, [ left; right ] -> Hash_join { j with left; right }
  | Nl_join j, [ left; right ] -> Nl_join { j with left; right }
  | _ -> invalid_arg "Plan.with_children: arity mismatch"

let rec fold f acc plan =
  List.fold_left (fold f) (f acc plan) (children plan)

(** Range-table indices whose columns appear in this subtree's output
    tuples.  Computed outputs (Agg, Project) hide the relations below. *)
let rec output_rels = function
  | Table_scan { rel; _ } | Dynamic_scan { rel; _ } -> [ rel ]
  | Agg { output_rel; _ } when output_rel >= 0 -> [ output_rel ]
  | Agg _ | Project _ -> []
  | Hash_join { kind = Semi; right; _ } | Nl_join { kind = Semi; right; _ } ->
      output_rels right
  | Hash_join { left; right; _ } | Nl_join { left; right; _ } ->
      output_rels left @ output_rels right
  | Sequence cs -> (
      match List.rev cs with [] -> [] | last :: _ -> output_rels last)
  | Append (c :: _) -> output_rels c
  | Append [] -> []
  | Partition_selector { child = None; _ } -> []
  | Partition_selector { child = Some c; _ } -> output_rels c
  | Filter { child; _ }
  | Sort { child; _ }
  | Limit { child; _ }
  | Motion { child; _ }
  | Runtime_filter_build { child; _ }
  | Runtime_filter { child; _ } ->
      output_rels child
  | Update _ | Delete _ | Insert _ -> []

(** Number of operator nodes. *)
let node_count plan = fold (fun acc _ -> acc + 1) 0 plan

(** All [part_scan_id]s of DynamicScans in the plan (guarded Table_scans
    count: they consume the same channel). *)
let dynamic_scan_ids plan =
  fold
    (fun acc p ->
      match p with
      | Dynamic_scan { part_scan_id; _ } -> part_scan_id :: acc
      | Table_scan { guard = Some id; _ } -> id :: acc
      | _ -> acc)
    [] plan
  |> List.sort_uniq Int.compare

(** All [part_scan_id]s of PartitionSelectors in the plan. *)
let selector_ids plan =
  fold
    (fun acc p ->
      match p with
      | Partition_selector { part_scan_id; _ } -> part_scan_id :: acc
      | _ -> acc)
    [] plan
  |> List.sort_uniq Int.compare

(** Does the subtree contain the DynamicScan with this id?  The paper's
    [Operator::HasPartScanId]. *)
let has_part_scan_id plan id = List.mem id (dynamic_scan_ids plan)

let join_kind_to_string = function
  | Inner -> "inner"
  | Left_outer -> "left"
  | Semi -> "semi"

let motion_kind_to_string = function
  | Gather -> "Gather Motion"
  | Gather_one -> "Gather Motion (one copy)"
  | Broadcast -> "Broadcast Motion"
  | Redistribute cols ->
      "Redistribute Motion ("
      ^ String.concat ", " (List.map Colref.to_string cols)
      ^ ")"

let agg_fun_to_string = function
  | Count_star -> "count(*)"
  | Count e -> "count(" ^ Expr.to_string e ^ ")"
  | Sum e -> "sum(" ^ Expr.to_string e ^ ")"
  | Avg e -> "avg(" ^ Expr.to_string e ^ ")"
  | Min e -> "min(" ^ Expr.to_string e ^ ")"
  | Max e -> "max(" ^ Expr.to_string e ^ ")"

let name = function
  | Table_scan _ -> "Scan"
  | Dynamic_scan _ -> "DynamicScan"
  | Partition_selector _ -> "PartitionSelector"
  | Sequence _ -> "Sequence"
  | Filter _ -> "Filter"
  | Project _ -> "Project"
  | Hash_join _ -> "HashJoin"
  | Nl_join _ -> "NLJoin"
  | Agg _ -> "Agg"
  | Sort _ -> "Sort"
  | Limit _ -> "Limit"
  | Motion _ -> "Motion"
  | Append _ -> "Append"
  | Update _ -> "Update"
  | Delete _ -> "Delete"
  | Insert _ -> "Insert"
  | Runtime_filter_build _ -> "RuntimeFilterBuild"
  | Runtime_filter _ -> "RuntimeFilter"

let describe = function
  | Table_scan { rel; table_oid; filter; guard } ->
      Printf.sprintf "Scan(rel=%d, oid=%d%s%s)" rel table_oid
        (match filter with
        | None -> ""
        | Some f -> ", filter=" ^ Expr.to_string f)
        (match guard with
        | None -> ""
        | Some id -> Printf.sprintf ", skip-unless-param(%d)" id)
  | Dynamic_scan { rel; part_scan_id; root_oid; filter; ds_nparts } ->
      Printf.sprintf "DynamicScan(%d, rel=%d, root=%d%s%s)" part_scan_id rel
        root_oid
        (if ds_nparts >= 0 then Printf.sprintf ", nparts=%d" ds_nparts else "")
        (match filter with
        | None -> ""
        | Some f -> ", filter=" ^ Expr.to_string f)
  | Partition_selector { part_scan_id; root_oid; predicates; _ } ->
      Printf.sprintf "PartitionSelector(%d, root=%d, %s)" part_scan_id root_oid
        (String.concat "; "
           (List.map
              (function None -> "Φ" | Some p -> Expr.to_string p)
              predicates))
  | Sequence _ -> "Sequence"
  | Filter { pred; _ } -> "Filter(" ^ Expr.to_string pred ^ ")"
  | Project { exprs; _ } ->
      "Project("
      ^ String.concat ", "
          (List.map (fun (n, e) -> n ^ "=" ^ Expr.to_string e) exprs)
      ^ ")"
  | Hash_join { kind; pred; _ } ->
      Printf.sprintf "HashJoin[%s](%s)" (join_kind_to_string kind)
        (Expr.to_string pred)
  | Nl_join { kind; pred; _ } ->
      Printf.sprintf "NLJoin[%s](%s)" (join_kind_to_string kind)
        (Expr.to_string pred)
  | Agg { group_by; aggs; _ } ->
      Printf.sprintf "Agg(groups=%d, %s)" (List.length group_by)
        (String.concat ", " (List.map (fun (n, a) ->
             n ^ "=" ^ agg_fun_to_string a) aggs))
  | Sort _ -> "Sort"
  | Limit { rows; _ } -> Printf.sprintf "Limit(%d)" rows
  | Motion { kind; _ } -> motion_kind_to_string kind
  | Append cs -> Printf.sprintf "Append(%d children)" (List.length cs)
  | Update { table_oid; _ } -> Printf.sprintf "Update(oid=%d)" table_oid
  | Delete { table_oid; _ } -> Printf.sprintf "Delete(oid=%d)" table_oid
  | Insert { table_oid; rows } ->
      Printf.sprintf "Insert(oid=%d, %d rows)" table_oid (List.length rows)
  | Runtime_filter_build { rf_id; keys; rows_est; _ } ->
      Printf.sprintf "RuntimeFilterBuild(%d, keys=[%s], est=%d)" rf_id
        (String.concat ", " (List.map Colref.to_string keys))
        rows_est
  | Runtime_filter { rf_id; keys; at_motion; _ } ->
      Printf.sprintf "RuntimeFilter(%d, keys=[%s]%s)" rf_id
        (String.concat ", " (List.map Colref.to_string keys))
        (if at_motion then ", pre-Motion" else "")

let rec pp fmt plan =
  let rec go indent p =
    Format.fprintf fmt "%s-> %s@," (String.make indent ' ') (describe p);
    List.iter (go (indent + 2)) (children p)
  in
  Format.fprintf fmt "@[<v>";
  go 0 plan;
  Format.fprintf fmt "@]"

and to_string plan = Format.asprintf "%a" pp plan
