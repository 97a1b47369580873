(** The PostgreSQL-style [EXPLAIN ANALYZE] renderer: {!Mpp_plan.Plan.pp}'s
    tree shape, annotated with the per-node runtime statistics collected by
    {!Exec} into a {!Node_stats.t}.

    Each line reads

    {v
    -> DynamicScan(1, rel=0, root=7) (actual rows=812 parts=3/24 time=0.41ms)
    v}

    where [rows] is the node's emitted rows summed over segments, [parts]
    is partitions actually scanned vs. the table's total leaves (scans and
    selectors only), [moved] is tuples crossing a Motion, and [time] is
    inclusive wall time.  A streamed operator (scan, filter, join probe, …)
    hands its rows to the pipeline breaker above it, so its per-row time
    shows in that breaker's [time]; its own is its opening, and a join's
    includes building its hash index.

    With a plan-time estimate array ([?est], see {!Mpp_plan.Est}) each
    node additionally reads [est=N act=M (xK off)] — the optimizer's
    cardinality estimate against the actual row count with the symmetric
    q-error factor.  Nodes whose per-segment row distribution is skewed
    beyond 2x (max over mean) are flagged with [[skew K.Kx]] — except
    nodes that are {e structurally} singleton (at or above a Gather),
    whose rows legitimately sit on one segment.  The same data exports as
    JSON for [mppsim --trace], [--stats-json] and the benchmark
    artifacts. *)

module Plan = Mpp_plan.Plan
module Est = Mpp_plan.Est

(* Per-segment skew beyond this ratio gets flagged. *)
let skew_flag_threshold = 2.0

(* A node whose output rows are structurally concentrated on the master
   segment: at or above a Gather (or a DML result row).  Reporting skew
   for these would flag every final aggregate; the interesting skew is in
   the distributed part of the plan.  Joins: a hash join's per-segment
   output is the per-segment product, so one singleton side concentrates
   the output. *)
let rec singleton (p : Plan.t) =
  match p with
  | Plan.Motion { kind = Plan.Gather | Plan.Gather_one; _ } -> true
  | Plan.Motion { kind = Plan.Broadcast | Plan.Redistribute _; _ } -> false
  | Plan.Table_scan _ | Plan.Dynamic_scan _ | Plan.Insert _ -> false
  | Plan.Update _ | Plan.Delete _ -> true
  | Plan.Partition_selector { child = None; _ } -> false
  | Plan.Partition_selector { child = Some c; _ } -> singleton c
  | Plan.Sequence cs -> (
      match List.rev cs with last :: _ -> singleton last | [] -> false)
  | Plan.Filter { child; _ }
  | Plan.Project { child; _ }
  | Plan.Agg { child; _ }
  | Plan.Sort { child; _ }
  | Plan.Limit { child; _ }
  | Plan.Runtime_filter_build { child; _ }
  | Plan.Runtime_filter { child; _ } ->
      singleton child
  | Plan.Hash_join { left; right; _ } | Plan.Nl_join { left; right; _ } ->
      singleton left || singleton right
  | Plan.Append cs -> cs <> [] && List.for_all singleton cs

(* Pre-order numbering, matching Exec's: root 0, first child id+1, siblings
   after the whole preceding subtree. *)
let annotation ?(est = Est.none) (stats : Node_stats.t) id (plan : Plan.t) =
  match Node_stats.find stats id with
  | None -> " (never executed)"
  | Some n ->
      let b = Buffer.create 48 in
      Buffer.add_string b
        (Printf.sprintf " (actual rows=%d" n.Node_stats.rows);
      (match Est.find est id with
      | Some e ->
          Buffer.add_string b
            (Printf.sprintf " est=%.0f act=%d (x%.1f off)" e n.Node_stats.rows
               (Est.error_factor ~est:e ~actual:n.Node_stats.rows))
      | None -> ());
      (match plan with
      | Plan.Dynamic_scan _ | Plan.Table_scan _ ->
          if n.Node_stats.parts_total > 0 then
            Buffer.add_string b
              (Printf.sprintf " parts=%d/%d" n.Node_stats.parts_scanned
                 n.Node_stats.parts_total)
      | Plan.Partition_selector _ ->
          Buffer.add_string b
            (Printf.sprintf " selected=%d/%d" n.Node_stats.parts_selected
               n.Node_stats.parts_total)
      | Plan.Motion _ ->
          Buffer.add_string b
            (Printf.sprintf " moved=%d" n.Node_stats.tuples_moved)
      | _ -> ());
      Buffer.add_string b
        (Printf.sprintf " time=%.2fms)" (n.Node_stats.time_s *. 1000.0));
      (* segment-skew flag: only for multi-segment runs and only on nodes
         whose rows are supposed to be spread out *)
      let skew = Node_stats.skew n in
      if
        Array.length n.Node_stats.seg_rows > 1
        && skew > skew_flag_threshold
        && not (singleton plan)
      then Buffer.add_string b (Printf.sprintf " [skew %.1fx]" skew);
      Buffer.contents b

(** Render the plan tree with per-node actual statistics appended; [?est]
    adds plan-time estimates and error factors. *)
let analyze ?est (plan : Plan.t) (stats : Node_stats.t) : string =
  let b = Buffer.create 512 in
  let rec go indent id p =
    Buffer.add_string b
      (Printf.sprintf "%s-> %s%s\n" (String.make indent ' ') (Plan.describe p)
         (annotation ?est stats id p));
    let next = ref (id + 1) in
    List.iter
      (fun c ->
        let cid = !next in
        next := cid + Plan.node_count c;
        go (indent + 2) cid c)
      (Plan.children p)
  in
  go 0 0 plan;
  Buffer.contents b

(** The same tree as a flat JSON node list (pre-order), for [--trace],
    [--stats-json] and bench artifacts. *)
let to_json ?(est = Est.none) (plan : Plan.t) (stats : Node_stats.t) :
    Mpp_obs.Json.t =
  let open Mpp_obs.Json in
  let nodes = ref [] in
  let rec go depth id p =
    let base =
      [ ("id", Int id); ("depth", Int depth); ("op", String (Plan.describe p)) ]
    in
    let actuals =
      match Node_stats.find stats id with
      | None -> [ ("executed", Bool false) ]
      | Some n ->
          [ ("rows", Int n.Node_stats.rows);
            ("time_ms", Float (n.Node_stats.time_s *. 1000.0)) ]
          @ (match Est.find est id with
            | Some e ->
                [ ("est_rows", Float e);
                  ( "est_error_factor",
                    Float (Est.error_factor ~est:e ~actual:n.Node_stats.rows)
                  ) ]
            | None -> [])
          @ (let s = Node_stats.rows_summary n in
             [ ("seg_rows_min", Int s.Node_stats.seg_min);
               ("seg_rows_max", Int s.Node_stats.seg_max);
               ("seg_rows_mean", Float s.Node_stats.seg_mean);
               ("skew", Float (Node_stats.skew n));
               ( "seg_rows",
                 List
                   (Array.to_list
                      (Array.map (fun v -> Int v) n.Node_stats.seg_rows)) );
               ( "seg_time_ms",
                 List
                   (Array.to_list
                      (Array.map
                         (fun v -> Float (v *. 1000.0))
                         n.Node_stats.seg_time_s)) ) ])
          @ (if n.Node_stats.parts_total > 0 then
               [ ("parts_scanned", Int n.Node_stats.parts_scanned);
                 ("parts_selected", Int n.Node_stats.parts_selected);
                 ("parts_total", Int n.Node_stats.parts_total) ]
             else [])
          @
          match p with
          | Plan.Motion _ -> [ ("tuples_moved", Int n.Node_stats.tuples_moved) ]
          | _ -> []
    in
    nodes := Obj (base @ actuals) :: !nodes;
    let next = ref (id + 1) in
    List.iter
      (fun c ->
        let cid = !next in
        next := cid + Plan.node_count c;
        go (depth + 1) cid c)
      (Plan.children p)
  in
  go 0 0 plan;
  List (List.rev !nodes)
