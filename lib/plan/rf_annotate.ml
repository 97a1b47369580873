(** Runtime-join-filter annotation: the shared plan rewrite both optimizers
    run after Motion insertion and selector placement.

    For each eligible [Hash_join] (equi-join with simple column keys on both
    sides), insert a [Runtime_filter_build] on the build (left) subtree —
    below the build side's Redistribute/Broadcast, so each segment builds
    over its pre-Motion slice and the filter crosses the Motion through the
    channel — and a [Runtime_filter] consumer on the probe (right) subtree,
    pushed down to the probe relation's scan (where the executor fuses it
    into the row loop) or, when the probe stream crosses a
    Redistribute/Broadcast on the way up, directly below that send so
    dropped rows never pay Motion cost.

    The rewrite never changes what the plan computes: both operators are
    semantic no-ops (the consumer only drops probe rows that cannot find a
    build match).  Whether filters actually run is the executor's
    [runtime_filters] knob, so annotated plans are byte-identical across
    the on/off configurations the benchmarks compare.

    Skip rule (DPE redundancy): when every probe key is a partitioning key
    of the probe's DynamicScan and a {e streaming} PartitionSelector
    already routes that scan (join-driven partition elimination, paper
    §2.2), the filter would re-derive exactly what the selector computes —
    the join is left unannotated.  The same applies to the legacy planner's
    guarded-Append expansion. *)

open Mpp_expr
module Table = Mpp_catalog.Table

(* Equi-join (build column, probe column) pairs of [pred]: the column =
   column subset of {!Dist.equi_pairs} — the Bloom key tuple is positional
   over raw column values on both sides. *)
let equi_col_pairs ~build_rels ~probe_rels pred =
  List.filter_map
    (function Expr.Col a, Expr.Col b -> Some (a, b) | _ -> None)
    (Dist.equi_pairs ~build_rels ~probe_rels pred)

(* part_scan_ids driven by a *streaming* selector (child = Some _): those
   DynamicScans already receive join-driven partition elimination. *)
let streaming_selector_ids plan =
  Plan.fold
    (fun acc p ->
      match p with
      | Plan.Partition_selector { part_scan_id; child = Some _; _ } ->
          part_scan_id :: acc
      | _ -> acc)
    [] plan

let part_keys_of ~catalog ~root_oid ~rel =
  match
    (Mpp_catalog.Catalog.find_oid catalog root_oid).Table.partitioning
  with
  | None -> []
  | Some _ ->
      Table.part_key_colrefs
        (Mpp_catalog.Catalog.find_oid catalog root_oid)
        ~rel

let keys_subset keys part_keys =
  keys <> []
  && List.for_all
       (fun k -> List.exists (Colref.equal k) part_keys)
       keys

(* Highest existing rf_id, so re-annotation never reuses a live id. *)
let max_rf_id plan =
  Plan.fold
    (fun acc p ->
      match p with
      | Plan.Runtime_filter_build { rf_id; _ }
      | Plan.Runtime_filter { rf_id; _ } ->
          max acc rf_id
      | _ -> acc)
    0 plan

(* Place the consumer in the probe subtree.  Descends only through
   pass-through operators (the probe relation's full layout survives), so
   wrapping at any reached point typechecks.  Returns [None] when the
   filter is redundant with streaming partition selection. *)
let place_consumer ~catalog ~streaming ~rf_id ~keys probe =
  let key_rel =
    match keys with
    | (k : Colref.t) :: rest
      when List.for_all (fun (c : Colref.t) -> c.Colref.rel = k.Colref.rel)
             rest ->
        Some k.Colref.rel
    | _ -> None
  in
  let wrap ?at_motion child = Plan.runtime_filter ?at_motion ~rf_id ~keys child in
  let rec go node =
    match key_rel with
    | None -> Some (wrap node) (* multi-relation keys: filter the join output *)
    | Some krel -> (
        match node with
        | Plan.Table_scan { rel; table_oid; guard; _ } when rel = krel ->
            (* the legacy planner's guarded leaf scan: when the guard's
               selector already routes on these keys, skip *)
            let root = Mpp_catalog.Catalog.root_of catalog table_oid in
            let part_keys = part_keys_of ~catalog ~root_oid:root ~rel in
            if guard <> None && keys_subset keys part_keys then None
            else Some (wrap node)
        | Plan.Dynamic_scan { rel; root_oid; part_scan_id; _ } when rel = krel
          ->
            let part_keys = part_keys_of ~catalog ~root_oid ~rel in
            if List.mem part_scan_id streaming && keys_subset keys part_keys
            then None (* streaming DPE already routes this scan *)
            else Some (wrap node)
        | Plan.Append _ -> (
            (* the legacy planner's expansion: when its guard's selector
               already routes on these keys, skip *)
            match Expansion.of_append catalog node with
            | Some ({ rel; guard = Some _; _ } as x)
              when rel = krel && keys_subset keys (Expansion.keys x) ->
                None
            | _ -> Some (wrap node))
        | Plan.Filter f -> Option.map (fun c -> Plan.Filter { f with child = c }) (go f.child)
        | Plan.Runtime_filter_build b ->
            Option.map
              (fun c -> Plan.Runtime_filter_build { b with child = c })
              (go b.child)
        | Plan.Runtime_filter f ->
            Option.map
              (fun c -> Plan.Runtime_filter { f with child = c })
              (go f.child)
        | Plan.Sequence cs -> (
            (* selectors first, the output child last *)
            match List.rev cs with
            | last :: before ->
                Option.map
                  (fun last' -> Plan.Sequence (List.rev (last' :: before)))
                  (go last)
            | [] -> Some (wrap node))
        | Plan.Motion { kind = (Plan.Redistribute _ | Plan.Broadcast) as kind; child }
          ->
            (* pre-Motion placement: dropped rows never pay Motion cost *)
            Some (Plan.Motion { kind; child = wrap ~at_motion:true child })
        | Plan.Motion { kind = Plan.Gather | Plan.Gather_one; _ } ->
            (* never push a filter across a Gather: filter above it *)
            Some (wrap node)
        | Plan.Hash_join j ->
            descend_join node krel
              (fun l -> Plan.Hash_join { j with left = l })
              (fun r -> Plan.Hash_join { j with right = r })
              j.left j.right
        | Plan.Nl_join j ->
            descend_join node krel
              (fun l -> Plan.Nl_join { j with left = l })
              (fun r -> Plan.Nl_join { j with right = r })
              j.left j.right
        | _ -> Some (wrap node))
  and descend_join node krel mkl mkr left right =
    let inl = List.mem krel (Plan.output_rels left)
    and inr = List.mem krel (Plan.output_rels right) in
    if inl && not inr then Option.map mkl (go left)
    else if inr && not inl then Option.map mkr (go right)
    else Some (Plan.runtime_filter ~rf_id ~keys node)
  in
  go probe

(* Place the builder on the build subtree: below the build side's top
   Redistribute/Broadcast when one exists (per-segment pre-Motion build),
   directly on top otherwise.  The builder's keys are build-side join keys,
   so they resolve in either position. *)
let place_builder ~rf_id ~keys ~rows_est build =
  match build with
  | Plan.Motion { kind = (Plan.Redistribute _ | Plan.Broadcast) as kind; child }
    ->
      Plan.Motion
        { kind; child = Plan.runtime_filter_build ~rf_id ~keys ~rows_est child }
  | p -> Plan.runtime_filter_build ~rf_id ~keys ~rows_est p

let eligible_kind = function
  | Plan.Inner | Plan.Left_outer | Plan.Semi -> true

let annotate ~catalog ~decide plan =
  let streaming = streaming_selector_ids plan in
  let next = ref (max_rf_id plan + 1) in
  let rec go p =
    (* bottom-up: inner joins annotate first; outer descents treat the
       inserted nodes as pass-through *)
    let p = Plan.with_children p (List.map go (Plan.children p)) in
    match p with
    | Plan.Hash_join { kind; pred; left; right } when eligible_kind kind -> (
        let build_rels = Plan.output_rels left
        and probe_rels = Plan.output_rels right in
        match equi_col_pairs ~build_rels ~probe_rels pred with
        | [] -> p
        | pairs -> (
            let build_keys = List.map fst pairs
            and probe_keys = List.map snd pairs in
            match decide ~build:left ~probe:right ~build_keys ~probe_keys with
            | None -> p
            | Some rows_est -> (
                let rf_id = !next in
                match
                  place_consumer ~catalog ~streaming ~rf_id ~keys:probe_keys
                    right
                with
                | None -> p
                | Some right' ->
                    incr next;
                    let left' =
                      place_builder ~rf_id ~keys:build_keys ~rows_est left
                    in
                    Plan.Hash_join { kind; pred; left = left'; right = right' }
                )))
    | p -> p
  in
  go plan
