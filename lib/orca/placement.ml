(** PartitionSelector placement — the paper's Algorithms 1–4 (§2.3), with
    the multi-level extension of §2.4.

    Input: a physical operator tree that contains [DynamicScan]s but no
    [PartitionSelector]s yet.  Output: the same tree with every selector
    placed, choosing for each unresolved scan the deepest placement that
    maximizes partition elimination:

    - predicates on the partitioning key found in [Filter] (Select) nodes are
      folded into the spec on the way down (Algorithm 3);
    - a join whose predicate constrains the partitioning key of a scan in its
      {e right} (inner) child pushes the spec into its {e left} (outer) child
      — the child that executes first — yielding join-induced {e dynamic
      partition elimination} (Algorithm 4);
    - everything else forwards specs toward the defining child, or enforces
      them on top when the scan is out of scope (Algorithm 2);
    - when a spec reaches its own [DynamicScan], it becomes a leaf selector
      ordered before the scan by a [Sequence] (Figure 5(a–c)). *)

open Mpp_expr
module Plan = Mpp_plan.Plan

let log_src = Logs.Src.create "orca.placement" ~doc:"PartitionSelector placement"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Obs = Mpp_obs.Obs

(* Result of ComputePartSelectors for one operator. *)
type routed = {
  on_top : Part_spec.t list;  (** enforced as streaming selectors above *)
  child_specs : Part_spec.t list list;  (** pushed to each child, in order *)
  at_scan : Part_spec.t list;  (** reached their own DynamicScan *)
}

let no_routing nchildren =
  { on_top = []; child_specs = List.init nchildren (fun _ -> []); at_scan = [] }

let push_to routed ~index spec =
  {
    routed with
    child_specs =
      List.mapi
        (fun i l -> if i = index then l @ [ spec ] else l)
        routed.child_specs;
  }

(* The paper's FindPredOnKey, multi-level form: one optional predicate per
   partitioning key. *)
let find_preds_on_keys keys pred = Expr.find_preds_on_keys keys pred

(* Is DynamicScan [id] reachable from [expr] without crossing a Motion?
   A selector resolved at or above [expr] drives the scan through a
   segment-local bitmap, so any Motion on the path breaks the pair (and
   the verifier rejects the plan).  Join trees built by the join-order
   search routinely put a former build side — Motion on top — under a
   later join's inner child, so this is a real routing condition, not a
   formality. *)
let rec motion_free_to_scan (expr : Plan.t) id =
  match expr with
  | Plan.Dynamic_scan { part_scan_id; _ } -> part_scan_id = id
  | Plan.Motion _ -> false
  | _ -> List.exists (fun c -> motion_free_to_scan c id) (Plan.children expr)

(* The join-DPE rule (Algorithm 4's test), shared with the memo's DPE
   costing.  The key columns of the found predicates belong to the scan
   being selected and are symbolic at selection time; every other column
   must come from the build side. *)
let join_dpe ~probe ~part_scan_id ~keys ~build_rels pred =
  let evaluable (c : Colref.t) =
    List.exists (Colref.equal c) keys || List.mem c.Colref.rel build_rels
  in
  if not (motion_free_to_scan probe part_scan_id) then None
  else
    match find_preds_on_keys keys pred with
    | Some found
      when List.for_all
             (function
               | None -> true
               | Some p -> List.for_all evaluable (Expr.free_cols p))
             found ->
        Some found
    | _ -> None

(* ComputePartSelectors — dispatch on the operator (Algorithms 2, 3, 4).
   With [eliminate = false] the Filter/Join refinements are disabled and all
   specs take the default route, yielding Φ leaf selectors that scan every
   partition — the "partition selection disabled" configuration of the
   paper's Figure 17. *)
let compute_part_selectors ~eliminate (expr : Plan.t)
    (input : Part_spec.t list) : routed =
  let nchildren = List.length (Plan.children expr) in
  let in_scope spec = Plan.has_part_scan_id expr spec.Part_spec.part_scan_id in
  let defining_child_index spec =
    let rec go i = function
      | [] -> None
      | c :: rest ->
          if Plan.has_part_scan_id c spec.Part_spec.part_scan_id then Some i
          else go (i + 1) rest
    in
    go 0 (Plan.children expr)
  in
  List.fold_left
    (fun acc spec ->
      if not (in_scope spec) then { acc with on_top = acc.on_top @ [ spec ] }
      else
        match expr with
        | Plan.Dynamic_scan { part_scan_id; filter; _ }
          when part_scan_id = spec.Part_spec.part_scan_id ->
            (* The scan's own residual qual is a Select in disguise: harvest
               partition-filtering conjuncts from it too (Algorithm 3). *)
            let spec =
              match filter with
              | Some f when eliminate -> (
                  match find_preds_on_keys spec.Part_spec.keys f with
                  | Some found -> Part_spec.add_predicates spec found
                  | None -> spec)
              | _ -> spec
            in
            { acc with at_scan = acc.at_scan @ [ spec ] }
        | Plan.Filter { pred; _ } when eliminate -> (
            (* Algorithm 3: fold partition-filtering conjuncts into the
               spec before pushing it to the child. *)
            match find_preds_on_keys spec.Part_spec.keys pred with
            | Some found ->
                Obs.incr (Obs.current ()) "placement.filter_folds";
                Log.debug (fun m ->
                    m "Select: folding predicate into spec %a" Part_spec.pp
                      spec);
                push_to acc ~index:0
                  (Part_spec.add_predicates spec found)
            | None -> push_to acc ~index:0 spec)
        | ( Plan.Hash_join { pred; left; right; _ }
          | Plan.Nl_join { pred; left; right; _ } )
          when eliminate -> (
            (* Algorithm 4. *)
            let defined_in_outer =
              Plan.has_part_scan_id left spec.Part_spec.part_scan_id
            in
            if defined_in_outer then push_to acc ~index:0 spec
            else
              (* in scope and not in the outer child: the scan is in the
                 inner child; the streaming selector would sit above the
                 outer one *)
              match
                join_dpe ~probe:right ~part_scan_id:spec.Part_spec.part_scan_id
                  ~keys:spec.Part_spec.keys
                  ~build_rels:(Plan.output_rels left) pred
              with
              | Some found ->
                  (* the join predicate constrains the partitioning key and
                     the outer child can evaluate it: dynamic partition
                     elimination — push the spec to the opposite side *)
                  Obs.incr (Obs.current ()) "placement.dpe_pushes";
                  Log.debug (fun m ->
                      m "Join: dynamic partition elimination for %a"
                        Part_spec.pp spec);
                  push_to acc ~index:0
                    (Part_spec.add_predicates spec found)
              | _ ->
                  (* resolve close to where the DynamicScan is defined *)
                  push_to acc ~index:1 spec)
        | _ -> (
            (* Algorithm 2: default — forward to the defining child. *)
            match defining_child_index spec with
            | Some i -> push_to acc ~index:i spec
            | None -> { acc with on_top = acc.on_top @ [ spec ] }))
    (no_routing nchildren) input

(* EnforcePartSelectors: wrap [expr] in streaming selectors for [on_top]. *)
let enforce_part_selectors on_top expr =
  List.fold_left
    (fun e (spec : Part_spec.t) ->
      Obs.incr (Obs.current ()) "placement.selectors_on_top";
      Plan.partition_selector ~child:e ~part_scan_id:spec.part_scan_id
        ~root_oid:spec.root_oid ~keys:spec.keys ~predicates:spec.predicates ())
    expr on_top

(* A leaf selector ordered before its DynamicScan (Figure 5(a–c)). *)
let enforce_at_scan at_scan scan =
  match at_scan with
  | [] -> scan
  | specs ->
      Plan.Sequence
        (List.map
           (fun (spec : Part_spec.t) ->
             Obs.incr (Obs.current ()) "placement.selectors_at_scan";
             Plan.partition_selector ~part_scan_id:spec.part_scan_id
               ~root_oid:spec.root_oid ~keys:spec.keys
               ~predicates:spec.predicates ())
           specs
        @ [ scan ])

(** Algorithm 1: place all PartitionSelectors described by
    [input_part_selectors] in [expr]. *)
let rec place_part_selectors ?(eliminate = true) (input : Part_spec.t list)
    (expr : Plan.t) : Plan.t =
  let routed = compute_part_selectors ~eliminate expr input in
  let new_children =
    List.map2
      (place_part_selectors ~eliminate)
      routed.child_specs (Plan.children expr)
  in
  let rebuilt = Plan.with_children expr new_children in
  let rebuilt = enforce_at_scan routed.at_scan rebuilt in
  enforce_part_selectors routed.on_top rebuilt

(** Initial specs: one per unresolved DynamicScan in the tree, with no
    predicates yet. *)
let initial_specs ~catalog (plan : Plan.t) : Part_spec.t list =
  let resolved = Plan.selector_ids plan in
  Plan.fold
    (fun acc p ->
      match p with
      | Plan.Dynamic_scan { rel; part_scan_id; root_oid; _ }
        when not (List.mem part_scan_id resolved) ->
          let table = Mpp_catalog.Catalog.find_oid catalog root_oid in
          let keys = Mpp_catalog.Table.part_key_colrefs table ~rel in
          Part_spec.initial ~part_scan_id ~root_oid ~keys :: acc
      | _ -> acc)
    [] plan
  |> List.rev

(** End-to-end placement pass: derive the specs and run Algorithm 1.
    [eliminate:false] places Φ selectors only (no partition elimination). *)
let place ?(eliminate = true) ~catalog (plan : Plan.t) : Plan.t =
  place_part_selectors ~eliminate (initial_specs ~catalog plan) plan
