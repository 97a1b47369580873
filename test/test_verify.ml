(** Mutation-kill harness for the plan verifier.

    Two directions:

    - {b soundness}: every plan either optimizer produces for the full
      evaluation workload — and for hundreds of fuzz-generated queries over
      the same schema — verifies with zero diagnostics;
    - {b sensitivity}: ~30 systematic corruptions of real plans (dropped
      selectors, reordered Sequences, skewed column offsets, stripped
      Motions, miscounted partitions, broken runtime-filter pairings, …)
      are each rejected with the expected diagnostic code.

    Together these pin the verifier to the executor's actual contract: it
    accepts exactly what the optimizers emit and kills every mutant. *)

module W = Mpp_workload
module Plan = Mpp_plan.Plan
module Verify = Mpp_verify.Verify
module Diag = Mpp_verify.Diag
module Cat = Mpp_catalog.Catalog
open Mpp_expr

let env = lazy (W.Runner.setup_env ~scale:1 ~nsegments:4 ())
let catalog () = (Lazy.force env).W.Runner.catalog

let plan_for kind name =
  W.Runner.optimize_with (Lazy.force env) kind (W.Queries.find name)

let adhoc kind sql =
  W.Runner.optimize_with (Lazy.force env) kind
    (W.Queries.q "adhoc" W.Queries.Equal sql)

let oid_of name = (Cat.find (catalog ()) name).Mpp_catalog.Table.oid

let ss_part_key rel =
  let t = Cat.find (catalog ()) "store_sales" in
  List.hd (Mpp_catalog.Table.part_key_colrefs t ~rel)

(* ------------------------------------------------------------------ *)
(* Rewriting combinators                                               *)
(* ------------------------------------------------------------------ *)

(* Apply [f] to the first (pre-order) node it matches; fail the test if
   the mutation found nothing to corrupt — a silently-unapplied mutation
   would make the kill vacuous. *)
let once f plan =
  let hit = ref false in
  let rec go p =
    if !hit then p
    else
      match f p with
      | Some q ->
          hit := true;
          q
      | None -> Plan.with_children p (List.map go (Plan.children p))
  in
  let p' = go plan in
  if not !hit then Alcotest.fail "mutation did not apply to the base plan";
  p'

let is_selector = function Plan.Partition_selector _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Base plans (real optimizer output)                                  *)
(* ------------------------------------------------------------------ *)

(* Orca, static selection: Agg → Gather → Agg → Sequence[Selector; DynScan] *)
let static_orca () = plan_for W.Runner.Orca "ss_static_month"

(* Planner, static exclusion: Agg → Gather → Append[Scan × 3] *)
let static_planner () = plan_for W.Runner.Legacy_planner "ss_static_quarter"

(* Orca, join-driven DPE: HashJoin(Selector(dim scan), DynScan) *)
let dpe_orca () = plan_for W.Runner.Orca "ss_datedim_august"

(* Planner DPE: Selector feeding guarded per-leaf scans under an Append *)
let dpe_planner () = plan_for W.Runner.Legacy_planner "ss_datedim_august"

(* Orca, no aggregate: the plan root is the Gather itself *)
let select_orca () =
  adhoc W.Runner.Orca
    "SELECT ss_price FROM store_sales WHERE ss_sold_date >= '2013-06-01'"

(* Orca, runtime-join-filter annotation: HashJoin with a
   RuntimeFilterBuild on the (selective dimension) build side and a
   RuntimeFilter pushed to the fact scan on the probe side *)
let rf_orca () = plan_for W.Runner.Orca "ss_customer_rf_scan"

(* ------------------------------------------------------------------ *)
(* The mutations                                                       *)
(* ------------------------------------------------------------------ *)

let mutations :
    (string * string * (unit -> Plan.t)) list =
  [
    ( "drop selector",
      "structure/unmatched-scan",
      fun () ->
        once
          (function
            | Plan.Sequence cs when List.exists is_selector cs ->
                Some
                  (Plan.Sequence
                     (List.filter (fun c -> not (is_selector c)) cs))
            | _ -> None)
          (static_orca ()) );
    ( "dynamic scan demoted to table scan",
      "structure/unmatched-selector",
      fun () ->
        once
          (function
            | Plan.Dynamic_scan { rel; root_oid; filter; _ } ->
                Some
                  (Plan.Table_scan
                     { rel; table_oid = root_oid; filter; guard = None })
            | _ -> None)
          (static_orca ()) );
    ( "sequence children reversed",
      "structure/consumer-before-producer",
      fun () ->
        once
          (function
            | Plan.Sequence cs when List.exists is_selector cs ->
                Some (Plan.Sequence (List.rev cs))
            | _ -> None)
          (static_orca ()) );
    ( "join children swapped",
      "structure/consumer-before-producer",
      fun () ->
        once
          (function
            | Plan.Hash_join ({ left; right; _ } as j) ->
                Some (Plan.Hash_join { j with left = right; right = left })
            | _ -> None)
          (dpe_orca ()) );
    ( "motion inserted inside a selector/scan pair",
      "structure/motion-between-pair",
      fun () ->
        once
          (function
            | Plan.Dynamic_scan _ as ds ->
                Some (Plan.motion Plan.Broadcast ds)
            | _ -> None)
          (static_orca ()) );
    ( "motion inserted under the DPE probe-side scan",
      "structure/motion-between-pair",
      fun () ->
        once
          (function
            | Plan.Dynamic_scan { rel; _ } as ds ->
                Some (Plan.motion (Plan.Redistribute [ ss_part_key rel ]) ds)
            | _ -> None)
          (dpe_orca ()) );
    ( "duplicated selector",
      "structure/duplicate-selector",
      fun () ->
        once
          (function
            | Plan.Sequence cs -> (
                match List.find_opt is_selector cs with
                | Some s -> Some (Plan.Sequence (s :: cs))
                | None -> None)
            | _ -> None)
          (static_orca ()) );
    ( "selector retargeted at another table",
      "structure/root-oid-mismatch",
      fun () ->
        once
          (function
            | Plan.Partition_selector s ->
                Some
                  (Plan.Partition_selector
                     { s with root_oid = oid_of "web_sales" })
            | _ -> None)
          (static_orca ()) );
    ( "per-level predicate list emptied",
      "structure/selector-arity",
      fun () ->
        once
          (function
            | Plan.Partition_selector ({ predicates = _ :: _; _ } as s) ->
                Some (Plan.Partition_selector { s with predicates = [] })
            | _ -> None)
          (static_orca ()) );
    ( "column offset skewed out of range",
      "schema/unresolved-column",
      fun () ->
        once
          (function
            | Plan.Dynamic_scan ({ filter = Some f; _ } as s) ->
                Some
                  (Plan.Dynamic_scan
                     { s with
                       filter =
                         Some
                           (Expr.map
                              (function
                                | Expr.Col c ->
                                    Expr.Col
                                      { c with Colref.index = c.Colref.index + 57 }
                                | e -> e)
                              f) })
            | _ -> None)
          (static_orca ()) );
    ( "comparison constant of the wrong class",
      "schema/cmp-incompatible",
      fun () ->
        once
          (function
            | Plan.Dynamic_scan ({ filter = Some f; _ } as s) ->
                Some
                  (Plan.Dynamic_scan
                     { s with
                       filter =
                         Some
                           (Expr.map
                              (function
                                | Expr.Const (Value.Date _) ->
                                    Expr.Const (Value.String "oops")
                                | e -> e)
                              f) })
            | _ -> None)
          (static_orca ()) );
    ( "scan relation index retargeted",
      "schema/unresolved-column",
      fun () ->
        once
          (function
            | Plan.Dynamic_scan ({ filter = Some _; _ } as s) ->
                Some (Plan.Dynamic_scan { s with rel = s.rel + 40 })
            | _ -> None)
          (static_orca ()) );
    ( "append child with a different layout",
      "schema/append-mismatch",
      fun () ->
        once
          (function
            | Plan.Append (c0 :: rest) when rest <> [] ->
                Some
                  (Plan.Append
                     (Plan.Project
                        { exprs = [ ("x", Expr.int 0) ]; child = c0 }
                     :: rest))
            | _ -> None)
          (static_planner ()) );
    ( "statically-surviving leaf dropped from an Append",
      "accounting/append-undercoverage",
      fun () ->
        once
          (function
            | Plan.Append (c0 :: rest)
              when rest <> []
                   && List.for_all
                        (function Plan.Table_scan _ -> true | _ -> false)
                        (c0 :: rest) ->
                Some (Plan.Append rest)
            | _ -> None)
          (static_planner ()) );
    ( "surviving leaf scanned twice by the Append",
      "accounting/append-duplicate-leaf",
      fun () ->
        (* one month survives constraint exclusion; listing its scan twice
           doubles the count *)
        once
          (function
            | Plan.Append [ (Plan.Table_scan _ as c) ] ->
                Some (Plan.Append [ c; c ])
            | _ -> None)
          (plan_for W.Runner.Legacy_planner "ss_static_month") );
    ( "guarded leaf of a foreign table",
      "accounting/guard-foreign-leaf",
      fun () ->
        once
          (function
            | Plan.Table_scan ({ guard = Some _; _ } as s) ->
                Some
                  (Plan.Table_scan { s with table_oid = oid_of "date_dim" })
            | _ -> None)
          (dpe_planner ()) );
    ( "declared partition count off by one",
      "accounting/nparts-mismatch",
      fun () ->
        once
          (function
            | Plan.Dynamic_scan ({ ds_nparts; _ } as s) when ds_nparts >= 0 ->
                Some (Plan.Dynamic_scan { s with ds_nparts = ds_nparts + 1 })
            | _ -> None)
          (static_orca ()) );
    ( "dynamic scan over an unpartitioned table",
      "accounting/not-partitioned",
      fun () ->
        once
          (function
            | Plan.Dynamic_scan ({ ds_nparts; _ } as s) when ds_nparts >= 0 ->
                Some
                  (Plan.Dynamic_scan { s with root_oid = oid_of "date_dim" })
            | _ -> None)
          (static_orca ()) );
    ( "root gather stripped",
      "distribution/root-not-gathered",
      fun () ->
        once
          (function
            | Plan.Motion { kind = Plan.Gather; child } -> Some child
            | _ -> None)
          (select_orca ()) );
    ( "gather-one over hash-distributed rows",
      "distribution/gather-one-nonreplicated",
      fun () ->
        once
          (function
            | Plan.Motion { kind = Plan.Gather; child } ->
                Some (Plan.motion Plan.Gather_one child)
            | _ -> None)
          (select_orca ()) );
    ( "motion stacked on motion",
      "distribution/motion-over-motion",
      fun () -> Plan.motion Plan.Gather (select_orca ()) );
    ( "co-location broken by a stray redistribute",
      "distribution/join-not-colocated",
      fun () ->
        once
          (function
            | Plan.Table_scan ({ rel = 0; _ } as s) ->
                Some
                  (Plan.motion
                     (Plan.Redistribute
                        [ Colref.make ~rel:0 ~index:1 ~name:"d_date_id"
                            ~dtype:Value.Tint ])
                     (Plan.Table_scan s))
            | _ -> None)
          (dpe_orca ()) );
    ( "gather between partial and final aggregate removed",
      "distribution/agg-distributed",
      fun () ->
        once
          (function
            | Plan.Agg
                ({ child = Plan.Motion { kind = Plan.Gather; child = c }; _ }
                 as a) ->
                Some (Plan.Agg { a with child = c })
            | _ -> None)
          (static_orca ()) );
    ( "insert row with the wrong arity",
      "schema/insert-arity",
      fun () ->
        Plan.Insert
          { table_oid = oid_of "store_sales"; rows = [ [ Expr.int 1 ] ] } );
    ( "delete whose target is not in the child output",
      "schema/dml-target-missing",
      fun () ->
        let ss = oid_of "store_sales" in
        Plan.Delete
          { rel = 5; table_oid = ss; child = Plan.table_scan ~rel:0 ss } );
    (* ---- runtime-join-filter corruptions (the fifth pass) ---- *)
    ( "filter builder dropped",
      "filters/unmatched-consumer",
      fun () ->
        once
          (function
            | Plan.Runtime_filter_build { child; _ } -> Some child
            | _ -> None)
          (rf_orca ()) );
    ( "filter builder duplicated",
      "filters/duplicate-builder",
      fun () ->
        once
          (function
            | Plan.Runtime_filter_build { rf_id; keys; rows_est; _ } as b ->
                Some (Plan.runtime_filter_build ~rf_id ~keys ~rows_est b)
            | _ -> None)
          (rf_orca ()) );
    ( "consumer key arity diverges from its builder",
      "filters/key-arity",
      fun () ->
        once
          (function
            | Plan.Runtime_filter ({ keys = k :: _; _ } as f) ->
                Some (Plan.Runtime_filter { f with keys = [ k; k ] })
            | _ -> None)
          (rf_orca ()) );
    ( "filter endpoints on the wrong join sides",
      "filters/consumer-on-build-side",
      fun () ->
        once
          (function
            | Plan.Hash_join ({ left = Plan.Runtime_filter_build _; _ } as j)
              ->
                Some
                  (Plan.Hash_join { j with left = j.right; right = j.left })
            | _ -> None)
          (rf_orca ()) );
    ( "at_motion claimed without a send above",
      "filters/at-motion-misplaced",
      fun () ->
        once
          (function
            | Plan.Runtime_filter ({ at_motion = false; _ } as f) ->
                Some (Plan.Runtime_filter { f with at_motion = true })
            | _ -> None)
          (rf_orca ()) );
    ( "gather inserted between consumer and join",
      "filters/crosses-gather",
      fun () ->
        once
          (function
            | Plan.Runtime_filter _ as f -> Some (Plan.motion Plan.Gather f)
            | _ -> None)
          (rf_orca ()) );
    ( "builder with no key columns",
      "filters/no-keys",
      fun () ->
        once
          (function
            | Plan.Runtime_filter_build ({ keys = _ :: _; _ } as b) ->
                Some (Plan.Runtime_filter_build { b with keys = [] })
            | _ -> None)
          (rf_orca ()) );
    ( "builder with a negative cardinality estimate",
      "filters/bad-estimate",
      fun () ->
        once
          (function
            | Plan.Runtime_filter_build ({ rows_est; _ } as b)
              when rows_est >= 0 ->
                Some (Plan.Runtime_filter_build { b with rows_est = -1 })
            | _ -> None)
          (rf_orca ()) );
    (* --- pass 6: pruning soundness --- *)
    ( "selector predicate shifted to another month",
      "pruning/over-pruned",
      fun () ->
        (* the DynScan's filter still asks for June; a selector that
           statically selects only August has over-pruned *)
        once
          (function
            | Plan.Partition_selector
                ({ keys = k :: _; predicates = _ :: _; _ } as s) ->
                Some
                  (Plan.Partition_selector
                     { s with
                       predicates =
                         [ Some
                             (Expr.ge (Expr.col k) (Expr.date "2013-08-01"))
                         ] })
            | _ -> None)
          (static_orca ()) );
    ( "selector predicate made unsatisfiable",
      "pruning/over-pruned",
      fun () ->
        once
          (function
            | Plan.Partition_selector
                ({ keys = k :: _; predicates = _ :: _; _ } as s) ->
                Some
                  (Plan.Partition_selector
                     { s with
                       predicates =
                         [ Some
                             (Expr.lt (Expr.col k) (Expr.date "2011-01-01"))
                         ] })
            | _ -> None)
          (static_orca ()) );
    ( "streaming join selector narrowed to a static point",
      "pruning/over-pruned",
      fun () ->
        (* the join's runtime selection is sound because it is driven by
           actual dimension values; freezing it into a static equality the
           reachable predicates do not imply is not *)
        once
          (function
            | Plan.Partition_selector
                ({ keys = k :: _; predicates = _ :: _; _ } as s) ->
                Some
                  (Plan.Partition_selector
                     { s with
                       predicates =
                         [ Some
                             (Expr.eq (Expr.col k) (Expr.date "2011-02-15"))
                         ] })
            | _ -> None)
          (dpe_orca ()) );
    ( "scan filter silently widened past the selection",
      "pruning/over-pruned",
      fun () ->
        (* shift the DynScan's date range ~2 months; the selector still
           selects June only, excluding partitions the filter permits *)
        once
          (function
            | Plan.Dynamic_scan ({ filter = Some f; _ } as s) ->
                Some
                  (Plan.Dynamic_scan
                     { s with
                       filter =
                         Some
                           (Expr.map
                              (function
                                | Expr.Const (Value.Date d) ->
                                    Expr.Const
                                      (Value.Date (Date.add_days d 62))
                                | e -> e)
                              f) })
            | _ -> None)
          (static_orca ()) );
    ( "static-exclusion survivor dropped from the Append",
      "pruning/over-pruned",
      fun () ->
        once
          (function
            | Plan.Append (Plan.Table_scan _ :: rest) when rest <> [] ->
                Some (Plan.Append rest)
            | _ -> None)
          (static_planner ()) );
    ( "all but one survivor dropped from the Append",
      "pruning/over-pruned",
      fun () ->
        once
          (function
            | Plan.Append ((Plan.Table_scan _ :: _ :: _) as cs) ->
                Some (Plan.Append [ List.hd cs ])
            | _ -> None)
          (static_planner ()) );
    ( "surviving Append child's filter stamped false",
      "pruning/over-pruned",
      fun () ->
        once
          (function
            | Plan.Append (Plan.Table_scan ({ filter = Some f; _ } as s) :: rest)
              when (not (Expr.equal f Expr.false_)) && rest <> [] ->
                Some
                  (Plan.Append
                     (Plan.Table_scan { s with filter = Some Expr.false_ }
                     :: rest))
            | _ -> None)
          (static_planner ()) );
    ( "statically-empty shape with the proving filter removed",
      "pruning/over-pruned",
      fun () ->
        (* PR-4's single-false-leaf Append is sanctioned only while the
           literal false is there; without it the plan just reads one of 36
           permitted partitions *)
        once
          (function
            | Plan.Table_scan ({ filter = Some f; _ } as s)
              when Expr.equal f Expr.false_ ->
                Some (Plan.Table_scan { s with filter = None })
            | _ -> None)
          (adhoc W.Runner.Legacy_planner
             "SELECT count(*) FROM store_sales WHERE ss_sold_date < \
              '2010-01-01'") );
  ]

let test_mutations_killed () =
  List.iter
    (fun (name, code, build) ->
      let mutated = build () in
      let diags = Verify.check ~catalog:(catalog ()) mutated in
      Alcotest.(check bool)
        (Printf.sprintf "%s: rejected" name)
        true (Diag.has_errors diags);
      Alcotest.(check bool)
        (Printf.sprintf "%s: flagged as %s (got: %s)" name code
           (String.concat "; " (List.map Diag.to_string diags)))
        true (Diag.has_code code diags))
    mutations

(* Statically-dead Append branches and contradictory filters do not make
   the plan wrong — they make it do provably-useless work — so the
   verifier accepts them and the linter (which [mppsim check] runs on
   every plan it verifies) reports them. *)
let test_pruning_warnings () =
  let lint_codes p =
    List.map
      (fun (f : Mpp_analysis.Analysis.Lint.finding) -> f.code)
      (Mpp_analysis.Analysis.Lint.plan ~catalog:(catalog ()) p)
  in
  let dead_child =
    once
      (function
        | Plan.Append
            (Plan.Table_scan ({ rel; filter = Some f; _ } as s) :: rest)
          when (not (Expr.equal f Expr.false_)) && rest <> [] ->
            let k = ss_part_key rel in
            Some
              (Plan.Append
                 (Plan.Table_scan
                    { s with
                      filter =
                        Some (Expr.lt (Expr.col k) (Expr.date "2011-01-01"))
                    }
                 :: rest))
        | _ -> None)
      (static_planner ())
  in
  Alcotest.(check bool) "dead Append child linted" true
    (List.mem "lint/dead-branch" (lint_codes dead_child));
  Alcotest.(check bool) "dead Append child is not an error" true
    (Diag.errors (Verify.check ~catalog:(catalog ()) dead_child) = []);
  let contradictory =
    once
      (function
        | Plan.Dynamic_scan ({ rel; filter = Some f; _ } as s) ->
            let k = ss_part_key rel in
            Some
              (Plan.Dynamic_scan
                 { s with
                   filter =
                     Some
                       (Expr.conj
                          [ f;
                            Expr.lt (Expr.col k) (Expr.date "2011-01-01")
                          ])
                 })
        | _ -> None)
      (static_orca ())
  in
  Alcotest.(check bool) "contradictory DynamicScan filter linted" true
    (List.mem "lint/contradiction" (lint_codes contradictory));
  Alcotest.(check bool) "contradictory filter is not an error" true
    (Diag.errors (Verify.check ~catalog:(catalog ()) contradictory) = [])

(* A multi-key join is co-located only when the hash columns pair up
   position by position: t1 hashed on [a] and t2 on [y] do not co-locate
   [a = x AND b = y] even though each side is hashed on one of its keys. *)
let test_mispaired_hash_keys () =
  let catalog = Cat.create () in
  let add name cols hashed =
    Cat.add_table catalog ~name
      ~columns:(List.map (fun c -> (c, Value.Tint)) cols)
      ~distribution:(Mpp_catalog.Distribution.Hashed [ hashed ]) ()
  in
  let t1 = add "t1" [ "a"; "b" ] 0 and t2 = add "t2" [ "x"; "y" ] 1 in
  let col t rel c = Expr.col (Mpp_catalog.Table.colref t ~rel c) in
  let plan =
    Plan.motion Plan.Gather
      (Plan.hash_join ~kind:Plan.Inner
         ~pred:
           (Expr.conj
              [ Expr.eq (col t1 0 "a") (col t2 1 "x");
                Expr.eq (col t1 0 "b") (col t2 1 "y") ])
         (Plan.table_scan ~rel:0 t1.Mpp_catalog.Table.oid)
         (Plan.table_scan ~rel:1 t2.Mpp_catalog.Table.oid))
  in
  Alcotest.(check bool) "join-not-colocated" true
    (Diag.has_code "distribution/join-not-colocated"
       (Verify.check ~catalog plan))

let test_assert_valid_raises () =
  let _, _, build = List.hd mutations in
  match Verify.assert_valid ~catalog:(catalog ()) ~what:"mutant" (build ()) with
  | () -> Alcotest.fail "assert_valid accepted a corrupt plan"
  | exception Verify.Rejected (what, errs) ->
      Alcotest.(check string) "what" "mutant" what;
      Alcotest.(check bool) "errors nonempty" true (errs <> [])

(* ------------------------------------------------------------------ *)
(* Soundness: real plans verify clean                                  *)
(* ------------------------------------------------------------------ *)

let test_workload_plans_clean () =
  List.iter
    (fun (qu : W.Queries.query) ->
      List.iter
        (fun (kname, kind) ->
          let plan = W.Runner.optimize_with (Lazy.force env) kind qu in
          let diags = Verify.check ~catalog:(catalog ()) plan in
          Alcotest.(check (list string))
            (Printf.sprintf "%s [%s]" qu.W.Queries.name kname)
            []
            (List.map Diag.to_string diags))
        [ ("orca", W.Runner.Orca); ("planner", W.Runner.Legacy_planner) ])
    W.Queries.all

let test_stamped_nparts_present () =
  (* the optimizer stamps a concrete partition count on statically
     analyzable scans, and the accounting pass agrees with it *)
  let plan = static_orca () in
  let found = ref false in
  ignore
    (Plan.fold
       (fun () p ->
         match p with
         | Plan.Dynamic_scan { ds_nparts; _ } ->
             found := true;
             Alcotest.(check bool) "nparts stamped" true (ds_nparts >= 0)
         | _ -> ())
       () plan);
  Alcotest.(check bool) "plan has a DynamicScan" true !found

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i =
    if i + n > m then false
    else if String.sub s i n = sub then true
    else go (i + 1)
  in
  go 0

let test_pp_report_clean () =
  let report = Format.asprintf "%a" Verify.pp_report [] in
  Alcotest.(check bool) "mentions clean" true (contains report "clean");
  let one =
    [ Diag.make ~pass:Diag.Structure ~code:"structure/unmatched-scan"
        ~path:"Motion/0.Agg" "DynamicScan 7 has no PartitionSelector" ]
  in
  let report = Format.asprintf "%a" Verify.pp_report one in
  Alcotest.(check bool) "mentions code" true
    (contains report "structure/unmatched-scan");
  Alcotest.(check bool) "counts errors" true (contains report "1 error(s)")

(* Figure-12 shapes the structure pass must accept, each pinned to a real
   plan that has it so the acceptance is not vacuous. *)
let selector_pairs p =
  List.filter (Plan.has_part_scan_id p) (Plan.selector_ids p)

let guarded_scans id p =
  Plan.fold
    (fun n q ->
      match q with
      | Plan.Table_scan { guard = Some g; _ } when g = id -> n + 1
      | _ -> n)
    0 p

let accepted_shapes : (string * (Plan.t -> bool) * (unit -> Plan.t)) list =
  [ ( "selector and scan in one Sequence",
      Plan.fold
        (fun acc q ->
          acc
          ||
          match q with Plan.Sequence _ -> selector_pairs q <> [] | _ -> false)
        false,
      static_orca );
    ( "selector on the build side, scan on the probe side",
      Plan.fold
        (fun acc q ->
          acc
          ||
          match q with
          | Plan.Hash_join { left; right; _ } ->
              List.exists (Plan.has_part_scan_id right) (Plan.selector_ids left)
          | _ -> false)
        false,
      dpe_orca );
    ( "Motion above a whole selector/scan pair",
      Plan.fold
        (fun acc q ->
          acc
          ||
          match q with
          | Plan.Motion { child; _ } -> selector_pairs child <> []
          | _ -> false)
        false,
      static_orca );
    ( "several guarded scans consuming one selector",
      (fun p ->
        List.exists (fun id -> guarded_scans id p >= 2) (Plan.selector_ids p)),
      dpe_planner ) ]

let test_accepted_shapes () =
  List.iter
    (fun (name, has_shape, build) ->
      let plan = build () in
      Alcotest.(check bool) (name ^ ": present in the base plan") true
        (has_shape plan);
      Alcotest.(check (list string)) (name ^ ": verifies clean") []
        (List.map Diag.to_string (Verify.check ~catalog:(catalog ()) plan)))
    accepted_shapes

(* ------------------------------------------------------------------ *)
(* Fuzz: random queries over the demo schema, both optimizers          *)
(* ------------------------------------------------------------------ *)

(* A small SQL grammar over the TPC-DS demo schema: per-fact-table
   aggregates with random date/key ranges, star joins against [date_dim]
   and [item], GROUP BYs.  Every generated query exercises partition
   selection machinery in at least one optimizer. *)
let sql_gen : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let date_facts =
    [ ("store_sales", "ss_sold_date", "ss_price", "ss_item");
      ("catalog_sales", "cs_sold_date", "cs_price", "cs_item");
      ("store_returns", "sr_returned_date", "sr_qty", "sr_item");
      ("web_returns", "wr_returned_date", "wr_qty", "wr_item");
      ("catalog_returns", "cr_returned_date", "cr_qty", "cr_item");
      ("inventory", "inv_date", "inv_qty", "inv_item") ]
  in
  let date_lit =
    map2
      (fun y m -> Printf.sprintf "'%04d-%02d-01'" (2011 + y) (1 + m))
      (int_range 0 2) (int_range 0 11)
  in
  let agg =
    oneofl
      [ (fun _ -> "count(*)");
        (fun m -> "sum(" ^ m ^ ")");
        (fun m -> "avg(" ^ m ^ ")");
        (fun m -> "min(" ^ m ^ ")");
        (fun m -> "max(" ^ m ^ ")") ]
  in
  let render_agg a measure = a measure in
  let static_q =
    let* t, dcol, measure, _ = oneofl date_facts in
    let* a = agg in
    let* lo = date_lit and* hi = date_lit in
    let* shape = int_range 0 2 in
    return
      (match shape with
      | 0 ->
          Printf.sprintf "SELECT %s FROM %s WHERE %s >= %s"
            (render_agg a measure) t dcol lo
      | 1 ->
          Printf.sprintf "SELECT %s FROM %s WHERE %s BETWEEN %s AND %s"
            (render_agg a measure) t dcol (min lo hi) (max lo hi)
      | _ ->
          Printf.sprintf "SELECT %s FROM %s WHERE %s < %s AND %s > 0"
            (render_agg a measure) t dcol lo measure)
  in
  let web_sales_q =
    let* a = agg in
    let* lo = int_range 850 1050 in
    let* width = int_range 1 120 in
    return
      (Printf.sprintf
         "SELECT %s FROM web_sales WHERE ws_sold_date_id BETWEEN %d AND %d"
         (render_agg a "ws_price") lo (lo + width))
  in
  let datedim_join_q =
    let* t, dcol, measure, _ = oneofl date_facts in
    let* a = agg in
    let* y = int_range 2011 2013 and* m = int_range 1 12 in
    let* with_month = bool in
    return
      (Printf.sprintf
         "SELECT %s FROM %s f, date_dim d WHERE f.%s = d.d_date AND d.d_year \
          = %d%s"
         (render_agg a ("f." ^ measure)) t dcol y
         (if with_month then Printf.sprintf " AND d.d_month = %d" m else ""))
  in
  let item_join_q =
    let* t, dcol, measure, icol = oneofl date_facts in
    let* lo = date_lit in
    return
      (Printf.sprintf
         "SELECT i.i_category, sum(f.%s) FROM %s f, item i WHERE f.%s = \
          i.i_id AND f.%s >= %s GROUP BY i.i_category"
         measure t icol dcol lo)
  in
  let multilevel_q =
    let* lo = date_lit in
    let* ch = oneofl [ "catalog"; "web"; "store" ] in
    return
      (Printf.sprintf
         "SELECT count(*) FROM catalog_returns WHERE cr_returned_date >= %s \
          AND cr_channel = '%s'"
         lo ch)
  in
  frequency
    [ (3, static_q); (1, web_sales_q); (3, datedim_join_q); (2, item_join_q);
      (1, multilevel_q) ]

let fuzz_count = 300 (* × 2 optimizers = 600 verified plans *)

let fuzz_test =
  QCheck2.Test.make ~name:"fuzzed queries verify clean" ~count:fuzz_count
    ~print:(fun s -> s)
    sql_gen
    (fun sql ->
      List.for_all
        (fun kind ->
          let plan = adhoc kind sql in
          Verify.check ~catalog:(catalog ()) plan = [])
        [ W.Runner.Orca; W.Runner.Legacy_planner ])

let () =
  Alcotest.run "verify"
    [ ("mutation kill",
       [ Alcotest.test_case "all corruptions rejected" `Quick
           test_mutations_killed;
         Alcotest.test_case "pruning warnings" `Quick test_pruning_warnings;
         Alcotest.test_case "mis-paired hash keys" `Quick
           test_mispaired_hash_keys;
         Alcotest.test_case "assert_valid raises" `Quick
           test_assert_valid_raises ]);
      ("soundness",
       [ Alcotest.test_case "all workload plans clean" `Slow
           test_workload_plans_clean;
         Alcotest.test_case "Figure-12 shapes accepted" `Quick
           test_accepted_shapes;
         Alcotest.test_case "nparts stamped" `Quick
           test_stamped_nparts_present;
         Alcotest.test_case "pp_report clean" `Quick test_pp_report_clean ]);
      ("fuzz",
       [ QCheck_alcotest.to_alcotest ~long:true fuzz_test ]) ]
