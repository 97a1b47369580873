(** Runtime join filters. *)

open Harness

(* The runtime-join-filter claims, measured two ways:

   1. workload speedup: the RF-target workload queries (a selective
      dimension joined to a fact on a non-partition key — nothing for
      partition selection to do, everything for a Bloom filter) executed
      with the same Orca plan under [runtime_filters:true] vs [false].
      The plan is byte-identical across the two configurations; only the
      executor knob changes, so the delta is purely the filters' effect.

   2. Motion-row reduction: a hand-built redistribute-probe join (fact
      hashed on a non-join column, so every probe row must cross a
      Redistribute) with the consumer annotated [at_motion] below the
      send — the placement where dropped rows never pay Motion cost.
      [tuples_moved] with filters off vs on gives the reduction
      deterministically, no timing involved.

   Correctness is asserted inline before anything is timed: identical row
   multisets on vs off, zero filter counters when off, and the
   filtered scanned-leaf set a subset of the unfiltered one per root (the
   min-max partition pruning may only shrink the scan set).  [~smoke]
   runs the same assertions at tiny scale under [dune runtest]. *)
let run ~smoke =
  header
    (if smoke then "Bench: runtime join filters (smoke mode, tiny scale)"
     else "Bench: runtime join filters (Bloom + min-max), on vs off");
  let scale = if smoke then 1 else 64 in
  let env = W.Runner.setup_env ~scale () in
  let catalog = env.W.Runner.catalog and storage = env.W.Runner.storage in
  let reps = if smoke then 1 else 15 in
  let sorted_rows rows = List.sort compare rows in
  let is_subset a b = List.for_all (fun x -> List.mem x b) a in
  (* ---- 1. workload queries, filters on vs off ---- *)
  let target_names =
    [ "ss_customer_rf_scan"; "ws_customer_rf_scan"; "ss_star_rf_year";
      "ss_star_may" ]
  in
  let queries =
    List.filter
      (fun (qu : W.Queries.query) -> List.mem qu.W.Queries.name target_names)
      W.Queries.all
  in
  Printf.printf "%-22s %-10s %-10s %-9s %-13s %-7s\n" "query" "off (ms)"
    "on (ms)" "speedup" "dropped@scan" "built";
  let best_speedup = ref ("", 0.0) in
  let qsections =
    List.map
      (fun (qu : W.Queries.query) ->
        let plan = W.Runner.optimize_with env W.Runner.Orca qu in
        let exec rf =
          Mpp_exec.Exec.run ~runtime_filters:rf ~catalog ~storage plan
        in
        let rows_on, m_on = exec true in
        let rows_off, m_off = exec false in
        (* the filters are semantic no-ops *)
        assert (sorted_rows rows_on = sorted_rows rows_off);
        (* the off configuration does no filter work at all *)
        assert (
          m_off.Mpp_exec.Metrics.filter_built = 0
          && m_off.Mpp_exec.Metrics.rows_filtered_scan = 0
          && m_off.Mpp_exec.Metrics.rows_filtered_motion = 0
          && m_off.Mpp_exec.Metrics.motion_rows_saved = 0);
        (* min-max partition elimination only ever shrinks the scan set *)
        List.iter
          (fun root ->
            assert (
              is_subset
                (Mpp_exec.Metrics.scanned_leaves m_on ~root_oid:root)
                (Mpp_exec.Metrics.scanned_leaves m_off ~root_oid:root)))
          (Mpp_exec.Metrics.roots_scanned m_on);
        let off_ms, on_ms =
          paired_median_ms reps (fun () -> exec false) (fun () -> exec true)
        in
        let speedup = off_ms /. on_ms in
        if speedup > snd !best_speedup then
          best_speedup := (qu.W.Queries.name, speedup);
        Printf.printf "%-22s %-10.2f %-10.2f %8.2fx %-13d %-7d\n"
          qu.W.Queries.name off_ms on_ms speedup
          m_on.Mpp_exec.Metrics.rows_filtered_scan
          m_on.Mpp_exec.Metrics.filter_built;
        ( qu.W.Queries.name,
          Json.Obj
            [ ("off_ms", Json.Float off_ms);
              ("on_ms", Json.Float on_ms);
              ("speedup", Json.Float speedup);
              ("filter_built", Json.Int m_on.Mpp_exec.Metrics.filter_built);
              ("rows_filtered_scan",
               Json.Int m_on.Mpp_exec.Metrics.rows_filtered_scan);
              (* no [motion_rows_saved] here: the workload queries carry no
                 at_motion filter placements, so the per-query counter was
                 always zero — the real signal lives in the [motion] section
                 below *)
              ("rows_filtered_motion",
               Json.Int m_on.Mpp_exec.Metrics.rows_filtered_motion) ] ))
      queries
  in
  (* ---- 2. Motion-row reduction on a redistribute-probe join ---- *)
  let nseg = 4 in
  let mcat = Cat.create () in
  let dim =
    Cat.add_table mcat ~name:"jf_dim"
      ~columns:[ ("k", Value.Tint); ("s", Value.Tstring) ]
      ~distribution:Dist.Replicated ()
  in
  let fact =
    Cat.add_table mcat ~name:"jf_fact"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let mstore = Storage.create ~nsegments:nseg in
  let ndim = if smoke then 64 else 2_000 in
  let nfact = if smoke then 1_000 else 100_000 in
  let rng = W.Rng.create () in
  Storage.load mstore dim
    (List.init ndim (fun k ->
         [| Value.Int k;
            Value.String (if k mod 8 = 0 then "keep" else "drop") |]));
  Storage.load mstore fact
    (List.init nfact (fun i -> [| Value.Int i; Value.Int (W.Rng.int rng ndim) |]));
  let dim_k = Table.colref dim ~rel:0 "k" in
  let dim_s = Table.colref dim ~rel:0 "s" in
  let fact_b = Table.colref fact ~rel:1 "b" in
  (* fact is hashed on [a] but joins on [b]: every surviving probe row must
     cross the Redistribute, so the at_motion consumer placement is the one
     that saves Motion sends *)
  let mplan =
    Plan.motion Plan.Gather
      (Plan.hash_join ~kind:Plan.Inner
         ~pred:(Expr.eq (Expr.col dim_k) (Expr.col fact_b))
         (Plan.runtime_filter_build ~rf_id:1 ~keys:[ dim_k ]
            ~rows_est:(ndim / 8)
            (Plan.table_scan ~rel:0
               ~filter:(Expr.eq (Expr.col dim_s) (Expr.str "keep"))
               dim.Table.oid))
         (Plan.motion
            (Plan.Redistribute [ fact_b ])
            (Plan.runtime_filter ~at_motion:true ~rf_id:1 ~keys:[ fact_b ]
               (Plan.table_scan ~rel:1 fact.Table.oid))))
  in
  assert (not (Mpp_verify.Diag.has_errors (Mpp_verify.Verify.check ~catalog:mcat mplan)));
  let mexec rf =
    Mpp_exec.Exec.run ~runtime_filters:rf ~catalog:mcat ~storage:mstore mplan
  in
  let mrows_on, mm_on = mexec true in
  let mrows_off, mm_off = mexec false in
  assert (sorted_rows mrows_on = sorted_rows mrows_off);
  let moved_off = mm_off.Mpp_exec.Metrics.tuples_moved
  and moved_on = mm_on.Mpp_exec.Metrics.tuples_moved in
  assert (moved_on <= moved_off);
  let reduction =
    100.0 *. float_of_int (moved_off - moved_on) /. float_of_int moved_off
  in
  Printf.printf
    "\nredistribute-probe join (%d fact rows, 1-in-8 build side):\n\
    \  tuples moved: off=%d  on=%d  (-%.1f%%); rows dropped pre-Motion=%d, \
     Motion sends saved=%d\n"
    nfact moved_off moved_on reduction
    mm_on.Mpp_exec.Metrics.rows_filtered_motion
    mm_on.Mpp_exec.Metrics.motion_rows_saved;
  let bq, bs = !best_speedup in
  Printf.printf
    "\nacceptance: best workload speedup %.2fx on %s (target >= 1.2x) OR \
     Motion-row reduction %.1f%% (target >= 30%%)\n"
    bs bq reduction;
  let section =
    Json.Obj
      [ ("smoke", Json.Bool smoke);
        ("scale", Json.Int scale);
        ("queries", Json.Obj qsections);
        ("best_speedup_query", Json.String bq);
        ("best_speedup", Json.Float bs);
        ("motion",
         Json.Obj
           [ ("fact_rows", Json.Int nfact);
             ("moved_off", Json.Int moved_off);
             ("moved_on", Json.Int moved_on);
             ("reduction_pct", Json.Float reduction);
             ("rows_filtered_motion",
              Json.Int mm_on.Mpp_exec.Metrics.rows_filtered_motion);
             ("motion_rows_saved",
              Json.Int mm_on.Mpp_exec.Metrics.motion_rows_saved) ]) ]
  in
  record "join_filter" section;
  if smoke then
    print_endline
      "smoke OK: join_filter results identical on/off, off-config counters \
       zero, filtered scan sets subsets, Motion volume non-increasing"
