(** Serial-vs-parallel optimizer equivalence.

    The parallel paths (memo root-candidate fan-out, join-order DP chunking)
    promise bit-identical plans for every domain count.  This suite pins
    that promise: the full 43-query workload and a qcheck sweep of generated
    big-join queries must produce the same plan tree and cost under domain
    counts 1/2/4, every plan verifier-clean, and the join-order DP must
    match brute force on small graphs. *)

module W = Mpp_workload
module Plan = Mpp_plan.Plan
module Opt = Orca.Optimizer
module Memo = Orca.Memo
module Joinorder = Orca.Joinorder
module Table = Mpp_catalog.Table
module Verify = Mpp_verify.Verify

let env = lazy (W.Runner.setup_env ~scale:2 ~nsegments:4 ())

(* Runner.optimize_with with an explicit domain count (the runner itself
   always uses the config default). *)
let optimize_domains env ~domains (qu : W.Queries.query) =
  let open W.Runner in
  let lg = Mpp_sql.Sql.to_logical env.catalog qu.W.Queries.sql in
  Mpp_stats.Stats_source.clear_row_scales env.stats;
  List.iter
    (fun (name, factor) ->
      let table = Mpp_catalog.Catalog.find env.catalog name in
      Mpp_stats.Stats_source.set_row_scale env.stats
        ~table_oid:table.Table.oid ~factor)
    qu.W.Queries.misestimates;
  let config = { Opt.default_config with opt_domains = domains } in
  let opt = Opt.create ~config ~stats:env.stats ~catalog:env.catalog () in
  let plan = Opt.optimize opt lg in
  Mpp_stats.Stats_source.clear_row_scales env.stats;
  plan

(* Every workload query: identical plan trees under 1/2/4 domains, all
   verifier-clean (Optimizer.optimize raises Invalid_plan otherwise, but we
   re-check explicitly so a verifier regression fails loudly here too). *)
let test_workload_equivalence () =
  let env = Lazy.force env in
  List.iter
    (fun (qu : W.Queries.query) ->
      let serial = optimize_domains env ~domains:1 qu in
      Alcotest.(check bool)
        (qu.W.Queries.name ^ " serial plan valid")
        true (Verify.ok ~catalog:env.W.Runner.catalog serial);
      List.iter
        (fun d ->
          let par = optimize_domains env ~domains:d qu in
          Alcotest.(check string)
            (Printf.sprintf "%s: plan identical at %d domains"
               qu.W.Queries.name d)
            (Plan.to_string serial) (Plan.to_string par))
        [ 2; 4 ])
    W.Queries.all

(* The join core under biggen's top-level aggregate: a Get/Select(Get)/Join
   tree the memo can optimize directly. *)
let join_core (lg : Orca.Logical.t) =
  match lg with Orca.Logical.Aggregate { child; _ } -> child | other -> other

(* Memo path proper: best_plan across domain counts on small generated
   graphs — same plan tree, same cost to the bit. *)
let test_memo_equivalence () =
  List.iter
    (fun spec ->
      let benv = W.Biggen.generate spec in
      let core = join_core benv.W.Biggen.logical in
      let best d =
        Memo.best_plan ~stats:benv.W.Biggen.stats
          ~catalog:benv.W.Biggen.catalog ~domains:d core
      in
      match best 1 with
      | None -> Alcotest.fail (benv.W.Biggen.name ^ ": memo found no plan")
      | Some (splan, scost) ->
          Alcotest.(check bool)
            (benv.W.Biggen.name ^ " serial memo plan valid")
            true
            (Support.structure_ok ~catalog:benv.W.Biggen.catalog splan);
          List.iter
            (fun d ->
              match best d with
              | None ->
                  Alcotest.fail
                    (Printf.sprintf "%s: no plan at %d domains"
                       benv.W.Biggen.name d)
              | Some (pplan, pcost) ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s: memo plan identical at %d domains"
                       benv.W.Biggen.name d)
                    (Plan.to_string splan) (Plan.to_string pplan);
                  Alcotest.(check (float 0.0))
                    (Printf.sprintf "%s: memo cost identical at %d domains"
                       benv.W.Biggen.name d)
                    scost pcost)
            [ 2; 4 ])
    [
      { W.Biggen.shape = W.Biggen.Star; nrels = 5; seed = 11 };
      { W.Biggen.shape = W.Biggen.Chain; nrels = 6; seed = 3 };
      { W.Biggen.shape = W.Biggen.Clique; nrels = 4; seed = 8 };
    ]

let orca_plan benv ~domains =
  let config = { Opt.default_config with opt_domains = domains } in
  let opt =
    Opt.create ~config ~stats:benv.W.Biggen.stats
      ~catalog:benv.W.Biggen.catalog ()
  in
  Opt.optimize opt benv.W.Biggen.logical

(* qcheck sweep: 50 generated big-join queries, each optimized at 1 vs 4
   domains (identical trees, verifier-clean via optimize) and planned by
   the legacy planner (which raises on any verifier violation). *)
let biggen_arbitrary =
  let open QCheck in
  let shape =
    map
      (fun i ->
        match i mod 3 with
        | 0 -> W.Biggen.Star
        | 1 -> W.Biggen.Chain
        | _ -> W.Biggen.Clique)
      small_nat
  in
  map
    (fun (shape, nrels, seed) -> { W.Biggen.shape; nrels; seed })
    (triple shape (int_range 5 12) (int_range 0 9999))

let qcheck_biggen_equivalence =
  QCheck.Test.make ~count:50 ~name:"biggen: 1 vs 4 domains + legacy planner"
    biggen_arbitrary (fun spec ->
      let benv = W.Biggen.generate spec in
      let serial = orca_plan benv ~domains:1 in
      let par = orca_plan benv ~domains:4 in
      let legacy =
        Mpp_planner.Planner.plan
          (Mpp_planner.Planner.create ~catalog:benv.W.Biggen.catalog ())
          benv.W.Biggen.logical
      in
      Plan.to_string serial = Plan.to_string par
      && Verify.ok ~catalog:benv.W.Biggen.catalog serial
      && Verify.ok ~catalog:benv.W.Biggen.catalog legacy)

(* Same spec, fresh env each time: byte-identical plans (the generator and
   both optimizers are deterministic end to end). *)
let test_biggen_determinism () =
  let spec = { W.Biggen.shape = W.Biggen.Star; nrels = 10; seed = 42 } in
  let p1 = orca_plan (W.Biggen.generate spec) ~domains:4 in
  let p2 = orca_plan (W.Biggen.generate spec) ~domains:4 in
  Alcotest.(check string)
    "same spec, same plan" (Plan.to_string p1) (Plan.to_string p2)

(* Join-order DP vs brute force: enumerate every left-deep permutation of a
   5-leaf graph with the same C_out cost recurrence; the DP's order must
   achieve the minimum. *)
let cout_of g order =
  match order with
  | [] -> 0.0
  | first :: rest ->
      let mask = ref (1 lsl first) in
      let rows = ref g.Joinorder.leaf_rows.(first) in
      let cost = ref g.Joinorder.leaf_rows.(first) in
      List.iter
        (fun j ->
          let nm = !mask lor (1 lsl j) in
          let sel = ref 1.0 in
          Array.iter
            (fun (emask, es) ->
              if emask land (1 lsl j) <> 0 && emask land lnot nm = 0 then
                sel := !sel *. es)
            g.Joinorder.edges;
          let jr = g.Joinorder.leaf_rows.(j) in
          rows := Float.max 1.0 (!rows *. jr *. !sel);
          cost := !cost +. jr +. !rows;
          mask := nm)
        rest;
      !cost

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun p -> x :: p)
            (permutations (List.filter (fun y -> y <> x) l)))
        l

let test_joinorder_matches_brute_force () =
  let g =
    Joinorder.make
      ~leaf_rows:[| 1000.0; 10.0; 500.0; 20.0; 80.0 |]
      ~edges:
        [|
          (0b00011, 0.01);
          (0b00110, 0.05);
          (0b01100, 0.02);
          (0b11000, 0.1);
          (0b10001, 0.5);
        |]
  in
  let chosen = Joinorder.order g in
  Alcotest.(check int) "covers every leaf" 5 (List.length chosen);
  Alcotest.(check (list int))
    "each leaf exactly once" [ 0; 1; 2; 3; 4 ]
    (List.sort compare chosen);
  let best_brute =
    List.fold_left
      (fun acc p -> Float.min acc (cout_of g p))
      infinity
      (permutations [ 0; 1; 2; 3; 4 ])
  in
  Alcotest.(check (float 1e-9))
    "DP order achieves the brute-force minimum" best_brute (cout_of g chosen)

let test_joinorder_pool_independent () =
  let g =
    Joinorder.make
      ~leaf_rows:(Array.init 9 (fun i -> float_of_int ((i * 37 mod 11) + 2) *. 25.0))
      ~edges:(Array.init 8 (fun i -> (0b11 lsl i, 0.01 +. (0.03 *. float_of_int i))))
  in
  let serial = Joinorder.order g in
  List.iter
    (fun d ->
      Alcotest.(check (list int))
        (Printf.sprintf "order identical with %d domains" d)
        serial
        (Joinorder.order ~pool:(Mpp_exec.Dpool.get ~domains:d) g))
    [ 2; 4 ]

let () =
  Alcotest.run "opt_parallel"
    [
      ( "joinorder",
        [
          Alcotest.test_case "matches brute force" `Quick
            test_joinorder_matches_brute_force;
          Alcotest.test_case "pool independent" `Quick
            test_joinorder_pool_independent;
        ] );
      ( "memo",
        [ Alcotest.test_case "domains 1/2/4 identical" `Quick
            test_memo_equivalence ] );
      ( "workload",
        [ Alcotest.test_case "43 queries, domains 1/2/4" `Slow
            test_workload_equivalence ] );
      ( "biggen",
        [
          Alcotest.test_case "deterministic generation" `Quick
            test_biggen_determinism;
          QCheck_alcotest.to_alcotest qcheck_biggen_equivalence;
        ] );
    ]
