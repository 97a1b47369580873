(** Serial-vs-parallel optimizer equivalence.

    The parallel paths (memo root-candidate fan-out, join-order DP chunking)
    promise bit-identical plans for every domain count.  This suite pins
    that promise: the full 43-query workload and a qcheck sweep of generated
    big-join queries must produce the same plan tree and cost under domain
    counts 1/2/4, every plan verifier-clean, and the join-order DP must
    match brute force on small graphs and return the same order as the
    frozen reference search in [Joinorder_ref] on generated graphs. *)

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

(* Differential check against the frozen reference search: generated
   graphs of 2-18 leaves with 1-, 2- and 3-leaf edges, duplicate edges,
   up to three disconnected components (the cross-product redo), integer
   rows and power-of-two selectivities (cost ties, so the beam's mask and
   the merge's prev tie-breaks decide), rows below 1 (the
   [Float.max 1.0] clamp), and beams of 1, 3, 64 and 1024; the
   production order must equal the reference order at pool sizes 1, 2
   and 4. *)
type jo_case = { rows : float array; edges : (int * float) array; beam : int }

let jo_case_gen =
  let open QCheck.Gen in
  let* n = int_range 2 18 in
  let* ncomp = frequency [ (3, return 1); (1, int_range 2 3) ] in
  let* comp = array_size (return n) (int_range 0 (ncomp - 1)) in
  let* row =
    oneofl
      [ map float_of_int (int_range 1 4);
        float_range 0.01 2.0;
        map float_of_int (int_range 1 1_000_000) ]
  in
  let* rows = array_size (return n) row in
  let sel =
    frequency
      [ (2, oneofl [ 1.0; 0.5; 0.25; 0.125 ]); (1, float_range 1e-4 1.0) ]
  in
  (* one edge: leaf [a] plus 0-2 distinct partners from [a]'s component *)
  let edge =
    let* a = int_range 0 (n - 1) in
    let mates =
      List.filter
        (fun b -> b <> a && comp.(b) = comp.(a))
        (List.init n Fun.id)
    in
    let* k = frequency [ (1, return 0); (6, return 1); (3, return 2) ] in
    let* mates = shuffle_l mates in
    let mask =
      List.fold_left
        (fun m b -> m lor (1 lsl b))
        (1 lsl a)
        (List.filteri (fun i _ -> i < k) mates)
    in
    let* s = sel in
    return (mask, s)
  in
  let* edges = list_size (int_range 0 (2 * n)) edge in
  (* duplicates: an existing edge's mask again, with its own selectivity *)
  let* dups =
    if edges = [] then return [] else list_size (int_range 0 3) (oneofl edges)
  in
  let* dups =
    flatten_l (List.map (fun (m, _) -> map (fun s -> (m, s)) sel) dups)
  in
  let* edges = shuffle_l (edges @ dups) in
  let* beam = oneofl [ 1; 3; 64; 1024 ] in
  return { rows; edges = Array.of_list edges; beam }

let jo_case_print c =
  Printf.sprintf "beam=%d rows=[%s] edges=[%s]" c.beam
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%h") c.rows)))
    (String.concat "; "
       (Array.to_list
          (Array.map (fun (m, s) -> Printf.sprintf "(0x%x, %h)" m s) c.edges)))

let qcheck_joinorder_reference =
  QCheck.Test.make ~count:300 ~name:"joinorder: equals frozen reference"
    (QCheck.make ~print:jo_case_print jo_case_gen) (fun c ->
      let g = Joinorder.make ~leaf_rows:c.rows ~edges:c.edges in
      let expected = Joinorder_ref.order ~beam:c.beam g in
      List.for_all
        (fun d ->
          Joinorder.order ~pool:(Mpp_exec.Dpool.get ~domains:d) ~beam:c.beam g
          = expected)
        [ 1; 2; 4 ])

(* The same check on the sizes the optimizer meets in big joins: 20-30
   leaves, star/chain/clique, default beam. *)
let test_joinorder_reference_large () =
  let rng = ref 12345 in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng
  in
  List.iter
    (fun (shape, n) ->
      let rows =
        Array.init n (fun _ -> float_of_int (1 + (next () mod 100_000)))
      in
      let sel () = 1.0 /. float_of_int (1 + (next () mod 1000)) in
      let pairs =
        match shape with
        | "star" -> List.init (n - 1) (fun i -> (0, i + 1))
        | "chain" -> List.init (n - 1) (fun i -> (i, i + 1))
        | _ ->
            List.concat_map
              (fun i -> List.init (n - i - 1) (fun d -> (i, i + d + 1)))
              (List.init n Fun.id)
      in
      let edges =
        Array.of_list
          (List.map (fun (a, b) -> ((1 lsl a) lor (1 lsl b), sel ())) pairs)
      in
      let g = Joinorder.make ~leaf_rows:rows ~edges in
      let expected = Joinorder_ref.order g in
      List.iter
        (fun d ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s %d: reference order at %d domains" shape n d)
            expected
            (Joinorder.order ~pool:(Mpp_exec.Dpool.get ~domains:d) g))
        [ 1; 2; 4 ])
    (List.concat_map
       (fun shape -> List.map (fun n -> (shape, n)) [ 20; 25; 30 ])
       [ "star"; "chain"; "clique" ])

let () =
  Alcotest.run "opt_parallel"
    [
      ( "joinorder",
        [
          Alcotest.test_case "matches brute force" `Quick
            test_joinorder_matches_brute_force;
          Alcotest.test_case "pool independent" `Quick
            test_joinorder_pool_independent;
          QCheck_alcotest.to_alcotest qcheck_joinorder_reference;
          Alcotest.test_case "reference order, 20-30 leaves" `Slow
            test_joinorder_reference_large;
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
