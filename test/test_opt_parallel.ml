(** The optimizer's search on big joins.

    The join-order DP must match brute force on small graphs and return
    the same order as the frozen reference search in [Joinorder_ref] on
    generated graphs; the memo must find structurally valid plans on small
    generated join graphs; and a qcheck sweep of generated big-join queries
    must come out verifier-clean under both Orca and the legacy planner,
    with generation and optimization deterministic end to end. *)

module W = Mpp_workload
module Plan = Mpp_plan.Plan
module Opt = Orca.Optimizer
module Memo = Orca.Memo
module Joinorder = Orca.Joinorder
module Verify = Mpp_verify.Verify

(* The join core under biggen's top-level aggregate: a Get/Select(Get)/Join
   tree the memo can optimize directly. *)
let join_core (lg : Orca.Logical.t) =
  match lg with Orca.Logical.Aggregate { child; _ } -> child | other -> other

(* Memo path proper: best_plan on small generated graphs finds a plan
   that passes the verifier's structure pass. *)
let test_memo_generated () =
  List.iter
    (fun spec ->
      let benv = W.Biggen.generate spec in
      let core = join_core benv.W.Biggen.logical in
      match
        Memo.best_plan ~stats:benv.W.Biggen.stats
          ~catalog:benv.W.Biggen.catalog core
      with
      | None -> Alcotest.fail (benv.W.Biggen.name ^ ": memo found no plan")
      | Some (plan, _) ->
          Alcotest.(check bool)
            (benv.W.Biggen.name ^ " memo plan valid")
            true
            (Support.structure_ok ~catalog:benv.W.Biggen.catalog plan))
    [
      { W.Biggen.shape = W.Biggen.Star; nrels = 5; seed = 11 };
      { W.Biggen.shape = W.Biggen.Chain; nrels = 6; seed = 3 };
      { W.Biggen.shape = W.Biggen.Clique; nrels = 4; seed = 8 };
    ]

let orca_plan benv =
  let opt =
    Opt.create ~stats:benv.W.Biggen.stats ~catalog:benv.W.Biggen.catalog ()
  in
  Opt.optimize opt benv.W.Biggen.logical

(* qcheck sweep: 50 generated big-join queries, each optimized by Orca
   and planned by the legacy planner (both raise on any verifier error;
   the plans are re-checked here so a verifier regression fails loudly). *)
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

let qcheck_biggen_verify =
  QCheck.Test.make ~count:50 ~name:"biggen: Orca + legacy planner clean"
    biggen_arbitrary (fun spec ->
      let benv = W.Biggen.generate spec in
      let orca = orca_plan benv in
      let legacy =
        Mpp_planner.Planner.plan
          (Mpp_planner.Planner.create ~catalog:benv.W.Biggen.catalog ())
          benv.W.Biggen.logical
      in
      Verify.ok ~catalog:benv.W.Biggen.catalog orca
      && Verify.ok ~catalog:benv.W.Biggen.catalog legacy)

(* Same spec, fresh env each time: byte-identical plans (the generator and
   both optimizers are deterministic end to end). *)
let test_biggen_determinism () =
  let spec = { W.Biggen.shape = W.Biggen.Star; nrels = 10; seed = 42 } in
  let p1 = orca_plan (W.Biggen.generate spec) in
  let p2 = orca_plan (W.Biggen.generate spec) in
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

(* Differential check against the frozen reference search: generated
   graphs of 2-18 leaves with 1-, 2- and 3-leaf edges, duplicate edges,
   up to three disconnected components (the cross-product redo), integer
   rows and power-of-two selectivities (cost ties, so the beam's mask and
   the merge's prev tie-breaks decide), rows below 1 (the
   [Float.max 1.0] clamp), leaves of 0 rows, selectivities of 0, 1 and a
   subnormal (where a product that multiplied in other factors, or in
   another order, would round differently), and beams of 1, 3, 64 and
   1024; the production order must equal the reference order. *)
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
  let* rows =
    array_size (return n) (frequency [ (5, row); (1, return 0.0) ])
  in
  let sel =
    frequency
      [ (4, oneofl [ 1.0; 0.5; 0.25; 0.125 ]);
        (2, float_range 1e-4 1.0);
        (1, oneofl [ 0.0; 1.0; 0x1p-1070 ]) ]
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
      Joinorder.order ~beam:c.beam g = Joinorder_ref.order ~beam:c.beam g)

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
      Alcotest.(check (list int))
        (Printf.sprintf "%s %d: reference order" shape n)
        (Joinorder_ref.order g) (Joinorder.order g))
    (List.concat_map
       (fun shape -> List.map (fun n -> (shape, n)) [ 20; 25; 30 ])
       [ "star"; "chain"; "clique" ])

let () =
  Alcotest.run "opt_search"
    [
      ( "joinorder",
        [
          Alcotest.test_case "matches brute force" `Quick
            test_joinorder_matches_brute_force;
          QCheck_alcotest.to_alcotest qcheck_joinorder_reference;
          Alcotest.test_case "reference order, 20-30 leaves" `Slow
            test_joinorder_reference_large;
        ] );
      ( "memo",
        [ Alcotest.test_case "generated graphs, structure-valid plans" `Quick
            test_memo_generated ] );
      ( "biggen",
        [
          Alcotest.test_case "deterministic generation" `Quick
            test_biggen_determinism;
          QCheck_alcotest.to_alcotest qcheck_biggen_verify;
        ] );
    ]
