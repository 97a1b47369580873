(** Golden plans.  [Plan.to_string] of every plan Orca emits for the 43
    workload templates at scale 1 (with partition selection on and off),
    the 27 large join graphs of the [bigjoin_plan] serving workload (star,
    chain and clique at 10–24 relations, with that workload's seed
    formula) and {!Mpp_workload.Biggen.default_suite}, then of every plan
    the legacy Planner emits for the 43 templates and the default suite,
    must equal [plans.golden] byte for byte.  It pins both physical
    planners: a refactor of join planning, costing or the Planner's Append
    expansion must not move a single plan.  A last section pins the plan
    cache's normalization ({!Mpp_serve.Normalize.of_logical}) of the 43
    templates and of one UPDATE … FROM, one DELETE and one INSERT: the
    fingerprint, the first lifted slot, the parameter defaults and each
    slot's class, so a rewrite of literal lifting cannot renumber a slot.  On
    a mismatch the rendering is written to [plans.actual] beside the test
    (under [_build/default/test]); a change that means to move plans
    replaces the golden file with it and says why. *)

module W = Mpp_workload
module Plan = Mpp_plan.Plan
module Normalize = Mpp_serve.Normalize

let dml =
  [ ("update_from",
     "UPDATE store_returns SET sr_qty = sr_qty + 1 FROM item WHERE sr_item \
      = i_id AND sr_qty < i_id + 5 AND i_category = 'Books' AND \
      sr_returned_date >= '2013-06-01' AND sr_returned_date < '2013-07-01'");
    ("delete",
     "DELETE FROM store_sales WHERE ss_sold_date >= '2013-03-01' AND ss_qty \
      > $1 AND ss_price < 2.5");
    ("insert",
     "INSERT INTO store_returns VALUES ('2013-05-05', 7, 2, 'damaged')") ]

let normalization catalog sql =
  let n = Normalize.of_logical ~catalog (Mpp_sql.Sql.to_logical catalog sql) in
  let list f a = String.concat "; " (Array.to_list (Array.map f a)) in
  Printf.sprintf "fingerprint: %s\nfirst_lifted: %d\ndefaults: [%s]\nclasses: [%s]"
    n.Normalize.fingerprint n.Normalize.first_lifted
    (list Mpp_expr.Value.to_string n.Normalize.defaults)
    (list
       (function Normalize.Pruning -> "pruning" | Normalize.Shape -> "shape")
       n.Normalize.classes)

let bigjoin_specs =
  List.concat_map
    (fun shape ->
      List.map
        (fun nrels ->
          { W.Biggen.shape; nrels; seed = 101 + (nrels * 7) + Hashtbl.hash shape })
        [ 10; 11; 12; 14; 16; 18; 20; 22; 24 ])
    [ W.Biggen.Star; W.Biggen.Chain; W.Biggen.Clique ]

let render () =
  let b = Buffer.create (1 lsl 18) in
  let env = W.Runner.setup_env ~scale:1 ~nsegments:4 () in
  List.iter
    (fun (qu : W.Queries.query) ->
      List.iter
        (fun (kname, kind) ->
          Printf.bprintf b "== %s %s\n%s\n" qu.W.Queries.name kname
            (Plan.to_string (W.Runner.optimize_with env kind qu)))
        [ ("orca", W.Runner.Orca); ("orca-nosel", W.Runner.Orca_no_selection) ])
    W.Queries.all;
  List.iter
    (fun (spec : W.Biggen.spec) ->
      let e = W.Biggen.generate ~nsegments:4 spec in
      let opt =
        Orca.Optimizer.create ~stats:e.W.Biggen.stats ~catalog:e.W.Biggen.catalog ()
      in
      Printf.bprintf b "== %s\n%s\n" e.W.Biggen.name
        (Plan.to_string (Orca.Optimizer.optimize opt e.W.Biggen.logical)))
    (bigjoin_specs @ W.Biggen.default_suite ());
  List.iter
    (fun (qu : W.Queries.query) ->
      Printf.bprintf b "== %s planner\n%s\n" qu.W.Queries.name
        (Plan.to_string (W.Runner.optimize_with env W.Runner.Legacy_planner qu)))
    W.Queries.all;
  List.iter
    (fun (spec : W.Biggen.spec) ->
      let e = W.Biggen.generate ~nsegments:4 spec in
      Printf.bprintf b "== %s planner\n%s\n" e.W.Biggen.name
        (Plan.to_string
           (W.Runner.optimize_logical ~catalog:e.W.Biggen.catalog ~nsegments:4
              W.Runner.Legacy_planner e.W.Biggen.logical)))
    (W.Biggen.default_suite ());
  List.iter
    (fun (name, sql) ->
      Printf.bprintf b "== %s normalize\n%s\n" name
        (normalization env.W.Runner.catalog sql))
    (List.map (fun (qu : W.Queries.query) -> (qu.W.Queries.name, qu.W.Queries.sql))
       W.Queries.all
    @ dml);
  Buffer.contents b

let check_golden () =
  let expected = In_channel.with_open_bin "plans.golden" In_channel.input_all
  and actual = render () in
  if expected <> actual then begin
    Out_channel.with_open_bin "plans.actual" (fun oc -> output_string oc actual);
    let e = String.split_on_char '\n' expected
    and a = String.split_on_char '\n' actual in
    let rec first i = function
      | x :: xs, y :: ys -> if x = y then first (i + 1) (xs, ys) else (i, x, y)
      | x :: _, [] -> (i, x, "<end>")
      | [], y :: _ -> (i, "<end>", y)
      | [], [] -> (i, "", "")
    in
    let line, x, y = first 1 (e, a) in
    Alcotest.failf "line %d: expected %S, got %S (whole run: plans.actual)" line
      x y
  end

let () =
  Alcotest.run "plans"
    [ ("golden", [ Alcotest.test_case "templates and join graphs" `Quick check_golden ]) ]
