(** Golden EXPLAIN ANALYZE counts.  For the 43 workload templates at scale
    1, under Orca, Orca with selection disabled and the legacy Planner, the
    per-node counts [Exec.run_analyze] records — actual rows, rows per
    segment, partitions scanned and selected, tuples moved — must equal
    [node_stats.golden] exactly, serially and on four domains.  The file
    was recorded from the batch-per-operator executor, so it pins that
    streaming operators through pipelines changes no count.  On a
    mismatch the rendering is written to [node_stats.actual] beside the
    test (under [_build/default/test]); a change that means to move
    these counts, such as a new plan, replaces the golden file with it
    and says why. *)

module W = Mpp_workload
module Plan = Mpp_plan.Plan
module Exec = Mpp_exec.Exec
module Node_stats = Mpp_exec.Node_stats

let kinds =
  [ ("orca", W.Runner.Orca); ("orca-nosel", W.Runner.Orca_no_selection);
    ("planner", W.Runner.Legacy_planner) ]

(* One line per plan node, pre-order. *)
let render_plan b plan stats =
  let rec go id p =
    (match Node_stats.find stats id with
    | None -> Printf.bprintf b "%d never\n" id
    | Some n ->
        Printf.bprintf b "%d rows=%d seg=[%s] scanned=%d selected=%d moved=%d\n"
          id n.Node_stats.rows
          (String.concat ","
             (Array.to_list (Array.map string_of_int n.Node_stats.seg_rows)))
          n.Node_stats.parts_scanned n.Node_stats.parts_selected
          n.Node_stats.tuples_moved);
    List.fold_left go (id + 1) (Plan.children p)
  in
  ignore (go 0 plan)

let render ~domains env =
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun (qu : W.Queries.query) ->
      List.iter
        (fun (kname, kind) ->
          let plan = W.Runner.optimize_with env kind qu in
          let _, _, stats =
            Exec.run_analyze ~domains ~catalog:env.W.Runner.catalog
              ~storage:env.W.Runner.storage plan
          in
          Printf.bprintf b "== %s %s\n" qu.W.Queries.name kname;
          render_plan b plan stats)
        kinds)
    W.Queries.all;
  Buffer.contents b

let golden () = In_channel.with_open_bin "node_stats.golden" In_channel.input_all

(* The first differing line, for a readable failure. *)
let first_diff expected actual =
  let e = String.split_on_char '\n' expected
  and a = String.split_on_char '\n' actual in
  let rec go i = function
    | x :: xs, y :: ys -> if x = y then go (i + 1) (xs, ys) else (i, x, y)
    | x :: _, [] -> (i, x, "<end>")
    | [], y :: _ -> (i, "<end>", y)
    | [], [] -> (i, "", "")
  in
  go 1 (e, a)

let check_golden domains () =
  let env = W.Runner.setup_env ~scale:1 ~nsegments:4 () in
  let expected = golden () and actual = render ~domains env in
  if expected <> actual then begin
    Out_channel.with_open_bin "node_stats.actual" (fun oc ->
        output_string oc actual);
    let line, e, a = first_diff expected actual in
    Alcotest.failf "line %d: expected %S, got %S (whole run: node_stats.actual)"
      line e a
  end

let () =
  Alcotest.run "node_stats"
    [ ("golden",
       [ Alcotest.test_case "43 templates, serial" `Quick (check_golden 1);
         Alcotest.test_case "43 templates, 4 domains" `Quick (check_golden 4) ]) ]
