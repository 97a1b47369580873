(** Table 3: workload classification of the evaluation workload. *)

open Harness

let run ~smoke:_ =
  header
    (Printf.sprintf "Table 3: workload classification (%d-query star-schema \
                     workload)"
       (List.length W.Queries.all));
  let env = get_env () in
  let outcomes = W.Classify.run_workload env in
  Printf.printf "%-52s %-10s %-8s %s\n" "Category" "queries" "ours" "paper";
  let paper = [ "11%"; "3%"; "80%"; "3%"; "3%" ] in
  let breakdown = W.Classify.breakdown outcomes in
  List.iter2
    (fun (cat, count, pct) p ->
      Printf.printf "%-52s %-10d %-8s %s\n"
        (W.Queries.category_to_string cat)
        count
        (Printf.sprintf "%.0f%%" pct)
        p)
    breakdown paper;
  record "table3"
    (Json.List
       (List.map
          (fun (cat, count, pct) ->
            Json.Obj
              [ ("category", Json.String (W.Queries.category_to_string cat));
                ("queries", Json.Int count);
                ("pct", Json.Float pct) ])
          breakdown))
