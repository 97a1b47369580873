(** Figure 16: partitions scanned per table, aggregated over the workload. *)

open Harness

let run ~smoke:_ =
  header
    "Figure 16: partitions scanned per table, aggregated over the workload";
  let env = get_env () in
  Printf.printf "%-18s %-9s %-9s %-14s\n" "table" "Planner" "Orca"
    "Orca saves";
  let rows = W.Classify.parts_by_table env in
  List.iter
    (fun (name, planner, orca, _total) ->
      Printf.printf "%-18s %-9d %-9d %-14s\n" name planner orca
        (if planner = 0 then "-"
         else
           Printf.sprintf "%.0f%%"
             (100.0 *. float_of_int (planner - orca) /. float_of_int planner)))
    rows;
  record "fig16"
    (Json.List
       (List.map
          (fun (name, planner, orca, total) ->
            Json.Obj
              [ ("table", Json.String name);
                ("planner_parts", Json.Int planner);
                ("orca_parts", Json.Int orca);
                ("total_parts", Json.Int total) ])
          rows))
