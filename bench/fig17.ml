(** Figure 17: runtime improvement from partition selection. *)

open Harness

let run ~smoke:_ =
  header
    "Figure 17: relative runtime improvement, partition selection ON vs OFF";
  let env = get_env () in
  (* execution only, as the paper times it: the median of [Runner.run]'s
     [wall_seconds] (the [Exec.run] call, not the optimization before it)
     over 25 runs after 5 warm-ups *)
  let measure kind qu =
    let exec_seconds () = (W.Runner.run env kind qu).W.Runner.wall_seconds in
    for _ = 1 to 5 do
      ignore (exec_seconds ())
    done;
    median (List.init 25 (fun _ -> exec_seconds ()))
  in
  let results =
    List.map
      (fun qu ->
        let off = measure W.Runner.Orca_no_selection qu in
        let on_ = measure W.Runner.Orca qu in
        (qu, off, on_, 100.0 *. (1.0 -. (on_ /. off))))
      W.Queries.all
  in
  (* the paper orders queries by (unselected) runtime and buckets them *)
  let sorted = List.sort (fun (_, a, _, _) (_, b, _, _) -> Float.compare a b)
      results in
  let n = List.length sorted in
  Printf.printf "%-28s %-12s %-12s %-12s %s\n" "query" "off (ms)" "on (ms)"
    "improvement" "block";
  List.iteri
    (fun i (qu, off, on_, imp) ->
      let block =
        if i < n / 3 then "short-running"
        else if i < 2 * n / 3 then "medium"
        else "long-running"
      in
      Printf.printf "%-28s %-12.2f %-12.2f %+10.1f%%  %s\n"
        qu.W.Queries.name (off *. 1000.) (on_ *. 1000.) imp block)
    sorted;
  let improved =
    List.filter (fun (_, _, _, imp) -> imp > 0.0) results |> List.length
  in
  let above50 =
    List.filter (fun (_, _, _, imp) -> imp >= 50.0) results |> List.length
  in
  let above70 =
    List.filter (fun (_, _, _, imp) -> imp >= 70.0) results |> List.length
  in
  Printf.printf
    "\nsummary: %d/%d queries improved; %d/%d improved >= 50%% (paper: more \
     than half); %d/%d improved >= 70%% (paper: over 25%%)\n"
    improved n above50 n above70 n;
  record "fig17"
    (Json.Obj
       [ ("queries",
          Json.List
            (List.map
               (fun (qu, off, on_, imp) ->
                 Json.Obj
                   [ ("query", Json.String qu.W.Queries.name);
                     ("off_ms", Json.Float (off *. 1000.0));
                     ("on_ms", Json.Float (on_ *. 1000.0));
                     ("improvement_pct", Json.Float imp) ])
               sorted));
         ("improved", Json.Int improved);
         ("above_50pct", Json.Int above50);
         ("above_70pct", Json.Int above70);
         ("total", Json.Int n) ])
