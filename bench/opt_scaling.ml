(** Optimize-time scaling: big-join graphs. *)

open Harness

(* How optimize time grows with relation count on generated star/chain/
   clique graphs.  Each point times [reps] optimizes, and [reps] traced
   ones give [join_reorder_ms], the time of the [optimize.join_reorder]
   span (the join-order search and the region rebuild); both cells report
   their median and their interquartile range ([_iqr_ms]), so one run
   shows how far a cell wobbles.  [joinorder_states] is the search's kept
   states summed over its levels: a count that moves only when the beam
   or the search space changes, which check-regression pins for the smoke
   graphs (14 relations is past the point where the beam binds).
   [~smoke] runs small graphs and checks the schema only. *)
let run ~smoke =
  header
    (if smoke then "Bench: optimize-time scaling (smoke mode, tiny graphs)"
     else "Bench: optimize-time scaling on big-join graphs");
  let shapes =
    [ (W.Biggen.Star, "star"); (W.Biggen.Chain, "chain");
      (W.Biggen.Clique, "clique") ]
  in
  let sizes = if smoke then [ 5; 8; 14 ] else [ 5; 10; 20; 30 ] in
  let reps = if smoke then 1 else 5 in
  let optimize_once benv =
    W.Runner.optimize_logical ~stats:benv.W.Biggen.stats
      ~catalog:benv.W.Biggen.catalog
      ~nsegments:(Storage.nsegments benv.W.Biggen.storage) W.Runner.Orca
      benv.W.Biggen.logical
  in
  (* the warm-up call warms the stats caches *)
  let timed benv =
    List.map (( *. ) 1000.0) (samples reps (fun () -> optimize_once benv))
  in
  let traced benv =
    let sink = Obs.create () in
    Obs.install sink;
    Fun.protect ~finally:Obs.uninstall (fun () -> ignore (optimize_once benv));
    let reorder_ms =
      match Obs.find_span sink "optimize.join_reorder" with
      | Some sp -> sp.Obs.span_elapsed *. 1000.0
      | None -> failwith "opt_scaling: no optimize.join_reorder span"
    in
    (reorder_ms, Obs.counter sink "joinorder.states")
  in
  Printf.printf "%-10s %6s %13s %8s %13s %8s %8s\n" "shape" "#rels"
    "optimize (ms)" "IQR" "reorder (ms)" "IQR" "states";
  let points =
    List.concat_map
      (fun (shape, sname) ->
        List.map
          (fun nrels ->
            let benv = W.Biggen.generate { W.Biggen.shape; nrels; seed = 1 } in
            let ms = timed benv in
            let traces = List.init reps (fun _ -> traced benv) in
            let reorder_ms = List.map fst traces and st = snd (List.hd traces) in
            Printf.printf "%-10s %6d %13.2f %8.2f %13.2f %8.2f %8d\n" sname
              nrels (median ms) (iqr ms) (median reorder_ms) (iqr reorder_ms)
              st;
            Json.Obj
              [ ("shape", Json.String sname);
                ("nrels", Json.Int nrels);
                ("optimize_ms", Json.Float (median ms));
                ("optimize_iqr_ms", Json.Float (iqr ms));
                ("join_reorder_ms", Json.Float (median reorder_ms));
                ("join_reorder_iqr_ms", Json.Float (iqr reorder_ms));
                ("joinorder_states", Json.Int st) ])
          sizes)
      shapes
  in
  record "opt_scaling"
    (Json.Obj
       [ ("smoke", Json.Bool smoke);
         ("reps", Json.Int reps);
         ("points", Json.List points) ]);
  if smoke then begin
    List.iter
      (fun p ->
        List.iter
          (fun name ->
            match field ~what:"opt_scaling" p name with
            | Json.Float ms when ms >= 0.0 -> ()
            | _ -> failwith ("opt_scaling smoke: " ^ name ^ " not a duration"))
          [ "optimize_ms"; "optimize_iqr_ms"; "join_reorder_ms";
            "join_reorder_iqr_ms" ])
      points;
    print_endline "smoke OK: opt_scaling schema valid"
  end
