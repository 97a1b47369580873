(** Figure 18: plan size against the fraction of partitions selected and
    against the partition count, Planner against Orca. *)

open Harness

(* One panel: for each point, plan the query [at point] returns (its
   catalog and SQL) with both optimizers, costed for the four segments
   every figure's cluster has, and record both plan sizes. *)
let sweep ~name ~title ~label ~key points at =
  header title;
  Printf.printf "%-12s %-14s %-14s\n" label "Planner (KB)" "Orca (KB)";
  let rows =
    List.map
      (fun point ->
        let catalog, sql = at point in
        let lg = Mpp_sql.Sql.to_logical catalog sql in
        let kb kind =
          Mpp_plan.Plan_size.kilobytes ~catalog
            (W.Runner.optimize_logical ~catalog ~nsegments:4 kind lg)
        in
        let pkb = kb W.Runner.Legacy_planner in
        let okb = kb W.Runner.Orca in
        Printf.printf "%-12d %-14.1f %-14.1f\n" point pkb okb;
        Json.Obj
          [ (key, Json.Int point);
            ("planner_kb", Json.Float pkb);
            ("orca_kb", Json.Float okb) ])
      points
  in
  record name (Json.List rows)

(* 18(a): static elimination — plan size vs % of partitions selected. *)
let run_a ~smoke:_ =
  let catalog = Cat.create () in
  let storage = Storage.create ~nsegments:4 in
  let _ = W.Tpch.setup ~catalog ~storage ~scenario:W.Tpch.Parts_84 ~rows:0 in
  sweep ~name:"fig18a"
    ~title:
      "Figure 18(a): plan size vs % of partitions scanned (static elimination)"
    ~label:"% parts" ~key:"pct_parts" [ 1; 25; 50; 75; 100 ] (fun pct ->
      (* cutoff date selecting the first [nparts] monthly partitions *)
      let nparts = max 1 (84 * pct / 100) in
      let cutoff = Date.add_months (Date.of_ymd 1992 1 1) nparts in
      ( catalog,
        Printf.sprintf "SELECT * FROM lineitem WHERE l_shipdate < '%s'"
          (Date.to_string cutoff) ))

(* 18(b) and 18(c): plan size vs partition count of R and S. *)
let rs_sweep ~name ~title sql =
  sweep ~name ~title ~label:"#parts" ~key:"nparts"
    [ 50; 100; 150; 200; 250; 300 ]
    (fun nparts -> (make_rs ~nparts (), sql))

let run_b ~smoke:_ =
  rs_sweep ~name:"fig18b"
    ~title:
      "Figure 18(b): plan size vs #partitions (join with dynamic elimination)"
    "SELECT * FROM r, s WHERE r.b = s.b AND s.a < 100"

let run_c ~smoke:_ =
  rs_sweep ~name:"fig18c"
    ~title:
      "Figure 18(c): plan size vs #partitions (DML over partitioned tables)"
    "UPDATE r SET b = s.b FROM s WHERE r.a = s.a"
