(** Ablation: partition-wise joins (paper §5 related work). *)

open Harness

(* The alternative the paper contrasts with (Herodotou et al., Oracle):
   expand a key-to-key join of identically partitioned tables into an
   Append of per-partition joins.  Execution is competitive — but plan size
   grows linearly with the partition count again, the exact property the
   DynamicScan representation was designed to avoid. *)
let run ~smoke:_ =
  header
    "Ablation: partition-wise join (related-work alternative, paper Sec. 5)";
  Printf.printf "%-10s %-16s %-16s %-14s %-14s\n" "#parts" "DynScan (KB)"
    "PartWise (KB)" "DynScan ms" "PartWise ms";
  List.iter
    (fun nparts ->
      let catalog = make_rs ~hash_on_key:true ~nparts () in
      let storage = Storage.create ~nsegments:4 in
      let r = Cat.find catalog "r" and s = Cat.find catalog "s" in
      let rng = W.Rng.create () in
      let rows =
        List.init 20_000 (fun i ->
            let b = W.Rng.int rng (nparts * 100) in
            ( [| Value.Int i; Value.Int b |],
              [| Value.Int (W.Rng.int rng 20_000); Value.Int b |] ))
      in
      Storage.load storage r (List.map fst rows);
      Storage.load storage s (List.map snd rows);
      let lg =
        Mpp_sql.Sql.to_logical catalog
          "SELECT count(*) FROM r, s WHERE r.b = s.b AND s.a < 1000"
      in
      let dyn =
        W.Runner.optimize_logical ~catalog
          ~nsegments:(Storage.nsegments storage) W.Runner.Orca lg
      in
      let pwj =
        let config =
          { Orca.Optimizer.default_config with
            enable_partition_wise_join = true }
        in
        Orca.Optimizer.optimize (Orca.Optimizer.create ~config ~catalog ()) lg
      in
      let time plan =
        let run () = Mpp_exec.Exec.run ~catalog ~storage plan in
        1000.0 *. minimum (samples 5 run)
      in
      let r1, _ = Mpp_exec.Exec.run ~catalog ~storage dyn in
      let r2, _ = Mpp_exec.Exec.run ~catalog ~storage pwj in
      assert (r1 = r2);
      let dkb = Mpp_plan.Plan_size.kilobytes ~catalog dyn
      and pkb = Mpp_plan.Plan_size.kilobytes ~catalog pwj
      and dms = time dyn
      and pms = time pwj in
      Printf.printf "%-10d %-16.1f %-16.1f %-14.2f %-14.2f\n" nparts dkb pkb
        dms pms;
      record
        (Printf.sprintf "ablation_pwj_%d" nparts)
        (Json.Obj
           [ ("nparts", Json.Int nparts);
             ("dynscan_kb", Json.Float dkb);
             ("partwise_kb", Json.Float pkb);
             ("dynscan_ms", Json.Float dms);
             ("partwise_ms", Json.Float pms) ]))
    [ 25; 50; 100; 200 ]
