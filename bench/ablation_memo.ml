(** Ablation: memo property enforcement. *)

open Harness

let run ~smoke:_ =
  header "Ablation: memo plan space for R join S (paper Figure 13/14)";
  let catalog = make_rs ~nparts:10 () in
  let r = Cat.find catalog "r" and s = Cat.find catalog "s" in
  let lg =
    Orca.Logical.join
      (Expr.eq
         (Expr.col (Table.colref r ~rel:0 "b"))
         (Expr.col (Table.colref s ~rel:1 "a")))
      (Orca.Logical.get ~rel:0 "r")
      (Orca.Logical.get ~rel:1 "s")
  in
  let alts = Orca.Memo.plan_space ~catalog ~limit:16 lg in
  Printf.printf "%d valid plan alternatives enumerated\n" (List.length alts);
  let with_dpe =
    List.filter
      (fun p ->
        Plan.fold
          (fun acc n ->
            acc
            || match n with
               | Plan.Partition_selector { predicates; child = Some _; _ } ->
                   List.exists Option.is_some predicates
               | _ -> false)
          false p)
      alts
  in
  Printf.printf
    "%d of them perform join-driven partition selection (the paper's Plan 4)\n"
    (List.length with_dpe);
  let best_cost =
    match Orca.Memo.best_plan ~catalog lg with
    | Some (plan, cost) ->
        Printf.printf "best plan (cost %.1f):\n%s\n" cost (Plan.to_string plan);
        Json.Float cost
    | None ->
        print_endline "no plan found";
        Json.Null
  in
  record "ablation_memo"
    (Json.Obj
       [ ("alternatives", Json.Int (List.length alts));
         ("with_dpe", Json.Int (List.length with_dpe));
         ("best_cost", best_cost) ]);
  match with_dpe with
  | p :: _ ->
      Printf.printf "example partition-selecting plan:\n%s\n" (Plan.to_string p)
  | [] -> ()
