(** Memo exploration — the paper's §3.1, Figures 13 and 14.

    For [SELECT * FROM R, S WHERE R.pk = S.a] (R partitioned and hash
    distributed, S hash distributed) the Cascades-style memo — the same one
    that plans every join in production — enumerates the plan space under
    its distribution and partition-propagation properties and picks the
    cheapest valid plan; {!Orca.Placement} writes the selectors.  Only the
    alternatives with S on the build side, beneath a PartitionSelector,
    perform partition selection — the paper's Plan 4.

    Run with: [dune exec examples/memo_explore.exe] *)

open Mpp_expr
module Cat = Mpp_catalog.Catalog
module Part = Mpp_catalog.Partition
module Dist = Mpp_catalog.Distribution
module Plan = Mpp_plan.Plan

let () =
  let catalog = Cat.create () in
  let partitioning =
    Part.single_level
      ~alloc_oid:(fun () -> Cat.alloc_oid catalog)
      ~key_index:0 ~key_name:"pk" ~scheme:Part.Range ~table_name:"r"
      (Part.int_ranges ~start:0 ~width:10 ~count:100)
  in
  let r =
    Cat.add_table catalog ~name:"r"
      ~columns:[ ("pk", Value.Tint); ("x", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ]) ~partitioning ()
  in
  let s =
    Cat.add_table catalog ~name:"s"
      ~columns:[ ("a", Value.Tint); ("b", Value.Tint) ]
      ~distribution:(Dist.Hashed [ 0 ]) ()
  in
  let logical =
    Orca.Logical.join
      (Expr.eq
         (Expr.col (Mpp_catalog.Table.colref r ~rel:0 "pk"))
         (Expr.col (Mpp_catalog.Table.colref s ~rel:1 "a")))
      (Orca.Logical.get ~rel:0 "r")
      (Orca.Logical.get ~rel:1 "s")
  in
  print_endline "SELECT * FROM R, S WHERE R.pk = S.a   (R partitioned on pk)";
  print_endline "";

  (* ---- the plan space (Figure 14) ------------------------------------ *)
  let alternatives = Orca.Memo.plan_space ~catalog ~limit:12 logical in
  Printf.printf "the memo enumerates %d valid plan shapes, e.g.:\n\n"
    (List.length alternatives);
  List.iteri
    (fun i plan ->
      let selects =
        Plan.fold
          (fun acc n ->
            acc
            ||
            match n with
            | Plan.Partition_selector { predicates; child = Some _; _ } ->
                List.exists Option.is_some predicates
            | _ -> false)
          false plan
      in
      if i < 4 then
        Printf.printf "Plan %d%s:\n%s\n" (i + 1)
          (if selects then "  <- performs partition selection (paper Plan 4)"
           else "")
          (Plan.to_string plan))
    alternatives;

  (* ---- the best plan -------------------------------------------------- *)
  match Orca.Memo.best_plan ~catalog logical with
  | Some (plan, cost) ->
      Printf.printf "best plan (cost %.0f):\n%s\n" cost (Plan.to_string plan);
      Printf.printf "valid per the Motion/selector rule of Section 3.1: %b\n"
        (Mpp_verify.Verify.check_pass ~catalog Mpp_verify.Diag.Structure plan
         = [])
  | None -> print_endline "no plan found"
