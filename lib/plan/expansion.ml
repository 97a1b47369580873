(** The legacy Planner's Append expansion — see [expansion.mli]. *)

open Mpp_expr
module Catalog = Mpp_catalog.Catalog
module Table = Mpp_catalog.Table
module Partition = Mpp_catalog.Partition

type t = {
  rel : int;
  table : Table.t;
  part : Partition.t;
  leaves : Partition.leaf list;
  filter : Expr.t option;
  guard : int option;
}

let keys x = Table.part_key_colrefs x.table ~rel:x.rel

let to_plan x =
  let scan ?filter (lf : Partition.leaf) =
    Plan.table_scan ?filter ?guard:x.guard ~rel:x.rel lf.leaf_oid
  in
  match x.leaves with
  | [] -> Plan.Append [ scan ~filter:Expr.false_ x.part.leaves.(0) ]
  | leaves -> Plan.Append (List.map (scan ?filter:x.filter) leaves)

let dead = function
  | Plan.Table_scan { filter = Some f; _ } -> Expr.equal f Expr.false_
  | _ -> false

let same_filter a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> a == b || Expr.equal a b
  | _ -> false

exception Not_expansion

let of_append catalog (p : Plan.t) =
  match p with
  | Plan.Append (Plan.Table_scan { rel; table_oid; guard; _ } :: _ as cs) -> (
      match Catalog.find_oid_opt catalog (Catalog.root_of catalog table_oid) with
      | Some ({ partitioning = Some part; _ } as table) -> (
          (* the first live child's filter, once one is seen *)
          let shared = ref None in
          let live (c : Plan.t) =
            match c with
            | Plan.Table_scan { rel = r; table_oid; filter; guard = g }
              when r = rel && g = guard -> (
                match Partition.find_leaf part table_oid with
                | None -> raise Not_expansion
                | Some _ when dead c -> None
                | Some lf -> (
                    match !shared with
                    | None ->
                        shared := Some filter;
                        Some lf
                    | Some f when same_filter f filter -> Some lf
                    | Some _ -> raise Not_expansion))
            | _ -> raise Not_expansion
          in
          match List.filter_map live cs with
          | leaves ->
              Some
                {
                  rel;
                  table;
                  part;
                  leaves;
                  filter = Option.join !shared;
                  guard;
                }
          | exception Not_expansion -> None)
      | _ -> None)
  | _ -> None

let select x pred =
  let keys = keys x in
  Partition.select_static x.part ~keys (List.map (fun _ -> Some pred) keys)

let exclude x pred =
  match select x pred with
  | None -> x
  | Some bits ->
      let survives (lf : Partition.leaf) =
        Partition.mem_oid x.part bits lf.leaf_oid
      in
      { x with leaves = List.filter survives x.leaves }
